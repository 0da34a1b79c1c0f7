/// @file
/// Percentile rule, metric tables and the result line.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace podbench {

/// A percentile is reported only if at least this many samples lie
/// beyond it.
inline constexpr std::uint64_t kMinBeyond = 10;

/// Nearest-rank percentile @p per_10k / 10000 of @p samples (reordered in
/// place). Empty when fewer than kMinBeyond samples lie beyond the rank.
std::optional<double> percentile(std::vector<std::uint64_t>& samples,
                                 std::uint32_t per_10k);

/// Mean of the samples beyond the nearest rank of percentile @p per_10k
/// (the tail a percentile leaves out), under the same rule: empty when
/// fewer than kMinBeyond samples lie beyond. Reorders @p samples.
std::optional<double> tail_mean(std::vector<std::uint64_t>& samples,
                                std::uint32_t per_10k);

/// Arithmetic mean; 0 for no samples.
double mean_of(const std::vector<std::uint64_t>& samples);

/// Samples beyond the nearest rank of percentile @p per_10k among @p n.
std::uint64_t samples_beyond(std::uint64_t n, std::uint32_t per_10k);

/// The highest of p50, p90, p99, p99.9 and p99.99 (in 1/10000) that @p n
/// samples can report; 0 if none.
std::uint32_t highest_reportable(std::uint64_t n);

/// Median of @p values (mean of the middle two for even counts).
double median(std::vector<double> values);


/// One reported metric.
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// Names and units of the per-layer metrics, in report order. A traced run
/// reports every one of them on every workload (0 where the layer is idle).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// True for per-layer metrics measured in host time (the rest are modeled
/// values or counts and must repeat exactly for a seed).
bool is_host_metric(const std::string& name);

/// Formats the result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

} // namespace podbench
