/// @file
/// Per-thread-sharded metrics registry: the repo's observability substrate.
///
/// Names (counters, gauges, histograms, trace op labels) are interned once
/// under a mutex; the returned MetricId then indexes plain arrays inside a
/// per-thread MetricsShard, so the hot path is an unsynchronized relaxed
/// add/record with no cache-line sharing between threads. Shards are keyed
/// by the pod-global ThreadId (1..160, shard 0 serves process-level code),
/// matching cxl::kMaxThreads without depending on the cxl layer.
///
/// snapshot() merges every live shard into a plain MetricsSnapshot that
/// can itself be merged, absorbed into another registry under a name
/// prefix, or exported as JSON/CSV (obs/export.h).

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"
#include "obs/trace_ring.h"

namespace obs {

using MetricId = std::uint32_t;
inline constexpr MetricId kInvalidMetric = ~MetricId{0};

/// Shard 0 is process-level; 1..kMaxShards-1 mirror pod thread ids.
/// Capacities cover the pod-topology metrics of the shipped presets:
/// per-edge counters (ops + ns per (host, device) pair, 16x4 edges) and
/// per-edge latency histograms. Shards are allocated lazily, so unused
/// capacity costs nothing until a thread id publishes.
///
/// A full table never aborts: the name is dropped, counted in the
/// `obs.dropped_metrics` counter, and gets the kind's *discard* id (one
/// past the last real slot) whose updates land in a sink no snapshot
/// reads. A dense 16x16 pod's per-edge metrics overflow this way.
inline constexpr std::uint32_t kMaxShards = 161;
inline constexpr std::uint32_t kMaxCounters = 320;
inline constexpr std::uint32_t kMaxGauges = 128;
inline constexpr std::uint32_t kMaxHistograms = 96;

/// One thread's unsynchronized metric storage. Writers: the owning thread.
/// Readers: any thread, via the registry snapshot (relaxed atomics).
class MetricsShard {
  public:
    void
    add(MetricId counter, std::uint64_t delta = 1)
    {
        counters_[counter].fetch_add(delta, std::memory_order_relaxed);
    }

    void
    record(MetricId histogram, std::uint64_t value)
    {
        histograms_[histogram].record(value);
    }

    TraceRing& trace() { return trace_; }

  private:
    friend class MetricsRegistry;

    // One extra slot each: the discard sink for dropped names.
    std::array<std::atomic<std::uint64_t>, kMaxCounters + 1> counters_{};
    std::array<Histogram, kMaxHistograms + 1> histograms_{};
    TraceRing trace_;
};

/// A trace event with its op label resolved.
struct NamedTraceEvent {
    std::string op;
    std::uint32_t shard = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint64_t arg = 0;
};

/// Plain, mergeable view of a registry at one instant.
struct MetricsSnapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram>> histograms;
    std::vector<NamedTraceEvent> trace;

    /// Counter value by name; 0 if never registered.
    std::uint64_t counter(std::string_view name) const;

    /// Gauge value by name; 0 if never registered.
    double gauge(std::string_view name) const;

    /// Histogram by name; nullptr if never registered.
    const Histogram* histogram(std::string_view name) const;

    /// Adds @p other into this snapshot, matching metrics by name.
    void merge(const MetricsSnapshot& other);
};

class MetricsRegistry {
  public:
    MetricsRegistry() = default;
    ~MetricsRegistry();
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// Interns @p name (idempotent) and returns its id. If the
    /// fixed-capacity table for that metric kind is full, the name is
    /// dropped and the kind's discard id returned (see kMaxCounters).
    MetricId counter(std::string_view name);
    MetricId gauge(std::string_view name);
    MetricId histogram(std::string_view name);
    /// Trace op labels share the interning machinery but have no storage.
    MetricId op(std::string_view name);

    /// The shard for @p shard_id (created on first use, then lock-free).
    MetricsShard& shard(std::uint32_t shard_id);

    /// Gauges are registry-level (a "current value" has no meaningful
    /// per-shard merge); set is a relaxed store.
    void set_gauge(MetricId id, double value);

    /// Convenience: counter add on the process-level shard 0.
    void add(MetricId counter, std::uint64_t delta = 1) { shard(0).add(counter, delta); }

    /// Merges all shards into a plain snapshot. Safe concurrently with
    /// writers (counter/histogram reads are relaxed-atomic; the trace ring
    /// is best-effort).
    MetricsSnapshot snapshot() const;

    /// Adds @p snap's metrics into shard 0, interning each name with
    /// @p prefix prepended. Lets a scoped registry (one bench series) be
    /// folded into a process-wide one.
    void absorb(const MetricsSnapshot& snap, std::string_view prefix = {});

    /// Zeroes all shards' values; keeps interned names and ids valid.
    void reset();

    /// Process-wide registry used by the bench harness.
    static MetricsRegistry& global();

  private:
    MetricId intern(std::vector<std::string>& names, std::size_t cap,
                    std::string_view name, const char* kind);

    mutable std::mutex mu_;
    std::vector<std::string> counter_names_;
    std::vector<std::string> gauge_names_;
    std::vector<std::string> histogram_names_;
    std::vector<std::string> op_names_;
    /// Distinct "kind:name" pairs refused by a full table; their count
    /// is `obs.dropped_metrics`.
    std::set<std::string> dropped_;
    std::array<std::atomic<double>, kMaxGauges + 1> gauge_values_{};
    std::array<std::atomic<MetricsShard*>, kMaxShards> shards_{};
};

} // namespace obs
