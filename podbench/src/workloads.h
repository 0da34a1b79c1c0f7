/// @file
/// The benchmark's workloads and what one trial of each reports.
///
/// A trial builds a fresh pod and heap, preloads it, runs a fixed number
/// of operations from one OS thread under the lowest-clock-first
/// scheduler, checks the outputs, and tears everything down. Its modeled
/// results depend only on binary, seed and workload; its host times are
/// measured.

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "trace.h"

namespace podbench {

enum class Workload : std::uint8_t { KvPod, ChurnMcas, TieredShift };

const char* workload_name(Workload workload);
std::optional<Workload> parse_workload(const std::string& name);

struct TrialConfig {
    Workload workload = Workload::KvPod;
    std::uint64_t seed = 1;
    bool trace = false;
    /// Multiplies the measured op count (tests run small trials).
    double scale = 1.0;
    /// Stop after the preload: a set-up probe, which only times set-up.
    bool setup_only = false;
};

/// Number of MemSession event counters carried in Modeled::mem (every
/// cxl::MemEventCounters field plus ThreadCache evictions).
inline constexpr std::size_t kMemFields = 20;

/// space_amp samples the heap every this many measured operations.
inline constexpr std::uint64_t kSpaceEvery = 1'024;

/// Measured operations per host-time window (see TrialResult::window_ns).
inline constexpr std::uint64_t kWindowOps = 8'192;

/// End-to-end modeled results of a trial: bit-identical for a seed.
struct Modeled {
    std::uint64_t ops = 0;    ///< measured operations
    std::uint64_t failed = 0; ///< failed ops and failed checks
    std::uint64_t max_worker_sim_ns = 0;
    /// Per-op modeled latency: mean, mean of the slowest 0.1 % (the tail
    /// beyond p99.9), and the percentiles the summary prints.
    std::uint64_t op_samples = 0;
    double op_mean_ns = 0;
    double op_tail999_ns = 0;
    double op_p50_ns = 0;
    double op_p999_ns = 0;
    /// Modeled recovery time, adoption to the end of recover().
    std::uint64_t recover_samples = 0;
    double recover_mean_ns = 0;
    double recover_p50_ns = 0;
    /// Committed device bytes and live payload bytes, each summed over
    /// the measured phase's samples (one every kSpaceEvery operations).
    std::uint64_t committed_bytes = 0;
    std::uint64_t live_payload_bytes = 0;
    std::uint64_t hwcc_bytes = 0;
    /// Σ over the workload's sessions, whole trial.
    std::array<std::uint64_t, kMemFields> mem{};

    /// ops / largest worker clock, in Mops/s of modeled time.
    double sim_mops() const;
    /// (committed device bytes + host metadata) / live payload bytes,
    /// averaged over the measured phase.
    double space_amp() const;

    bool operator==(const Modeled&) const = default;
};

struct TrialResult {
    Modeled modeled;
    /// Per-layer metrics of a traced trial, keyed as in
    /// per_layer_metrics() (setup.* and obs.* are filled by the caller).
    std::map<std::string, double> layer;
    double setup_pod_s = 0;
    double setup_heap_s = 0;
    double setup_preload_s = 0;
    /// Host seconds of the measured phase, correctness sweeps excluded.
    double run_s = 0;
    /// Host ns of each run of kWindowOps consecutive measured operations,
    /// correctness sweeps excluded.
    std::vector<std::uint64_t> window_ns;
    /// Human-readable notes (live-set band, sample counts).
    std::vector<std::string> notes;
    /// Correctness failures; any entry fails the run.
    std::vector<std::string> errors;
    Tracer tracer{false};

    double setup_s() const
    {
        return setup_pod_s + setup_heap_s + setup_preload_s;
    }
};

/// Runs one trial of @p config.workload.
TrialResult run_trial(const TrialConfig& config);

} // namespace podbench
