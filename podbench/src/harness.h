/// @file
/// Shared machinery of the workloads: pod and heap construction, sessions
/// and their crash/adopt cycle, correctness sweeps, and the bookkeeping
/// that turns a trial into a TrialResult.

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cxlalloc/pod_shard.h"
#include "ledger.h"
#include "lowest_clock.h"
#include "pod/pod.h"
#include "trace.h"
#include "workloads.h"

namespace podbench {

/// Pod and heap shape of a workload.
struct RigSpec {
    pod::Topology topology;
    cxlalloc::Config shard;
    std::optional<cxlalloc::Config> dram;
    cxl::CoherenceMode coherence = cxl::CoherenceMode::PartialHwcc;
    cxl::LatencyModel latency;
    bool checked_mappings = false;
    std::uint64_t extra_window_bytes = 0;
};

/// One simulated thread: a pod::ThreadContext and its MemSession. A crash
/// replaces the context; the session's modeled clock and counters carry
/// over to the adopting context.
struct Session {
    std::unique_ptr<pod::ThreadContext> ctx;
    pod::HostId host = 0;
    /// Counters of contexts this session lost to crashes.
    cxl::MemEventCounters retired{};
    std::uint64_t retired_evictions = 0;

    cxl::MemSession& mem() { return ctx->mem(); }
    std::uint64_t clock() const { return ctx->mem().sim_ns(); }
};

/// Event counters of @p c plus @p evictions, as Modeled::mem fields.
std::array<std::uint64_t, kMemFields>
mem_fields(const cxl::MemEventCounters& c, std::uint64_t evictions);

class Harness {
  public:
    Harness(const TrialConfig& config, TrialResult& out);
    ~Harness();

    Harness(const Harness&) = delete;
    Harness& operator=(const Harness&) = delete;

    /// Builds pod, heap, per-host processes and the checker session.
    /// Times setup.pod_s and setup.heap_s.
    void build(const RigSpec& spec);

    pod::Pod& pod() { return *pod_; }
    cxlalloc::PodShardedAllocator& heap() { return *heap_; }
    TracedAllocator& alloc() { return *alloc_; }
    BlockLedger& ledger() { return *ledger_; }
    Tracer& tracer() { return out_.tracer; }

    /// A session of the verification thread (own unchecked process on host
    /// 0, outside the pod's process list). Its clock is not part of any
    /// result.
    cxl::MemSession& checker() { return checker_->mem(); }

    /// Adds a session on @p host (timed into setup.heap_s). Sessions are
    /// indexed in creation order; the first @p workers of them (see
    /// end_measure) are the workers whose clocks set sim_mops.
    Session& add_session(pod::HostId host);
    Session& session(std::uint32_t index) { return *sessions_[index]; }

    void begin_preload();
    /// Ends the preload and zeroes every session's modeled accounting.
    void end_preload();

    /// Starts the measured phase (and the tracer, sized for @p spans).
    void begin_measure(std::size_t spans);
    /// Ends it: @p ops operations, sim_mops over the first @p workers
    /// sessions' clocks.
    void end_measure(std::uint64_t ops, std::uint32_t workers);

    /// Runs @p fn with its host time excluded from the measured phase.
    void exclude(const std::function<void()>& fn);

    /// Records a correctness failure (counted in Modeled::failed).
    void fail(const std::string& what);

    /// One measured operation's modeled latency. Every kSpaceEvery
    /// operations the heap's footprint is sampled for space_amp, and every
    /// kWindowOps operations a host-time window closes.
    void record_op(std::uint64_t sim_ns);

    /// Heap invariants plus the ledger-vs-heap comparison, host time
    /// excluded.
    void sweep(const char* where);

    /// Crashes @p s's context (process crash) and adopts its slot on the
    /// same host. The caller runs recovery next and passes its modeled
    /// cost to record_recover().
    void crash_and_adopt(Session& s);
    void record_recover(std::uint64_t sim_ns) { recover_ns_.push_back(sim_ns); }

    /// Restart probe, run after the measured phase: the workload keeps
    /// running (@p step runs one unrecorded op of session w), and every
    /// kRestartEvery ops the session due next is killed between
    /// operations, adopted and recovered by @p recover (which records the
    /// recovery.recover span), @p restarts times. The heap is checked
    /// after each recovery.
    void restart_probe(std::uint32_t restarts, LowestClockScheduler& sched,
                       const std::function<void(std::uint32_t)>& step,
                       const std::function<void(pod::ThreadContext&)>&
                           recover);
    static constexpr std::uint32_t kRestartEvery = 16;

    /// Computes percentiles, per-layer metrics and the span accounting
    /// check into the TrialResult.
    void finish();

  private:
    using Clock = std::chrono::steady_clock;

    /// Per-layer metrics and the span accounting check of a traced trial.
    void layer_metrics(std::uint64_t sessions_sim);

    const TrialConfig& config_;
    TrialResult& out_;
    cxl::LatencyModel latency_;
    std::unique_ptr<pod::Pod> pod_;
    std::unique_ptr<cxlalloc::PodShardedAllocator> heap_;
    std::unique_ptr<BlockLedger> ledger_;
    std::unique_ptr<TracedAllocator> alloc_;
    std::vector<pod::Process*> host_process_;
    std::unique_ptr<pod::Process> checker_process_;
    std::unique_ptr<pod::ThreadContext> checker_;
    std::vector<std::unique_ptr<Session>> sessions_;

    Clock::time_point phase_start_{};
    double excluded_s_ = 0;
    Clock::time_point window_start_{};
    double window_excluded_s_ = 0;
    bool measuring_ = false;
    std::uint64_t check_failures_ = 0;
    std::vector<std::uint64_t> op_ns_;
    std::vector<std::uint64_t> recover_ns_;
    /// Σ session counters at the end of the measured phase (per-op
    /// per-layer metrics use these).
    cxl::MemEventCounters measured_mem_{};
    std::uint64_t measured_evictions_ = 0;
    std::uint64_t measured_steals_ = 0;
};

} // namespace podbench
