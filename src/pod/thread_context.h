/// @file
/// Per-thread execution context: pod-global thread slot, memory session,
/// and crash injection (paper §5.1's black-box/white-box recovery tests).

#pragma once

#include <cstdint>
#include <optional>

#include "common/points.h"
#include "common/random.h"
#include "cxl/mem_ops.h"
#include "cxl/types.h"
#include "sched/hook.h"

namespace pod {

class Process;

/// Thrown to simulate a thread crash (e.g. the OS OOM killer) at an
/// arbitrary point inside an allocator operation. The harness catches it
/// and leaves all shared state — including unflushed cache contents —
/// exactly as the dead thread left it.
struct ThreadCrashed {
    int point;
};

// Crash point ids and their names live in common/points.h; layers
// register their points there (PointKind::Crash) so sweeps and tools can
// iterate them by name instead of magic numbers.

/// A thread attached to a process. Create via Pod::create_thread (fresh
/// slot) or Pod::adopt_thread (recovery of a crashed slot).
class ThreadContext {
  public:
    ThreadContext(Process* process, cxl::ThreadId tid);

    ThreadContext(const ThreadContext&) = delete;
    ThreadContext& operator=(const ThreadContext&) = delete;

    cxl::ThreadId tid() const { return tid_; }
    Process& process() { return *process_; }
    cxl::MemSession& mem() { return mem_; }

    /// Arms a deterministic (white-box) crash: the @p countdown-th time
    /// execution reaches @p point, ThreadCrashed is thrown.
    void
    arm_crash(cxlcommon::PointId point, std::uint32_t countdown = 1)
    {
        armed_point_ = point;
        countdown_ = countdown;
    }

    /// Arms random (black-box) crashes: each crash point fires with
    /// probability @p prob.
    void
    arm_random_crash(std::uint64_t seed, double prob)
    {
        random_prob_ = prob;
        crash_rng_.emplace(seed);
    }

    void
    disarm_crash()
    {
        armed_point_ = -1;
        random_prob_ = 0;
        crash_rng_.reset();
    }

    /// Instrumentation hook placed at every recoverable step boundary in
    /// the allocator. Throws ThreadCrashed when an armed crash fires.
    void
    maybe_crash(cxlcommon::PointId point)
    {
        sched::hook(sched::Op::CrashPoint, 0, static_cast<std::uint64_t>(point));
        if (point == armed_point_ && --countdown_ == 0) {
            armed_point_ = -1;
            throw ThreadCrashed{point};
        }
        if (random_prob_ > 0 && crash_rng_ &&
            crash_rng_->next_double() < random_prob_) {
            throw ThreadCrashed{point};
        }
    }

  private:
    Process* process_;
    cxl::ThreadId tid_;
    cxl::MemSession mem_;

    cxlcommon::PointId armed_point_ = -1;
    std::uint32_t countdown_ = 0;
    double random_prob_ = 0;
    std::optional<cxlcommon::Xoshiro> crash_rng_;
};

} // namespace pod
