/// @file
/// Deterministic pod fault injection: declarative FaultPlans (edge-down,
/// edge-flap, NMP doorbell stall/delay, host-kill) driven by a step clock.
///
/// Where crash points name the *protocol* points a thread can die at,
/// fault points (PointKind::Fault in common/points.h) name the
/// *infrastructure* faults the pod must survive: link health transitions,
/// engine stalls, whole-host deaths. Sweep tests iterate
/// PointRegistry::all(PointKind::Fault) and inject every point
/// mid-workload (FaultPlan::for_point), asserting the accounting oracles
/// hold after recovery — exactly the discipline the crash point sweeps
/// established for §5.1 thread crashes.
///
/// Determinism and sched composability: a FaultInjector owns a logical
/// step clock advanced by the workload (step() between operations), so a
/// plan's events fire at exact, replayable points in the op stream — no
/// wall-clock, no racing timer thread. Every firing (and every flap
/// recovery) passes through sched::hook(Op::CrashPoint, 0, id), so under
/// the schedule explorer a fault is one more yield the explorer can order
/// against every other thread's yields: "every fault at any chosen yield"
/// falls out of the explorer's existing interleaving search.
///
/// The injector *applies* edge and NMP faults directly (they are pure
/// state flips on the shared Topology health table / Nmp engine). A
/// host-kill only latches a flag: threads of a simulated host are host-
/// side constructs owned by the harness, so the harness observes
/// host_killed() and crashes them (Pod::mark_crashed per context, or
/// Pod::mark_host_crashed for contexts that are simply gone) — after
/// which the LivenessDetector notices the missed leases and drives
/// adoption + recovery.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/points.h"
#include "cxl/types.h"
#include "pod/topology.h"

namespace pod {

class Pod;

/// The injectable fault kinds. Each enumerator is the id of its
/// registered fault point (the 50-69 block of the common/points.h id
/// space).
enum class FaultKind : cxlcommon::PointId {
    EdgeDown = 50, ///< (host, device) edge -> Down, no scheduled recovery
    EdgeFlap = 51, ///< edge -> Down, back -> Up after recover_after steps
    NmpStall = 52, ///< next `count` working doorbells unanswered
    NmpDelay = 53, ///< next `count` doorbells answered `delay_ns` late
    HostKill = 54, ///< host dies: harness crashes its threads, leases stop
};

/// Registers one PointKind::Fault point per FaultKind (idempotent;
/// called by the FaultInjector constructor and FaultPlan::for_point).
void register_fault_points();

/// One scripted fault of a FaultPlan.
struct FaultEvent {
    FaultKind kind = FaultKind::EdgeDown;
    /// Edge coordinates (EdgeDown/EdgeFlap) or the victim (HostKill).
    HostId host = 0;
    cxl::DeviceId device = 0;
    /// Injector step at which the fault fires (steps count from 1: the
    /// n-th step() call fires events with at_step == n).
    std::uint64_t at_step = 0;
    /// EdgeFlap: steps after firing at which the edge returns to Up.
    std::uint64_t recover_after = 0;
    /// NmpStall/NmpDelay: doorbells covered.
    std::uint32_t count = 1;
    /// NmpDelay: extra simulated ns per covered doorbell.
    std::uint64_t delay_ns = 0;
};

/// A declarative, deterministic fault script: events fire in at_step
/// order as the injector's clock advances. Builder methods return *this
/// so storms read as one expression.
struct FaultPlan {
    std::vector<FaultEvent> events;

    FaultPlan& edge_down(HostId host, cxl::DeviceId device,
                         std::uint64_t at_step);
    FaultPlan& edge_flap(HostId host, cxl::DeviceId device,
                         std::uint64_t at_step, std::uint64_t down_for);
    FaultPlan& nmp_stall(std::uint64_t at_step, std::uint32_t doorbells);
    FaultPlan& nmp_delay(std::uint64_t at_step, std::uint64_t extra_ns,
                         std::uint32_t doorbells);
    FaultPlan& host_kill(HostId host, std::uint64_t at_step);

    /// Sweep helper: the canonical single-event plan for a registered
    /// fault point (sane defaults: flaps recover after 4 steps, stalls
    /// cover 2 doorbells, delays add 500 ns). Aborts unless @p point is
    /// registered as PointKind::Fault.
    static FaultPlan for_point(cxlcommon::PointId point, HostId host,
                               cxl::DeviceId device, std::uint64_t at_step);
};

/// Applies a FaultPlan against one Pod on a deterministic step clock.
class FaultInjector {
  public:
    FaultInjector(Pod& pod, FaultPlan plan);

    /// Advances the fault clock one step and fires every event (and every
    /// scheduled flap recovery) that is due. Call between workload
    /// operations; under the sched explorer each firing is a yield.
    void step();

    /// Steps taken so far.
    std::uint64_t now() const { return now_; }

    /// Events fired so far.
    std::uint64_t fired() const { return fired_; }

    /// True once every event has fired and every flap has recovered.
    bool done() const;

    /// True once a HostKill event for @p host has fired. The harness is
    /// responsible for actually crashing the host's threads (see the file
    /// comment); this flag is how workers learn their host died.
    bool host_killed(HostId host) const { return killed_[host]; }

  private:
    void fire(const FaultEvent& event);

    struct PendingRecover {
        std::uint64_t at_step = 0;
        HostId host = 0;
        cxl::DeviceId device = 0;
    };

    Pod& pod_;
    std::vector<FaultEvent> events_; ///< sorted by at_step, stable
    std::size_t next_event_ = 0;
    std::vector<PendingRecover> recovers_;
    std::uint64_t now_ = 0;
    std::uint64_t fired_ = 0;
    std::array<bool, kMaxHosts> killed_{};
};

} // namespace pod
