/// @file
/// The SWcc churn world shared by the schedule-explorer suites: two
/// allocator threads churn small slabs with simulated incoherent caches,
/// a DirtyLineTracker oracle enforces flush-before-publish on every CAS
/// that pushes a descriptor onto the global free list, and
/// kill_churn_factory kills a churning thread and recovers its slot.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cxlalloc/allocator.h"
#include "pod/pod.h"
#include "sched/explorer.h"
#include "sched/oracles.h"
#include "sync/detectable_cas.h"

namespace swcctest {

constexpr int kVthreads = 2;
constexpr int kBlocks = 64; // two 32 KiB slabs of 1 KiB blocks per thread

/// Allocator rig with unsized_limit = 0: every slab that empties while its
/// class has siblings spills straight to the global list, so each body
/// deterministically exercises the publish path the oracle watches.
struct SwccWorld {
    SwccWorld()
        : cfg(make_config()), pod(make_pod(cfg)), alloc(pod, cfg),
          tracker(alloc.layout().small_swcc_desc(0),
                  alloc.layout().small_swcc_desc(cfg.small_slabs))
    {
        process = pod.create_process();
        alloc.attach(*process);
        for (int i = 0; i < kVthreads; i++) {
            ctxs.push_back(pod.create_thread(process));
            alloc.attach_thread(*ctxs.back());
            tids.push_back(ctxs.back()->tid());
        }
    }

    static cxlalloc::Config
    make_config()
    {
        cxlalloc::Config cfg;
        cfg.small_slabs = 32;
        cfg.large_slabs = 8;
        cfg.huge_regions = 2;
        cfg.huge_region_size = 1 << 20;
        cfg.huge_descs_per_thread = 4;
        cfg.hazard_slots_per_thread = 4;
        cfg.unsized_limit = 0;
        return cfg;
    }

    static pod::PodConfig
    make_pod(const cxlalloc::Config& cfg)
    {
        pod::PodConfig pc;
        pc.device = cxlalloc::Layout(cfg).device_config(
            cxl::CoherenceMode::PartialHwcc, /*simulate_cache=*/true);
        return pc;
    }

    cxlalloc::Config cfg;
    pod::Pod pod;
    cxlalloc::CxlAllocator alloc;
    pod::Process* process;
    std::vector<std::unique_ptr<pod::ThreadContext>> ctxs;
    std::vector<cxl::ThreadId> tids;
    sched::DirtyLineTracker tracker;
    std::uint64_t publishes = 0;
};

inline void
churn(SwccWorld& w, int i)
{
    std::vector<cxl::HeapOffset> blocks;
    for (int n = 0; n < kBlocks; n++) {
        blocks.push_back(w.alloc.allocate(*w.ctxs[i], 1024));
    }
    for (cxl::HeapOffset p : blocks) {
        w.alloc.deallocate(*w.ctxs[i], p);
    }
}

/// Watches every yield: any CAS installing a nonzero head on the small
/// global free list publishes desc(head - 1); the CASing thread must hold
/// no dirty lines of that descriptor.
inline void
install_publish_oracle(sched::Run& run, const std::shared_ptr<SwccWorld>& w)
{
    run.on_event([w](std::uint32_t vthread, const sched::Event& e) {
        w->tracker.observe(vthread, e);
        if (e.op != sched::Op::Cas ||
            e.addr != w->alloc.layout().small_free()) {
            return;
        }
        std::uint32_t raw = cxlsync::DcasWord::value(e.aux);
        if (raw == 0) {
            return;
        }
        w->publishes++;
        cxl::HeapOffset desc = w->alloc.layout().small_swcc_desc(raw - 1);
        sched::require_flushed(w->tracker, vthread, desc,
                               desc + cxlalloc::Layout::kSmallDescStride,
                               "small slab descriptor " +
                                   std::to_string(raw - 1));
    });
}

/// One explored run of the kill test: both threads churn, one may be
/// killed at any yield; at the end the dead slot is adopted and recovered,
/// must allocate and free again, and its local lists must hold their
/// invariants. Adds each run's publishes to @p publish_total.
inline std::function<void(sched::Run&)>
kill_churn_factory(const std::shared_ptr<std::uint64_t>& publish_total)
{
    return [publish_total](sched::Run& run) {
        auto w = std::make_shared<SwccWorld>();
        for (int i = 0; i < kVthreads; i++) {
            run.spawn(
                "churn" + std::to_string(i),
                [w, i] {
                    try {
                        churn(*w, i);
                    } catch (const sched::VthreadKilled&) {
                        w->pod.mark_crashed(std::move(w->ctxs[i]));
                    }
                },
                /*killable=*/true);
        }
        install_publish_oracle(run, w);
        run.at_end([w, publish_total](const sched::RunEnd& end) {
            *publish_total += w->publishes;
            if (end.killed == sched::kNoVthread) {
                return;
            }
            auto adopted =
                w->pod.adopt_thread(w->process, w->tids[end.killed]);
            w->alloc.recover(*adopted);
            // The recovered slot must be fully usable again.
            cxl::HeapOffset p = w->alloc.allocate(*adopted, 1024);
            if (p == 0) {
                throw sched::OracleFailure("allocation failed after recovery");
            }
            w->alloc.deallocate(*adopted, p);
            w->alloc.check_local_invariants(adopted->mem());
        });
    };
}

} // namespace swcctest
