/// @file
/// Batched huge-heap reclamation under explored schedules (paper §3.3.2).
///
/// A huge allocation is PC-T-mapped by a second process, which thereby
/// holds a hazard on it, and then freed by a thread that does not own it.
/// The owner's HugeHeap::cleanup (pass 1: drop its own hazard; pass 2:
/// collect the freed descriptors, take one hazard snapshot, reclaim the
/// unhazarded ones) races the mapper's cleanup, whose pass 1 unmaps and
/// then un-hazards. The oracle forbids reclaiming the descriptor while
/// the mapper's process still has the mapping installed. Caches are
/// simulated and rows hold 2 slots, so the snapshot walks a table that
/// ends mid-line.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cxlalloc/allocator.h"
#include "pod/pod.h"
#include "sched/explorer.h"

namespace {

using cxlalloc::HugeDescField;
using sched::Event;
using sched::Explorer;
using sched::Op;
using sched::Options;
using sched::OracleFailure;
using sched::Result;
using sched::Run;
using sched::Strategy;

constexpr std::uint64_t kHugeSize = 1 << 20;
constexpr std::uint32_t kOwner = 0; // vthread index of the owner

struct CleanupWorld {
    CleanupWorld() : cfg(make_config()), pod(make_pod(cfg)), alloc(pod, cfg)
    {
        owner_process = pod.create_process();
        alloc.attach(*owner_process);
        mapper_process = pod.create_process();
        alloc.attach(*mapper_process);
        owner = thread(owner_process);
        freer = thread(owner_process);
        mapper = thread(mapper_process);

        // Set-up runs before any vthread exists, so it is not explored.
        block = alloc.allocate(*owner, kHugeSize);
        (void)alloc.pointer(*mapper, block, 8); // PC-T fault: hazard + map
        mapped_at_setup = mapper_process->is_mapped(block);
        alloc.deallocate(*freer, block); // cross-thread free
    }

    std::unique_ptr<pod::ThreadContext>
    thread(pod::Process* process)
    {
        auto ctx = pod.create_thread(process);
        alloc.attach_thread(*ctx);
        return ctx;
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
        cfg.hazard_slots_per_thread = 2;
        return cfg;
    }

    static pod::PodConfig
    make_pod(const cxlalloc::Config& cfg)
    {
        pod::PodConfig pc;
        pc.device = cxlalloc::Layout(cfg).device_config(
            cxl::CoherenceMode::PartialHwcc, /*simulate_cache=*/true);
        pc.checked_mappings = true;
        return pc;
    }

    /// True if @p addr is the flags word of some huge descriptor.
    bool
    is_desc_flags(cxl::HeapOffset addr) const
    {
        const cxlalloc::Layout& l = alloc.layout();
        cxl::HeapOffset pool = l.huge_desc(0);
        return addr >= pool && addr < l.huge_desc(l.huge_desc_count()) &&
               (addr - pool) % HugeDescField::kStride == HugeDescField::kFlags;
    }

    cxlalloc::Config cfg;
    pod::Pod pod;
    cxlalloc::CxlAllocator alloc;
    pod::Process* owner_process;
    pod::Process* mapper_process;
    std::unique_ptr<pod::ThreadContext> owner;
    std::unique_ptr<pod::ThreadContext> freer;
    std::unique_ptr<pod::ThreadContext> mapper;
    cxl::HeapOffset block = 0;
    bool mapped_at_setup = false;
    bool reclaimed = false;
};

/// Aggregated across schedules to prove both outcomes are exercised: the
/// owner reclaims (mapper unmapped first) and the owner skips (snapshot
/// still saw the mapper's hazard).
struct Totals {
    std::uint64_t reclaimed = 0;
    std::uint64_t deferred = 0;
};

std::function<void(Run&)>
cleanup_factory(const std::shared_ptr<Totals>& totals)
{
    return [totals](Run& run) {
        auto w = std::make_shared<CleanupWorld>();
        run.spawn("owner", [w] { w->alloc.cleanup(*w->owner); });
        run.spawn("mapper", [w] { w->alloc.cleanup(*w->mapper); });
        run.on_event([w](std::uint32_t vthread, const Event& e) {
            // During the schedule the owner stores a descriptor's flags
            // only to reclaim it (flags = 0); the hook fires before the
            // store, so the mapping must already be gone.
            if (vthread == kOwner && e.op == Op::Store &&
                w->is_desc_flags(e.addr)) {
                if (w->mapper_process->is_mapped(w->block)) {
                    throw OracleFailure("huge descriptor reclaimed while "
                                        "another process maps it");
                }
                w->reclaimed = true;
            }
        });
        run.at_end([w, totals](const sched::RunEnd&) {
            if (w->block == 0 || !w->mapped_at_setup) {
                throw OracleFailure("set-up did not map the block in the "
                                    "second process");
            }
            if (w->mapper_process->is_mapped(w->block)) {
                throw OracleFailure("mapper's cleanup left the mapping");
            }
            (w->reclaimed ? totals->reclaimed : totals->deferred)++;
        });
    };
}

TEST(SchedHugeCleanup, BatchedReclaimSurvivesRandomSchedules)
{
    auto totals = std::make_shared<Totals>();
    Options opt;
    opt.seed = 53;
    opt.schedules = 300;
    Result r = Explorer(opt).run(cleanup_factory(totals));
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_GT(totals->reclaimed, 0u);
    EXPECT_GT(totals->deferred, 0u);
}

TEST(SchedHugeCleanup, BatchedReclaimSurvivesPctSchedules)
{
    auto totals = std::make_shared<Totals>();
    Options opt;
    opt.strategy = Strategy::Pct;
    opt.seed = 59;
    opt.schedules = 300;
    Result r = Explorer(opt).run(cleanup_factory(totals));
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_GT(totals->reclaimed, 0u);
    EXPECT_GT(totals->deferred, 0u);
}

} // namespace
