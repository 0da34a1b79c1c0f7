/// @file
/// Hazard-offset protocol under explored schedules (paper §3.3.2), with
/// simulated incoherent caches so stale reads are real: a reader
/// publishes an offset then dereferences it unless freed; a reclaimer
/// sets the free bit then reclaims unless the offset is published. The
/// oracle forbids dereferencing after reclamation. The correct protocol
/// (raise the row bound, then publish = store + flush + fence, BEFORE
/// re-checking the free bit) survives every interleaving; the variants
/// that skip the publish flush or the row-bound raise expose the
/// missed-scan window and must be caught and replayed.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/points.h"
#include "pod/pod.h"
#include "sched/explorer.h"
#include "sync/hazard_offsets.h"

namespace {

using cxlsync::HazardOffsets;
using sched::Event;
using sched::Explorer;
using sched::Op;
using sched::Options;
using sched::OracleFailure;
using sched::Result;
using sched::Run;
using sched::Strategy;

constexpr cxl::HeapOffset kRowBound = 8;          // sync region
constexpr cxl::HeapOffset kHazardBase = 64 << 10; // SWcc, cache-simulated
constexpr cxl::HeapOffset kFreeWord = 128 << 10;
constexpr cxl::HeapOffset kDataWord = (128 << 10) + 64;
constexpr std::uint32_t kSlots = 2;

struct HazardWorld {
    HazardWorld() : pod(pod_config()), hz(kHazardBase, kSlots, kRowBound)
    {
        process = pod.create_process();
        reader = pod.create_thread(process);
        reclaimer = pod.create_thread(process);
    }

    static pod::PodConfig
    pod_config()
    {
        pod::PodConfig pc;
        pc.device.size = 1 << 20;
        pc.device.mode = cxl::CoherenceMode::PartialHwcc;
        pc.device.sync_region_size = 4096;
        // Per-thread SWcc caches: without them every store is immediately
        // visible and the missed-scan window cannot exist.
        pc.device.simulate_cache = true;
        return pc;
    }

    pod::Pod pod;
    pod::Process* process;
    HazardOffsets hz;
    std::unique_ptr<pod::ThreadContext> reader;
    std::unique_ptr<pod::ThreadContext> reclaimer;
    bool reclaimed = false;
};

/// Aggregated across schedules to prove both protocol outcomes are
/// actually exercised (reader dereferences; reclaimer reclaims).
struct Totals {
    std::uint64_t derefs = 0;
    std::uint64_t reclaims = 0;
};

std::function<void(Run&)>
hazard_factory(const std::shared_ptr<Totals>& totals)
{
    return [totals](sched::Run& run) {
        auto w = std::make_shared<HazardWorld>();
        run.spawn("reader", [w, totals] {
            cxl::MemSession& mem = w->reader->mem();
            std::uint32_t slot = w->hz.try_publish(mem, kDataWord);
            // Re-check the free bit AFTER the publication is visible
            // (flush before read: the reclaimer writes this line).
            mem.flush(kFreeWord, 8);
            if (mem.load<std::uint64_t>(kFreeWord) == 0) {
                (void)mem.load<std::uint64_t>(kDataWord); // the deref
                // The hook fires BEFORE the access, so the read materializes
                // when this vthread is next scheduled; execution stays
                // serialized from there to here, so `reclaimed` now reflects
                // everything that ran before the read actually happened.
                if (w->reclaimed) {
                    throw OracleFailure(
                        "hazard offset dereferenced after reclamation");
                }
                totals->derefs++;
            }
            if (slot != HazardOffsets::kNoSlot) {
                w->hz.remove(mem, slot);
            }
        });
        run.spawn("reclaimer", [w, totals] {
            cxl::MemSession& mem = w->reclaimer->mem();
            mem.store<std::uint64_t>(kFreeWord, 1);
            mem.flush(kFreeWord, 8);
            mem.fence();
            if (!w->hz.is_published(mem, kDataWord)) {
                w->reclaimed = true;
                totals->reclaims++;
            }
        });
        run.on_event([w](std::uint32_t, const Event& e) {
            if (e.op == Op::Load && e.addr == kDataWord && w->reclaimed) {
                throw OracleFailure(
                    "hazard offset dereferenced after reclamation");
            }
        });
    };
}

TEST(SchedHazard, CorrectProtocolSurvivesRandomSchedules)
{
    auto totals = std::make_shared<Totals>();
    Options opt;
    opt.seed = 31;
    opt.schedules = 400;
    Result r = Explorer(opt).run(hazard_factory(totals));
    EXPECT_TRUE(r.ok) << r.summary();
    // Coverage: the search must reach both sides of the handshake.
    EXPECT_GT(totals->derefs, 0u);
    EXPECT_GT(totals->reclaims, 0u);
}

TEST(SchedHazard, CorrectProtocolSurvivesPctSchedules)
{
    auto totals = std::make_shared<Totals>();
    Options opt;
    opt.strategy = Strategy::Pct;
    opt.seed = 37;
    opt.schedules = 400;
    Result r = Explorer(opt).run(hazard_factory(totals));
    EXPECT_TRUE(r.ok) << r.summary();
}

TEST(SchedHazard, SkippedPublishFlushIsCaughtAndReplays)
{
    // Protocol mutation: the publish store stays in the reader's cache, so
    // the reclaimer's scan reads a stale empty slot — the missed-scan
    // window. The explorer must find the resulting deref-after-reclaim.
    //
    // This is a depth-1 preemption bug: the reader must be descheduled at
    // its deref yield for the reclaimer's entire snapshot: 4 hooks, the
    // row-bound load plus a scan, a flush and a read for the one line
    // holding rows 0..1. A single PCT change point (depth 2) landing on
    // the deref demotes the reader exactly there. A second change point
    // would fire mid-snapshot and wake the reader early, so depth 2, not
    // 3.
    cxlcommon::ScopedArm defect(cxlcommon::defect::kSkipHazardPublishFlush);
    auto totals = std::make_shared<Totals>();
    Options opt;
    opt.strategy = Strategy::Pct;
    opt.pct_depth = 2;
    opt.seed = 41;
    opt.schedules = 1500;
    Explorer ex(opt);
    Result r = ex.run(hazard_factory(totals));
    ASSERT_FALSE(r.ok) << "missed-scan window not found";
    ASSERT_TRUE(r.failure.has_value());
    EXPECT_NE(r.failure->message.find("reclamation"), std::string::npos);

    Result again = ex.replay(*r.failure, hazard_factory(totals));
    ASSERT_FALSE(again.ok);
    EXPECT_EQ(again.failure->message, r.failure->message);
    EXPECT_EQ(again.failure->trace, r.failure->trace);
}

TEST(SchedHazard, SkippedRowRaiseIsCaughtAndReplays)
{
    // Protocol mutation: the reader (tid 1) publishes without raising the
    // row-bound word, so its row lies above the bound (0) the reclaimer's
    // snapshot reads up to. The flushed hazard is then never read, and the
    // explorer must find the resulting deref-after-reclaim.
    cxlcommon::ScopedArm defect(cxlcommon::defect::kSkipHazardRowRaise);
    auto totals = std::make_shared<Totals>();
    Options opt;
    opt.strategy = Strategy::Pct;
    opt.pct_depth = 2;
    opt.seed = 47;
    opt.schedules = 1500;
    Explorer ex(opt);
    Result r = ex.run(hazard_factory(totals));
    ASSERT_FALSE(r.ok) << "unbounded-row publish not found";
    ASSERT_TRUE(r.failure.has_value());
    EXPECT_NE(r.failure->message.find("reclamation"), std::string::npos);

    Result again = ex.replay(*r.failure, hazard_factory(totals));
    ASSERT_FALSE(again.ok);
    EXPECT_EQ(again.failure->message, r.failure->message);
    EXPECT_EQ(again.failure->trace, r.failure->trace);
}

TEST(SchedHazard, PublishRetireCycleSurvivesRepeatedRounds)
{
    // Several publish/deref/retire rounds against a reclaimer sweeping
    // once: exercises slot reuse (publish after remove) under scheduling.
    Options opt;
    opt.seed = 43;
    opt.schedules = 200;
    Result r = Explorer(opt).run([](sched::Run& run) {
        auto w = std::make_shared<HazardWorld>();
        run.spawn("reader", [w] {
            cxl::MemSession& mem = w->reader->mem();
            for (int round = 0; round < 3; round++) {
                std::uint32_t slot = w->hz.try_publish(mem, kDataWord);
                mem.flush(kFreeWord, 8);
                if (mem.load<std::uint64_t>(kFreeWord) == 0) {
                    (void)mem.load<std::uint64_t>(kDataWord);
                    if (w->reclaimed) {
                        throw OracleFailure(
                            "hazard offset dereferenced after reclamation");
                    }
                }
                if (slot != HazardOffsets::kNoSlot) {
                    w->hz.remove(mem, slot);
                }
            }
        });
        run.spawn("reclaimer", [w] {
            cxl::MemSession& mem = w->reclaimer->mem();
            mem.store<std::uint64_t>(kFreeWord, 1);
            mem.flush(kFreeWord, 8);
            mem.fence();
            if (!w->hz.is_published(mem, kDataWord)) {
                w->reclaimed = true;
            }
        });
        run.on_event([w](std::uint32_t, const Event& e) {
            if (e.op == Op::Load && e.addr == kDataWord && w->reclaimed) {
                throw OracleFailure(
                    "hazard offset dereferenced after reclamation");
            }
        });
    });
    EXPECT_TRUE(r.ok) << r.summary();
}

} // namespace
