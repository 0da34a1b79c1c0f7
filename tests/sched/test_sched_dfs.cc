/// @file
/// Bounded-exhaustive (DFS) exploration of the sync protocols: small
/// enough worlds that the explorer can enumerate every interleaving (or
/// every depth-bounded prefix) and certify the protocol over the whole
/// space, not a sample. Labeled `slow` in CTest: thousands of schedules
/// per test.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "pod/pod.h"
#include "sched/explorer.h"
#include "sync/detectable_cas.h"
#include "sync/hazard_offsets.h"

namespace {

using cxlsync::DetectableCas;
using cxlsync::HazardOffsets;
using sched::Event;
using sched::Explorer;
using sched::Op;
using sched::Options;
using sched::OracleFailure;
using sched::Result;
using sched::Run;
using sched::Strategy;

TEST(SchedDfs, DetectableCasIncrementSpaceIsExhaustedAndExactlyOnce)
{
    // Two threads, one detectable increment each: every interleaving of
    // the full protocol (read, help record, CAS, retries) is enumerated.
    constexpr cxl::HeapOffset kHelpBase = 4096;
    constexpr cxl::HeapOffset kWord = 8192;

    struct World {
        World() : pod(pod_config()), dcas(kHelpBase)
        {
            process = pod.create_process();
            for (int i = 0; i < 2; i++) {
                ctxs[i] = pod.create_thread(process);
            }
        }
        static pod::PodConfig
        pod_config()
        {
            pod::PodConfig pc;
            pc.device.size = 64 << 10;
            pc.device.mode = cxl::CoherenceMode::PartialHwcc;
            pc.device.sync_region_size = 16 << 10;
            return pc;
        }
        pod::Pod pod;
        pod::Process* process;
        DetectableCas dcas;
        std::unique_ptr<pod::ThreadContext> ctxs[2];
    };

    Options opt;
    opt.strategy = Strategy::Dfs;
    opt.schedules = 100'000;
    // Retry storms make the unbounded space hard to size a priori; bound
    // branching so exhaustion is guaranteed within the budget (2^16 max).
    opt.dfs_max_depth = 16;
    Result r = Explorer(opt).run([](sched::Run& run) {
        auto w = std::make_shared<World>();
        for (int i = 0; i < 2; i++) {
            run.spawn("inc" + std::to_string(i), [w, i] {
                cxl::MemSession& mem = w->ctxs[i]->mem();
                while (true) {
                    std::uint32_t cur = w->dcas.read(mem, kWord);
                    if (w->dcas.try_cas(mem, kWord, cur, cur + 1, 1)
                            .success) {
                        break;
                    }
                }
            });
        }
        run.at_end([w](const sched::RunEnd&) {
            std::uint32_t v = w->dcas.read(w->ctxs[0]->mem(), kWord);
            if (v != 2) {
                throw OracleFailure("increments lost or duplicated: " +
                                    std::to_string(v));
            }
        });
    });
    ASSERT_TRUE(r.ok) << r.summary();
    EXPECT_TRUE(r.exhausted)
        << "space unexpectedly large: " << r.schedules_run << " schedules";
    EXPECT_GT(r.schedules_run, 100u);
}

TEST(SchedDfs, HazardProtocolSurvivesDepthBoundedEnumeration)
{
    // Reader/reclaimer handshake under simulated caches. Branching is
    // depth-bounded: every distinct prefix of the first 14 scheduling
    // decisions is enumerated (thousands of schedules), the tail runs
    // round-robin from thread 0.
    constexpr cxl::HeapOffset kRowBound = 8;
    constexpr cxl::HeapOffset kHazardBase = 64 << 10;
    constexpr cxl::HeapOffset kFreeWord = 128 << 10;
    constexpr cxl::HeapOffset kDataWord = (128 << 10) + 64;

    struct World {
        World() : pod(pod_config()), hz(kHazardBase, 2, kRowBound)
        {
            process = pod.create_process();
            reader = pod.create_thread(process);
            reclaimer = pod.create_thread(process);
        }
        static pod::PodConfig
        pod_config()
        {
            pod::PodConfig pc;
            pc.device.size = 256 << 10;
            pc.device.mode = cxl::CoherenceMode::PartialHwcc;
            pc.device.sync_region_size = 4096;
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

    Options opt;
    opt.strategy = Strategy::Dfs;
    opt.schedules = 40'000;
    opt.dfs_max_depth = 14;
    Result r = Explorer(opt).run([](sched::Run& run) {
        auto w = std::make_shared<World>();
        run.spawn("reader", [w] {
            cxl::MemSession& mem = w->reader->mem();
            std::uint32_t slot = w->hz.try_publish(mem, kDataWord);
            mem.flush(kFreeWord, 8);
            if (mem.load<std::uint64_t>(kFreeWord) == 0) {
                (void)mem.load<std::uint64_t>(kDataWord);
                // Post-read check: the hook precedes the access, so only
                // here is `reclaimed` guaranteed current w.r.t. the read.
                if (w->reclaimed) {
                    throw OracleFailure(
                        "hazard offset dereferenced after reclamation");
                }
            }
            if (slot != HazardOffsets::kNoSlot) {
                w->hz.remove(mem, slot);
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
    ASSERT_TRUE(r.ok) << r.summary();
    EXPECT_TRUE(r.exhausted)
        << "depth-bounded space not covered: " << r.schedules_run;
    EXPECT_GT(r.schedules_run, 1000u);
}

} // namespace
