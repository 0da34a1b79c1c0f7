/// @file
/// Record-durable-before-CAS oracle under explored schedules.
///
/// The deferred-record discipline (RecoveryLog::log_local) removes the
/// per-op flush+fence from the local fast path. Its soundness boundary is
/// the detectable CAS: a record describing a CAS-bearing operation must
/// be durable BEFORE the CAS fires, or `did_succeed` reasoning breaks
/// after a host crash. sched::RecordFlushOracle watches every vthread's
/// recovery-record row and fails any schedule where an Op::DcasTry fires
/// while the row is dirty. The correct allocator must pass; the
/// skip_record_publish_flush fault (defer where deferral is unsound) must
/// be caught within the CI budget and replay bit-for-bit.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/points.h"
#include "cxlalloc/allocator.h"
#include "pod/pod.h"
#include "sched/explorer.h"
#include "sched/oracles.h"

namespace {

using sched::Event;
using sched::Explorer;
using sched::Op;
using sched::Options;
using sched::OracleFailure;
using sched::Result;
using sched::Run;

constexpr int kVthreads = 2;
constexpr int kBlocks = 64;

/// Same rig as test_sched_swcc: unsized_limit = 0 forces every empty slab
/// through the push-global detectable CAS, so each body crosses the
/// record-durability boundary many times.
struct RecordWorld {
    RecordWorld()
        : cfg(make_config()), pod(make_pod(cfg)), alloc(pod, cfg),
          oracle(alloc.layout().recovery_row(0),
                 alloc.layout().recovery_row(cxl::kMaxThreads) + 64)
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
    sched::RecordFlushOracle oracle;
    std::uint64_t cas_tries = 0;
};

void
churn(RecordWorld& w, int i)
{
    std::vector<cxl::HeapOffset> blocks;
    for (int n = 0; n < kBlocks; n++) {
        blocks.push_back(w.alloc.allocate(*w.ctxs[i], 1024));
    }
    for (cxl::HeapOffset p : blocks) {
        w.alloc.deallocate(*w.ctxs[i], p);
    }
}

std::function<void(Run&)>
record_factory(const std::shared_ptr<std::uint64_t>& cas_total)
{
    return [cas_total](Run& run) {
        auto w = std::make_shared<RecordWorld>();
        for (int i = 0; i < kVthreads; i++) {
            w->oracle.bind(static_cast<std::uint32_t>(i),
                           w->alloc.layout().recovery_row(w->tids[i]), 8);
            run.spawn("churn" + std::to_string(i), [w, i] { churn(*w, i); });
        }
        run.on_event([w](std::uint32_t vthread, const Event& e) {
            if (e.op == Op::DcasTry) {
                w->cas_tries++;
            }
            w->oracle.observe(vthread, e);
        });
        run.at_end([w, cas_total](const sched::RunEnd&) {
            *cas_total += w->cas_tries;
            if (w->cas_tries == 0) {
                throw OracleFailure("workload never crossed the "
                                    "record-durability boundary");
            }
        });
    };
}

TEST(SchedRecord, DeferredRecordsAreDurableBeforeEveryCas)
{
    auto cas_tries = std::make_shared<std::uint64_t>(0);
    Options opt;
    opt.seed = 61;
    opt.schedules = 12;
    Result r = Explorer(opt).run(record_factory(cas_tries));
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_GT(*cas_tries, 0u);
}

TEST(SchedRecord, UnsoundDeferralIsCaughtAndReplaysBitForBit)
{
    cxlcommon::ScopedArm defect(cxlcommon::defect::kSkipRecordPublishFlush);

    auto cas_tries = std::make_shared<std::uint64_t>(0);
    Options opt;
    opt.seed = 67;
    opt.schedules = 8;
    Explorer ex(opt);
    Result r = ex.run(record_factory(cas_tries));
    ASSERT_FALSE(r.ok) << "dirty record at DcasTry escaped the oracle";
    ASSERT_TRUE(r.failure.has_value());
    EXPECT_NE(r.failure->message.find("record-durable-before-CAS"),
              std::string::npos)
        << r.failure->message;

    Result r1 = ex.replay(*r.failure, record_factory(cas_tries));
    Result r2 = ex.replay(*r.failure, record_factory(cas_tries));
    ASSERT_FALSE(r1.ok);
    ASSERT_FALSE(r2.ok);
    EXPECT_EQ(r1.failure->message, r.failure->message);
    EXPECT_EQ(r1.failure->trace, r.failure->trace);
    EXPECT_EQ(r1.fingerprint, r2.fingerprint)
        << "replay must be bit-for-bit deterministic";
}

} // namespace
