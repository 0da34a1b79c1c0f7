// End-to-end checks of the workloads at a reduced op count: every check
// passes, modeled results repeat bit for bit, tracing leaves them alone,
// and every session's modeled time lies in top-level spans. Death tests
// pin the allocator defects that keep parts of churn_mcas switched off.

#include <gtest/gtest.h>

#include <vector>

#include "cxlalloc/size_class.h"
#include "harness.h"
#include "workloads.h"

namespace {

using podbench::TrialConfig;
using podbench::TrialResult;
using podbench::Workload;

class WorkloadTest : public ::testing::TestWithParam<Workload> {};

TrialResult
run(Workload w, std::uint64_t seed, bool trace)
{
    TrialConfig cfg;
    cfg.workload = w;
    cfg.seed = seed;
    cfg.trace = trace;
    // Large enough for the op p99.9 to have ten samples beyond it.
    cfg.scale = 0.3;
    return podbench::run_trial(cfg);
}

TEST_P(WorkloadTest, DeterministicCorrectAndTraceNeutral)
{
    TrialResult a = run(GetParam(), 11, false);
    for (const std::string& e : a.errors) {
        ADD_FAILURE() << e;
    }
    EXPECT_EQ(a.modeled.failed, 0u);
    EXPECT_GT(a.modeled.sim_mops(), 0.0);

    TrialResult b = run(GetParam(), 11, false);
    EXPECT_TRUE(a.modeled == b.modeled);

    TrialResult t = run(GetParam(), 11, true);
    EXPECT_TRUE(t.errors.empty()); // includes the span accounting check
    EXPECT_TRUE(a.modeled == t.modeled);
    EXPECT_FALSE(t.tracer.spans().empty());
    // kv_pod ends with idle-slot restarts; every recovery passed the heap
    // check (errors above) and left a span.
    EXPECT_EQ(static_cast<double>(t.modeled.recover_samples),
              t.layer.at("recovery.recover.calls"));
    EXPECT_EQ(t.modeled.recover_samples > 0, GetParam() == Workload::KvPod);

    TrialResult c = run(GetParam(), 12, false);
    EXPECT_NE(a.modeled.sim_mops(), c.modeled.sim_mops());
}

TEST_P(WorkloadTest, SetupProbeStopsAfterPreload)
{
    TrialConfig cfg;
    cfg.workload = GetParam();
    cfg.setup_only = true;
    TrialResult r = podbench::run_trial(cfg);
    EXPECT_TRUE(r.errors.empty());
    EXPECT_EQ(r.modeled.ops, 0u);
    EXPECT_GT(r.setup_preload_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadTest,
                         ::testing::Values(Workload::KvPod,
                                           Workload::ChurnMcas,
                                           Workload::TieredShift),
                         [](const auto& info) {
                             return std::string(
                                 podbench::workload_name(info.param));
                         });

// Pins the allocator defect that keeps checked mappings out of
// churn_mcas: the large heap's SWcc descriptor table starts on the page
// where the small heap's table ends, and a process that touches a large
// descriptor on that page before mapping it gets no mapping from the fault
// handler (SlabHeap::resolve of the small heap claims the page and refuses
// it). A free from another host of a block in the first large slab is
// enough. When this test starts failing, the defect is fixed: turn checked
// mappings back on in churn_mcas.
TEST(CheckedMappingDeathTest, RemoteFreeOfFirstLargeBlock)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto remote_free = [] {
        TrialConfig cfg;
        TrialResult out;
        podbench::Harness h(cfg, out);
        podbench::RigSpec spec;
        spec.topology =
            pod::Topology::dense(2, 1, cxl::EdgeCost{}, cxl::EdgeCost{});
        spec.shard.small_slabs = 256;
        spec.shard.large_slabs = 64;
        spec.coherence = cxl::CoherenceMode::NoHwcc;
        spec.latency = cxl::LatencyModel::cxl_mcas();
        spec.checked_mappings = true;
        h.build(spec);
        podbench::Session& owner = h.add_session(0);
        podbench::Session& other = h.add_session(1);
        cxl::HeapOffset off = h.alloc().allocate(*owner.ctx, 64 << 10);
        h.alloc().deallocate(*other.ctx, off);
    };
    EXPECT_DEATH(remote_free(), "access outside any heap mapping");
}

// Pins the allocator defect that keeps idle-slot restarts out of
// churn_mcas: recover() redoes a thread's last local free even when that
// free finished long ago and emptied its slab, which then lost its size
// class. When this test starts failing, the defect is fixed: give
// churn_mcas the restart probe kv_pod runs.
TEST(IdleRestartDeathTest, RedoesFreeThatEmptiedItsSlab)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto restart_after_emptying_free = [] {
        TrialConfig cfg;
        TrialResult out;
        podbench::Harness h(cfg, out);
        podbench::RigSpec spec;
        spec.topology =
            pod::Topology::dense(2, 1, cxl::EdgeCost{}, cxl::EdgeCost{});
        spec.coherence = cxl::CoherenceMode::NoHwcc;
        spec.latency = cxl::LatencyModel::cxl_mcas();
        h.build(spec);
        podbench::Session& s = h.add_session(0);
        // Two and a half slabs of 64 B blocks, then free the first slab's
        // worth: the last of those frees empties it.
        constexpr std::uint64_t kPerSlab = cxlalloc::kSmallSlabSize / 64;
        std::vector<cxl::HeapOffset> blocks;
        for (std::uint64_t i = 0; i < kPerSlab * 5 / 2; i++) {
            blocks.push_back(h.alloc().allocate(*s.ctx, 64));
        }
        for (std::uint64_t i = 0; i < kPerSlab; i++) {
            h.alloc().deallocate(*s.ctx, blocks[i]);
        }
        h.crash_and_adopt(s);
        h.alloc().recover(*s.ctx);
    };
    EXPECT_DEATH(restart_after_emptying_free(),
                 "FreeLocal record against classless slab");
}

} // namespace
