/// @file
/// SWcc publication protocol under explored schedules (paper §3.2.2): two
/// allocator threads churn small slabs with simulated incoherent caches
/// while a DirtyLineTracker oracle enforces flush-before-publish on every
/// CAS that pushes a descriptor onto the global free list. The deliberate
/// protocol mutation (skipping the descriptor flush in push_global_one)
/// must be caught within the CI budget and replay bit-for-bit — the
/// acceptance check of the schedule-explorer subsystem.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/points.h"
#include "swcc_world.h"

namespace {

using sched::Explorer;
using sched::Options;
using sched::OracleFailure;
using sched::Result;
using sched::Run;
using swcctest::churn;
using swcctest::install_publish_oracle;
using swcctest::kill_churn_factory;
using swcctest::kVthreads;
using swcctest::SwccWorld;

std::function<void(Run&)>
swcc_factory(const std::shared_ptr<std::uint64_t>& publish_total)
{
    return [publish_total](sched::Run& run) {
        auto w = std::make_shared<SwccWorld>();
        for (int i = 0; i < kVthreads; i++) {
            run.spawn("churn" + std::to_string(i), [w, i] { churn(*w, i); });
        }
        install_publish_oracle(run, w);
        run.at_end([w, publish_total](const sched::RunEnd&) {
            *publish_total += w->publishes;
            if (w->publishes == 0) {
                throw OracleFailure("workload never reached the publish "
                                    "path the oracle watches");
            }
        });
    };
}

TEST(SchedSwcc, CorrectProtocolFlushesBeforeEveryPublish)
{
    auto publishes = std::make_shared<std::uint64_t>(0);
    Options opt;
    opt.seed = 47;
    opt.schedules = 12;
    Result r = Explorer(opt).run(swcc_factory(publishes));
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_GT(*publishes, 0u);
}

TEST(SchedSwcc, SkippedPublishFlushIsCaughtAndReplaysBitForBit)
{
    cxlcommon::ScopedArm defect(cxlcommon::defect::kSkipSwccPublishFlush);

    auto publishes = std::make_shared<std::uint64_t>(0);
    Options opt;
    opt.seed = 53;
    opt.schedules = 8;
    Explorer ex(opt);
    Result r = ex.run(swcc_factory(publishes));
    ASSERT_FALSE(r.ok) << "unflushed publish escaped the oracle";
    ASSERT_TRUE(r.failure.has_value());
    EXPECT_NE(r.failure->message.find("flush-before-publish"),
              std::string::npos);

    Result r1 = ex.replay(*r.failure, swcc_factory(publishes));
    Result r2 = ex.replay(*r.failure, swcc_factory(publishes));
    ASSERT_FALSE(r1.ok);
    ASSERT_FALSE(r2.ok);
    EXPECT_EQ(r1.failure->message, r.failure->message);
    EXPECT_EQ(r1.failure->trace, r.failure->trace);
    EXPECT_EQ(r1.fingerprint, r2.fingerprint)
        << "replay must be bit-for-bit deterministic";
}

TEST(SchedSwcc, KillDuringChurnThenRecoveryKeepsHeapUsable)
{
    auto publishes = std::make_shared<std::uint64_t>(0);
    Options opt;
    opt.seed = 59;
    opt.schedules = 24;
    opt.crash = true;
    opt.crash_horizon = 2000;
    Result r = Explorer(opt).run(kill_churn_factory(publishes));
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_GT(r.kills, 0u);
    EXPECT_GT(*publishes, 0u);
}

} // namespace
