/// @file
/// Seed sweeps of the schedule-explorer kill tests (slow label). The suites
/// in test_sched_protocols pin one seed each; here the SWcc churn kill
/// test runs over seeds 0..199, so a redo that is not idempotent at some
/// kill point shows up without waiting for the one committed seed to hit
/// it.

#include <gtest/gtest.h>

#include <memory>

#include "swcc_world.h"

namespace {

TEST(SchedSwccSweep, KillDuringChurnRecoversAtSeeds0To199)
{
    auto publishes = std::make_shared<std::uint64_t>(0);
    std::uint64_t kills = 0;
    for (std::uint64_t seed = 0; seed < 200; seed++) {
        sched::Options opt;
        opt.seed = seed;
        opt.schedules = 24;
        opt.crash = true;
        opt.crash_horizon = 2000;
        sched::Result r = sched::Explorer(opt).run(
            swcctest::kill_churn_factory(publishes));
        EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.summary();
        kills += r.kills;
    }
    EXPECT_GT(kills, 0u);
    EXPECT_GT(*publishes, 0u);
}

} // namespace
