#include <gtest/gtest.h>

#include "lowest_clock.h"

namespace {

using podbench::LowestClockScheduler;

TEST(LowestClockScheduler, TiesGoToTheLowerIndex)
{
    LowestClockScheduler sched(4);
    // All clocks start at zero: indices come out in order.
    for (std::uint32_t i = 0; i < 4; i++) {
        EXPECT_EQ(sched.next(), i);
    }
    sched.requeue(3, 10);
    sched.requeue(1, 10);
    sched.requeue(2, 10);
    sched.requeue(0, 10);
    EXPECT_EQ(sched.next(), 0u);
    EXPECT_EQ(sched.next(), 1u);
    EXPECT_EQ(sched.next(), 2u);
    EXPECT_EQ(sched.next(), 3u);
    EXPECT_TRUE(sched.empty());
}

TEST(LowestClockScheduler, LowestClockRunsFirst)
{
    LowestClockScheduler sched(3);
    std::uint32_t a = sched.next();
    std::uint32_t b = sched.next();
    std::uint32_t c = sched.next();
    sched.requeue(a, 50);
    sched.requeue(b, 7);
    sched.requeue(c, 30);
    EXPECT_EQ(sched.next(), b);
    sched.requeue(b, 60); // now the latest
    EXPECT_EQ(sched.next(), c);
    EXPECT_EQ(sched.next(), a);
    EXPECT_EQ(sched.next(), b);
}

TEST(LowestClockScheduler, ClocksAdvanceTogether)
{
    // Sessions with different per-op costs end within one op of each
    // other in modeled time.
    const std::uint64_t cost[3] = {3, 5, 11};
    std::uint64_t clock[3] = {0, 0, 0};
    LowestClockScheduler sched(3);
    for (int op = 0; op < 10'000; op++) {
        std::uint32_t w = sched.next();
        clock[w] += cost[w];
        sched.requeue(w, clock[w]);
    }
    std::uint64_t lo = std::min({clock[0], clock[1], clock[2]});
    std::uint64_t hi = std::max({clock[0], clock[1], clock[2]});
    EXPECT_LE(hi - lo, 11u);
}

} // namespace
