#include <gtest/gtest.h>

#include "report.h"
#include "trace.h"

namespace {

using podbench::Span;
using podbench::SpanName;

Span
make(SpanName name, std::uint64_t start, std::uint64_t end,
     std::int32_t parent, std::uint64_t sim)
{
    Span s;
    s.name = name;
    s.start_ns = start;
    s.end_ns = end;
    s.parent = parent;
    s.sim_ns = sim;
    return s;
}

std::size_t
idx(SpanName n)
{
    return static_cast<std::size_t>(n);
}

TEST(SpanSelfTime, KvMinusNestedAllocChildren)
{
    // kv.insert [0, 100) holds an allocate [10, 30) and a deallocate
    // [50, 70); the deallocate holds a cleanup [55, 60) that must not be
    // subtracted from kv twice.
    std::vector<Span> spans = {
        make(SpanName::KvInsert, 0, 100, -1, 400),
        make(SpanName::AllocSmallAllocate, 10, 30, 0, 120),
        make(SpanName::AllocSmallDeallocate, 50, 70, 0, 90),
        make(SpanName::AllocCleanup, 55, 60, 2, 10),
    };
    auto agg = podbench::aggregate(spans);
    EXPECT_EQ(agg[idx(SpanName::KvInsert)].self_host_ns, 60u);
    EXPECT_EQ(agg[idx(SpanName::AllocSmallDeallocate)].self_host_ns, 15u);
    EXPECT_EQ(agg[idx(SpanName::AllocSmallAllocate)].self_host_ns, 20u);
    EXPECT_EQ(agg[idx(SpanName::AllocCleanup)].self_host_ns, 5u);
    EXPECT_EQ(agg[idx(SpanName::KvInsert)].calls, 1u);
    // Only top-level spans carry a session's whole modeled time.
    EXPECT_EQ(podbench::top_level_sim_ns(spans), 400u);
}

TEST(SpanSelfTime, OverlappingChildrenCountOnce)
{
    std::vector<Span> spans = {
        make(SpanName::KvGet, 0, 100, -1, 0),
        make(SpanName::AllocSmallAllocate, 10, 40, 0, 0),
        make(SpanName::AllocSmallAllocate, 30, 50, 0, 0),
        make(SpanName::AllocSmallAllocate, 90, 120, 0, 0), // clipped
    };
    auto agg = podbench::aggregate(spans);
    EXPECT_EQ(agg[idx(SpanName::KvGet)].self_host_ns, 100u - 40u - 10u);
}

TEST(Tracer, NestsAndSharesOpIds)
{
    podbench::Tracer t(true);
    t.start(8);
    std::int32_t a = t.open(SpanName::KvInsert, 100);
    std::int32_t b = t.open(SpanName::AllocSmallAllocate, 110);
    t.close(b, 150, false);
    t.close(a, 170, false);
    std::int32_t c = t.open(SpanName::KvGet, 170);
    t.close(c, 171, true);
    const auto& s = t.spans();
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s[1].parent, a);
    EXPECT_EQ(s[0].op_id, s[1].op_id);
    EXPECT_NE(s[2].op_id, s[0].op_id);
    EXPECT_EQ(s[0].sim_ns, 70u);
    EXPECT_EQ(s[1].sim_ns, 40u);
    EXPECT_TRUE(s[2].failed);
    EXPECT_EQ(podbench::top_level_sim_ns(s), 71u);
}

TEST(PercentileRule, ReportsOnlyWithTenSamplesBeyond)
{
    EXPECT_EQ(podbench::samples_beyond(1000, 9'900), 10u);
    EXPECT_EQ(podbench::samples_beyond(999, 9'900), 9u);
    EXPECT_EQ(podbench::samples_beyond(10'000, 9'990), 10u);

    std::vector<std::uint64_t> v(999);
    for (std::uint64_t i = 0; i < v.size(); i++) {
        v[i] = i + 1;
    }
    EXPECT_FALSE(podbench::percentile(v, 9'900).has_value());
    EXPECT_FALSE(podbench::tail_mean(v, 9'900).has_value());
    v.push_back(1000);
    std::optional<double> p99 = podbench::percentile(v, 9'900);
    ASSERT_TRUE(p99.has_value());
    EXPECT_EQ(*p99, 990.0);
    EXPECT_EQ(*podbench::percentile(v, 5'000), 500.0);
    // The ten samples beyond p99 are 991..1000.
    std::optional<double> tail = podbench::tail_mean(v, 9'900);
    ASSERT_TRUE(tail.has_value());
    EXPECT_DOUBLE_EQ(*tail, 995.5);
    EXPECT_DOUBLE_EQ(podbench::mean_of(v), 500.5);
}

TEST(PercentileRule, HighestReportable)
{
    EXPECT_EQ(podbench::highest_reportable(0), 0u);
    EXPECT_EQ(podbench::highest_reportable(19), 0u);
    EXPECT_EQ(podbench::highest_reportable(20), 5'000u);
    EXPECT_EQ(podbench::highest_reportable(100), 9'000u);
    EXPECT_EQ(podbench::highest_reportable(1'000), 9'900u);
    EXPECT_EQ(podbench::highest_reportable(9'999), 9'900u);
    EXPECT_EQ(podbench::highest_reportable(10'000), 9'990u);
    EXPECT_EQ(podbench::highest_reportable(100'000), 9'999u);
}

} // namespace
