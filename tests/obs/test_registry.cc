/// Metrics registry: interning, sharded accumulation, snapshot/merge
/// round-trips, absorb-with-prefix, and the JSON export parsed back.

#include "obs/registry.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/json.h"

namespace {

TEST(Registry, InterningIsIdempotent)
{
    obs::MetricsRegistry reg;
    obs::MetricId a = reg.counter("ops");
    obs::MetricId b = reg.counter("ops");
    EXPECT_EQ(a, b);
    EXPECT_NE(reg.counter("other"), a);
    // Kinds have independent namespaces.
    EXPECT_EQ(reg.histogram("ops"), obs::MetricId{0});
    EXPECT_EQ(reg.gauge("ops"), obs::MetricId{0});
}

TEST(Registry, ShardsSumIntoSnapshot)
{
    obs::MetricsRegistry reg;
    obs::MetricId ops = reg.counter("ops");
    obs::MetricId lat = reg.histogram("lat_ns");
    reg.shard(1).add(ops, 10);
    reg.shard(2).add(ops, 32);
    reg.shard(1).record(lat, 100);
    reg.shard(2).record(lat, 300);

    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("ops"), 42u);
    EXPECT_EQ(snap.counter("never-registered"), 0u);
    const obs::Histogram* h = snap.histogram("lat_ns");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 2u);
    EXPECT_EQ(h->min(), 100u);
    EXPECT_EQ(h->max(), 300u);
}

TEST(Registry, ConcurrentWritersAreExact)
{
    obs::MetricsRegistry reg;
    obs::MetricId ops = reg.counter("ops");
    obs::MetricId lat = reg.histogram("lat_ns");
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 50'000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; t++) {
        workers.emplace_back([&, t] {
            obs::MetricsShard& sh = reg.shard(static_cast<std::uint32_t>(t + 1));
            for (std::uint64_t i = 0; i < kPerThread; i++) {
                sh.add(ops);
                sh.record(lat, i);
            }
        });
    }
    for (auto& w : workers) {
        w.join();
    }
    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("ops"), kThreads * kPerThread);
    EXPECT_EQ(snap.histogram("lat_ns")->count(), kThreads * kPerThread);
}

TEST(Registry, SnapshotMergeRoundTrip)
{
    obs::MetricsRegistry a;
    obs::MetricsRegistry b;
    a.shard(1).add(a.counter("ops"), 5);
    a.shard(1).record(a.histogram("lat"), 10);
    b.shard(1).add(b.counter("ops"), 7);
    b.shard(1).add(b.counter("only-b"), 1);
    b.shard(1).record(b.histogram("lat"), 30);

    obs::MetricsSnapshot sa = a.snapshot();
    sa.merge(b.snapshot());
    EXPECT_EQ(sa.counter("ops"), 12u);
    EXPECT_EQ(sa.counter("only-b"), 1u);
    EXPECT_EQ(sa.histogram("lat")->count(), 2u);
    EXPECT_EQ(sa.histogram("lat")->min(), 10u);
    EXPECT_EQ(sa.histogram("lat")->max(), 30u);
}

TEST(Registry, AbsorbWithPrefix)
{
    obs::MetricsRegistry scoped;
    scoped.shard(3).add(scoped.counter("cas_ops"), 9);
    scoped.shard(3).record(scoped.histogram("cas_ns"), 1'000);

    obs::MetricsRegistry global;
    global.absorb(scoped.snapshot(), "fig11.hw_cas.t4.");
    obs::MetricsSnapshot snap = global.snapshot();
    EXPECT_EQ(snap.counter("fig11.hw_cas.t4.cas_ops"), 9u);
    const obs::Histogram* h = snap.histogram("fig11.hw_cas.t4.cas_ns");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 1u);
}

TEST(Registry, GaugesLatestWins)
{
    obs::MetricsRegistry reg;
    obs::MetricId g = reg.gauge("sim_ns_max");
    reg.set_gauge(g, 1.5);
    reg.set_gauge(g, 4.25);
    EXPECT_DOUBLE_EQ(reg.snapshot().gauge("sim_ns_max"), 4.25);
}

TEST(Registry, TraceEventsSortedAndNamed)
{
    obs::MetricsRegistry reg;
    obs::MetricId op_a = reg.op("alloc");
    obs::MetricId op_f = reg.op("free");
    reg.shard(2).trace().push({op_f, 2, 200, 5, 64});
    reg.shard(1).trace().push({op_a, 1, 100, 9, 128});

    obs::MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.trace.size(), 2u);
    EXPECT_EQ(snap.trace[0].op, "alloc");
    EXPECT_EQ(snap.trace[0].start_ns, 100u);
    EXPECT_EQ(snap.trace[0].arg, 128u);
    EXPECT_EQ(snap.trace[1].op, "free");
    EXPECT_EQ(snap.trace[1].shard, 2u);
}

TEST(Registry, ResetKeepsIdsValid)
{
    obs::MetricsRegistry reg;
    obs::MetricId ops = reg.counter("ops");
    reg.shard(1).add(ops, 3);
    reg.reset();
    EXPECT_EQ(reg.snapshot().counter("ops"), 0u);
    reg.shard(1).add(ops, 2);
    EXPECT_EQ(reg.snapshot().counter("ops"), 2u);
}

TEST(Registry, FullTableDropsAndCountsInsteadOfAborting)
{
    obs::MetricsRegistry reg;
    for (std::uint32_t i = 0; i < obs::kMaxCounters; i++) {
        reg.shard(1).add(reg.counter("c" + std::to_string(i)), 1);
    }
    for (std::uint32_t i = 0; i < obs::kMaxHistograms; i++) {
        reg.histogram("h" + std::to_string(i));
    }
    EXPECT_EQ(reg.snapshot().counter("obs.dropped_metrics"), 0u);

    // Updates through a discard id are accepted and never exported.
    obs::MetricId extra = reg.counter("extra");
    reg.shard(1).add(extra, 5);
    reg.shard(1).add(reg.counter("extra"), 5); // same name: one drop
    reg.shard(1).record(reg.histogram("extra_hist"), 7);
    reg.set_gauge(reg.gauge("g"), 1.0); // gauges have room left

    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("obs.dropped_metrics"), 2u);
    EXPECT_EQ(snap.counter("extra"), 0u);
    EXPECT_EQ(snap.histogram("extra_hist"), nullptr);
    EXPECT_EQ(snap.counter("c0"), 1u);
    EXPECT_EQ(snap.counters.size(), obs::kMaxCounters + 1u);

    // A registry that absorbed another's drop count and then drops a name
    // of its own reports the sum under one name.
    obs::MetricsRegistry outer;
    for (std::uint32_t i = 0; i + 1 < obs::kMaxCounters; i++) {
        outer.counter("o" + std::to_string(i));
    }
    obs::MetricsSnapshot inner;
    inner.counters.emplace_back("obs.dropped_metrics", 2);
    outer.absorb(inner); // takes the last slot
    outer.counter("one_more");
    obs::MetricsSnapshot merged = outer.snapshot();
    EXPECT_EQ(merged.counter("obs.dropped_metrics"), 3u);
    EXPECT_EQ(merged.counters.size(), obs::kMaxCounters + 0u);
}

TEST(Registry, JsonExportParsesBack)
{
    obs::MetricsRegistry reg;
    reg.shard(1).add(reg.counter("mem.loads"), 1'234);
    reg.set_gauge(reg.gauge("run.sim_ns_max"), 5e6);
    obs::MetricId lat = reg.histogram("alloc.alloc_ns");
    for (std::uint64_t v = 100; v <= 1'000; v += 10) {
        reg.shard(1).record(lat, v);
    }
    reg.shard(1).trace().push({reg.op("alloc"), 1, 10, 20, 64});

    std::string text = obs::to_json(reg.snapshot());
    std::string err;
    obs::json::Value root = obs::json::parse(text, &err);
    ASSERT_FALSE(root.is_null()) << err;

    EXPECT_EQ(root.find("schema")->as_string(), "cxlalloc-metrics-v1");
    EXPECT_EQ(root.find("counters")->find("mem.loads")->as_uint(), 1'234u);
    EXPECT_DOUBLE_EQ(root.find("gauges")->find("run.sim_ns_max")->as_number(),
                     5e6);

    const obs::json::Value* h =
        root.find("histograms")->find("alloc.alloc_ns");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->find("count")->as_uint(), 91u);
    EXPECT_EQ(h->find("min")->as_uint(), 100u);
    EXPECT_EQ(h->find("max")->as_uint(), 1'000u);
    double p50 = h->find("p50")->as_number();
    double p99 = h->find("p99")->as_number();
    EXPECT_GE(p50, 100.0);
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, 1'000.0);
    ASSERT_FALSE(h->find("buckets")->as_array().empty());

    const obs::json::Array& trace = root.find("trace")->as_array();
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace[0].find("op")->as_string(), "alloc");
    EXPECT_EQ(trace[0].find("arg")->as_uint(), 64u);

    // CSV comes out non-empty with one row per metric at minimum.
    EXPECT_NE(obs::to_csv(reg.snapshot()).find("mem.loads"),
              std::string::npos);
}

} // namespace
