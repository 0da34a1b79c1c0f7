/// @file
/// Fast litmus suite (tentpole, ROADMAP item 5).
///
/// Every disciplined shape is explored under Random and PCT schedules and
/// must never reach its forbidden outcome. The deliberately-weakened
/// variants — a skipped fence, a skipped data flush, a skipped reader
/// refetch, undertracked dirty lines — MUST reach theirs within a bounded
/// budget, and the failing schedule must replay bit-for-bit.
///
/// DFS exhaustion proofs live in test_litmus_dfs.cc (slow label).

#include <string>

#include <gtest/gtest.h>

#include "common/points.h"
#include "cxl/litmus/litmus.h"
#include "sched/explorer.h"

using cxl::CacheKnobs;
using cxl::litmus::check;
using cxl::litmus::disciplined_shapes;
using cxl::litmus::factory;
using cxl::litmus::Shape;
using cxl::litmus::weak_knobs;
using cxl::litmus::World;

namespace {

sched::Options
random_opts(std::uint64_t seed, int schedules = 300)
{
    sched::Options o;
    o.strategy = sched::Strategy::Random;
    o.seed = seed;
    o.schedules = schedules;
    return o;
}

sched::Options
pct_opts(std::uint64_t seed, int schedules = 300)
{
    sched::Options o;
    o.strategy = sched::Strategy::Pct;
    o.seed = seed;
    o.schedules = schedules;
    o.pct_depth = 3;
    return o;
}

/// A weakened shape must fail within the budget AND the recorded failure
/// must reproduce bit-for-bit under Strategy::Replay.
void
expect_caught_and_replayed(const Shape& shape, const sched::Options& opts)
{
    sched::Result r = check(shape, opts);
    ASSERT_FALSE(r.ok) << shape.name << ": weakened variant was NOT caught in "
                       << opts.schedules << " schedules";
    ASSERT_TRUE(r.failure.has_value());
    EXPECT_NE(r.failure->message.find("forbidden outcome"), std::string::npos)
        << shape.name << ": unexpected failure: " << r.failure->message;

    sched::Explorer replayer(opts);
    sched::Result r1 = replayer.replay(*r.failure, factory(shape));
    sched::Result r2 = replayer.replay(*r.failure, factory(shape));
    ASSERT_FALSE(r1.ok) << shape.name << ": replay did not reproduce";
    ASSERT_FALSE(r2.ok);
    ASSERT_TRUE(r1.failure.has_value());
    EXPECT_EQ(r1.failure->message, r.failure->message);
    EXPECT_EQ(r1.failure->trace, r.failure->trace);
    EXPECT_EQ(r1.fingerprint, r2.fingerprint)
        << shape.name << ": replay fingerprint diverged (not bit-for-bit)";
}

// --- Disciplined shapes: forbidden outcomes never reached. ---------------

TEST(Litmus, DisciplinedShapesHoldUnderRandom)
{
    for (const Shape& shape : disciplined_shapes()) {
        sched::Result r = check(shape, random_opts(0xCAFE + 1));
        EXPECT_TRUE(r.ok) << shape.name << ": "
                          << (r.failure ? r.failure->message : "?");
        EXPECT_GT(r.schedules_run, 0u);
    }
}

TEST(Litmus, DisciplinedShapesHoldUnderPct)
{
    for (const Shape& shape : disciplined_shapes()) {
        sched::Result r = check(shape, pct_opts(0xBEEF + 2));
        EXPECT_TRUE(r.ok) << shape.name << ": "
                          << (r.failure ? r.failure->message : "?");
    }
}

TEST(Litmus, CatalogCoversRequiredShapes)
{
    // The acceptance bar: >= 16 shapes, covering every classic name.
    auto shapes = disciplined_shapes();
    EXPECT_GE(shapes.size(), 16u);
    for (const char* want :
         {"SB", "LB", "MP", "MpCoalesced", "IRIW", "CoRR", "CoWW", "R+",
          "S+", "2+2W", "SwccPublishDirtyOnly"}) {
        bool found = false;
        for (const Shape& s : shapes) {
            if (s.name.rfind(want, 0) == 0) {
                found = true;
            }
        }
        EXPECT_TRUE(found) << "missing litmus shape " << want;
    }
}

// --- Weakened variants: forbidden outcome reached, caught, replayed. -----

/// SB with the fences removed under store-buffer knobs: both stores can
/// sit in their buffers across both loads, so r0 == r1 == 0 is reachable.
TEST(Litmus, WeakenedSbSkipFenceCaught)
{
    Shape s;
    s.name = "SB-skip-fence";
    s.threads = 2;
    s.knobs = weak_knobs(/*fifo=*/true);
    s.body = [](World& w, int t) {
        int mine = t == 0 ? 0 : 1;
        int other = t == 0 ? 1 : 0;
        w.st(t, mine, 1);
        w.flush_var(t, mine); // clwb queues the line; no sfence completes it
        w.refetch(t, other);
        w.reg(t, 0) = w.ld(t, other);
    };
    s.forbidden = [](World& w) -> std::string {
        if (w.reg(0, 0) == 0 && w.reg(1, 0) == 0) {
            return "both writes invisible (skipped fences)";
        }
        return "";
    };
    expect_caught_and_replayed(s, random_opts(11, 400));
}

/// MP with the DATA flush skipped: the flag can become durable while the
/// data is still only in the writer's cache.
TEST(Litmus, WeakenedMpSkipDataFlushCaught)
{
    Shape s;
    s.name = "MP-skip-data-flush";
    s.threads = 2;
    s.knobs = CacheKnobs{}; // even the strong model catches this one
    s.body = [](World& w, int t) {
        if (t == 0) {
            w.st(t, 0, 1); // data, never flushed
            w.st(t, 1, 1);
            w.flush_var(t, 1);
            w.fence(t);
        } else {
            w.refetch(t, 1);
            w.reg(t, 0) = w.ld(t, 1);
            w.refetch(t, 0);
            w.reg(t, 1) = w.ld(t, 0);
        }
    };
    s.forbidden = [](World& w) -> std::string {
        if (w.reg(1, 0) == 1 && w.reg(1, 1) == 0) {
            return "flag durable before data (skipped data flush)";
        }
        return "";
    };
    expect_caught_and_replayed(s, random_opts(12, 400));
}

/// MP where the reader has a WARM stale copy of the data line and skips
/// the reader-side refetch: the protocol's flush-before-read rule is what
/// makes MP hold, and dropping it is observable.
TEST(Litmus, WeakenedMpWarmSkipRefetchCaught)
{
    Shape s;
    s.name = "MP-warm-skip-refetch";
    s.threads = 2;
    s.knobs = CacheKnobs{};
    s.body = [](World& w, int t) {
        if (t == 0) {
            w.reg(t, 3) = w.ld(t, 0); // warm a stale copy of x (== 0)
            w.st(t, 1, 1);            // tell the writer to go
            w.flush_var(t, 1);
            w.fence(t);
            // Wait until the writer published the flag.
            w.refetch(t, 2);
            for (int i = 0; i < 64 && w.ld(t, 2) != 1; i++) {
                w.refetch(t, 2);
            }
            w.reg(t, 0) = w.ld(t, 2);
            // BUG: no refetch(t, 0) here — reads the warm stale line.
            w.reg(t, 1) = w.ld(t, 0);
        } else {
            w.refetch(t, 1);
            for (int i = 0; i < 64 && w.ld(t, 1) != 1; i++) {
                w.refetch(t, 1);
            }
            if (w.ld(t, 1) == 1) {
                w.st(t, 0, 1);
                w.flush_var(t, 0);
                w.fence(t);
                w.st(t, 2, 1);
                w.flush_var(t, 2);
                w.fence(t);
            }
        }
    };
    s.forbidden = [](World& w) -> std::string {
        if (w.reg(0, 0) == 1 && w.reg(0, 1) == 0) {
            return "stale warm line read after flag (skipped refetch)";
        }
        return "";
    };
    expect_caught_and_replayed(s, random_opts(13, 400));
}

/// The allocator publication pattern with dirty-line tracking disabled:
/// flush_dirty under-flushes (believes nothing is dirty), so a published
/// "descriptor" can be observed stale. Guards the DirtyLineSet itself.
TEST(Litmus, WeakenedPublishUndertrackedCaught)
{
    cxlcommon::ScopedArm defect(cxlcommon::defect::kSkipDirtyLineTracking);

    Shape s;
    s.name = "publish-undertracked";
    s.threads = 2;
    s.knobs = CacheKnobs{};
    s.body = [](World& w, int t) {
        cxl::HeapOffset line0 = World::kDescBase;
        if (t == 0) {
            w.mem(t).store<std::uint64_t>(line0, 1);
            // Tracking is off, so this flushes nothing.
            w.mem(t).flush_dirty(World::kDescBase, World::kDescLen);
            w.fence(t);
            w.mem(t).atomic_store64(World::kFlag, 1);
        } else {
            w.reg(t, 0) = w.mem(t).atomic_load64(World::kFlag);
            if (w.reg(t, 0) == 1) {
                w.mem(t).flush(line0, 8);
                w.reg(t, 1) = w.mem(t).load<std::uint64_t>(line0);
            }
        }
    };
    s.forbidden = [](World& w) -> std::string {
        if (w.reg(1, 0) == 1 && w.reg(1, 1) != 1) {
            return "published descriptor stale (dirty lines untracked)";
        }
        return "";
    };
    expect_caught_and_replayed(s, random_opts(14, 400));
}

} // namespace
