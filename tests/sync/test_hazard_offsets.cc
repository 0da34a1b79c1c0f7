#include "sync/hazard_offsets.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/cacheline.h"
#include "common/random.h"
#include "cxl/device.h"
#include "cxl/nmp.h"
#include "sched/hook.h"

namespace {

using cxl::CoherenceMode;
using cxl::Device;
using cxl::DeviceConfig;
using cxl::MemSession;
using cxl::Nmp;
using cxlsync::HazardOffsets;

/// The row-bound word, in the sync region.
constexpr cxl::HeapOffset kRowBound = 8;

class HazardTest : public ::testing::Test {
  protected:
    HazardTest()
        : dev_(DeviceConfig{.size = 4 << 20,
                            .mode = CoherenceMode::PartialHwcc,
                            .sync_region_size = 4096,
                            .simulate_cache = true}),
          nmp_(&dev_), hazards_(1 << 20, /*slots_per_thread=*/4, kRowBound)
    {
    }

    MemSession
    session(cxl::ThreadId tid)
    {
        return MemSession(&dev_, &nmp_, tid);
    }

    Device dev_;
    Nmp nmp_;
    HazardOffsets hazards_;
};

TEST_F(HazardTest, PublishThenVisibleToScan)
{
    MemSession a = session(1);
    MemSession b = session(2);
    hazards_.try_publish(a, 0x5000);
    // The flush-after-write / flush-before-read discipline makes the hazard
    // visible despite simulated (incoherent) caches.
    EXPECT_TRUE(hazards_.is_published(b, 0x5000));
    EXPECT_FALSE(hazards_.is_published(b, 0x6000));
}

TEST_F(HazardTest, RemoveBySlot)
{
    MemSession a = session(1);
    std::uint32_t slot = hazards_.try_publish(a, 0x5000);
    hazards_.remove(a, slot);
    MemSession b = session(2);
    EXPECT_FALSE(hazards_.is_published(b, 0x5000));
}

TEST_F(HazardTest, RemoveByValue)
{
    MemSession a = session(1);
    hazards_.try_publish(a, 0x5000);
    hazards_.try_publish(a, 0x7000);
    EXPECT_TRUE(hazards_.remove_value(a, 0x5000));
    EXPECT_FALSE(hazards_.remove_value(a, 0x5000));
    MemSession b = session(2);
    EXPECT_FALSE(hazards_.is_published(b, 0x5000));
    EXPECT_TRUE(hazards_.is_published(b, 0x7000));
}

TEST_F(HazardTest, SlotsFillLowestFirstAndRecycle)
{
    MemSession a = session(1);
    EXPECT_EQ(hazards_.try_publish(a, 0x1000), 0u);
    EXPECT_EQ(hazards_.try_publish(a, 0x2000), 1u);
    hazards_.remove(a, 0);
    EXPECT_EQ(hazards_.try_publish(a, 0x3000), 0u);
}

TEST_F(HazardTest, RowExhaustionReturnsNoSlot)
{
    MemSession a = session(1);
    for (std::uint32_t i = 0; i < 4; i++) {
        EXPECT_EQ(hazards_.try_publish(a, 0x1000 + i * 8), i);
    }
    EXPECT_EQ(hazards_.try_publish(a, 0x9000), HazardOffsets::kNoSlot);
    MemSession b = session(2);
    EXPECT_FALSE(hazards_.is_published(b, 0x9000));
}

TEST_F(HazardTest, PerThreadRowsAreIndependent)
{
    MemSession a = session(1);
    MemSession b = session(2);
    hazards_.try_publish(a, 0x5000);
    hazards_.try_publish(b, 0x5000);
    // Removing thread 1's publication leaves thread 2's intact: the mapping
    // is still held somewhere in the pod, so reclamation must wait.
    EXPECT_TRUE(hazards_.remove_value(a, 0x5000));
    MemSession c = session(3);
    EXPECT_TRUE(hazards_.is_published(c, 0x5000));
    EXPECT_TRUE(hazards_.remove_value(b, 0x5000));
    EXPECT_FALSE(hazards_.is_published(c, 0x5000));
}

TEST_F(HazardTest, CrashedThreadsHazardsRemainPublished)
{
    // A crashed process never removed its hazard: the offset must stay
    // protected (conservative leak, reclaimed by that slot's recovery).
    MemSession a = session(1);
    hazards_.try_publish(a, 0x5000);
    a.drop_cache(); // crash: note the publish flushed, so state survives
    MemSession b = session(2);
    EXPECT_TRUE(hazards_.is_published(b, 0x5000));
}

/// Counts the sched hooks a single-threaded call fires.
struct HookCounter : sched::Listener {
    HookCounter() { sched::t_listener = this; }
    ~HookCounter() override { sched::t_listener = nullptr; }

    void
    on_event(const sched::Event& e) override
    {
        events++;
        scans += e.op == sched::Op::HazardScan ? 1 : 0;
    }

    std::uint64_t events = 0;
    std::uint64_t scans = 0;
};

/// Seeds rows 0..@p bound of a table with random offsets (about a third of
/// the slots filled, with repeats across rows), always including the first
/// slot of the tid 0 row and the last slot of the tid @p bound row. Clears
/// every row above @p bound and sets the row-bound word to @p bound.
void
fill_random(MemSession& writer, const HazardOffsets& hz, std::uint64_t seed,
            cxl::ThreadId bound)
{
    cxlcommon::Xoshiro rng(seed);
    for (std::uint32_t tid = 0; tid <= cxl::kMaxThreads; tid++) {
        for (std::uint32_t slot = 0; slot < hz.slots_per_thread(); slot++) {
            bool edge = (tid == 0 && slot == 0) ||
                        (tid == bound && slot + 1 == hz.slots_per_thread());
            bool fill = tid <= bound && (edge || rng.next_below(3) == 0);
            cxl::HeapOffset at =
                hz.slot_offset(static_cast<cxl::ThreadId>(tid), slot);
            writer.store<std::uint64_t>(
                at, fill ? 0x1000 + rng.next_below(64) * 8 : 0);
            writer.flush(at, 8);
        }
    }
    writer.fence();
    writer.atomic_store64(kRowBound, bound);
}

/// The published offsets as a per-slot reader of every row sees them,
/// sorted.
std::vector<cxl::HeapOffset>
brute_force(MemSession& reader, const HazardOffsets& hz)
{
    std::vector<cxl::HeapOffset> out;
    for (std::uint32_t tid = 0; tid <= cxl::kMaxThreads; tid++) {
        for (std::uint32_t slot = 0; slot < hz.slots_per_thread(); slot++) {
            cxl::HeapOffset at =
                hz.slot_offset(static_cast<cxl::ThreadId>(tid), slot);
            reader.flush(at, 8);
            if (std::uint64_t v = reader.load<std::uint64_t>(at); v != 0) {
                out.push_back(v);
            }
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

TEST_F(HazardTest, SnapshotMatchesPerSlotReadAtEveryRowWidth)
{
    // 24 B rows (3 slots) straddle lines; 2 and 3 slots per row end the
    // full table mid-line (2576 B and 3864 B). A skewed base also splits
    // the first line and makes rows of every width straddle. The row
    // bound takes three values: only row 0, a mid tid, and kMaxThreads,
    // where the whole table is read.
    for (std::uint32_t slots : {2u, 3u, 8u, 16u}) {
        for (cxl::HeapOffset skew : {0u, 24u}) {
            for (cxl::ThreadId bound :
                 {std::uint32_t{0}, std::uint32_t{77}, cxl::kMaxThreads}) {
                HazardOffsets hz((2 << 20) + skew, slots, kRowBound);
                MemSession writer = session(5);
                fill_random(writer, hz, 100 * slots + skew + bound, bound);
                MemSession reader = session(6);
                std::vector<cxl::HeapOffset> expect = brute_force(reader, hz);
                ASSERT_FALSE(expect.empty());

                MemSession fresh = session(7);
                std::uint64_t hooks = 0;
                std::uint64_t scans = 0;
                cxlsync::HazardSnapshot snap;
                {
                    HookCounter counter;
                    snap = hz.snapshot(fresh);
                    hooks = counter.events;
                    scans = counter.scans;
                }
                EXPECT_EQ(snap.offsets, expect)
                    << slots << " slots/row, base skew " << skew
                    << ", row bound " << bound;
                cxl::HeapOffset row0 = fresh.load<std::uint64_t>(
                    hz.slot_offset(0, 0));
                cxl::HeapOffset last = fresh.load<std::uint64_t>(
                    hz.slot_offset(bound, slots - 1));
                EXPECT_TRUE(snap.contains(row0));
                EXPECT_TRUE(snap.contains(last));
                EXPECT_FALSE(snap.contains(0x0ff8));

                // One flush and one read per line up to the bound's row,
                // nothing more.
                std::uint64_t base = (2 << 20) + skew;
                std::uint64_t end =
                    base + (static_cast<std::uint64_t>(bound) + 1) * slots * 8;
                std::uint64_t lines =
                    (cxlcommon::line_of(end - 1) - cxlcommon::line_of(base)) /
                        cxlcommon::kCacheLine +
                    1;
                if (bound == cxl::kMaxThreads) {
                    EXPECT_EQ(end, base + HazardOffsets::footprint(slots));
                }
                EXPECT_EQ(fresh.counters().flushes, lines);
                EXPECT_EQ(fresh.counters().flushed_lines, lines);
                // The bound's load, then per line the scan hook, the flush
                // and the bulk read.
                EXPECT_EQ(scans, lines);
                EXPECT_EQ(hooks, 1 + 3 * lines);
            }
        }
    }
}

TEST_F(HazardTest, PublishRaisesTheRowBoundMonotonically)
{
    MemSession probe = session(9);
    EXPECT_EQ(hazards_.row_bound(probe), 0u);
    MemSession c = session(3);
    hazards_.try_publish(c, 0x5000);
    EXPECT_EQ(hazards_.row_bound(probe), 3u);
    // A lower tid publishing, and the higher one removing, leave it put.
    MemSession a = session(1);
    hazards_.try_publish(a, 0x6000);
    EXPECT_TRUE(hazards_.remove_value(c, 0x5000));
    EXPECT_EQ(hazards_.row_bound(probe), 3u);
    EXPECT_TRUE(hazards_.is_published(probe, 0x6000));
    MemSession e = session(5);
    hazards_.try_publish(e, 0x7000);
    EXPECT_EQ(hazards_.row_bound(probe), 5u);
    EXPECT_TRUE(hazards_.is_published(probe, 0x7000));
}

} // namespace
