/// Batched NMP engine tests: deterministic competing-batch interleavings,
/// partial-batch conflicts, ring wrap-around and full-ring rejection at the
/// engine level; then the allocator's batched remote-free drain, including
/// a crash inside a half-submitted batch recovered through the §5.1
/// machinery (the operand ring is device memory and survives the crash),
/// on one heap and across the shards and heaps of a pod.

#include "cxl/nmp.h"

#include <gtest/gtest.h>
#include <functional>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "../cxlalloc/fixture.h"
#include "cxlalloc/pod_shard.h"
#include "pod/topology.h"
#include "sched/hook.h"

namespace {

using cxl::CoherenceMode;
using cxl::Device;
using cxl::DeviceConfig;
using cxl::kNmpRingSlots;
using cxl::McasOperand;
using cxl::McasResult;
using cxl::Nmp;
using cxl::NmpSlotState;
using cxl::NmpSlotView;

class NmpBatchTest : public ::testing::Test {
  protected:
    NmpBatchTest()
        : dev_(DeviceConfig{.size = 1 << 20,
                            .mode = CoherenceMode::NoHwcc,
                            .sync_region_size = 64 << 10}),
          nmp_(&dev_)
    {
    }

    std::uint64_t
    word(std::uint64_t offset)
    {
        return std::atomic_ref<std::uint64_t>(
                   *reinterpret_cast<std::uint64_t*>(dev_.raw(offset)))
            .load(std::memory_order_acquire);
    }

    static McasOperand
    op(cxl::HeapOffset target, std::uint64_t expected, std::uint64_t swap)
    {
        return McasOperand{
            .target = target, .expected = expected, .swap = swap};
    }

    Device dev_;
    Nmp nmp_;
};

TEST_F(NmpBatchTest, DoorbellExecutesInPostingOrderPollIsFifo)
{
    ASSERT_TRUE(nmp_.spwr_post(1, op(128, 0, 10)));
    ASSERT_TRUE(nmp_.spwr_post(1, op(192, 0, 20)));
    ASSERT_TRUE(nmp_.spwr_post(1, op(256, 0, 30)));
    EXPECT_EQ(nmp_.ring_occupancy(1), 3u);
    EXPECT_EQ(nmp_.doorbell(1), 3u);
    McasResult r;
    ASSERT_TRUE(nmp_.poll(1, &r));
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.previous, 0u);
    ASSERT_TRUE(nmp_.poll(1, &r));
    EXPECT_TRUE(r.success);
    ASSERT_TRUE(nmp_.poll(1, &r));
    EXPECT_TRUE(r.success);
    EXPECT_FALSE(nmp_.poll(1, &r));
    EXPECT_EQ(word(128), 10u);
    EXPECT_EQ(word(192), 20u);
    EXPECT_EQ(word(256), 30u);
    EXPECT_EQ(nmp_.total_batches(), 1u);
    EXPECT_EQ(nmp_.total_ops(), 3u);
}

TEST_F(NmpBatchTest, FullRingRejectsFurtherPosts)
{
    for (std::uint32_t i = 0; i < kNmpRingSlots; i++) {
        ASSERT_TRUE(nmp_.spwr_post(1, op(128 + 64 * i, 0, i + 1)));
    }
    EXPECT_FALSE(nmp_.spwr_post(1, op(8192, 0, 99)));
    EXPECT_EQ(nmp_.doorbell(1), kNmpRingSlots);
    McasResult r;
    for (std::uint32_t i = 0; i < kNmpRingSlots; i++) {
        ASSERT_TRUE(nmp_.poll(1, &r));
        EXPECT_TRUE(r.success);
    }
    // Drained: the ring accepts again.
    EXPECT_TRUE(nmp_.spwr_post(1, op(8192, 0, 99)));
    EXPECT_EQ(nmp_.doorbell(1), 1u);
}

TEST_F(NmpBatchTest, WithinBatchDuplicateTargetIsDoomed)
{
    // Fig. 6(b) applies to a thread's own earlier slot too: one in-flight
    // operand per target pod-wide.
    ASSERT_TRUE(nmp_.spwr_post(1, op(256, 0, 1)));
    ASSERT_TRUE(nmp_.spwr_post(1, op(256, 0, 2)));
    EXPECT_EQ(nmp_.doorbell(1), 2u);
    McasResult first;
    McasResult second;
    ASSERT_TRUE(nmp_.poll(1, &first));
    ASSERT_TRUE(nmp_.poll(1, &second));
    EXPECT_TRUE(first.success);
    EXPECT_TRUE(second.conflict);
    EXPECT_EQ(word(256), 1u);
    EXPECT_EQ(nmp_.total_conflicts(), 1u);
}

TEST_F(NmpBatchTest, CompetingBatchesDoomTheLaterArrival)
{
    // T1 posts to 256 first; T2's post to the same target arrives while
    // T1's operand is staged and is doomed regardless of doorbell order.
    ASSERT_TRUE(nmp_.spwr_post(1, op(256, 0, 7)));
    ASSERT_TRUE(nmp_.spwr_post(2, op(256, 0, 8)));
    EXPECT_EQ(nmp_.doorbell(2), 1u);
    McasResult r2;
    ASSERT_TRUE(nmp_.poll(2, &r2));
    EXPECT_TRUE(r2.conflict);
    EXPECT_EQ(nmp_.doorbell(1), 1u);
    McasResult r1;
    ASSERT_TRUE(nmp_.poll(1, &r1));
    EXPECT_TRUE(r1.success);
    EXPECT_EQ(word(256), 7u);
}

TEST_F(NmpBatchTest, PartialBatchConflictOnlyHitsTheOverlappingTarget)
{
    ASSERT_TRUE(nmp_.spwr_post(1, op(256, 0, 1)));
    // T2's ring: one operand collides with T1's staged operand, the other
    // two are independent and must execute normally.
    ASSERT_TRUE(nmp_.spwr_post(2, op(512, 0, 2)));
    ASSERT_TRUE(nmp_.spwr_post(2, op(256, 0, 3)));
    ASSERT_TRUE(nmp_.spwr_post(2, op(768, 0, 4)));
    EXPECT_EQ(nmp_.doorbell(2), 3u);
    McasResult r;
    ASSERT_TRUE(nmp_.poll(2, &r));
    EXPECT_TRUE(r.success); // 512
    ASSERT_TRUE(nmp_.poll(2, &r));
    EXPECT_TRUE(r.conflict); // 256: doomed by T1's staged operand
    ASSERT_TRUE(nmp_.poll(2, &r));
    EXPECT_TRUE(r.success); // 768
    EXPECT_EQ(nmp_.doorbell(1), 1u);
    ASSERT_TRUE(nmp_.poll(1, &r));
    EXPECT_TRUE(r.success);
    EXPECT_EQ(word(256), 1u);
    EXPECT_EQ(word(512), 2u);
    EXPECT_EQ(word(768), 4u);
}

TEST_F(NmpBatchTest, ConflictWindowClosesAtExecutionNotAtPoll)
{
    // Once the engine has executed an operand its CAS is done; an
    // executed-but-unpolled slot must not doom later arrivals.
    ASSERT_TRUE(nmp_.spwr_post(1, op(256, 0, 1)));
    EXPECT_EQ(nmp_.doorbell(1), 1u);
    ASSERT_TRUE(nmp_.spwr_post(2, op(256, 1, 2)));
    EXPECT_EQ(nmp_.doorbell(2), 1u);
    McasResult r2;
    ASSERT_TRUE(nmp_.poll(2, &r2));
    EXPECT_TRUE(r2.success);
    EXPECT_EQ(word(256), 2u);
    McasResult r1;
    ASSERT_TRUE(nmp_.poll(1, &r1));
    EXPECT_TRUE(r1.success);
}

TEST_F(NmpBatchTest, RingWrapsAroundAcrossManyBatches)
{
    // 5 rounds of 3 push head past kNmpRingSlots several times.
    std::uint64_t expect = 0;
    for (std::uint32_t round = 0; round < 5; round++) {
        for (std::uint32_t j = 0; j < 3; j++) {
            ASSERT_TRUE(nmp_.spwr_post(1, op(1024, expect, expect + 1)));
            EXPECT_EQ(nmp_.doorbell(1), 1u);
            McasResult r;
            ASSERT_TRUE(nmp_.poll(1, &r));
            ASSERT_TRUE(r.success);
            expect++;
        }
        // And one multi-operand batch per round on distinct targets.
        ASSERT_TRUE(nmp_.spwr_post(1, op(2048, round, round + 1)));
        ASSERT_TRUE(nmp_.spwr_post(1, op(4096, round, round + 1)));
        EXPECT_EQ(nmp_.doorbell(1), 2u);
        McasResult r;
        ASSERT_TRUE(nmp_.poll(1, &r));
        ASSERT_TRUE(nmp_.poll(1, &r));
    }
    EXPECT_EQ(word(1024), 15u);
    EXPECT_EQ(word(2048), 5u);
    EXPECT_EQ(word(4096), 5u);
}

TEST_F(NmpBatchTest, SnapshotShowsPostedThenExecutedThenDrains)
{
    ASSERT_TRUE(nmp_.spwr_post(3, op(128, 0, 1)));
    ASSERT_TRUE(nmp_.spwr_post(3, op(192, 0, 2)));
    NmpSlotView views[kNmpRingSlots];
    ASSERT_EQ(nmp_.ring_snapshot(3, views, kNmpRingSlots), 2u);
    EXPECT_EQ(views[0].state, NmpSlotState::Posted);
    EXPECT_EQ(views[1].state, NmpSlotState::Posted);
    EXPECT_EQ(views[0].op.target, 128u);
    EXPECT_EQ(views[1].op.target, 192u);
    nmp_.doorbell(3);
    ASSERT_EQ(nmp_.ring_snapshot(3, views, kNmpRingSlots), 2u);
    EXPECT_EQ(views[0].state, NmpSlotState::Executed);
    EXPECT_TRUE(views[0].result.success);
    McasResult r;
    ASSERT_TRUE(nmp_.poll(3, &r));
    ASSERT_EQ(nmp_.ring_snapshot(3, views, kNmpRingSlots), 1u);
    EXPECT_EQ(views[0].op.target, 192u);
}

TEST_F(NmpBatchTest, ResetRingDiscardsStagedOperandsAndStopsDooming)
{
    // A crashed thread's staged operand dooms competitors until recovery
    // releases the ring.
    ASSERT_TRUE(nmp_.spwr_post(1, op(256, 0, 1)));
    nmp_.reset_ring(1);
    EXPECT_EQ(nmp_.ring_occupancy(1), 0u);
    // A fresh post by another thread no longer conflicts.
    ASSERT_TRUE(nmp_.spwr_post(2, op(256, 0, 2)));
    EXPECT_EQ(nmp_.doorbell(2), 1u);
    McasResult r;
    ASSERT_TRUE(nmp_.poll(2, &r));
    EXPECT_TRUE(r.success);
    EXPECT_EQ(word(256), 2u);
    // The discarded operand never executed.
    EXPECT_FALSE(nmp_.poll(1, &r));
}

TEST_F(NmpBatchTest, ConcurrentBatchesLinearize)
{
    // 4 threads batch increments over striped words through spwr_batch,
    // retrying failures; every successful increment must be reflected.
    constexpr int kThreads = 4;
    constexpr int kIncrements = 300;
    constexpr std::uint32_t kStripes = 16;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([this, t] {
            auto tid = static_cast<cxl::ThreadId>(t + 1);
            int done = 0;
            std::uint32_t base = static_cast<std::uint32_t>(t) * 5;
            while (done < kIncrements) {
                McasOperand ops[kNmpRingSlots];
                auto want = static_cast<std::uint32_t>(
                    std::min<int>(kNmpRingSlots, kIncrements - done));
                for (std::uint32_t j = 0; j < want; j++) {
                    cxl::HeapOffset target =
                        8192 + ((base + j) % kStripes) * 64;
                    std::uint64_t cur = word(target);
                    ops[j] = op(target, cur, cur + 1);
                }
                std::uint32_t accepted = nmp_.spwr_batch(tid, ops, want);
                for (std::uint32_t k = 0; k < accepted; k++) {
                    McasResult r;
                    if (!nmp_.poll(tid, &r)) {
                        break; // impossible; avoid hanging on a bug
                    }
                    if (r.success) {
                        done++;
                    }
                }
                base += 3; // rotate the window
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < kStripes; s++) {
        total += word(8192 + s * 64);
    }
    EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kIncrements);
}

// ------------------------- allocator batched drain ------------------------

using cxltest::Rig;
using cxltest::RigOptions;
using pod::ThreadCrashed;

RigOptions
nohwcc_opts()
{
    RigOptions opt;
    opt.mode = cxl::CoherenceMode::NoHwcc;
    return opt;
}

TEST(DeallocateBatch, DistinctSlabsShareOneDoorbell)
{
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    // Eight distinct size classes land in eight distinct slabs, all owned
    // by t1 — so t2's drain is eight remote frees of distinct counters.
    std::vector<cxl::HeapOffset> offs;
    for (std::uint64_t size : {8, 16, 32, 64, 128, 256, 512, 1024}) {
        cxl::HeapOffset p = rig.alloc.allocate(*t1, size);
        ASSERT_NE(p, 0u);
        offs.push_back(p);
    }
    const auto& before = t2->mem().counters();
    std::uint64_t batches0 = before.mcas_batches;
    rig.alloc.deallocate_batch(*t2, offs.data(),
                               static_cast<std::uint32_t>(offs.size()));
    const auto& after = t2->mem().counters();
    // One doorbell carried all eight decrements.
    EXPECT_EQ(after.mcas_batches - batches0, 1u);
    EXPECT_EQ(after.mcas_batch_ops, 8u);
    EXPECT_EQ(after.mcas_conflicts, 0u);
    rig.alloc.check_invariants(t1->mem());
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(DeallocateBatch, SameSlabDuplicatesFallBackWithoutSelfConflict)
{
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    std::vector<cxl::HeapOffset> offs;
    for (int i = 0; i < 12; i++) {
        cxl::HeapOffset p = rig.alloc.allocate(*t1, 64);
        ASSERT_NE(p, 0u);
        offs.push_back(p);
    }
    // All twelve live in one slab: the drain must serialize them (one per
    // round) rather than doom its own duplicates.
    rig.alloc.deallocate_batch(*t2, offs.data(),
                               static_cast<std::uint32_t>(offs.size()));
    EXPECT_EQ(t2->mem().counters().mcas_conflicts, 0u);
    rig.alloc.check_invariants(t1->mem());
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(DeallocateBatch, MixedLocalRemoteAndHugeMatchSerialSemantics)
{
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    std::vector<cxl::HeapOffset> offs;
    offs.push_back(rig.alloc.allocate(*t2, 64));     // local to t2
    offs.push_back(rig.alloc.allocate(*t1, 64));     // remote
    offs.push_back(rig.alloc.allocate(*t1, 4096));   // remote, large heap
    offs.push_back(rig.alloc.allocate(*t2, 1 << 20)); // huge
    for (cxl::HeapOffset p : offs) {
        ASSERT_NE(p, 0u);
    }
    rig.alloc.deallocate_batch(*t2, offs.data(),
                               static_cast<std::uint32_t>(offs.size()));
    rig.alloc.check_invariants(t1->mem());
    rig.alloc.check_local_invariants(t2->mem());
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

/// Fills one 1 KiB-class slab from a victim thread, remote-frees most
/// blocks in batches, crashes the freeing thread at @p point inside a
/// half-submitted batch, recovers via adoption, completes the remaining
/// frees, and proves exactly-once decrement semantics by stealing the slab
/// at counter zero: the final allocations must reuse the stolen slab (heap
/// length unchanged). A lost decrement leaves the counter above zero (no
/// steal, length grows); a doubled one underflow-asserts.
void
batch_crash_roundtrip(int point)
{
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    constexpr int kBlocks = 32; // 32 KiB slab / 1 KiB class
    std::vector<cxl::HeapOffset> offs;
    for (int i = 0; i < kBlocks; i++) {
        cxl::HeapOffset p = rig.alloc.allocate(*t1, 1024);
        ASSERT_NE(p, 0u);
        offs.push_back(p);
    }
    std::uint32_t len_before = rig.alloc.stats(t1->mem()).small.length;

    // Free 24 of 32 remotely, leaving the counter at 8.
    rig.alloc.deallocate_batch(*t2, offs.data(), 24);

    // Overwrite t2's record with a completed serial op (alloc + local
    // free) so a kMidBatchStage crash finds a NON-batch record: recovery
    // must then discard the staged-but-unlogged operand rather than redo
    // it. (A stale FreeRemoteBatch record is discarded the same way: it
    // names none of the staged operands' versions.)
    cxl::HeapOffset scratch = rig.alloc.allocate(*t2, 64);
    ASSERT_NE(scratch, 0u);
    rig.alloc.deallocate(*t2, scratch);
    len_before = rig.alloc.stats(t1->mem()).small.length;

    // Crash inside the next batch (7 decrements; all target one slab, so
    // the first round stages exactly offs[24]).
    t2->arm_crash(point, 1);
    bool crashed = false;
    try {
        rig.alloc.deallocate_batch(*t2, offs.data() + 24, 7);
    } catch (const ThreadCrashed&) {
        crashed = true;
    }
    ASSERT_TRUE(crashed);
    cxl::ThreadId tid = t2->tid();
    rig.pod.mark_crashed(std::move(t2));
    t2 = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*t2);
    rig.alloc.check_invariants(t2->mem());
    rig.alloc.check_local_invariants(t2->mem());

    // kMidBatchStage: no record was logged, so recovery discarded the
    // staged operand — all 7 frees remain to be done. At the doorbell /
    // drain points the record was logged and recovery guarantees offs[24]'s
    // decrement landed exactly once — only the other 6 remain.
    if (point == cxlalloc::crashpoint::kMidBatchStage) {
        rig.alloc.deallocate_batch(*t2, offs.data() + 24, 7);
    } else {
        rig.alloc.deallocate_batch(*t2, offs.data() + 25, 6);
    }
    // Counter is now 1; the last free takes it to zero and t2 steals the
    // fully-remotely-freed slab (paper §3.2.1).
    rig.alloc.deallocate(*t2, offs[31]);
    rig.alloc.check_invariants(t2->mem());

    // The stolen slab serves t2's next allocations without growing the
    // heap: exactly-once decrements proven end to end.
    for (int i = 0; i < kBlocks; i++) {
        ASSERT_NE(rig.alloc.allocate(*t2, 1024), 0u);
    }
    EXPECT_EQ(rig.alloc.stats(t2->mem()).small.length, len_before);
    rig.alloc.check_invariants(t2->mem());
    rig.alloc.check_local_invariants(t2->mem());
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(DeallocateBatchCrash, MidBatchStage)
{
    batch_crash_roundtrip(cxlalloc::crashpoint::kMidBatchStage);
}

TEST(DeallocateBatchCrash, MidBatchDoorbell)
{
    batch_crash_roundtrip(cxlalloc::crashpoint::kMidBatchDoorbell);
}

TEST(DeallocateBatchCrash, MidBatchDrain)
{
    batch_crash_roundtrip(cxlalloc::crashpoint::kMidBatchDrain);
}

TEST(DeallocateBatchCrash, SweepCountdownsThroughMixedBatches)
{
    // §5.1-style sweep: mixed batched frees with the crash armed at each
    // batch point and several countdown depths; every interrupted state
    // must recover to a fully usable heap.
    for (int point : {cxlalloc::crashpoint::kMidBatchStage,
                      cxlalloc::crashpoint::kMidBatchDoorbell,
                      cxlalloc::crashpoint::kMidBatchDrain}) {
        for (std::uint32_t countdown = 1; countdown <= 5; countdown++) {
            Rig rig(nohwcc_opts());
            auto t1 = rig.thread();
            auto t2 = rig.thread();
            std::vector<cxl::HeapOffset> offs;
            for (int round = 0; round < 3; round++) {
                for (std::uint64_t size : {8, 16, 32, 64, 128, 256, 512}) {
                    cxl::HeapOffset p = rig.alloc.allocate(*t1, size);
                    ASSERT_NE(p, 0u);
                    offs.push_back(p);
                }
            }
            t2->arm_crash(point, countdown);
            bool crashed = false;
            try {
                rig.alloc.deallocate_batch(
                    *t2, offs.data(),
                    static_cast<std::uint32_t>(offs.size()));
                t2->disarm_crash();
            } catch (const ThreadCrashed&) {
                crashed = true;
                cxl::ThreadId tid = t2->tid();
                rig.pod.mark_crashed(std::move(t2));
                t2 = rig.pod.adopt_thread(rig.process, tid);
                rig.alloc.recover(*t2);
            }
            rig.alloc.check_invariants(t2->mem());
            rig.alloc.check_local_invariants(t2->mem());
            // The heap stays fully usable either way.
            for (int i = 0; i < 30; i++) {
                cxl::HeapOffset p = rig.alloc.allocate(*t2, 64);
                ASSERT_NE(p, 0u);
                rig.alloc.deallocate(*t2, p);
            }
            rig.alloc.check_invariants(t2->mem());
            (void)crashed;
            rig.pod.release_thread(std::move(t1));
            rig.pod.release_thread(std::move(t2));
        }
    }
}

/// Remote-free counter of the small slab holding @p offset.
std::uint32_t
counter_of(Rig& rig, cxl::MemSession& mem, cxl::HeapOffset offset)
{
    auto slab = static_cast<std::uint32_t>(
        (offset - rig.alloc.layout().small_data()) / cxlalloc::kSmallSlabSize);
    return rig.alloc.small_heap().debug_remote_free(mem, slab);
}

TEST(DeallocateBatchCrash, RetryRoundSweep)
{
    // Same-slab duplicates force every round after the first to stage
    // over the previous round's own tags, i.e. the path where the help
    // record is elided and a kMidBatchStage crash finds the previous
    // round's FreeRemoteBatch record. Local blocks in the batch put
    // kAfterRecord (serial free_local) between rounds. Crash at every
    // countdown of every batch point, under both severities: recovery
    // must leave a consistent heap whose counters never drop below the
    // blocks the test still holds (a doubled decrement would).
    for (auto severity :
         {pod::Pod::CrashSeverity::Process, pod::Pod::CrashSeverity::Host}) {
        for (int point : {cxlalloc::crashpoint::kAfterRecord,
                          cxlalloc::crashpoint::kMidBatchStage,
                          cxlalloc::crashpoint::kMidBatchDoorbell,
                          cxlalloc::crashpoint::kMidBatchDrain}) {
            bool completed = false;
            std::uint32_t crashes = 0;
            for (std::uint32_t countdown = 1; !completed; countdown++) {
                ASSERT_LE(countdown, 64u) << "batch never completed";
                RigOptions opt = nohwcc_opts();
                opt.simulate_cache = true;
                Rig rig(opt);
                auto t1 = rig.thread();
                auto t2 = rig.thread();
                // Two victim slabs: 32 x 1 KiB and 64 x 512 B blocks.
                std::vector<cxl::HeapOffset> a, b;
                for (int i = 0; i < 32; i++) {
                    a.push_back(rig.alloc.allocate(*t1, 1024));
                }
                for (int i = 0; i < 64; i++) {
                    b.push_back(rig.alloc.allocate(*t1, 512));
                }
                std::vector<cxl::HeapOffset> offs;
                for (int i = 0; i < 4; i++) {
                    offs.push_back(a[i]);
                    offs.push_back(b[i]);
                    offs.push_back(rig.alloc.allocate(*t2, 64));
                }
                for (cxl::HeapOffset p : offs) {
                    ASSERT_NE(p, 0u);
                }
                t2->arm_crash(point, countdown);
                try {
                    rig.alloc.deallocate_batch(
                        *t2, offs.data(),
                        static_cast<std::uint32_t>(offs.size()));
                    t2->disarm_crash();
                    completed = true;
                } catch (const ThreadCrashed&) {
                    crashes++;
                    cxl::ThreadId tid = t2->tid();
                    rig.pod.mark_crashed(std::move(t2), severity);
                    t2 = rig.pod.adopt_thread(rig.process, tid);
                    if (point == cxlalloc::crashpoint::kMidBatchStage &&
                        countdown >= 3) {
                        // A retry round staged over its own tags; the
                        // record is still the previous round's batch
                        // (round 1's serial local frees log FreeLocal, so
                        // round 2 finds that instead).
                        EXPECT_EQ(rig.alloc.pending_record(*t2).op,
                                  cxlalloc::Op::FreeRemoteBatch);
                    }
                    rig.alloc.recover(*t2);
                }
                rig.alloc.check_invariants(t2->mem());
                rig.alloc.check_local_invariants(t2->mem());
                // The test still holds a[4..31] and b[4..63].
                EXPECT_GE(counter_of(rig, t1->mem(), a[0]), 28u)
                    << "point " << point << " countdown " << countdown;
                EXPECT_GE(counter_of(rig, t1->mem(), b[0]), 60u)
                    << "point " << point << " countdown " << countdown;
                // Exactly four decrements per slab when the call completed.
                if (completed) {
                    EXPECT_EQ(counter_of(rig, t1->mem(), a[0]), 28u);
                    EXPECT_EQ(counter_of(rig, t1->mem(), b[0]), 60u);
                }
                rig.pod.release_thread(std::move(t1));
                rig.pod.release_thread(std::move(t2));
            }
            // Four rounds (one per duplicate) reach every batch point at
            // least four times; kAfterRecord also fires in the serial
            // local frees.
            EXPECT_GE(crashes, 4u) << "point " << point;
        }
    }
}


// -------------------------- batches across a pod ---------------------------

using cxlalloc::PodShardedAllocator;
namespace cp = cxlalloc::crashpoint;

/// A 2-host x 2-device NoHwcc pod with one small shard per device; host h
/// is homed on device h.
struct PodRig {
    explicit PodRig(bool simulate_cache = false)
    {
        cfg.small_slabs = 8;
        cfg.large_slabs = 4;
        cfg.huge_regions = 2;
        cfg.huge_region_size = 1 << 20;
        cfg.huge_descs_per_thread = 4;
        cfg.hazard_slots_per_thread = 4;
        cxl::EdgeCost far;
        far.read_add_ns = 100;
        far.write_add_ns = 150;
        pod::Topology topo = pod::Topology::dense(2, 2, cxl::EdgeCost{}, far);
        pod::PodConfig pc;
        pc.device = PodShardedAllocator::device_config(
            cfg, topo, cxl::CoherenceMode::NoHwcc, simulate_cache);
        pc.topology = topo;
        pod = std::make_unique<pod::Pod>(pc);
        alloc = std::make_unique<PodShardedAllocator>(*pod, cfg);
        for (pod::HostId h = 0; h < 2; h++) {
            procs.push_back(pod->create_process(h));
            alloc->attach(*procs.back());
        }
    }

    std::unique_ptr<pod::ThreadContext>
    thread(pod::HostId host)
    {
        auto ctx = pod->create_thread(procs[host]);
        alloc->attach_thread(*ctx);
        return ctx;
    }

    cxl::DeviceId device_of(cxl::HeapOffset p)
    {
        return pod->device().device_of(p);
    }

    /// HWcc remote-free counter word of the slab holding @p p.
    cxl::HeapOffset
    counter_word(cxl::HeapOffset p)
    {
        const cxlalloc::Layout& l = alloc->shard(device_of(p)).layout();
        if (p >= l.large_data()) {
            return l.large_hwcc_desc(static_cast<std::uint32_t>(
                (p - l.large_data()) / cxlalloc::kLargeSlabSize));
        }
        return l.small_hwcc_desc(static_cast<std::uint32_t>(
            (p - l.small_data()) / cxlalloc::kSmallSlabSize));
    }

    std::uint32_t
    counter(cxl::MemSession& mem, cxl::HeapOffset p)
    {
        return cxlsync::DcasWord::value(mem.atomic_load64(counter_word(p)));
    }

    cxlalloc::Config cfg;
    std::unique_ptr<pod::Pod> pod;
    std::unique_ptr<PodShardedAllocator> alloc;
    std::vector<pod::Process*> procs;
};

bool
landed(const NmpSlotView& v)
{
    return v.state == NmpSlotState::Executed && v.result.success;
}

TEST(DeallocateBatch, OneDoorbellAcrossShardsAndHeaps)
{
    PodRig w;
    auto o0 = w.thread(0); // owns the shard-0 slabs
    auto o1 = w.thread(1); // owns the shard-1 slabs
    auto f = w.thread(0);  // frees them all remotely
    std::vector<cxl::HeapOffset> offs;
    std::set<std::pair<cxl::DeviceId, bool>> pieces;
    for (pod::ThreadContext* o : {o0.get(), o1.get()}) {
        for (std::uint64_t size : {64, 1024, 4096, 16384}) {
            cxl::HeapOffset p = w.alloc->allocate(*o, size);
            ASSERT_NE(p, 0u);
            offs.push_back(p);
            pieces.insert({w.device_of(p), size > cxlalloc::kSmallMax});
        }
    }
    ASSERT_EQ(pieces.size(), 4u) << "batch must span 2 shards x 2 heaps";
    std::vector<std::uint32_t> c0;
    for (cxl::HeapOffset p : offs) {
        c0.push_back(w.counter(f->mem(), p));
    }
    cxl::MemEventCounters before = f->mem().counters();
    w.alloc->deallocate_batch(*f, offs.data(),
                              static_cast<std::uint32_t>(offs.size()));
    const cxl::MemEventCounters& after = f->mem().counters();
    // One doorbell carried every decrement of both shards and heaps.
    EXPECT_EQ(after.mcas_batches - before.mcas_batches, 1u);
    EXPECT_EQ(after.mcas_batch_ops - before.mcas_batch_ops, 8u);
    EXPECT_EQ(after.mcas_conflicts - before.mcas_conflicts, 0u);
    for (std::size_t i = 0; i < offs.size(); i++) {
        EXPECT_EQ(w.counter(f->mem(), offs[i]), c0[i] - 1);
    }
    w.alloc->check_invariants(f->mem());
    w.pod->release_thread(std::move(o0));
    w.pod->release_thread(std::move(o1));
    w.pod->release_thread(std::move(f));
}

TEST(DeallocateBatchCrash, StaleBatchRecordOfAnotherShardDoesNotHideTheRound)
{
    // A completed batch into shard 0 leaves a FreeRemoteBatch record
    // there: records are never cleared after a completed op. A later
    // batch into shard 1 crashes after logging its round, before the
    // doorbell. Recovery must redo shard 1's logged operand; a stale
    // record must not claim (and discard) the thread's ring.
    PodRig w;
    auto o0 = w.thread(0);
    auto o1 = w.thread(1);
    auto f = w.thread(0);
    std::vector<cxl::HeapOffset> a, b;
    for (int i = 0; i < 4; i++) {
        a.push_back(w.alloc->allocate(*o0, 1024));
        b.push_back(w.alloc->allocate(*o1, 1024));
    }
    ASSERT_EQ(w.device_of(a[0]), 0u);
    ASSERT_EQ(w.device_of(b[0]), 1u);
    w.alloc->deallocate_batch(*f, a.data(), 4);
    ASSERT_EQ(w.alloc->shard(0).pending_record(*f).op,
              cxlalloc::Op::FreeRemoteBatch);
    std::uint32_t before = w.counter(o1->mem(), b[0]);

    // One slab: the first round stages b[0] alone.
    f->arm_crash(cp::kMidBatchDoorbell, 1);
    EXPECT_THROW(w.alloc->deallocate_batch(*f, b.data(), 4), ThreadCrashed);
    cxl::ThreadId tid = f->tid();
    w.pod->mark_crashed(std::move(f));
    NmpSlotView ring[kNmpRingSlots];
    ASSERT_EQ(w.pod->nmp().ring_snapshot(tid, ring, kNmpRingSlots), 1u);

    f = w.pod->adopt_thread(w.procs[0], tid);
    w.alloc->recover(*f);
    w.alloc->check_invariants(f->mem());
    EXPECT_EQ(w.counter(o1->mem(), b[0]), before - 1)
        << "the logged decrement of b[0] was lost";
    EXPECT_TRUE(cxlsync::version_geq(
        w.alloc->shard(1).thread_state(tid).version,
        cxlsync::DcasWord::version(ring[0].op.swap)));
    w.alloc->deallocate_batch(*f, b.data() + 1, 3);
    EXPECT_EQ(w.counter(o1->mem(), b[0]), before - 4);
    w.alloc->check_invariants(f->mem());
    w.pod->release_thread(std::move(o0));
    w.pod->release_thread(std::move(o1));
    w.pod->release_thread(std::move(f));
}

TEST(DeallocateBatchCrash, CrossShardRetryRoundSweep)
{
    // RetryRoundSweep over a pod: each round's one doorbell carries the
    // decrements of four victim slabs, small and large in both shards.
    // Four same-slab duplicates each force four rounds; local frees put
    // kAfterRecord between rounds. At every countdown of every point,
    // under both severities, each decrement lands exactly once: recovery
    // redoes a round's unlanded operands iff its records were logged
    // (doorbell and drain points, not the stage point), and no shard
    // resumes at a version the round took there.
    for (auto severity :
         {pod::Pod::CrashSeverity::Process, pod::Pod::CrashSeverity::Host}) {
        for (int point : {cp::kAfterRecord, cp::kMidBatchStage,
                          cp::kMidBatchDoorbell, cp::kMidBatchDrain}) {
            bool completed = false;
            std::uint32_t crashes = 0;
            for (std::uint32_t countdown = 1; !completed; countdown++) {
                ASSERT_LE(countdown, 64u) << "batch never completed";
                PodRig w(/*simulate_cache=*/true);
                auto o0 = w.thread(0);
                auto o1 = w.thread(1);
                auto f = w.thread(0);
                std::vector<cxl::HeapOffset> victim[4];
                for (int i = 0; i < 8; i++) {
                    victim[0].push_back(w.alloc->allocate(*o0, 1024));
                    victim[1].push_back(w.alloc->allocate(*o0, 4096));
                    victim[2].push_back(w.alloc->allocate(*o1, 1024));
                    victim[3].push_back(w.alloc->allocate(*o1, 4096));
                }
                ASSERT_EQ(w.device_of(victim[0][0]), 0u);
                ASSERT_EQ(w.device_of(victim[3][0]), 1u);
                std::vector<cxl::HeapOffset> offs;
                for (int i = 0; i < 4; i++) {
                    for (auto& v : victim) {
                        offs.push_back(v[i]);
                    }
                    offs.push_back(w.alloc->allocate(*f, 64));
                }
                for (cxl::HeapOffset p : offs) {
                    ASSERT_NE(p, 0u);
                }
                std::uint32_t c0[4];
                for (int v = 0; v < 4; v++) {
                    c0[v] = w.counter(o0->mem(), victim[v][0]);
                }
                f->arm_crash(point, countdown);
                try {
                    w.alloc->deallocate_batch(
                        *f, offs.data(),
                        static_cast<std::uint32_t>(offs.size()));
                    f->disarm_crash();
                    completed = true;
                } catch (const ThreadCrashed&) {
                    crashes++;
                    cxl::ThreadId tid = f->tid();
                    w.pod->mark_crashed(std::move(f), severity);
                    // Recovery's input as the crash left it.
                    NmpSlotView ring[kNmpRingSlots];
                    std::uint32_t live =
                        w.pod->nmp().ring_snapshot(tid, ring, kNmpRingSlots);
                    std::uint32_t mid[4];
                    for (int v = 0; v < 4; v++) {
                        mid[v] = w.counter(o0->mem(), victim[v][0]);
                    }
                    bool logged = point == cp::kMidBatchDoorbell ||
                                  point == cp::kMidBatchDrain;
                    f = w.pod->adopt_thread(w.procs[0], tid);
                    w.alloc->recover(*f);
                    for (int v = 0; v < 4; v++) {
                        std::uint32_t redo = 0;
                        for (std::uint32_t i = 0; i < live; i++) {
                            redo += logged && !landed(ring[i]) &&
                                    ring[i].op.target ==
                                        w.counter_word(victim[v][0]);
                        }
                        EXPECT_EQ(w.counter(o0->mem(), victim[v][0]),
                                  mid[v] - redo)
                            << "victim " << v << " point " << point
                            << " countdown " << countdown;
                    }
                    for (std::uint32_t i = 0; i < live; i++) {
                        cxl::DeviceId d = w.device_of(ring[i].op.target);
                        EXPECT_TRUE(cxlsync::version_geq(
                            w.alloc->shard(d).thread_state(tid).version,
                            cxlsync::DcasWord::version(ring[i].op.swap)))
                            << "shard " << d << " reissues a batch version";
                    }
                }
                w.alloc->check_invariants(f->mem());
                for (cxl::DeviceId d = 0; d < 2; d++) {
                    w.alloc->shard(d).check_local_invariants(f->mem());
                }
                for (int v = 0; v < 4; v++) {
                    std::uint32_t now = w.counter(o0->mem(), victim[v][0]);
                    // Four decrements per slab at most, exactly four when
                    // the call completed.
                    EXPECT_GE(now, c0[v] - 4) << "victim " << v;
                    if (completed) {
                        EXPECT_EQ(now, c0[v] - 4) << "victim " << v;
                    }
                }
                w.pod->release_thread(std::move(o0));
                w.pod->release_thread(std::move(o1));
                w.pod->release_thread(std::move(f));
            }
            EXPECT_GE(crashes, 4u) << "point " << point;
        }
    }
}

/// Runs @p action once, the first time the calling OS thread reaches a
/// hook of kind @p op on @p addr. Hooks dispatch with the listener
/// cleared, so the action's own memory operations do not re-enter it.
class OnHook : public sched::Listener {
  public:
    OnHook(sched::Op op, std::uint64_t addr, std::function<void()> action)
        : op_(op), addr_(addr), action_(std::move(action))
    {
        sched::t_listener = this;
    }
    ~OnHook() override { sched::t_listener = nullptr; }
    OnHook(const OnHook&) = delete;
    OnHook& operator=(const OnHook&) = delete;

    void
    on_event(const sched::Event& event) override
    {
        if (event.op == op_ && event.addr == addr_ && action_) {
            std::function<void()> action = std::move(action_);
            action_ = nullptr;
            action();
        }
    }

  private:
    sched::Op op_;
    std::uint64_t addr_;
    std::function<void()> action_;
};

TEST(DeallocateBatchCrash, FailedOperandIsRedoneDespiteALaterDisplacedTag)
{
    // A two-operand batch whose FIRST operand fails and whose second
    // lands; after the crash a foreign free displaces the second's tag,
    // which moves help[t2] past the first operand's version. Recovery
    // must still redo the failed decrement: it reads each ring slot's
    // result instead of asking did_succeed about either version.
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread(); // owns both victim slabs
    auto t2 = rig.thread(); // batch-frees and crashes mid-drain
    auto t3 = rig.thread(); // foreign remote freer
    std::vector<cxl::HeapOffset> a, b;
    for (int i = 0; i < 32; i++) {
        a.push_back(rig.alloc.allocate(*t1, 1024));
        b.push_back(rig.alloc.allocate(*t1, 512));
        b.push_back(rig.alloc.allocate(*t1, 512));
    }
    std::uint32_t a_before = counter_of(rig, t1->mem(), a[0]);
    std::uint32_t b_before = counter_of(rig, t1->mem(), b[0]);

    {
        // t3 frees a[1] after t2 staged a[0]'s decrement but before t2
        // posts it, so that operand fails at the doorbell; b[0]'s lands.
        auto slab = static_cast<std::uint32_t>(
            (a[0] - rig.alloc.layout().small_data()) /
            cxlalloc::kSmallSlabSize);
        OnHook interfere(sched::Op::McasPost,
                         rig.alloc.layout().small_hwcc_desc(slab),
                         [&] { rig.alloc.deallocate(*t3, a[1]); });
        t2->arm_crash(cxlalloc::crashpoint::kMidBatchDrain, 1);
        cxl::HeapOffset batch[2] = {a[0], b[0]};
        EXPECT_THROW(rig.alloc.deallocate_batch(*t2, batch, 2),
                     ThreadCrashed);
    }
    ASSERT_EQ(counter_of(rig, t1->mem(), a[0]), a_before - 1);
    ASSERT_EQ(counter_of(rig, t1->mem(), b[0]), b_before - 1);
    cxl::ThreadId tid = t2->tid();
    rig.pod.mark_crashed(std::move(t2));

    // t3's CAS on b's counter displaces t2's tag and records help[t2].
    rig.alloc.deallocate(*t3, b[1]);

    t2 = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*t2);
    rig.alloc.check_invariants(t2->mem());
    EXPECT_EQ(counter_of(rig, t1->mem(), a[0]), a_before - 2)
        << "the failed decrement of a[0] was lost";
    EXPECT_EQ(counter_of(rig, t1->mem(), b[0]), b_before - 2);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
    rig.pod.release_thread(std::move(t3));
}

} // namespace
