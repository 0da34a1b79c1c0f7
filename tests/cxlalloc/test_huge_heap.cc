#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "common/cacheline.h"
#include "fixture.h"
#include "sync/hazard_offsets.h"

namespace {

using cxltest::Rig;
using cxltest::RigOptions;

/// A view of the rig heap's hazard table.
cxlsync::HazardOffsets
hazard_table(const Rig& rig)
{
    const cxlalloc::Layout& layout = rig.alloc.layout();
    return cxlsync::HazardOffsets(layout.hazard_table(),
                                  rig.config.hazard_slots_per_thread,
                                  layout.hazard_rows());
}

TEST(HugeAlloc, BasicAllocateFree)
{
    Rig rig;
    auto t = rig.thread();
    cxl::HeapOffset p = rig.alloc.allocate(*t, 1 << 20);
    ASSERT_NE(p, 0u);
    EXPECT_TRUE(rig.alloc.layout().in_huge_data(p));
    std::byte* data = rig.alloc.pointer(*t, p, 1 << 20);
    std::memset(data, 0x77, 1 << 20);
    auto stats = rig.alloc.stats(t->mem());
    EXPECT_EQ(stats.huge.live_allocations, 1u);
    EXPECT_EQ(stats.huge.live_bytes, 1u << 20);
    rig.alloc.deallocate(*t, p);
    EXPECT_EQ(rig.alloc.stats(t->mem()).huge.live_allocations, 0u);
    rig.alloc.check_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

TEST(HugeAlloc, MappingInstalledAndRemoved)
{
    RigOptions opt;
    opt.checked_mappings = true;
    Rig rig(opt);
    auto t = rig.thread();
    cxl::HeapOffset p = rig.alloc.allocate(*t, 1 << 20);
    ASSERT_NE(p, 0u);
    EXPECT_TRUE(rig.process->is_mapped(p));
    rig.alloc.deallocate(*t, p);
    EXPECT_FALSE(rig.process->is_mapped(p));
    rig.pod.release_thread(std::move(t));
}

TEST(HugeAlloc, AddressSpaceAndDescriptorsRecycle)
{
    Rig rig;
    auto t = rig.thread();
    // Many more alloc/free cycles than there are descriptors or regions:
    // only reclamation (cleanup) makes this terminate successfully.
    for (int i = 0; i < 200; i++) {
        cxl::HeapOffset p = rig.alloc.allocate(*t, 2 << 20);
        ASSERT_NE(p, 0u) << "iteration " << i;
        rig.alloc.deallocate(*t, p);
        rig.alloc.cleanup(*t);
    }
    rig.alloc.check_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

TEST(HugeAlloc, PcTFaultInstallsMappingInOtherProcess)
{
    RigOptions opt;
    opt.checked_mappings = true;
    Rig rig(opt);
    auto* proc2 = rig.new_process();
    auto t1 = rig.thread();
    auto t2 = rig.thread(proc2);

    cxl::HeapOffset p = rig.alloc.allocate(*t1, 1 << 20);
    std::byte* w = rig.alloc.pointer(*t1, p, 8);
    w[0] = std::byte{42};

    // Process 2 has no mapping; dereferencing faults through the handler,
    // which walks the huge descriptor lists (paper §3.3.2).
    EXPECT_FALSE(proc2->is_mapped(p));
    const std::byte* r = rig.alloc.pointer(*t2, p, 8);
    EXPECT_EQ(r[0], std::byte{42});
    EXPECT_TRUE(proc2->is_mapped(p));
    EXPECT_GE(proc2->faults_resolved(), 1u);

    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(HugeAlloc, HazardBlocksReclamationUntilUnmap)
{
    RigOptions opt;
    opt.checked_mappings = true;
    Rig rig(opt);
    auto* proc2 = rig.new_process();
    auto t1 = rig.thread();
    auto t2 = rig.thread(proc2);

    cxl::HeapOffset p = rig.alloc.allocate(*t1, 1 << 20);
    // Process 2 faults the mapping in: its thread publishes a hazard.
    (void)rig.alloc.pointer(*t2, p, 8);
    ASSERT_TRUE(proc2->is_mapped(p));

    // Free from the owner. The descriptor is marked free, but process 2's
    // hazard must prevent reclamation.
    rig.alloc.deallocate(*t1, p);
    rig.alloc.cleanup(*t1);
    std::uint64_t free_before = rig.alloc.thread_state(t1->tid()).huge_free
                                    .total();

    // Process 2 eventually runs its own cleanup: unmaps and removes the
    // hazard; now the owner can reclaim descriptor + address space.
    rig.alloc.cleanup(*t2);
    EXPECT_FALSE(proc2->is_mapped(p));
    rig.alloc.cleanup(*t1);
    EXPECT_GT(rig.alloc.thread_state(t1->tid()).huge_free.total(),
              free_before);

    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(HugeAlloc, CleanupFlushesTheHazardTableOncePerPass)
{
    for (int k : {1, 4}) {
        Rig rig;
        auto t = rig.thread();
        std::vector<cxl::HeapOffset> held;
        for (int i = 0; i < k; i++) {
            held.push_back(rig.alloc.allocate(*t, 1 << 20));
            ASSERT_NE(held.back(), 0u);
        }
        for (cxl::HeapOffset p : held) {
            rig.alloc.deallocate(*t, p);
        }
        // The snapshot reads the rows up to the row-bound word, which the
        // only publisher (this thread) raised to its own tid.
        cxl::HeapOffset base = rig.alloc.layout().hazard_table();
        ASSERT_EQ(hazard_table(rig).row_bound(t->mem()), t->tid());
        std::uint64_t len = (static_cast<std::uint64_t>(t->tid()) + 1) *
                            rig.config.hazard_slots_per_thread * 8;
        std::uint64_t table_lines =
            (cxlcommon::line_of(base + len - 1) - cxlcommon::line_of(base)) /
                cxlcommon::kCacheLine +
            1;

        std::uint64_t before = t->mem().counters().flushed_lines;
        std::uint64_t free_before =
            rig.alloc.thread_state(t->tid()).huge_free.total();
        rig.alloc.cleanup(*t);
        // Every candidate is reclaimed: its address space is back.
        EXPECT_EQ(rig.alloc.thread_state(t->tid()).huge_free.total(),
                  free_before + static_cast<std::uint64_t>(k) * (1 << 20));
        // One snapshot flushes each line of those rows once. Each descriptor
        // (32 B, inside one line) costs three more: the refetch that
        // observes its free bit, the unlink (the list head, since
        // candidates are reclaimed head first), and the publish of its
        // cleared flags.
        EXPECT_EQ(t->mem().counters().flushed_lines - before,
                  table_lines + 3 * static_cast<std::uint64_t>(k))
            << k << " freed descriptors";
        rig.alloc.check_invariants(t->mem());
        rig.pod.release_thread(std::move(t));
    }
}

/// Two threads of the rig's process allocate hazard_slots_per_thread + 1
/// live 1 MiB blocks (one thread alone could not hold that many); a thread
/// of a second process then faults in all but the last, filling its hazard
/// row. Returns the blocks, the last one still unmapped in @p mapper's
/// process.
std::vector<cxl::HeapOffset>
fill_row_by_faults(Rig& rig, pod::ThreadContext& owner_a,
                   pod::ThreadContext& owner_b, pod::ThreadContext& mapper)
{
    std::vector<cxl::HeapOffset> blocks;
    for (std::uint32_t i = 0; i < rig.config.hazard_slots_per_thread; i++) {
        blocks.push_back(rig.alloc.allocate(owner_a, 1 << 20));
    }
    blocks.push_back(rig.alloc.allocate(owner_b, 1 << 20));
    for (std::size_t i = 0; i < blocks.size(); i++) {
        EXPECT_NE(blocks[i], 0u) << "block " << i;
        if (i + 1 < blocks.size()) {
            (void)rig.alloc.pointer(mapper, blocks[i], 8);
        }
    }
    return blocks;
}

TEST(HugeAlloc, PcTFaultOnAFullHazardRowDropsFreedMappingsAndRetries)
{
    RigOptions opt;
    opt.checked_mappings = true;
    Rig rig(opt);
    auto* proc2 = rig.new_process();
    auto owner_a = rig.thread();
    auto owner_b = rig.thread();
    auto mapper = rig.thread(proc2);
    std::vector<cxl::HeapOffset> blocks =
        fill_row_by_faults(rig, *owner_a, *owner_b, *mapper);
    cxl::HeapOffset last = blocks.back();

    // Freed elsewhere: process 2 still maps the block and holds its hazard.
    rig.alloc.deallocate(*owner_a, blocks[0]);
    ASSERT_TRUE(proc2->is_mapped(blocks[0]));

    // The fault finds the row full, drops the freed block's mapping and
    // hazard, and publishes in the freed slot.
    (void)rig.alloc.pointer(*mapper, last, 8);
    EXPECT_TRUE(proc2->is_mapped(last));
    EXPECT_FALSE(proc2->is_mapped(blocks[0]));
    rig.alloc.check_invariants(mapper->mem());

    // Nothing protects the freed block any more: its owner reclaims it.
    std::uint64_t free_before =
        rig.alloc.thread_state(owner_a->tid()).huge_free.total();
    rig.alloc.cleanup(*owner_a);
    EXPECT_EQ(rig.alloc.thread_state(owner_a->tid()).huge_free.total(),
              free_before + (1 << 20));

    rig.pod.release_thread(std::move(owner_a));
    rig.pod.release_thread(std::move(owner_b));
    rig.pod.release_thread(std::move(mapper));
}

TEST(HugeAlloc, PcTFaultOnAFullRowOfLiveMappingsThrowsATypedError)
{
    RigOptions opt;
    opt.checked_mappings = true;
    Rig rig(opt);
    auto* proc2 = rig.new_process();
    auto owner_a = rig.thread();
    auto owner_b = rig.thread();
    auto mapper = rig.thread(proc2);
    std::vector<cxl::HeapOffset> blocks =
        fill_row_by_faults(rig, *owner_a, *owner_b, *mapper);
    cxl::HeapOffset last = blocks.back();

    // Every mapped block is live: the fault cannot be protected, so it
    // fails recoverably, having published and mapped nothing.
    try {
        (void)rig.alloc.pointer(*mapper, last, 8);
        ADD_FAILURE() << "fault on a full hazard row did not throw";
    } catch (const cxl::HazardRowFullError& e) {
        EXPECT_EQ(e.tid(), mapper->tid());
        EXPECT_EQ(e.offset(), last); // the faulting page
    }
    EXPECT_FALSE(proc2->is_mapped(last));
    cxlsync::HazardOffsets hz = hazard_table(rig);
    for (std::uint32_t slot = 0; slot < hz.slots_per_thread(); slot++) {
        EXPECT_NE(mapper->mem().load<std::uint64_t>(
                      hz.slot_offset(mapper->tid(), slot)),
                  last);
    }
    rig.alloc.check_invariants(mapper->mem());

    // Once one of them is freed the same access resolves.
    rig.alloc.deallocate(*owner_a, blocks[0]);
    (void)rig.alloc.pointer(*mapper, last, 8);
    EXPECT_TRUE(proc2->is_mapped(last));
    rig.alloc.check_invariants(mapper->mem());

    rig.pod.release_thread(std::move(owner_a));
    rig.pod.release_thread(std::move(owner_b));
    rig.pod.release_thread(std::move(mapper));
}

TEST(HugeAlloc, CrossThreadFree)
{
    Rig rig;
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    cxl::HeapOffset p = rig.alloc.allocate(*t1, 1 << 20);
    rig.alloc.deallocate(*t2, p); // non-owner free: walks owner's desc list
    EXPECT_EQ(rig.alloc.stats(t1->mem()).huge.live_allocations, 0u);
    // Owner reclaims on its next cleanup.
    rig.alloc.cleanup(*t1);
    rig.alloc.check_invariants(t1->mem());
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(HugeAlloc, RegionsGrantExclusiveOwnership)
{
    Rig rig;
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    cxl::HeapOffset p1 = rig.alloc.allocate(*t1, 1 << 20);
    cxl::HeapOffset p2 = rig.alloc.allocate(*t2, 1 << 20);
    ASSERT_NE(p1, 0u);
    ASSERT_NE(p2, 0u);
    // Different threads claim different reservation regions.
    std::uint64_t region_size = rig.config.huge_region_size;
    cxl::HeapOffset base = rig.alloc.layout().huge_data();
    EXPECT_NE((p1 - base) / region_size, (p2 - base) / region_size);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(HugeAlloc, ExhaustionReturnsNullThenRecovers)
{
    Rig rig;
    auto t = rig.thread();
    // 8 regions x 4 MiB; each allocation takes a full region.
    std::vector<cxl::HeapOffset> held;
    while (true) {
        cxl::HeapOffset p = rig.alloc.allocate(*t, 4 << 20);
        if (p == 0) {
            break;
        }
        held.push_back(p);
    }
    EXPECT_EQ(held.size(), 8u);
    for (auto p : held) {
        rig.alloc.deallocate(*t, p);
    }
    rig.alloc.cleanup(*t);
    EXPECT_NE(rig.alloc.allocate(*t, 4 << 20), 0u);
    rig.pod.release_thread(std::move(t));
}

TEST(HugeAlloc, OversizedRequestRejected)
{
    Rig rig;
    auto t = rig.thread();
    EXPECT_EQ(rig.alloc.allocate(*t, rig.config.huge_region_size + 1), 0u);
    rig.pod.release_thread(std::move(t));
}

TEST(HugeAlloc, ConcurrentHugeChurn)
{
    Rig rig;
    constexpr int kThreads = 4;
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; w++) {
        workers.emplace_back([&rig] {
            auto t = rig.thread();
            for (int i = 0; i < 40; i++) {
                cxl::HeapOffset p = rig.alloc.allocate(*t, 1 << 20);
                ASSERT_NE(p, 0u);
                rig.alloc.deallocate(*t, p);
                rig.alloc.cleanup(*t);
            }
            rig.pod.release_thread(std::move(t));
        });
    }
    for (auto& w : workers) {
        w.join();
    }
    auto checker = rig.thread();
    rig.alloc.check_invariants(checker->mem());
    EXPECT_EQ(rig.alloc.stats(checker->mem()).huge.live_allocations, 0u);
    rig.pod.release_thread(std::move(checker));
}

} // namespace
