/// @file
/// Device-access budget of the slab fast paths and the soundness of the
/// per-thread may-own filter. Each SWcc descriptor word is read at most
/// once per operation: a steady-state small allocate and a local free each
/// cost exactly 3 loads and 3 stores, and a remote free into a slab the
/// freeing thread has already seen as foreign loads no descriptor word at
/// all. The filter may skip the owner load only for slabs the thread
/// cannot own — across steals, slot reuse and adoption.

#include <gtest/gtest.h>
#include <vector>

#include "cxlalloc/size_class.h"
#include "fixture.h"
#include "sched/hook.h"

namespace {

using cxltest::Rig;

constexpr std::uint32_t kBlocksPerSlab = cxlalloc::kSmallSlabSize / 64;

/// Loads the paranoid counter == popcount cross-check adds to every
/// allocate and local free: one per bitset word of the 64 B class.
#ifdef CXLALLOC_PARANOID_CHECKS
constexpr std::uint64_t kParanoidLoads = kBlocksPerSlab / 64;
#else
constexpr std::uint64_t kParanoidLoads = 0;
#endif

/// While alive, counts the loads this OS thread issues into the small
/// heap's SWcc descriptor table.
class DescLoadCounter : public sched::Listener {
  public:
    explicit DescLoadCounter(Rig& rig)
        : begin_(rig.alloc.layout().small_swcc_desc(0)),
          end_(rig.alloc.layout().small_swcc_desc(rig.config.small_slabs))
    {
        sched::t_listener = this;
    }

    ~DescLoadCounter() override { sched::t_listener = nullptr; }

    void
    on_event(const sched::Event& e) override
    {
        if (e.op == sched::Op::Load && e.addr >= begin_ && e.addr < end_) {
            loads++;
        }
    }

    std::uint32_t loads = 0;

  private:
    cxl::HeapOffset begin_;
    cxl::HeapOffset end_;
};

std::uint32_t
slab_of(Rig& rig, cxl::HeapOffset p)
{
    return static_cast<std::uint32_t>((p - rig.alloc.layout().small_data()) /
                                      cxlalloc::kSmallSlabSize);
}

/// Frees @p p from @p ctx and checks it took the local path: the slab's
/// free counter rises by one and its remote-free counter does not move.
void
expect_local_free(Rig& rig, pod::ThreadContext& ctx, cxl::HeapOffset p)
{
    cxlalloc::SlabHeap& heap = rig.alloc.small_heap();
    std::uint32_t slab = slab_of(rig, p);
    std::uint32_t free_before = heap.debug_free_blocks(ctx.mem(), slab);
    std::uint32_t remote_before = heap.debug_remote_free(ctx.mem(), slab);
    rig.alloc.deallocate(ctx, p);
    EXPECT_EQ(heap.debug_free_blocks(ctx.mem(), slab), free_before + 1);
    EXPECT_EQ(heap.debug_remote_free(ctx.mem(), slab), remote_before);
}

TEST(DescAccess, SteadyStateSmallAllocAndLocalFreeCostThreeLoadsThreeStores)
{
    Rig rig;
    auto t = rig.thread();
    // Warm: the slab is initialized and stays far from full or empty.
    std::vector<cxl::HeapOffset> live;
    for (int i = 0; i < 8; i++) {
        live.push_back(rig.alloc.allocate(*t, 64));
    }
    // allocate: sized head, word 1 (hint + counter), the bitset word;
    // the record, the bitset word, hint + counter.
    cxl::MemEventCounters before = t->mem().counters();
    cxl::HeapOffset p = rig.alloc.allocate(*t, 64);
    ASSERT_NE(p, 0u);
    EXPECT_EQ(t->mem().counters().loads - before.loads, 3u + kParanoidLoads);
    EXPECT_EQ(t->mem().counters().stores - before.stores, 3u);

    // Local free: word 0 (owner, class, state, next), the bitset word,
    // word 1; the record, the bitset word, hint + counter.
    before = t->mem().counters();
    rig.alloc.deallocate(*t, live[3]);
    EXPECT_EQ(t->mem().counters().loads - before.loads, 3u + kParanoidLoads);
    EXPECT_EQ(t->mem().counters().stores - before.stores, 3u);
    rig.alloc.check_local_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

TEST(DescAccess, RemoteFreeIntoASlabSeenAsForeignLoadsNoDescriptorWord)
{
    Rig rig;
    auto owner = rig.thread();
    auto freer = rig.thread();
    cxl::HeapOffset p1 = rig.alloc.allocate(*owner, 64);
    cxl::HeapOffset p2 = rig.alloc.allocate(*owner, 64);
    ASSERT_EQ(slab_of(rig, p1), slab_of(rig, p2));
    {
        DescLoadCounter first(rig);
        rig.alloc.deallocate(*freer, p1);
        EXPECT_EQ(first.loads, 1u) << "the owner word, once";
    }
    {
        DescLoadCounter second(rig);
        rig.alloc.deallocate(*freer, p2);
        EXPECT_EQ(second.loads, 0u) << "the filter already knows the owner";
    }
    EXPECT_EQ(rig.alloc.small_heap().debug_remote_free(freer->mem(),
                                                       slab_of(rig, p1)),
              kBlocksPerSlab - 2);
    rig.pod.release_thread(std::move(owner));
    rig.pod.release_thread(std::move(freer));
}

TEST(DescAccess, StolenSlabIsFreedIntoLocally)
{
    Rig rig;
    auto owner = rig.thread();
    auto thief = rig.thread();
    // Fill one slab: it detaches, still owned by `owner`.
    std::vector<cxl::HeapOffset> blocks;
    for (std::uint32_t i = 0; i < kBlocksPerSlab; i++) {
        blocks.push_back(rig.alloc.allocate(*owner, 64));
    }
    std::uint32_t slab = slab_of(rig, blocks[0]);
    ASSERT_EQ(slab_of(rig, blocks.back()), slab);
    // Every block freed remotely: only the first free loads the owner; the
    // last decrement steals the slab for `thief`.
    {
        DescLoadCounter loads(rig);
        for (cxl::HeapOffset p : blocks) {
            rig.alloc.deallocate(*thief, p);
        }
        EXPECT_EQ(loads.loads, 1u);
    }
    ASSERT_EQ(rig.alloc.small_heap().debug_owner(thief->mem(), slab),
              thief->tid());
    // The steal wrote the thief as owner, so its filter allows the slab
    // again: a block carved from it frees locally.
    cxl::HeapOffset q = rig.alloc.allocate(*thief, 64);
    ASSERT_EQ(slab_of(rig, q), slab);
    expect_local_free(rig, *thief, q);
    rig.alloc.check_local_invariants(thief->mem());
    rig.pod.release_thread(std::move(owner));
    rig.pod.release_thread(std::move(thief));
}

TEST(DescAccess, ReusedTidFreesIntoSlabsTheDeviceListsAsItsOwn)
{
    Rig rig;
    auto first = rig.thread();
    cxl::ThreadId tid = first->tid();
    cxl::HeapOffset p = rig.alloc.allocate(*first, 64);
    cxl::HeapOffset q = rig.alloc.allocate(*first, 64);
    rig.pod.release_thread(std::move(first));
    auto second = rig.thread();
    ASSERT_EQ(second->tid(), tid);
    expect_local_free(rig, *second, p);
    expect_local_free(rig, *second, q);
    rig.alloc.check_local_invariants(second->mem());
    rig.pod.release_thread(std::move(second));
}

TEST(DescAccess, AdoptedSlotFreesIntoTheDeadThreadsSlabsLocally)
{
    Rig rig;
    auto other = rig.thread();
    auto t = rig.thread();
    cxl::ThreadId tid = t->tid();
    cxl::HeapOffset foreign = rig.alloc.allocate(*other, 64);
    cxl::HeapOffset p = rig.alloc.allocate(*t, 64);
    cxl::HeapOffset q = rig.alloc.allocate(*t, 64);
    // A remote free clears the dead thread's bit for `other`'s slab.
    rig.alloc.deallocate(*t, foreign);
    rig.pod.mark_crashed(std::move(t));
    t = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*t);
    expect_local_free(rig, *t, p);
    expect_local_free(rig, *t, q);
    rig.alloc.check_invariants(t->mem());
    rig.alloc.check_local_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
    rig.pod.release_thread(std::move(other));
}

} // namespace
