#include "ledger.h"

#include <cstdio>

#include "cxlalloc/size_class.h"

namespace podbench {

BlockLedger::BlockLedger(cxlalloc::PodShardedAllocator& heap)
    : heap_(heap), small_(heap.shard_count()), large_(heap.shard_count()),
      huge_(heap.shard_count(), 0)
{
    for (cxl::DeviceId d = 0; d < heap.shard_count(); d++) {
        small_[d].assign(heap.shard(d).config().small_slabs, 0);
        large_[d].assign(heap.shard(d).config().large_slabs, 0);
    }
}

BlockLedger::Where
BlockLedger::locate(cxl::HeapOffset offset) const
{
    Where w;
    w.device = heap_.pod().device().device_of(offset);
    const cxlalloc::Layout& l = heap_.shard(w.device).layout();
    if (l.in_small_data(offset)) {
        w.heap = HeapKind::Small;
        w.slab = static_cast<std::uint32_t>((offset - l.small_data()) /
                                            cxlalloc::kSmallSlabSize);
    } else if (l.in_large_data(offset)) {
        w.heap = HeapKind::Large;
        w.slab = static_cast<std::uint32_t>((offset - l.large_data()) /
                                            cxlalloc::kLargeSlabSize);
    } else {
        w.heap = HeapKind::Huge;
    }
    return w;
}

std::uint32_t&
BlockLedger::counter(const Where& where)
{
    switch (where.heap) {
      case HeapKind::Small:
        return small_[where.device][where.slab];
      case HeapKind::Large:
        return large_[where.device][where.slab];
      case HeapKind::Huge:
        break;
    }
    return huge_[where.device];
}

std::uint32_t
BlockLedger::count_at(const Where& where)
{
    return counter(where);
}

bool
BlockLedger::add(cxl::HeapOffset offset, const BlockInfo& info)
{
    if (!live_.emplace(offset, info).second) {
        return false;
    }
    Where w = locate(offset);
    saw_huge_ = saw_huge_ || w.heap == HeapKind::Huge;
    counter(w)++;
    live_bytes_ += info.size;
    return true;
}

bool
BlockLedger::remove(cxl::HeapOffset offset, BlockInfo* out)
{
    auto it = live_.find(offset);
    if (it == live_.end()) {
        return false;
    }
    if (out != nullptr) {
        *out = it->second;
    }
    live_bytes_ -= it->second.size;
    live_.erase(it);
    counter(locate(offset))--;
    return true;
}

std::uint32_t
BlockLedger::heap_count_at(cxl::MemSession& mem, const Where& where)
{
    cxlalloc::CxlAllocator& shard = heap_.shard(where.device);
    if (where.heap == HeapKind::Huge) {
        return shard.stats(mem).huge.live_allocations;
    }
    cxlalloc::SlabHeap& slabs = where.heap == HeapKind::Small
                                    ? shard.small_heap()
                                    : shard.large_heap();
    // A slab past the heap's length was never created (and, under checked
    // mappings, must not be read); a classless one holds nothing.
    if (where.slab >= slabs.length(mem) ||
        slabs.debug_class_biased(mem, where.slab) == 0) {
        return 0;
    }
    // Quiescent conservation law: the remote-free down-counter starts at
    // the class capacity and drops once per remote free; the bitset holds
    // every other free block. What is left is live.
    return slabs.debug_remote_free(mem, where.slab) -
           slabs.debug_free_blocks(mem, where.slab);
}

std::string
BlockLedger::compare_with_heap(cxl::MemSession& mem)
{
    std::string out;
    int reported = 0;
    auto check = [&](const Where& w) {
        std::uint32_t mine = count_at(w);
        std::uint32_t theirs = heap_count_at(mem, w);
        if (mine != theirs && reported++ < 4) {
            char line[128];
            std::snprintf(line, sizeof line,
                          "ledger mismatch: device %u heap %d slab %u: "
                          "ledger %u heap %u; ",
                          static_cast<unsigned>(w.device),
                          static_cast<int>(w.heap), w.slab, mine, theirs);
            out += line;
        }
    };
    for (cxl::DeviceId d = 0; d < heap_.shard_count(); d++) {
        for (std::uint32_t s = 0; s < small_[d].size(); s++) {
            check(Where{d, HeapKind::Small, s});
        }
        for (std::uint32_t s = 0; s < large_[d].size(); s++) {
            check(Where{d, HeapKind::Large, s});
        }
        // Huge descriptors are only worth a sweep once huge blocks exist.
        if (saw_huge_) {
            check(Where{d, HeapKind::Huge, 0});
        }
    }
    return out;
}

TracedAllocator::TracedAllocator(cxlalloc::PodShardedAllocator& heap,
                                 BlockLedger& ledger, Tracer& tracer)
    : heap_(heap), ledger_(ledger), tracer_(tracer)
{
}

baselines::AllocTraits
TracedAllocator::traits() const
{
    baselines::AllocTraits t;
    t.memory = "XP, CXL";
    t.cross_process = true;
    t.mmap_support = true;
    t.nonblocking_failure = true;
    t.recovery = baselines::AllocTraits::Recovery::NonBlocking;
    t.strategy = "App";
    return t;
}

void
TracedAllocator::attach_thread(pod::ThreadContext& ctx)
{
    heap_.attach_thread(ctx);
}

cxl::HeapOffset
TracedAllocator::allocate(pod::ThreadContext& ctx, std::uint64_t size)
{
    SpanName name = size <= cxlalloc::kSmallMax
                        ? SpanName::AllocSmallAllocate
                        : (size <= cxlalloc::kLargeMax
                               ? SpanName::AllocLargeAllocate
                               : SpanName::AllocHugeAllocate);
    SpanScope span(tracer_, name, ctx.mem());
    cxl::HeapOffset offset = heap_.allocate(ctx, size);
    if (offset == 0 || !ledger_.add(offset, BlockInfo{size, ctx.tid()})) {
        span.fail();
        failures_++;
        return 0;
    }
    cxl::DeviceId dev = ctx.mem().device_of(offset);
    auto host = static_cast<pod::HostId>(ctx.process().host());
    if (dev != ctx.mem().home_device() && dev != heap_.dram_device(host)) {
        steals_++;
    }
    return offset;
}

bool
TracedAllocator::retire(pod::ThreadContext& ctx, cxl::HeapOffset offset)
{
    BlockInfo info;
    if (!ledger_.remove(offset, &info)) {
        failures_++;
        return false;
    }
    frees_++;
    remote_frees_ += info.tid != ctx.tid() ? 1 : 0;
    return true;
}

void
TracedAllocator::deallocate(pod::ThreadContext& ctx, cxl::HeapOffset offset)
{
    HeapKind kind = ledger_.locate(offset).heap;
    SpanName name = kind == HeapKind::Small
                        ? SpanName::AllocSmallDeallocate
                        : (kind == HeapKind::Large
                               ? SpanName::AllocLargeDeallocate
                               : SpanName::AllocHugeDeallocate);
    SpanScope span(tracer_, name, ctx.mem());
    if (!retire(ctx, offset)) {
        span.fail();
        return;
    }
    heap_.deallocate(ctx, offset);
}

void
TracedAllocator::deallocate_batch(pod::ThreadContext& ctx,
                                  const cxl::HeapOffset* offsets,
                                  std::uint32_t n)
{
    SpanScope span(tracer_, SpanName::AllocDeallocateBatch, ctx.mem());
    batch_.clear();
    for (std::uint32_t i = 0; i < n; i++) {
        if (retire(ctx, offsets[i])) {
            batch_.push_back(offsets[i]);
        } else {
            span.fail();
        }
    }
    heap_.deallocate_batch(ctx, batch_.data(),
                           static_cast<std::uint32_t>(batch_.size()));
}

void
TracedAllocator::recover(pod::ThreadContext& ctx)
{
    SpanScope span(tracer_, SpanName::RecoveryRecover, ctx.mem());
    heap_.recover(ctx);
}

void
TracedAllocator::cleanup(pod::ThreadContext& ctx)
{
    SpanScope span(tracer_, SpanName::AllocCleanup, ctx.mem());
    heap_.cleanup(ctx);
}

std::uint64_t
TracedAllocator::hwcc_bytes(cxl::MemSession&)
{
    return heap_.hwcc_bytes();
}

} // namespace podbench
