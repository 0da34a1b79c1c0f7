/// @file
/// The benchmark's own view of the heap: a live-block ledger, and the
/// PodAllocator decorator through which every workload (KvStore included)
/// reaches PodShardedAllocator.
///
/// The decorator forwards each call unchanged, records a span around it
/// when tracing is on, and keeps the ledger: one entry per block the heap
/// handed out and the benchmark has not freed, with per-slab counts. The
/// ledger is compared slab by slab against the heap's own accounting
/// (remote-free down-counter minus free bitset count, see
/// SlabHeap::debug_remote_free) after the run and after every recovery.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/pod_allocator.h"
#include "cxlalloc/pod_shard.h"
#include "trace.h"

namespace podbench {

enum class HeapKind : std::uint8_t { Small, Large, Huge };

struct BlockInfo {
    std::uint64_t size = 0;   ///< requested bytes
    cxl::ThreadId tid = 0;    ///< allocating session
};

class BlockLedger {
  public:
    explicit BlockLedger(cxlalloc::PodShardedAllocator& heap);

    struct Where {
        cxl::DeviceId device = 0;
        HeapKind heap = HeapKind::Small;
        std::uint32_t slab = 0; ///< slab index (0 for huge blocks)
    };

    /// Shard, heap and slab holding @p offset.
    Where locate(cxl::HeapOffset offset) const;

    /// Records a block the heap handed out. False if it is already live
    /// (the heap handed one block out twice).
    bool add(cxl::HeapOffset offset, const BlockInfo& info);

    /// Forgets a live block. False if @p offset is not live (a free the
    /// benchmark must not forward). On success @p out receives its entry.
    bool remove(cxl::HeapOffset offset, BlockInfo* out);

    bool contains(cxl::HeapOffset offset) const
    {
        return live_.count(offset) != 0;
    }

    std::uint64_t live_bytes() const { return live_bytes_; }

    /// Live blocks the ledger holds in (device, heap, slab).
    std::uint32_t count_at(const Where& where);

    /// Live blocks the heap itself accounts in (device, heap, slab), read
    /// through @p mem (a checker session, so workers' clocks stay put).
    /// Huge blocks are counted per device.
    std::uint32_t heap_count_at(cxl::MemSession& mem, const Where& where);

    /// Compares every slab (and each shard's huge-block count) with the
    /// heap. Returns an empty string on agreement, else the first
    /// mismatches.
    std::string compare_with_heap(cxl::MemSession& mem);

  private:
    std::uint32_t& counter(const Where& where);

    cxlalloc::PodShardedAllocator& heap_;
    std::unordered_map<cxl::HeapOffset, BlockInfo> live_;
    std::uint64_t live_bytes_ = 0;
    /// Per device: live blocks per small slab, per large slab, and huge.
    std::vector<std::vector<std::uint32_t>> small_;
    std::vector<std::vector<std::uint32_t>> large_;
    std::vector<std::uint32_t> huge_;
    bool saw_huge_ = false;
};

/// The benchmark-side PodAllocator: forwards to PodShardedAllocator,
/// records spans, keeps the ledger and counts failures.
class TracedAllocator : public baselines::PodAllocator {
  public:
    TracedAllocator(cxlalloc::PodShardedAllocator& heap, BlockLedger& ledger,
                    Tracer& tracer);

    const char* name() const override { return "cxlalloc-pod-traced"; }
    baselines::AllocTraits traits() const override;
    void attach_thread(pod::ThreadContext& ctx) override;

    /// Returns 0 (and counts a failure) when the heap could not serve.
    cxl::HeapOffset allocate(pod::ThreadContext& ctx,
                             std::uint64_t size) override;

    /// Frees a live block; a free of a block the ledger does not hold is
    /// counted as a failure and not forwarded. The block leaves the
    /// ledger before the heap is called, so a crash inside the call leaves
    /// it freed — recovery completes an interrupted free.
    void deallocate(pod::ThreadContext& ctx, cxl::HeapOffset offset) override;

    /// Batched free (PodShardedAllocator::deallocate_batch), same ledger
    /// rules per block.
    void deallocate_batch(pod::ThreadContext& ctx,
                          const cxl::HeapOffset* offsets, std::uint32_t n);

    /// PodShardedAllocator::recover on an adopted slot.
    void recover(pod::ThreadContext& ctx);

    /// PodShardedAllocator::cleanup (huge-heap reclamation).
    void cleanup(pod::ThreadContext& ctx);

    std::uint64_t hwcc_bytes(cxl::MemSession& mem) override;

    /// Allocations returning 0 plus frees of unknown blocks.
    std::uint64_t failures() const { return failures_; }
    /// Allocations served by a CXL shard other than the caller's home.
    std::uint64_t steals() const { return steals_; }
    /// Blocks freed (single or batched).
    std::uint64_t frees() const { return frees_; }
    /// Blocks freed by a session other than the one that allocated them.
    std::uint64_t remote_frees() const { return remote_frees_; }

  private:
    /// Ledger removal for one freed block; false = not live.
    bool retire(pod::ThreadContext& ctx, cxl::HeapOffset offset);

    cxlalloc::PodShardedAllocator& heap_;
    BlockLedger& ledger_;
    Tracer& tracer_;
    std::uint64_t failures_ = 0;
    std::uint64_t steals_ = 0;
    std::uint64_t frees_ = 0;
    std::uint64_t remote_frees_ = 0;
    std::vector<cxl::HeapOffset> batch_;
};

} // namespace podbench
