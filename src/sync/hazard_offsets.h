/// @file
/// Hazard offsets (paper §3.3.2): a variant of hazard pointers [51] that
/// protects *memory mappings* rather than objects.
///
/// Protocol rules:
///  - publish the offset before mapping a huge allocation;
///  - remove it after unmapping;
///  - reclaim a huge allocation only if its descriptor's free bit is set
///    and its offset is published in no thread's hazard list.
///
/// Unlike classic hazard pointers, no post-publication validation step is
/// needed: the racing free would be a use-after-free in the application and
/// is excluded for correct programs (paper §3.3.2, last paragraph).
///
/// Hazard slots live in SWcc memory. They are single-writer (the owning
/// thread), multi-reader; following the paper's huge-heap rule, writers
/// flush+fence after every write and readers flush before every read.
///
/// Readers take a *snapshot*: one pass over the table that flushes and
/// reads each 64 B line once, as in the batch scan of [51]. A reclaim
/// pass takes one snapshot and tests every candidate against it.
///
/// A *row-bound word* in the sync region holds the highest tid that has
/// ever published. Publishers raise it (a coherent CAS) before their first
/// store; a snapshot reads only the rows up to it, since rows above it
/// have never been written.

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cxl/mem_ops.h"
#include "cxl/types.h"

namespace cxlsync {

/// Offsets published anywhere in a hazard table at the time it was read.
struct HazardSnapshot {
    std::vector<cxl::HeapOffset> offsets; ///< sorted, nonzero

    bool
    contains(cxl::HeapOffset offset) const
    {
        return std::binary_search(offsets.begin(), offsets.end(), offset);
    }
};

/// Fixed-size per-thread hazard offset lists over a shared-memory region.
class HazardOffsets {
  public:
    /// Layout: (kMaxThreads + 1) rows of @p slots_per_thread 8-byte slots
    /// starting at @p base. A zero slot is empty (offset 0 is never valid
    /// huge data, so raw offsets are stored). @p row_bound is the sync-
    /// region word bounding the rows in use (zero: only row 0).
    HazardOffsets(cxl::HeapOffset base, std::uint32_t slots_per_thread,
                  cxl::HeapOffset row_bound)
        : base_(base), slots_(slots_per_thread), row_bound_(row_bound)
    {
    }

    /// Bytes of shared memory the table occupies.
    static std::uint64_t
    footprint(std::uint32_t slots_per_thread)
    {
        return static_cast<std::uint64_t>(cxl::kMaxThreads + 1) *
               slots_per_thread * 8;
    }

    /// Publishes @p offset in a free slot of the calling thread's row,
    /// first raising the row-bound word to cover that row. Returns the
    /// slot index, or kNoSlot when the row is full (it bounds the mappings
    /// one thread holds at once), so callers can reclaim or fail
    /// gracefully.
    std::uint32_t try_publish(cxl::MemSession& mem, cxl::HeapOffset offset);

    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /// Clears slot @p slot of the calling thread's row.
    void remove(cxl::MemSession& mem, std::uint32_t slot);

    /// Clears the first slot of the calling thread's row containing
    /// @p offset; returns false if not found.
    bool remove_value(cxl::MemSession& mem, cxl::HeapOffset offset);

    /// Reads every row up to the row-bound word. Each line read costs one
    /// HazardScan hook, one flush (the huge-heap rule: never act on a
    /// stale cached copy of another thread's slot) and one bulk read.
    HazardSnapshot snapshot(cxl::MemSession& mem) const;

    /// Highest tid that has ever published (the row-bound word).
    cxl::ThreadId row_bound(cxl::MemSession& mem) const;

    /// Is @p offset published anywhere? One snapshot() plus a lookup.
    bool
    is_published(cxl::MemSession& mem, cxl::HeapOffset offset) const
    {
        return snapshot(mem).contains(offset);
    }

    std::uint32_t slots_per_thread() const { return slots_; }

    /// Offset of slot @p slot in thread @p tid's row.
    cxl::HeapOffset
    slot_offset(cxl::ThreadId tid, std::uint32_t slot) const
    {
        return base_ + (static_cast<cxl::HeapOffset>(tid) * slots_ + slot) * 8;
    }

  private:
    cxl::HeapOffset base_;
    std::uint32_t slots_;
    cxl::HeapOffset row_bound_;
};

} // namespace cxlsync
