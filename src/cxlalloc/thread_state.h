/// @file
/// Volatile (host-side) per-thread allocator state. Everything here is
/// reconstructible from shared heap metadata, so it dies with the thread
/// and is rebuilt on attach or recovery (paper §3.4.2).

#pragma once

#include <cstdint>
#include <vector>

#include "cxlalloc/interval_set.h"
#include "sync/detectable_cas.h"

namespace cxlalloc {

/// Host-side "may own" filter over one slab heap's slabs: a clear bit
/// means the slab is certainly not this thread's, so a free into it goes
/// straight to the remote path without loading the owner. Exact because
/// only thread t ever writes `owner = t`, and every such write sets t's
/// bit; a bit is cleared only when a descriptor load shows another owner.
/// A set bit proves nothing: the owner load confirms it. Words past the
/// end read as all-set, so a fresh filter (attach, adoption) needs no
/// sizing.
class MayOwnFilter {
  public:
    bool
    test(std::uint32_t slab) const
    {
        return slab / 64 >= bits_.size() ||
               ((bits_[slab / 64] >> (slab % 64)) & 1) != 0;
    }

    void
    set(std::uint32_t slab)
    {
        if (slab / 64 < bits_.size()) {
            bits_[slab / 64] |= std::uint64_t{1} << (slab % 64);
        }
    }

    void
    clear(std::uint32_t slab)
    {
        if (slab / 64 >= bits_.size()) {
            bits_.resize(slab / 64 + 1, ~std::uint64_t{0});
        }
        bits_[slab / 64] &= ~(std::uint64_t{1} << (slab % 64));
    }

  private:
    std::vector<std::uint64_t> bits_;
};

struct ThreadState {
    /// Last detectable-CAS version used (15-bit circular). Restored from
    /// the recovery record on adoption of a crashed slot.
    std::uint16_t version = 0;

    /// May-own filters of the small [0] and large [1] slab heaps. Reset
    /// (all set) with the rest of this state on attach and on adoption.
    MayOwnFilter may_own[2];

    /// Free huge-heap virtual address space owned by this thread
    /// (HugeLocal.free). Rebuilt from the reservation array and the huge
    /// descriptor list.
    IntervalSet huge_free;

    /// Free huge descriptor indices from this thread's pool slice.
    std::vector<std::uint32_t> free_descs;

    /// Allocates the next CAS version.
    std::uint16_t
    next_version()
    {
        version = (version + 1) & cxlsync::kVersionMask;
        return version;
    }
};

} // namespace cxlalloc
