#include "sync/hazard_offsets.h"

#include "common/assert.h"
#include "common/cacheline.h"
#include "common/points.h"
#include "sched/hook.h"

namespace cxlsync {

std::uint32_t
HazardOffsets::try_publish(cxl::MemSession& mem, cxl::HeapOffset offset)
{
    CXL_ASSERT(offset != 0, "cannot publish null hazard offset");
    // Cover this row before any slot in it can be nonzero: snapshot()
    // reads only rows up to the bound. The raise is a synchronous coherent
    // CAS (an mCAS on NoHwcc, with this thread's ring empty), so it is
    // visible before the hazard store below can be.
    if (!cxlcommon::defect::skip_hazard_row_raise) {
        std::uint64_t bound = mem.atomic_load64(row_bound_);
        while (bound < mem.tid()) {
            if (mem.cas64(row_bound_, bound, mem.tid())) {
                break; // a failed CAS reloaded bound
            }
        }
    }
    for (std::uint32_t slot = 0; slot < slots_; slot++) {
        cxl::HeapOffset at = slot_offset(mem.tid(), slot);
        if (mem.load<std::uint64_t>(at) == 0) {
            mem.store<std::uint64_t>(at, offset);
            // Huge-heap SWcc rule: flush + fence after every write so other
            // hosts observe the hazard before we install the mapping.
            if (!cxlcommon::defect::skip_hazard_publish_flush) {
                mem.flush(at, 8);
                mem.fence();
            }
            sched::hook(sched::Op::HazardPublish, at, offset);
            return slot;
        }
    }
    return kNoSlot;
}

void
HazardOffsets::remove(cxl::MemSession& mem, std::uint32_t slot)
{
    CXL_ASSERT(slot < slots_, "hazard slot out of range");
    cxl::HeapOffset at = slot_offset(mem.tid(), slot);
    sched::hook(sched::Op::HazardRemove, at, slot);
    mem.store<std::uint64_t>(at, 0);
    mem.flush(at, 8);
    mem.fence();
}

bool
HazardOffsets::remove_value(cxl::MemSession& mem, cxl::HeapOffset offset)
{
    for (std::uint32_t slot = 0; slot < slots_; slot++) {
        cxl::HeapOffset at = slot_offset(mem.tid(), slot);
        if (mem.load<std::uint64_t>(at) == offset) {
            remove(mem, slot);
            return true;
        }
    }
    return false;
}

cxl::ThreadId
HazardOffsets::row_bound(cxl::MemSession& mem) const
{
    std::uint64_t bound = mem.atomic_load64(row_bound_);
    CXL_ASSERT(bound <= cxl::kMaxThreads, "hazard row bound out of range");
    return static_cast<cxl::ThreadId>(bound);
}

HazardSnapshot
HazardOffsets::snapshot(cxl::MemSession& mem) const
{
    // Only rows up to the bound can hold a hazard. A reclaimer snapshots
    // after observing every candidate's free bit, so any hazard on a
    // candidate was published before this load, and its publisher raised
    // the bound before publishing. A crash between a raise and its store
    // only makes later snapshots read an empty row; an adopted slot keeps
    // its tid, so its row stays covered. The word only grows, so it needs
    // no recovery record.
    const cxl::HeapOffset end =
        base_ + (static_cast<std::uint64_t>(row_bound(mem)) + 1) * slots_ * 8;
    HazardSnapshot snap;
    // The first and last lines may be partial: the table need not start
    // or end on a line boundary (2 slots per row is 40.25 lines).
    for (cxl::HeapOffset line = cxlcommon::line_of(base_); line < end;
         line += cxlcommon::kCacheLine) {
        cxl::HeapOffset from = std::max(line, base_);
        std::uint64_t len = std::min(line + cxlcommon::kCacheLine, end) - from;
        std::uint64_t words[cxlcommon::kCacheLine / 8];
        sched::hook(sched::Op::HazardScan, from);
        mem.flush(from, len);
        mem.read_bytes(from, words, len);
        for (std::uint64_t i = 0; i < len / 8; i++) {
            if (words[i] != 0) {
                snap.offsets.push_back(words[i]);
            }
        }
    }
    std::sort(snap.offsets.begin(), snap.offsets.end());
    return snap;
}

} // namespace cxlsync
