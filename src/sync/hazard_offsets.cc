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

std::uint32_t
HazardOffsets::publish(cxl::MemSession& mem, cxl::HeapOffset offset)
{
    std::uint32_t slot = try_publish(mem, offset);
    CXL_FATAL_IF(slot == kNoSlot,
                 "hazard offset row full; raise slots_per_thread");
    return slot;
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

HazardSnapshot
HazardOffsets::snapshot(cxl::MemSession& mem) const
{
    const cxl::HeapOffset end = base_ + footprint(slots_);
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
