#include "memento/recoverable_map.h"

#include <cstring>
#include <vector>

#include "common/assert.h"
#include "common/points.h"

namespace memento {

void
register_map_crash_points()
{
    constexpr auto kCrash = cxlcommon::PointKind::Crash;
    auto& reg = cxlcommon::PointRegistry::instance();
    reg.add(mcrash::kMapAfterAlloc, kCrash, "map.after_alloc",
            "RecoverableMap::insert");
    reg.add(mcrash::kMapAfterRecord, kCrash, "map.after_record",
            "RecoverableMap::insert");
    reg.add(mcrash::kMapAfterLink, kCrash, "map.after_link",
            "RecoverableMap::insert");
}

RecoverableMap::RecoverableMap(pod::Pod& pod, cxl::HeapOffset meta,
                               cxl::HeapOffset buckets,
                               std::uint64_t num_buckets,
                               baselines::PodAllocator* alloc)
    : pod_(pod), meta_(meta), table_(pod, buckets, num_buckets, alloc),
      alloc_(alloc)
{
    register_map_crash_points();
}

cxl::HeapOffset
RecoverableMap::record_off(cxl::ThreadId tid) const
{
    return meta_ + static_cast<cxl::HeapOffset>(tid) * 16;
}

void
RecoverableMap::write_record(cxl::MemSession& mem, MOp op, std::uint64_t arg)
{
    cxl::HeapOffset at = record_off(mem.tid());
    mem.store<std::uint64_t>(at, static_cast<std::uint64_t>(op));
    mem.store<std::uint64_t>(at + 8, arg);
    mem.flush(at, 16);
    mem.fence();
}

bool
RecoverableMap::insert(pod::ThreadContext& ctx, std::uint64_t id,
                       std::uint32_t vlen)
{
    cxl::MemSession& mem = ctx.mem();
    std::vector<unsigned char> value(vlen, 0x5a);
    std::uint64_t node = table_.alloc_node(ctx, &id, sizeof id,
                                           value.data(), vlen);
    if (node == 0) {
        return false;
    }
    ctx.maybe_crash(mcrash::kMapAfterAlloc);
    // Record the unlinked node; recovery completes the publication, so the
    // allocation cannot leak.
    write_record(mem, MOp::Insert, node);
    ctx.maybe_crash(mcrash::kMapAfterRecord);
    table_.link_node(ctx, node);
    ctx.maybe_crash(mcrash::kMapAfterLink);
    return true;
}

bool
RecoverableMap::remove(pod::ThreadContext& ctx, std::uint64_t id)
{
    cxl::MemSession& mem = ctx.mem();
    write_record(mem, MOp::Remove, id);
    bool removed = table_.remove(ctx, &id, sizeof id);
    write_record(mem, MOp::None, 0);
    return removed;
}

bool
RecoverableMap::contains(pod::ThreadContext& ctx, std::uint64_t id)
{
    return table_.get(ctx, &id, sizeof id, nullptr, 0, nullptr);
}

void
RecoverableMap::recover(pod::ThreadContext& ctx)
{
    cxl::MemSession& mem = ctx.mem();
    cxl::HeapOffset at = record_off(mem.tid());
    mem.flush(at, 16);
    auto op = static_cast<MOp>(mem.load<std::uint64_t>(at));
    std::uint64_t arg = mem.load<std::uint64_t>(at + 8);
    switch (op) {
      case MOp::None:
        break;
      case MOp::Insert:
        if (arg != 0 && !table_.contains_node(ctx, arg)) {
            // Node built but never published: finish the insert.
            table_.link_node(ctx, arg);
        }
        break;
      case MOp::Remove:
        // Redo-if-present: if the key is gone the remove completed. (The
        // unlink-to-retire window can leak one node under EBR; Fig. 7's
        // crashes happen during the insertion phase, where this path is
        // not taken.)
        table_.remove(ctx, &arg, sizeof arg);
        break;
    }
    write_record(mem, MOp::None, 0);
}

} // namespace memento
