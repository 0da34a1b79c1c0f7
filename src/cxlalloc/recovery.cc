#include "cxlalloc/recovery.h"

#include "common/assert.h"
#include "common/cacheline.h"
#include "common/points.h"

namespace cxlalloc {

void
register_crash_points()
{
    namespace cp = crashpoint;
    auto add = [](cxlcommon::PointId id, const char* name, const char* site) {
        cxlcommon::PointRegistry::instance().add(
            id, cxlcommon::PointKind::Crash, name, site);
    };
    add(cp::kAfterRecord, "slab.after_record", "SlabHeap (record logged)");
    add(cp::kMidInit, "slab.mid_init", "SlabHeap::init_slab");
    add(cp::kAfterDcas, "slab.after_dcas", "SlabHeap (dcas applied)");
    add(cp::kMidSteal, "slab.mid_steal", "SlabHeap::free_remote");
    add(cp::kMidDetach, "slab.mid_detach", "SlabHeap::detach_full");
    add(cp::kMidFreeLocal, "slab.mid_free_local", "SlabHeap::free_local");
    add(cp::kMidPushGlobal, "slab.mid_push_global",
        "SlabHeap::push_global_one");
    add(cp::kMidHugeAlloc, "huge.mid_alloc", "HugeHeap::allocate");
    add(cp::kMidHugeMap, "huge.mid_map", "HugeHeap::map_region");
    add(cp::kMidHugeFree, "huge.mid_free", "HugeHeap::deallocate");
    add(cp::kMidAlloc, "slab.mid_alloc", "SlabHeap::allocate");
    add(cp::kMidBatchStage, "slab.mid_batch_stage",
        "CxlAllocator::free_batch (ring staged)");
    add(cp::kMidBatchDoorbell, "slab.mid_batch_doorbell",
        "CxlAllocator::free_batch (shard records logged)");
    add(cp::kMidBatchDrain, "slab.mid_batch_drain",
        "CxlAllocator::free_batch (doorbell rung)");
}

bool
RecoveryLog::names(cxl::MemSession& mem, cxl::ThreadId tid,
                   std::uint16_t version)
{
    cxl::HeapOffset row = layout_->recovery_row(tid);
    mem.flush(row, cxlcommon::kCacheLine); // refetch, like read()
    std::uint64_t line[MigrationRow::kBytes / 8];
    mem.read_bytes(row, line, sizeof(line));
    OpRecord record = OpRecord::unpack(line[0]);
    if (record.op != Op::None && record.version == version) {
        return true;
    }
    // Between the migrator's quiesce and its Free stage the record is
    // None, yet Publish-stage recovery still asks about v_pub.
    return MigrationRow::stage_of(line[MigrationRow::kStage / 8]) ==
               MigrationRow::Stage::Publish &&
           line[MigrationRow::kVersion / 8] == version;
}

const char*
to_string(Op op)
{
    switch (op) {
      case Op::None:
        return "none";
      case Op::Alloc:
        return "alloc";
      case Op::Init:
        return "init";
      case Op::PopGlobal:
        return "pop-global";
      case Op::Extend:
        return "extend";
      case Op::Detach:
        return "detach";
      case Op::Disown:
        return "disown";
      case Op::FreeLocal:
        return "free-local";
      case Op::FreeRemote:
        return "free-remote";
      case Op::PushGlobal:
        return "push-global";
      case Op::HugeReserve:
        return "huge-reserve";
      case Op::HugeAlloc:
        return "huge-alloc";
      case Op::HugeFree:
        return "huge-free";
      case Op::FreeRemoteBatch:
        return "free-remote-batch";
      case Op::CellPublish:
        return "cell-publish";
    }
    return "?";
}

std::uint64_t
OpRecord::pack() const
{
    CXL_ASSERT(aux <= kAuxMask, "record aux overflows 12 bits");
    CXL_ASSERT(version < (1u << 15), "record version overflows 15 bits");
    std::uint64_t aux13 =
        (static_cast<std::uint64_t>(large_heap) << 12) | aux;
    return (static_cast<std::uint64_t>(index) << 32) |
           (static_cast<std::uint64_t>(version) << 17) | (aux13 << 4) |
           static_cast<std::uint64_t>(op);
}

OpRecord
OpRecord::unpack(std::uint64_t word)
{
    OpRecord r;
    r.op = static_cast<Op>(word & 0xf);
    std::uint64_t aux13 = (word >> 4) & 0x1fff;
    r.large_heap = (aux13 >> 12) & 1;
    r.aux = static_cast<std::uint16_t>(aux13 & kAuxMask);
    r.version = static_cast<std::uint16_t>((word >> 17) & 0x7fff);
    r.index = static_cast<std::uint32_t>(word >> 32);
    return r;
}

} // namespace cxlalloc
