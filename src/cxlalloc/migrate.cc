#include "cxlalloc/migrate.h"

#include <algorithm>

#include "common/assert.h"
#include "common/points.h"
#include "sync/detectable_cas.h"

namespace cxlalloc {

namespace {

bool
is_free_op(Op op)
{
    return op == Op::FreeLocal || op == Op::FreeRemote ||
           op == Op::FreeRemoteBatch || op == Op::HugeFree;
}

} // namespace

void
register_migrate_crash_points()
{
    namespace mp = migratepoint;
    constexpr auto kCrash = cxlcommon::PointKind::Crash;
    auto& reg = cxlcommon::PointRegistry::instance();
    reg.add(mp::kAfterArm, kCrash, "migrate.after_arm",
            "HotSlabMigrator::migrate_one (record armed)");
    reg.add(mp::kAfterAlloc, kCrash, "migrate.after_alloc",
            "HotSlabMigrator::migrate_one (target alloced)");
    reg.add(mp::kAfterCopy, kCrash, "migrate.after_copy",
            "HotSlabMigrator::migrate_one (payload copied)");
    reg.add(mp::kAfterVersion, kCrash, "migrate.after_version",
            "HotSlabMigrator::migrate_one (publish version durable)");
    reg.add(mp::kAfterPublish, kCrash, "migrate.after_publish",
            "HotSlabMigrator::migrate_one (cell CAS issued)");
    reg.add(mp::kMidFree, kCrash, "migrate.mid_free",
            "HotSlabMigrator::free_loser (free staged)");
}

HotSlabMigrator::HotSlabMigrator(PodShardedAllocator& heap)
    : HotSlabMigrator(heap, Options())
{
}

HotSlabMigrator::HotSlabMigrator(PodShardedAllocator& heap,
                                 const Options& options)
    : heap_(heap), options_(options)
{
    register_migrate_crash_points();
    // The copy staging buffer (and the record's 32-bit size field) bound
    // moves to small blocks.
    options_.max_block = std::min<std::uint64_t>(options_.max_block, kSmallMax);
    active_ = heap.pod().topology().has_dram_tier();
    window_bits_ = heap.pod().device().window_bits();
    heat_.resize(heap.shard_count());
    for (cxl::DeviceId d = 0; d < heap.shard_count(); d++) {
        heat_[d].slabs = heap.shard(d).config().small_slabs;
        heat_[d].counts =
            std::make_unique<std::atomic<std::uint32_t>[]>(heat_[d].slabs);
    }
}

void
HotSlabMigrator::set_cell_table(cxl::HeapOffset base, std::uint32_t count)
{
    cells_ = base;
    cell_count_ = count;
}

void
HotSlabMigrator::set_metrics(obs::MetricsRegistry* registry)
{
    inst_ = Instruments{};
    inst_.registry = registry;
    if (registry == nullptr) {
        return;
    }
    inst_.promotions = registry->counter("migrate.promotions");
    inst_.demotions = registry->counter("migrate.demotions");
    inst_.aborted = registry->counter("migrate.aborted");
    inst_.epochs = registry->counter("migrate.epochs");
    inst_.recoveries = registry->counter("migrate.recoveries");
    inst_.evacuations = registry->counter("migrate.evacuations");
    inst_.rehomed = registry->counter("migrate.rehomed");
}

void
HotSlabMigrator::bump(obs::MetricsRegistry* reg, cxl::ThreadId tid,
                      obs::MetricId id, std::uint64_t n)
{
    if (reg != nullptr) {
        reg->shard(tid).add(id, n);
    }
}

void
HotSlabMigrator::write_stage(cxl::MemSession& mem, cxl::HeapOffset row,
                             std::uint64_t word)
{
    mem.store<std::uint64_t>(row + MigrationRow::kStage, word);
    mem.flush(row, cxlcommon::kCacheLine);
    mem.fence();
}

void
HotSlabMigrator::clear_row(cxl::MemSession& mem, cxl::HeapOffset row)
{
    mem.store<std::uint64_t>(row + MigrationRow::kStage, 0);
    mem.store<std::uint64_t>(row + MigrationRow::kCell, 0);
    mem.store<std::uint64_t>(row + MigrationRow::kOld, 0);
    mem.store<std::uint64_t>(row + MigrationRow::kNew, 0);
    mem.store<std::uint64_t>(row + MigrationRow::kVersion, 0);
    mem.flush(row, cxlcommon::kCacheLine);
    mem.fence();
}

void
HotSlabMigrator::free_loser(pod::ThreadContext& ctx, cxl::HeapOffset row,
                            cxl::DeviceId target, std::uint32_t size,
                            bool free_new, cxl::HeapOffset old_off,
                            cxl::HeapOffset new_off)
{
    cxl::MemSession& mem = ctx.mem();
    cxl::HeapOffset block = free_new ? new_off : old_off;
    cxl::DeviceId fdev = free_new ? target : pod_device_of_(old_off);
    CxlAllocator& freeing = heap_.shard(fdev);

    // Quiesce BEFORE the durable Free stage: Free-stage recovery re-frees
    // the loser unless the freeing shard's record is a free-type op, so a
    // stale free record from an earlier operation must be gone by the time
    // the stage can be observed. (A crash between the quiesce and the
    // stage write re-enters the PREVIOUS stage, which re-derives free_new
    // idempotently and quiesces again.)
    freeing.quiesce_record(ctx);
    write_stage(mem, row,
                MigrationRow::pack_stage(Stage::Free, target, free_new, size));
    ctx.maybe_crash(migratepoint::kMidFree);
    freeing.deallocate(ctx, block);
    clear_row(mem, row);
}

bool
HotSlabMigrator::migrate_one(pod::ThreadContext& ctx, cxl::HeapOffset cell,
                             cxl::HeapOffset old_off, cxl::DeviceId target,
                             std::uint64_t size)
{
    namespace mp = migratepoint;
    cxl::MemSession& mem = ctx.mem();
    CxlAllocator& cw = heap_.shard(pod_device_of_(cell));
    CxlAllocator& tgt = heap_.shard(target);
    cxl::HeapOffset row = cw.layout().recovery_row(ctx.tid());
    CXL_ASSERT((old_off >> 3) <= 0xffffffffULL && (old_off & 7) == 0,
               "cell values are offset >> 3 in 32 bits");
    CXL_ASSERT(size <= options_.max_block, "migration block too large");

    // Arm: durable (cell, old, target, size) before the target alloc, so
    // Armed recovery can attribute an Op::Alloc record on the quiesced
    // target shard to this migration and reclaim the leaked block.
    tgt.quiesce_record(ctx);
    mem.store<std::uint64_t>(row + MigrationRow::kCell, cell);
    mem.store<std::uint64_t>(row + MigrationRow::kOld, old_off);
    mem.store<std::uint64_t>(row + MigrationRow::kNew, 0);
    mem.store<std::uint64_t>(row + MigrationRow::kVersion, 0);
    write_stage(mem, row,
                MigrationRow::pack_stage(Stage::Armed, target, false,
                                         static_cast<std::uint32_t>(size)));
    ctx.maybe_crash(mp::kAfterArm);

    cxl::HeapOffset new_off = tgt.allocate(ctx, size);
    if (new_off == 0) {
        clear_row(mem, row);
        aborted_++;
        bump(inst_.registry, ctx.tid(), inst_.aborted);
        return false;
    }
    ctx.maybe_crash(mp::kAfterAlloc);

    mem.store<std::uint64_t>(row + MigrationRow::kNew, new_off);
    write_stage(mem, row,
                MigrationRow::pack_stage(Stage::Copied, target, false,
                                         static_cast<std::uint32_t>(size)));

    // Copy and flush the payload before anything can publish it.
    std::uint8_t buf[kSmallMax];
    mem.read_bytes(old_off, buf, size);
    mem.write_bytes(new_off, buf, size);
    mem.flush(new_off, size);
    mem.fence();
    ctx.maybe_crash(mp::kAfterCopy);

    // Publish: consume a cell-shard CAS version (durably logged as
    // Op::CellPublish by log_cell_publish), persist it into the record,
    // then one detectable-CAS attempt. A racing app update makes the CAS
    // fail, which aborts the migration (the new block is the loser).
    std::uint16_t version = cw.log_cell_publish(ctx);
    mem.store<std::uint64_t>(row + MigrationRow::kVersion, version);
    write_stage(mem, row,
                MigrationRow::pack_stage(Stage::Publish, target, false,
                                         static_cast<std::uint32_t>(size)));
    ctx.maybe_crash(mp::kAfterVersion);

    cxlsync::DetectableCas::Result res =
        cw.dcas().try_cas(mem, cell,
                          static_cast<std::uint32_t>(old_off >> 3),
                          static_cast<std::uint32_t>(new_off >> 3), version);
    ctx.maybe_crash(mp::kAfterPublish);

    free_loser(ctx, row, target, static_cast<std::uint32_t>(size),
               /*free_new=*/!res.success, old_off, new_off);
    if (!res.success) {
        aborted_++;
        bump(inst_.registry, ctx.tid(), inst_.aborted);
    }
    return res.success;
}

bool
HotSlabMigrator::debug_migrate_cell(pod::ThreadContext& ctx,
                                    cxl::HeapOffset cell,
                                    cxl::DeviceId target)
{
    CxlAllocator& cw = heap_.shard(pod_device_of_(cell));
    std::uint32_t val = cw.dcas().read(ctx.mem(), cell);
    if (val == 0) {
        return false;
    }
    auto off = static_cast<cxl::HeapOffset>(val) << 3;
    cxl::DeviceId dev = pod_device_of_(off);
    if (dev == target) {
        return false;
    }
    const Layout& l = heap_.shard(dev).layout();
    CXL_ASSERT(l.in_small_data(off), "debug migration of a non-small block");
    auto slab = static_cast<std::uint32_t>((off - l.small_data()) /
                                           kSmallSlabSize);
    std::uint8_t biased =
        heap_.shard(dev).small_heap().debug_class_biased(ctx.mem(), slab);
    CXL_ASSERT(biased != 0, "cell names a block in a classless slab");
    std::uint64_t size = small_class_size(biased - 1);
    return migrate_one(ctx, cell, off, target, size);
}

std::uint32_t
HotSlabMigrator::evacuate_device(pod::ThreadContext& ctx,
                                cxl::DeviceId source, cxl::DeviceId target)
{
    CXL_ASSERT(source < heap_.shard_count() && target < heap_.shard_count(),
               "evacuation names no shard");
    CXL_ASSERT(source != target, "evacuation must change device");
    if (cell_count_ == 0) {
        return 0;
    }
    cxl::MemSession& mem = ctx.mem();
    const Layout& l = heap_.shard(source).layout();
    std::uint32_t moved = 0;
    for (std::uint32_t i = 0; i < cell_count_; i++) {
        cxl::HeapOffset cell = cells_ + static_cast<cxl::HeapOffset>(i) * 8;
        std::uint32_t val = cxlsync::DcasWord::value(mem.atomic_load64(cell));
        if (val == 0) {
            continue;
        }
        auto off = static_cast<cxl::HeapOffset>(val) << 3;
        if (pod_device_of_(off) != source) {
            continue;
        }
        // Evacuation covers what migrate_one can move: small blocks with
        // a live size class. Anything else stays for edge recovery.
        if (!l.in_small_data(off)) {
            continue;
        }
        auto slab = static_cast<std::uint32_t>((off - l.small_data()) /
                                               kSmallSlabSize);
        std::uint8_t biased =
            heap_.shard(source).small_heap().debug_class_biased(mem, slab);
        if (biased == 0) {
            continue;
        }
        std::uint64_t size = small_class_size(biased - 1);
        if (size > options_.max_block) {
            continue;
        }
        if (migrate_one(ctx, cell, off, target, size)) {
            moved++;
            evacuations_++;
            bump(inst_.registry, ctx.tid(), inst_.evacuations);
        }
    }
    return moved;
}

std::uint32_t
HotSlabMigrator::rehome(pod::ThreadContext& ctx, cxl::DeviceId target)
{
    CXL_ASSERT(target < heap_.shard_count(), "rehome names no shard");
    if (cell_count_ == 0) {
        return 0;
    }
    cxl::MemSession& mem = ctx.mem();
    std::uint32_t moved = 0;
    for (std::uint32_t i = 0; i < cell_count_; i++) {
        cxl::HeapOffset cell = cells_ + static_cast<cxl::HeapOffset>(i) * 8;
        std::uint32_t val = cxlsync::DcasWord::value(mem.atomic_load64(cell));
        if (val == 0) {
            continue;
        }
        auto off = static_cast<cxl::HeapOffset>(val) << 3;
        cxl::DeviceId dev = pod_device_of_(off);
        const Layout& l = heap_.shard(dev).layout();
        if (!l.in_small_data(off)) {
            continue;
        }
        auto slab = static_cast<std::uint32_t>((off - l.small_data()) /
                                               kSmallSlabSize);
        SlabHeap& sh = heap_.shard(dev).small_heap();
        std::uint8_t biased = sh.debug_class_biased(mem, slab);
        if (biased == 0) {
            continue;
        }
        // Skip blocks whose frees already stay host-local AND will keep
        // doing so: the slab must be caller-owned on the target device
        // with a full remote-free counter. A slab that has absorbed any
        // remote free is a time bomb — the moment it fills it disowns
        // itself (full_transition) and every later free pays the mCAS —
        // so its blocks are pulled out even while the owner field still
        // reads as ours.
        if (dev == target && sh.debug_owner(mem, slab) == ctx.tid() &&
            sh.debug_remote_free(mem, slab) ==
                small_blocks_per_slab(biased - 1)) {
            continue;
        }
        std::uint64_t size = small_class_size(biased - 1);
        if (size > options_.max_block) {
            continue;
        }
        if (migrate_one(ctx, cell, off, target, size)) {
            moved++;
            rehomed_++;
            bump(inst_.registry, ctx.tid(), inst_.rehomed);
        }
    }
    return moved;
}

std::uint32_t
HotSlabMigrator::run_epoch(pod::ThreadContext& ctx)
{
    if (!active_ || cell_count_ == 0) {
        return 0;
    }
    cxl::MemSession& mem = ctx.mem();
    auto host = static_cast<pod::HostId>(ctx.process().host());
    cxl::DeviceId dram = heap_.dram_device(host);
    if (dram >= heap_.shard_count()) {
        return 0;
    }
    cxl::DeviceId home = heap_.pod().topology().home_of(host);

    struct Move {
        cxl::HeapOffset cell = 0;
        cxl::HeapOffset off = 0;
        cxl::DeviceId target = 0;
        std::uint64_t size = 0;
        bool promote = false;
    };
    std::vector<Move> demotes;
    std::vector<Move> promotes;

    for (std::uint32_t i = 0; i < cell_count_; i++) {
        cxl::HeapOffset cell = cells_ + static_cast<cxl::HeapOffset>(i) * 8;
        std::uint32_t val = cxlsync::DcasWord::value(mem.atomic_load64(cell));
        if (val == 0) {
            continue;
        }
        auto off = static_cast<cxl::HeapOffset>(val) << 3;
        cxl::DeviceId dev = pod_device_of_(off);
        if (dev >= heap_.shard_count()) {
            continue;
        }
        const Layout& l = heap_.shard(dev).layout();
        if (!l.in_small_data(off)) {
            continue;
        }
        auto slab = static_cast<std::uint32_t>((off - l.small_data()) /
                                               kSmallSlabSize);
        std::uint32_t heat =
            heat_[dev].counts[slab].load(std::memory_order_relaxed);
        bool demote = dev == dram && heat <= options_.demote_max_heat;
        bool promote =
            dev != dram && heat >= options_.promote_min_heat;
        if (!demote && !promote) {
            continue;
        }
        std::uint8_t biased =
            heap_.shard(dev).small_heap().debug_class_biased(mem, slab);
        if (biased == 0) {
            continue;
        }
        std::uint64_t size = small_class_size(biased - 1);
        if (size > options_.max_block) {
            continue;
        }
        Move m{cell, off, demote ? home : dram, size, promote};
        (demote ? demotes : promotes).push_back(m);
    }

    // Demotions first: they open DRAM capacity the promotions need.
    std::uint32_t moved = 0;
    for (const std::vector<Move>* list : {&demotes, &promotes}) {
        for (const Move& m : *list) {
            if (moved >= options_.max_moves_per_epoch) {
                break;
            }
            if (!migrate_one(ctx, m.cell, m.off, m.target, m.size)) {
                continue;
            }
            moved++;
            if (m.promote) {
                promotions_++;
                bump(inst_.registry, ctx.tid(), inst_.promotions);
            } else {
                demotions_++;
                bump(inst_.registry, ctx.tid(), inst_.demotions);
            }
        }
    }

    for (auto& dh : heat_) {
        for (std::uint32_t s = 0; s < dh.slabs; s++) {
            std::uint32_t h = dh.counts[s].load(std::memory_order_relaxed);
            if (h != 0) {
                dh.counts[s].store(h >> 1, std::memory_order_relaxed);
            }
        }
    }
    bump(inst_.registry, ctx.tid(), inst_.epochs);
    return moved;
}

void
HotSlabMigrator::recover(pod::ThreadContext& ctx)
{
    // No active_ gate: evacuate_device writes migration records on pods
    // without a DRAM tier, so the record sweep must always run. On an
    // untouched pod every row's stage is Idle and this degrades to plain
    // shard recovery.
    cxl::MemSession& mem = ctx.mem();
    const pod::Topology& topo = heap_.pod().topology();
    auto host = static_cast<pod::HostId>(ctx.process().host());

    // Everything the adopter's host can reach: the CXL placement order
    // plus its private DRAM window (excluded from placement by design).
    std::vector<cxl::DeviceId> sweep = topo.placement_order(host);
    cxl::DeviceId dram = topo.dram_device_of(host);
    if (dram < topo.devices()) {
        sweep.push_back(dram);
    }

    // Snapshot every shard's allocator record BEFORE shard recovery redoes
    // and clears them — Armed/Free dispatch below needs the pre-recovery
    // records to attribute blocks.
    std::vector<OpRecord> snap(heap_.shard_count());
    for (cxl::DeviceId d : sweep) {
        snap[d] = heap_.shard(d).pending_record(ctx);
    }

    // Locate the (at most one) in-flight migration record. The row lives
    // in the CELL shard's recovery row; refetch the line from the device
    // like RecoveryLog::read does.
    cxl::DeviceId found = heap_.shard_count();
    for (cxl::DeviceId d : sweep) {
        cxl::HeapOffset row = heap_.shard(d).layout().recovery_row(ctx.tid());
        mem.flush(row, cxlcommon::kCacheLine);
        if (MigrationRow::stage_of(mem.load<std::uint64_t>(
                row + MigrationRow::kStage)) != Stage::Idle) {
            CXL_ASSERT(found == heap_.shard_count(),
                       "two in-flight migration records for one thread");
            found = d;
        }
    }

    heap_.recover(ctx);

    if (found == heap_.shard_count()) {
        return;
    }
    bump(inst_.registry, ctx.tid(), inst_.recoveries);

    CxlAllocator& cw = heap_.shard(found);
    cxl::HeapOffset row = cw.layout().recovery_row(ctx.tid());
    std::uint64_t word = mem.load<std::uint64_t>(row + MigrationRow::kStage);
    Stage stage = MigrationRow::stage_of(word);
    auto target = static_cast<cxl::DeviceId>((word >> 8) & 0xff);
    bool free_new = ((word >> 16) & 0xff) != 0;
    auto size = static_cast<std::uint32_t>(word >> 32);
    cxl::HeapOffset cell = mem.load<std::uint64_t>(row + MigrationRow::kCell);
    cxl::HeapOffset old_off = mem.load<std::uint64_t>(row + MigrationRow::kOld);
    cxl::HeapOffset new_off = mem.load<std::uint64_t>(row + MigrationRow::kNew);
    auto v_pub = static_cast<std::uint16_t>(
        mem.load<std::uint64_t>(row + MigrationRow::kVersion));

    // From Publish on, the dead thread consumed version v_pub on the cell
    // shard. Shard recovery restored the version from the Op::CellPublish
    // record — unless the cell shard doubled as the freeing shard and
    // free_loser quiesced that record. Re-bump before anything on this
    // shard can consume a version.
    if (stage == Stage::Publish || stage == Stage::Free) {
        ThreadState& ts = cw.thread_state(ctx.tid());
        if (!cxlsync::version_geq(ts.version, v_pub)) {
            ts.version = v_pub;
        }
    }

    switch (stage) {
    case Stage::Armed: {
        // The durable record predates the target alloc. If the target
        // shard's (quiesced-at-arm) record is an Op::Alloc, that alloc was
        // handed to the dead migration and leaked; anything else means the
        // alloc never started.
        if (snap[target].op != Op::Alloc) {
            clear_row(mem, row);
            break;
        }
        cxl::HeapOffset leaked =
            heap_.shard(target).record_block_offset(mem, snap[target]);
        // Persist the reconstruction before freeing: a re-crash inside
        // free_loser must not re-enter Armed (the quiesces below would
        // erase the Op::Alloc evidence) — Copied-stage recovery re-frees
        // the recorded block without consulting the snapshot.
        mem.store<std::uint64_t>(row + MigrationRow::kNew, leaked);
        write_stage(mem, row,
                    MigrationRow::pack_stage(Stage::Copied, target, false,
                                             size));
        free_loser(ctx, row, target, size, /*free_new=*/true, old_off, leaked);
        break;
    }
    case Stage::Copied:
        // Target block allocated and recorded, never published: free it.
        free_loser(ctx, row, target, size, /*free_new=*/true, old_off, new_off);
        break;
    case Stage::Publish: {
        // The CAS may or may not have executed; v_pub is durable, so the
        // detectable-CAS machinery answers exactly.
        bool ok = cw.dcas().did_succeed(mem, cell, v_pub);
        free_loser(ctx, row, target, size, /*free_new=*/!ok, old_off, new_off);
        break;
    }
    case Stage::Free: {
        // The loser's free was durably staged; the freeing shard's record
        // tells whether it also executed (then shard recovery already
        // redid it — re-freeing would double-free).
        cxl::HeapOffset block = free_new ? new_off : old_off;
        cxl::DeviceId fdev = free_new ? target : pod_device_of_(old_off);
        if (!is_free_op(snap[fdev].op)) {
            heap_.shard(fdev).deallocate(ctx, block);
        }
        clear_row(mem, row);
        break;
    }
    case Stage::Idle:
        break;
    }
}

} // namespace cxlalloc
