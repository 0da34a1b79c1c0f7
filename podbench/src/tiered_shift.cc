/// tiered_shift: a reference-cell object store on a DRAM + CXL host.
///
/// One host with a private DRAM window sized to a quarter of the objects
/// and a CXL window behind the paper's §5.4 DRAM-to-CXL gap. Four worker
/// sessions run 90 % reads and 10 % replaces (allocate + write + detectable
/// CAS publish + free of the loser) over fixed-count 64 B objects; picks
/// follow a hot range that shifts several times per run. A
/// HotSlabMigrator epoch runs every kEpochEvery ops on its own session,
/// which models a background core: its clock is left out of sim_mops.

#include <cstring>

#include "cxlalloc/migrate.h"
#include "generators.h"
#include "harness.h"
#include "lowest_clock.h"

namespace podbench {

namespace {

constexpr std::uint32_t kWorkers = 4;
constexpr std::uint32_t kObjects = 32'768;
constexpr std::uint64_t kObjSize = 64;
constexpr std::uint32_t kDramPercent = 25;
constexpr std::uint64_t kOpsPerWorker = 50'000;
constexpr std::uint64_t kEpochEvery = 1'000;
constexpr std::uint32_t kPhases = 32;

/// CXL fabric cost over the local-DRAM base model: 357 - 112 ns read,
/// write/flush gap averaged (tiered_sweep's edge).
cxl::EdgeCost
cxl_gap_edge()
{
    cxl::EdgeCost e;
    e.read_add_ns = 245;
    e.write_add_ns = 150;
    e.ns_per_kib = 8;
    return e;
}

struct Object {
    cxl::HeapOffset offset = 0;
    std::uint32_t version = 0;
};

std::uint64_t
object_tag(std::uint32_t index, std::uint32_t version)
{
    return mix64((static_cast<std::uint64_t>(index) << 32) | version);
}

} // namespace

TrialResult
run_tiered_shift(const TrialConfig& config)
{
    TrialResult out;
    Harness h(config, out);

    pod::Topology base(1, 1);
    base.edge(0, 0) = cxl_gap_edge();
    RigSpec spec;
    spec.topology = pod::Topology::with_local_dram(base);
    spec.shard.small_slabs = 256;
    spec.shard.large_slabs = 8;
    spec.shard.huge_regions = 1;
    spec.shard.huge_region_size = 1 << 20;
    spec.shard.app_sync_bytes = static_cast<std::uint64_t>(kObjects) * 8;
    spec.shard.dram_percent = kDramPercent;
    cxlalloc::Config dram = spec.shard;
    // DRAM holds a quarter of the objects, plus the two slabs sessions
    // keep active.
    dram.small_slabs = static_cast<std::uint32_t>(
        kObjects * kDramPercent / 100 /
            (cxlalloc::kSmallSlabSize / kObjSize) +
        2);
    spec.dram = dram;
    spec.coherence = cxl::CoherenceMode::PartialHwcc;
    spec.latency = cxl::LatencyModel::local_dram();
    h.build(spec);
    for (std::uint32_t i = 0; i <= kWorkers; i++) {
        h.add_session(0); // kWorkers workers, then the migrator
    }
    Session& mig = h.session(kWorkers);

    cxl::DeviceId home = spec.topology.home_of(0);
    cxl::DeviceId dram_dev = h.heap().dram_device(0);
    cxlalloc::CxlAllocator& cell_shard = h.heap().shard(home);
    cxl::HeapOffset cells = cell_shard.layout().app_sync();
    auto cell_of = [&](std::uint32_t i) {
        return cells + static_cast<cxl::HeapOffset>(i) * 8;
    };
    cxlalloc::HotSlabMigrator::Options mopt;
    mopt.max_moves_per_epoch = 256;
    cxlalloc::HotSlabMigrator migrator(h.heap(), mopt);
    migrator.set_cell_table(cells, kObjects);

    std::vector<Object> objects(kObjects);
    char payload[kObjSize];
    std::memset(payload, 0x5a, sizeof payload);
    auto write_object = [&](cxl::MemSession& mem, cxl::HeapOffset off,
                            std::uint32_t index, std::uint32_t version) {
        std::uint64_t tag = object_tag(index, version);
        std::memcpy(payload, &tag, 8);
        std::memcpy(payload + kObjSize - 8, &tag, 8);
        mem.write_bytes(off, payload, kObjSize);
        mem.flush(off, kObjSize);
        mem.fence();
    };
    auto tag_ok = [&](const char* bytes, std::uint32_t index) {
        std::uint64_t tag = object_tag(index, objects[index].version);
        std::uint64_t head;
        std::uint64_t tail;
        std::memcpy(&head, bytes, 8);
        std::memcpy(&tail, bytes + kObjSize - 8, 8);
        return head == tag && tail == tag;
    };

    h.begin_preload();
    for (std::uint32_t i = 0; i < kObjects; i++) {
        Session& s = h.session(i % kWorkers);
        cxl::HeapOffset off = h.alloc().allocate(*s.ctx, kObjSize);
        if (off == 0) {
            h.fail("populate allocation failed");
            break;
        }
        objects[i] = Object{off, 1};
        write_object(s.mem(), off, i, 1);
        if (!cell_shard
                 .cell_publish(*s.ctx, cell_of(i), 0,
                               static_cast<std::uint32_t>(off >> 3))
                 .success) {
            h.fail("populate publish failed");
        }
    }
    h.end_preload();
    if (config.setup_only) {
        return out;
    }

    // After a migration epoch: follow every moved object in the ledger and
    // check its payload survived the move. All old blocks leave the ledger
    // before any new one enters: one epoch may reuse a block another move
    // just freed.
    std::vector<std::pair<std::uint32_t, cxl::HeapOffset>> moved;
    auto resync = [&] {
        h.exclude([&] {
            moved.clear();
            for (std::uint32_t i = 0; i < kObjects; i++) {
                auto off = static_cast<cxl::HeapOffset>(
                               cell_shard.dcas().read(h.checker(), cell_of(i)))
                           << 3;
                if (off != objects[i].offset) {
                    moved.push_back({i, off});
                    if (!h.ledger().remove(objects[i].offset, nullptr)) {
                        h.fail("migration freed a block the ledger lacks");
                    }
                }
            }
            char bytes[kObjSize];
            for (const auto& [i, off] : moved) {
                h.checker().read_bytes(off, bytes, kObjSize);
                if (!h.ledger().add(off, BlockInfo{kObjSize, mig.ctx->tid()}) ||
                    !tag_ok(bytes, i)) {
                    h.fail("migration lost an object");
                }
                objects[i].offset = off;
            }
        });
    };

    // The hot range walks the object table from object 0; the seed drives
    // the draws (read or replace, which object), so every seed asks the
    // migrator for the same kind of work.
    ShiftingHotRange picker(kObjects, kObjects / 16, /*base=*/0, 0.9);
    std::vector<cxlcommon::Xoshiro> rng;
    for (std::uint32_t w = 0; w < kWorkers; w++) {
        rng.emplace_back(stream_seed(config.seed, 7'000 + w));
    }

    auto total_ops = static_cast<std::uint64_t>(
        static_cast<double>(kWorkers * kOpsPerWorker) * config.scale);
    std::uint64_t phase_len = total_ops / kPhases + 1;
    std::uint64_t reads = 0;
    std::uint64_t dram_reads = 0;
    char buf[kObjSize];
    // Op number @p op, run by worker w after the migration epoch if one is
    // due.
    auto run_op = [&](std::uint32_t w, std::uint64_t op) {
        if (op % kEpochEvery == kEpochEvery - 1) {
            {
                SpanScope span(h.tracer(), SpanName::MigrateRunEpoch,
                               mig.mem());
                migrator.run_epoch(*mig.ctx);
            }
            resync();
        }
        Session& s = h.session(w);
        cxl::MemSession& mem = s.mem();
        bool replace = rng[w].next_double() < 0.1;
        std::uint32_t idx = picker.pick(rng[w], op / phase_len);
        cxl::HeapOffset cell = cell_of(idx);

        std::uint64_t before = s.clock();
        if (!replace) {
            SpanScope span(h.tracer(), SpanName::StoreRead, mem);
            std::uint32_t val = cell_shard.dcas().read(mem, cell);
            auto off = static_cast<cxl::HeapOffset>(val) << 3;
            mem.read_bytes(off, buf, kObjSize);
            if (off != objects[idx].offset || !tag_ok(buf, idx)) {
                span.fail();
                h.fail("object read returned a wrong payload");
            }
            migrator.note_access(off);
            reads++;
            dram_reads += mem.device_of(off) == dram_dev ? 1 : 0;
        } else {
            SpanScope span(h.tracer(), SpanName::StoreReplace, mem);
            std::uint32_t val = cell_shard.dcas().read(mem, cell);
            auto old = static_cast<cxl::HeapOffset>(val) << 3;
            cxl::HeapOffset fresh = h.alloc().allocate(*s.ctx, kObjSize);
            if (fresh == 0) {
                span.fail();
            } else {
                std::uint32_t version = objects[idx].version + 1;
                write_object(mem, fresh, idx, version);
                bool won;
                {
                    SpanScope publish(h.tracer(), SpanName::SyncCellPublish,
                                      mem);
                    won = cell_shard
                              .cell_publish(
                                  *s.ctx, cell, val,
                                  static_cast<std::uint32_t>(fresh >> 3))
                              .success;
                    if (!won) {
                        publish.fail();
                    }
                }
                if (won) {
                    h.alloc().deallocate(*s.ctx, old);
                    objects[idx] = Object{fresh, version};
                    migrator.note_access(fresh);
                } else {
                    h.alloc().deallocate(*s.ctx, fresh);
                    span.fail();
                    h.fail("cell publish lost with no competitor");
                }
            }
        }
        h.record_op(s.clock() - before);
    };

    h.begin_measure(total_ops * 3);
    LowestClockScheduler sched(kWorkers);
    for (std::uint64_t op = 0; op < total_ops; op++) {
        std::uint32_t w = sched.next();
        run_op(w, op);
        sched.requeue(w, h.session(w).clock());
    }
    h.end_measure(total_ops, kWorkers);
    std::uint64_t promotions = migrator.promotions();
    std::uint64_t demotions = migrator.demotions();
    std::uint64_t aborted = migrator.aborted();
    double dram_read_ratio =
        reads > 0 ? static_cast<double>(dram_reads) /
                        static_cast<double>(reads)
                  : 0.0;

    char note[160];
    std::snprintf(note, sizeof note,
                  "migrator: %llu promotions, %llu demotions, %llu aborted; "
                  "%.4f of reads from DRAM",
                  static_cast<unsigned long long>(promotions),
                  static_cast<unsigned long long>(demotions),
                  static_cast<unsigned long long>(aborted), dram_read_ratio);
    out.notes.push_back(note);
    h.sweep("end of run");
    h.finish();
    if (config.trace) {
        out.layer["migrate.promotions"] = static_cast<double>(promotions);
        out.layer["migrate.demotions"] = static_cast<double>(demotions);
        out.layer["migrate.aborted"] = static_cast<double>(aborted);
        out.layer["migrate.dram_read_ratio"] = dram_read_ratio;
    }
    return out;
}

} // namespace podbench
