/// @file
/// Help only a tag its owner can still ask about (cxlsync::DetectableCas,
/// class comment points 6 and 7). Under NoHwcc a foreign CAS refetches the
/// displaced owner's recovery row and writes help only while the row
/// still names the displaced version: exact mCAS and refetch counts for
/// both answers, the migrator's window between quiesce and the Free stage
/// (record None, stage Publish), and the defect.skip_named_help switch
/// caught by crash recovery as a doubled remote-free decrement.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/points.h"
#include "cxlalloc/migrate.h"
#include "fixture.h"
#include "pod/topology.h"
#include "sched/hook.h"

namespace {

using cxltest::Rig;
using cxltest::RigOptions;

RigOptions
nohwcc()
{
    RigOptions opt;
    opt.mode = cxl::CoherenceMode::NoHwcc;
    return opt;
}

/// HWcc remote-free counter word of the small slab holding @p offset.
cxl::HeapOffset
counter_word(Rig& rig, cxl::HeapOffset offset)
{
    const cxlalloc::Layout& l = rig.alloc.layout();
    return l.small_hwcc_desc(static_cast<std::uint32_t>(
        (offset - l.small_data()) / cxlalloc::kSmallSlabSize));
}

std::uint32_t
counter(Rig& rig, cxl::MemSession& mem, cxl::HeapOffset offset)
{
    return cxlsync::DcasWord::value(
        mem.atomic_load64(counter_word(rig, offset)));
}

/// Counts the calling OS thread's Flush hooks on one address.
class FlushCount : public sched::Listener {
  public:
    explicit FlushCount(cxl::HeapOffset addr) : addr_(addr)
    {
        sched::t_listener = this;
    }
    ~FlushCount() override { sched::t_listener = nullptr; }
    FlushCount(const FlushCount&) = delete;
    FlushCount& operator=(const FlushCount&) = delete;

    void
    on_event(const sched::Event& event) override
    {
        flushes += event.op == sched::Op::Flush && event.addr == addr_;
    }

    int flushes = 0;

  private:
    cxl::HeapOffset addr_;
};

/// Three threads on a NoHwcc heap: `owner` holds 1 KiB, 512 B and 256 B
/// blocks (one slab per size), `a` has freed big[0] remotely, and `b` can
/// free big[1] into the same slab, displacing a's tag. b has warmed its
/// own floor with a free into the 256 B slab (its first CAS raises its
/// help entry once).
struct Displacement {
    Displacement()
    {
        owner = rig.thread();
        a = rig.thread();
        b = rig.thread();
        for (int i = 0; i < 4; i++) {
            big.push_back(rig.alloc.allocate(*owner, 1024));
            mid.push_back(rig.alloc.allocate(*owner, 512));
            small.push_back(rig.alloc.allocate(*owner, 256));
        }
        rig.alloc.deallocate(*b, small[0]);
        rig.alloc.deallocate(*a, big[0]);
    }

    ~Displacement()
    {
        for (auto* t : {&owner, &a, &b}) {
            rig.pod.release_thread(std::move(*t));
        }
    }

    std::uint64_t
    help_of_a()
    {
        cxl::HeapOffset entry = rig.alloc.dcas().help_entry(a->tid());
        return b->mem().atomic_load64(entry);
    }

    /// b frees big[1]; returns b's mCAS count and its flushes of a's row.
    std::pair<std::uint64_t, int>
    displace()
    {
        std::uint64_t mcas0 = b->mem().counters().mcas_ops;
        FlushCount rows(rig.alloc.layout().recovery_row(a->tid()));
        rig.alloc.deallocate(*b, big[1]);
        return {b->mem().counters().mcas_ops - mcas0, rows.flushes};
    }

    Rig rig{nohwcc()};
    std::unique_ptr<pod::ThreadContext> owner, a, b;
    std::vector<cxl::HeapOffset> big, mid, small;
};

TEST(NamedHelp, ForeignDisplacementOfANamedTagPaysOneHelpMcas)
{
    Displacement d;
    std::uint64_t tag =
        d.b->mem().atomic_load64(counter_word(d.rig, d.big[0]));
    ASSERT_EQ(cxlsync::DcasWord::tid(tag), d.a->tid());
    // a's row still names the version of its landed decrement.
    auto [mcas, refetches] = d.displace();
    EXPECT_EQ(refetches, 1);
    EXPECT_EQ(mcas, 2u) << "help mCAS + b's own decrement";
    EXPECT_EQ(d.help_of_a(), cxlsync::DcasWord::version(tag) + 1u);
    EXPECT_EQ(counter(d.rig, d.b->mem(), d.big[0]), 30u);
    d.rig.alloc.check_invariants(d.b->mem());
}

TEST(NamedHelp, ForeignDisplacementOfAMovedOnOwnerSkipsTheHelpMcas)
{
    Displacement d;
    // a's next remote free logs a newer record: its tag on big's counter
    // can never be asked about again.
    d.rig.alloc.deallocate(*d.a, d.mid[0]);
    std::uint64_t help = d.help_of_a();
    auto [mcas, refetches] = d.displace();
    EXPECT_EQ(refetches, 1);
    EXPECT_EQ(mcas, 1u) << "b's own decrement only";
    EXPECT_EQ(d.help_of_a(), help);
    EXPECT_EQ(counter(d.rig, d.b->mem(), d.big[0]), 30u);
    d.rig.alloc.check_invariants(d.b->mem());
}

TEST(NamedHelp, BatchRoundRaisesALaggingHelpEntry)
{
    // Staged operands consume versions without a serial CAS, so after
    // each round (ring drained, rows durable) the freeing thread bounds
    // its own help lag. Jump a's counter as if it had staged a long run.
    Displacement d;
    cxlalloc::ThreadState& ts = d.rig.alloc.thread_state(d.a->tid());
    ts.version = (ts.version + 2 * cxlsync::kSelfHelpSlack) &
                 cxlsync::kVersionMask;
    cxl::HeapOffset round[2] = {d.big[1], d.mid[1]};
    std::uint64_t mcas0 = d.a->mem().counters().mcas_batches;
    d.rig.alloc.deallocate_batch(*d.a, round, 2);
    ASSERT_EQ(d.a->mem().counters().mcas_batches - mcas0, 1u);
    // The round's record names its last version; help stops one below.
    EXPECT_EQ(d.help_of_a(), ts.version);
    EXPECT_EQ(d.rig.alloc.dcas().help_floor(d.a->tid()), ts.version);
    d.rig.alloc.check_invariants(d.a->mem());
}

/// a's remote free lands, then a dies idle with its FreeRemote record in
/// place; b frees into the same slab (serially or as a one-operand batch),
/// displacing a's tag; a's slot is adopted and recovered. Returns the
/// decrements the slab's counter took: 2 when recovery read a's free as
/// landed, 3 when it redid it.
std::uint32_t
decrements_after_recovery(bool batched)
{
    Displacement d;
    std::uint32_t before = counter(d.rig, d.b->mem(), d.big[0]) + 1;
    cxl::ThreadId tid = d.a->tid();
    d.rig.pod.mark_crashed(std::move(d.a));
    if (batched) {
        d.rig.alloc.deallocate_batch(*d.b, &d.big[1], 1);
    } else {
        d.rig.alloc.deallocate(*d.b, d.big[1]);
    }
    d.a = d.rig.pod.adopt_thread(d.rig.process, tid);
    d.rig.alloc.recover(*d.a);
    return before - counter(d.rig, d.b->mem(), d.big[0]);
}

TEST(NamedHelp, RecoveryAfterAForeignDisplacementRedoesNothing)
{
    EXPECT_EQ(decrements_after_recovery(/*batched=*/false), 2u);
    EXPECT_EQ(decrements_after_recovery(/*batched=*/true), 2u);
}

TEST(NamedHelp, SkippedNamedHelpDoubleDecrements)
{
    // The defect skips the help write although a's row names the tag:
    // recovery reads the landed free as lost and decrements again.
    cxlcommon::ScopedArm arm(cxlcommon::defect::kSkipNamedHelp);
    EXPECT_EQ(decrements_after_recovery(/*batched=*/false), 3u)
        << "serial displacement: defect not caught";
    EXPECT_EQ(decrements_after_recovery(/*batched=*/true), 3u)
        << "batched displacement: defect not caught";
}

/// Runs @p action at the calling OS thread's @p nth Store hook on @p addr,
/// before the store.
class AtNthStore : public sched::Listener {
  public:
    AtNthStore(cxl::HeapOffset addr, int nth, std::function<void()> action)
        : addr_(addr), left_(nth), action_(std::move(action))
    {
        sched::t_listener = this;
    }
    ~AtNthStore() override { sched::t_listener = nullptr; }
    AtNthStore(const AtNthStore&) = delete;
    AtNthStore& operator=(const AtNthStore&) = delete;

    void
    on_event(const sched::Event& event) override
    {
        if (event.op == sched::Op::Store && event.addr == addr_ &&
            --left_ == 0) {
            action_();
        }
    }

  private:
    cxl::HeapOffset addr_;
    int left_;
    std::function<void()> action_;
};

TEST(NamedHelp, MigratorWindowBetweenQuiesceAndFreeStillHelps)
{
    // One host over two NoHwcc devices, cells on the home shard. Moving
    // a home object away frees the old block on the cell shard, so
    // free_loser quiesces the cell shard's record (None) while the
    // migration record still sits in Publish: Publish-stage recovery
    // would still ask did_succeed(v_pub). A foreign publish on the cell
    // in that window must write help.
    cxlalloc::Config cfg;
    cfg.small_slabs = 4;
    cfg.large_slabs = 2;
    cfg.huge_regions = 2;
    cfg.huge_region_size = 1 << 20;
    cfg.huge_descs_per_thread = 4;
    cfg.hazard_slots_per_thread = 4;
    cfg.app_sync_bytes = 2 * 8;
    cxl::EdgeCost far;
    far.read_add_ns = 100;
    far.write_add_ns = 150;
    pod::Topology topo = pod::Topology::dense(1, 2, cxl::EdgeCost{}, far);
    pod::PodConfig pc;
    pc.device = cxlalloc::PodShardedAllocator::device_config(
        cfg, topo, cxl::CoherenceMode::NoHwcc, /*simulate_cache=*/false);
    pc.topology = topo;
    pod::Pod pod(pc);
    cxlalloc::PodShardedAllocator alloc(pod, cfg);
    pod::Process* proc = pod.create_process(0);
    alloc.attach(*proc);
    cxl::DeviceId home = topo.home_of(0);
    cxlalloc::CxlAllocator& cw = alloc.shard(home);
    cxl::HeapOffset cell = cw.layout().app_sync();
    cxlalloc::HotSlabMigrator migrator(alloc);
    migrator.set_cell_table(cell, 1);

    auto m = pod.create_thread(proc);
    auto f = pod.create_thread(proc);
    alloc.attach_thread(*m);
    alloc.attach_thread(*f);
    cxl::HeapOffset obj = alloc.allocate(*m, 64);
    ASSERT_EQ(pod.device().device_of(obj), home);
    ASSERT_TRUE(
        cw.cell_publish(*m, cell, 0, static_cast<std::uint32_t>(obj >> 3))
            .success);
    // f warms its floor on the cell shard with a publish on the other cell.
    ASSERT_TRUE(cw.cell_publish(*f, cell + 8, 0, 1).success);

    cxl::HeapOffset row = cw.layout().recovery_row(m->tid());
    bool seen = false;
    std::uint16_t v_pub = 0;
    std::uint64_t mcas = 0;
    auto interfere = [&] {
        cxl::MemSession& mem = f->mem();
        mem.flush(row, cxlcommon::kCacheLine);
        auto rec = cxlalloc::OpRecord::unpack(mem.load<std::uint64_t>(row));
        std::uint64_t stage =
            mem.load<std::uint64_t>(row + cxlalloc::MigrationRow::kStage);
        ASSERT_EQ(rec.op, cxlalloc::Op::None) << "record not quiesced";
        ASSERT_EQ(cxlalloc::MigrationRow::stage_of(stage),
                  cxlalloc::MigrationRow::Stage::Publish);
        v_pub = static_cast<std::uint16_t>(mem.load<std::uint64_t>(
            row + cxlalloc::MigrationRow::kVersion));
        std::uint64_t word = mem.atomic_load64(cell);
        ASSERT_EQ(cxlsync::DcasWord::tid(word), m->tid());
        ASSERT_EQ(cxlsync::DcasWord::version(word), v_pub);
        // Republish the same object: the tag moves, the value does not.
        std::uint32_t value = cxlsync::DcasWord::value(word);
        std::uint64_t mcas0 = mem.counters().mcas_ops;
        ASSERT_TRUE(cw.cell_publish(*f, cell, value, value).success);
        mcas = mem.counters().mcas_ops - mcas0;
        seen = true;
    };
    {
        // Stage writes: Armed, Copied, Publish, then Free after the quiesce.
        AtNthStore window(row + cxlalloc::MigrationRow::kStage, 4, interfere);
        ASSERT_TRUE(migrator.debug_migrate_cell(*m, cell, 1 - home));
    }
    ASSERT_TRUE(seen) << "the window was never reached";
    EXPECT_EQ(mcas, 2u) << "help mCAS + f's own publish";
    EXPECT_EQ(f->mem().atomic_load64(cw.dcas().help_entry(m->tid())),
              v_pub + 1u);
    alloc.check_invariants(f->mem());
    pod.release_thread(std::move(m));
    pod.release_thread(std::move(f));
}

} // namespace
