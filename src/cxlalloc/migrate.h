/// @file
/// Background hot/cold slab migration between the CXL and local-DRAM
/// tiers of a pod-sharded heap (see docs/ARCHITECTURE.md, tiering
/// section).
///
/// Heat is tracked per small slab: the application calls note_access()
/// per object access — one relaxed host-side counter bump, no shared
/// traffic — and the migrator samples and decays the counts at epoch
/// boundaries (run_epoch). Hot CXL-resident objects are promoted into the
/// host's private DRAM window; cold DRAM residents are demoted back to
/// the host's CXL home shard.
///
/// Objects are reachable through application reference cells: detectable-
/// CAS words (Layout::app_sync()) whose 32-bit value is the object's heap
/// offset >> 3. Migration is alloc-on-target + copy + detectable-CAS
/// publish + free-of-the-loser, made crash-consistent by a durable
/// 5-stage migration record kept in the spare bytes of the cell shard's
/// per-thread recovery row (the allocator's 8-byte operation record uses
/// byte 0..7 of the 64-byte row; the migration record uses +8..+47, so no
/// layout change and the whole record shares one flushable line; its one
/// layout is MigrationRow in cxlalloc/recovery.h):
///
///   Idle -> Armed(cell, old, target)    durable before the target alloc
///        -> Copied(+new)                durable before payload copy
///        -> Publish(+version)           durable before the cell CAS
///        -> Free(+which block loses)    durable before the loser's free
///        -> Idle
///
/// Stage ordering rules (copy -> publish -> reclaim):
///  - The target block is COPIED and flushed before the publish record,
///    and published before either block is freed: readers that win the
///    CAS race see a fully-written copy, and a crash anywhere leaves at
///    least one intact copy of the object.
///  - Record-quiesce discipline: the migrator durably CLEARS the target
///    (resp. freeing) shard's allocator record immediately before the
///    stage whose recovery must inspect it, so a stale record from an
///    earlier completed operation can never be misattributed:
///      * Armed recovery frees the target's leaked block iff the target
///        shard's snapshot record is Op::Alloc (the block allocate()
///        handed the dead migrator, reconstructed from the record).
///      * Free recovery re-issues the loser's free iff the freeing
///        shard's snapshot record is NOT a free-type op (else the free
///        already logged, and shard recovery's idempotent redo covers it
///        — re-freeing would double-free).
///  - The publish CAS consumes a detectable-CAS version of the cell
///    shard, logged as Op::CellPublish (CxlAllocator::log_cell_publish)
///    BEFORE the CAS, like every other version-consuming operation; the
///    version also lands in the migration record so Publish-stage
///    recovery can ask did_succeed() and free exactly the losing block.
///
/// recover() replaces PodShardedAllocator::recover for migrator-aware
/// applications: it snapshots every shard's allocator record, locates the
/// (at most one) in-flight migration record, runs normal shard recovery,
/// then drives the migration to completion by stage. Re-crashing during
/// recovery is covered: each recovery step re-enters the same stage
/// machine with refreshed snapshots.
///
/// When the topology has no DRAM tier the heat policy is inert: active()
/// is false and note_access()/run_epoch() are no-ops. The migration
/// *record machinery* stays live regardless, because evacuate_device()
/// reuses the same crash-consistent move protocol to pull still-reachable
/// blocks off a degrading CXL device (pod/faults.h) on any pod, tiered or
/// not — so recover() always sweeps for an in-flight migration record
/// before falling back to plain shard recovery.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "cxlalloc/pod_shard.h"

namespace cxlalloc {

/// Crash-injection points of the migration protocol (registered as
/// "migrate.*" so the recovery sweep and sched explorer iterate them by
/// name). Ids 30+ leave room below for allocator and app points.
namespace migratepoint {

inline constexpr int kAfterArm = 30;     ///< record armed, target not alloced
inline constexpr int kAfterAlloc = 31;   ///< target alloced, not recorded
inline constexpr int kAfterCopy = 32;    ///< payload copied, not published
inline constexpr int kAfterVersion = 33; ///< publish version durable, CAS not
inline constexpr int kAfterPublish = 34; ///< CAS issued, loser not freed
inline constexpr int kMidFree = 35;      ///< free staged, not performed

} // namespace migratepoint

/// Registers the migration crash points with cxlcommon::PointRegistry
/// (idempotent; called by the HotSlabMigrator constructor).
void register_migrate_crash_points();

/// Epoch-driven hot/cold migrator over one PodShardedAllocator.
class HotSlabMigrator {
  public:
    struct Options {
        /// Decayed per-slab access count at or above which a CXL-resident
        /// object is promoted to DRAM.
        std::uint32_t promote_min_heat = 16;
        /// Count at or below which a DRAM resident is demoted back to CXL.
        std::uint32_t demote_max_heat = 1;
        /// Moves per run_epoch call (promotions + demotions).
        std::uint32_t max_moves_per_epoch = 128;
        /// Largest object the migrator moves.
        std::uint64_t max_block = kSmallMax;
    };

    explicit HotSlabMigrator(PodShardedAllocator& heap);
    HotSlabMigrator(PodShardedAllocator& heap, const Options& options);

    /// False when the pod topology has no DRAM tier; every mutating entry
    /// point is then a no-op.
    bool active() const { return active_; }

    /// Registers the application's reference-cell table: @p count
    /// detectable-CAS words starting at @p base (8-byte stride, HWcc
    /// memory). A cell's 32-bit value is the object offset >> 3; value 0
    /// means "no object".
    void set_cell_table(cxl::HeapOffset base, std::uint32_t count);

    /// Heat bump for one object access (any thread; relaxed, host-side
    /// only — the fast-path cost the tentpole budget allows).
    void
    note_access(cxl::HeapOffset offset)
    {
        if (!active_) {
            return;
        }
        cxl::DeviceId dev = pod_device_of_(offset);
        if (dev >= heat_.size() || heat_[dev].slabs == 0) {
            return;
        }
        const Layout& l = heap_.shard(dev).layout();
        if (!l.in_small_data(offset)) {
            return;
        }
        auto slab =
            static_cast<std::uint32_t>((offset - l.small_data()) /
                                       kSmallSlabSize);
        heat_[dev].counts[slab].fetch_add(1, std::memory_order_relaxed);
    }

    /// One migration epoch on the calling thread: samples the cell table,
    /// promotes hot CXL objects / demotes cold DRAM objects (bounded by
    /// Options::max_moves_per_epoch), then decays all heat counters.
    /// Returns the number of completed migrations.
    std::uint32_t run_epoch(pod::ThreadContext& ctx);

    /// Live evacuation (degraded-mode escape hatch, see pod/faults.h):
    /// moves every cell-reachable small block resident on @p source into
    /// shard @p target, one crash-consistent migrate_one per block (alloc
    /// on target + copy + detectable-CAS publish + free-loser, with the
    /// full durable record and crash points). Works on any pod — a DRAM
    /// tier is not required — but the calling thread must still reach
    /// @p source: evacuation drains a Suspect/degrading device while it
    /// answers, it cannot resurrect blocks behind an edge that is already
    /// Down. Blocks the app mutates mid-move lose the publish CAS and
    /// stay put (counted in aborted()). Returns the blocks moved.
    std::uint32_t evacuate_device(pod::ThreadContext& ctx,
                                  cxl::DeviceId source,
                                  cxl::DeviceId target);

    /// Post-adoption consolidation, the second half of host-death
    /// handling: after evacuate_device has pulled the dead host's device,
    /// the survivor is left freeing into slabs it does not own — storm
    /// traffic disowns slabs that fill while carrying remote frees, and
    /// every later free into a disowned slab costs a serial mCAS round
    /// trip. rehome() walks the cell table and re-allocates every block
    /// whose slab is off-target, foreign-owned, or carrying remote-free
    /// decrements (the last will disown itself at its next fill) into
    /// shard @p target through the same crash-consistent migrate_one
    /// protocol, so the survivor's steady-state free path is host-local
    /// again. Blocks already in clean ctx-owned slabs are left alone.
    /// Returns the blocks moved.
    std::uint32_t rehome(pod::ThreadContext& ctx, cxl::DeviceId target);

    /// Crash-consistent recovery of the slot @p ctx adopted, superseding
    /// PodShardedAllocator::recover (which it runs internally). See the
    /// file comment for the stage machine.
    void recover(pod::ThreadContext& ctx);

    /// Wires "migrate.*" counters into @p registry (nullptr disables).
    void set_metrics(obs::MetricsRegistry* registry);

    std::uint64_t promotions() const { return promotions_; }
    std::uint64_t demotions() const { return demotions_; }
    /// Blocks moved by evacuate_device.
    std::uint64_t evacuations() const { return evacuations_; }
    /// Blocks pulled back into owned slabs by rehome().
    std::uint64_t rehomed() const { return rehomed_; }
    /// Migrations abandoned mid-flight (target tier full, or the cell
    /// changed under the publish CAS — the app won the race).
    std::uint64_t aborted() const { return aborted_; }

    /// Test hook: current decayed heat of (device, slab).
    std::uint32_t
    debug_heat(cxl::DeviceId device, std::uint32_t slab) const
    {
        return heat_[device].counts[slab].load(std::memory_order_relaxed);
    }

    /// Test hook: migrate the object in @p cell to @p target now, skipping
    /// the heat policy (drives the protocol deterministically).
    bool debug_migrate_cell(pod::ThreadContext& ctx, cxl::HeapOffset cell,
                            cxl::DeviceId target);

  private:
    /// Stages of the durable migration record (MigrationRow).
    using Stage = MigrationRow::Stage;

    cxl::DeviceId
    pod_device_of_(cxl::HeapOffset offset) const
    {
        return cxl::pod_device_of(offset, window_bits_);
    }

    /// One crash-consistent migration of the object in @p cell (currently
    /// at @p old_off, @p size bytes) into shard @p target.
    bool migrate_one(pod::ThreadContext& ctx, cxl::HeapOffset cell,
                     cxl::HeapOffset old_off, cxl::DeviceId target,
                     std::uint64_t size);

    /// The Free stage, shared by the live path and recovery: quiesce the
    /// freeing shard's record, durably enter Free, deallocate the loser.
    /// @p row is the migration record in the cell shard's recovery row.
    void free_loser(pod::ThreadContext& ctx, cxl::HeapOffset row,
                    cxl::DeviceId target, std::uint32_t size, bool free_new,
                    cxl::HeapOffset old_off, cxl::HeapOffset new_off);

    /// Durably writes the stage word of @p row.
    void write_stage(cxl::MemSession& mem, cxl::HeapOffset row,
                     std::uint64_t word);

    void clear_row(cxl::MemSession& mem, cxl::HeapOffset row);

    void bump(obs::MetricsRegistry* reg, cxl::ThreadId tid,
              obs::MetricId id, std::uint64_t n = 1);

    struct DeviceHeat {
        std::uint32_t slabs = 0;
        std::unique_ptr<std::atomic<std::uint32_t>[]> counts;
    };

    PodShardedAllocator& heap_;
    Options options_;
    bool active_ = false;
    std::uint32_t window_bits_ = 0;
    std::vector<DeviceHeat> heat_;
    cxl::HeapOffset cells_ = 0;
    std::uint32_t cell_count_ = 0;

    std::uint64_t promotions_ = 0;
    std::uint64_t demotions_ = 0;
    std::uint64_t aborted_ = 0;
    std::uint64_t evacuations_ = 0;
    std::uint64_t rehomed_ = 0;

    struct Instruments {
        obs::MetricsRegistry* registry = nullptr;
        obs::MetricId promotions = obs::kInvalidMetric;
        obs::MetricId demotions = obs::kInvalidMetric;
        obs::MetricId aborted = obs::kInvalidMetric;
        obs::MetricId epochs = obs::kInvalidMetric;
        obs::MetricId recoveries = obs::kInvalidMetric;
        obs::MetricId evacuations = obs::kInvalidMetric;
        obs::MetricId rehomed = obs::kInvalidMetric;
    };
    Instruments inst_;
};

} // namespace cxlalloc
