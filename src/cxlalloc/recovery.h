/// @file
/// The 8-byte per-thread redo record (paper §3.4.2).
///
/// "Each thread atomically updates 8 bytes of state in place, which records
/// which operation the thread is currently performing, and contains enough
/// information to recover the operation in an idempotent manner."
///
/// Word packing (64 bits):
///     [ index:32 | version:15 | aux:13 | op:4 ]
/// where index is a slab / huge-descriptor / reservation-region index,
/// version is the detectable-CAS version the operation used (15-bit
/// circular), and aux carries the size class or block index plus a bit
/// selecting the small vs large heap.
///
/// The record is single-writer (its thread) and written before the
/// operation's first shared-visible step; the next operation overwrites
/// it, so on recovery exactly one — possibly interrupted, possibly
/// completed — operation needs an idempotent redo.
///
/// Durability discipline (the fence-elision case analysis):
///  - Operations that publish through a detectable CAS (PopGlobal,
///    Extend, FreeRemote[Batch], PushGlobal, Huge*) use log(): store +
///    flush + fence before the CAS. After a HOST crash the record that
///    described the CAS must be durable for `did_succeed` version
///    reasoning to hold. Guarded by sched::RecordFlushOracle (and the
///    skip_record_publish_flush fault shows the oracle has teeth).
///  - Purely local operations (Alloc, FreeLocal, scavenge, and the
///    Detach/Disown descriptor transitions) use log_local(): store only.
///    Recovery from a PROCESS crash writes the thread's cache back (see
///    ThreadCache::writeback_all()), so recovery always reads the newest
///    record; no flush or fence is needed on the fast path. Guarded by
///    litmus shape MpCoalesced + tests/sched RecordFlushOracle suites and
///    SwccProtocol.OwnerKeepsDescriptorCached.
///  - A deferred record is written back at the latest by the next
///    flush_pending() (flush_desc folds it into the publication's
///    existing fence) or the next log()/clear() of the same row.
///  - HOST crashes drop the cache instead of writing it back, and the
///    redo of Alloc/FreeLocal mutates the bitset unconditionally — so the
///    device must never hold a later operation's effect next to a stale
///    record (replaying an outdated FreeLocal would re-free a block that
///    was re-allocated since: double allocation). Explicit flushes are
///    protocol-ordered (flush_pending rides every flush_desc), which
///    leaves capacity EVICTIONS as the only out-of-order durability
///    channel. log_local() therefore registers the record row as the
///    session cache's *durable line*: ThreadCache persists its newest
///    value ahead of any other dirty victim's early write-back, keeping
///    the durable record at least as new as every durable effect. Guarded
///    by CrashRecovery.HostCrashEvictionCannotResurrectStaleRecord and
///    CacheModelTest.DurableLinePersistsAheadOfDirtyEvictions.

#pragma once

#include <array>
#include <cstdint>

#include "common/points.h"
#include "cxl/mem_ops.h"
#include "cxlalloc/layout.h"
#include "sync/detectable_cas.h"

namespace cxlalloc {

/// Operation codes (4 bits). Slab operations apply to the small or large
/// heap according to the aux heap bit.
enum class Op : std::uint8_t {
    None = 0,
    Alloc = 1,      ///< clear one block bit            (aux: heap|block)
    Init = 2,       ///< unsized -> sized slab init     (aux: heap|class)
    PopGlobal = 3,  ///< global -> TL unsized           (dcas)
    Extend = 4,     ///< grow heap length               (dcas)
    Detach = 5,     ///< full slab, no remote frees
    Disown = 6,     ///< full slab with remote frees
    FreeLocal = 7,  ///< set one block bit              (aux: heap|block)
    FreeRemote = 8, ///< decrement remote counter       (dcas; may steal)
    PushGlobal = 9, ///< TL unsized overflow -> global  (dcas)
    HugeReserve = 10, ///< claim a reservation region   (dcas)
    HugeAlloc = 11,   ///< build + link huge descriptor
    HugeFree = 12,    ///< set huge descriptor free bit
    /// One doorbell round of remote-free decrements, logged in every shard
    /// it stages into (aux: the shard's operand count; version: the LAST
    /// of its consecutive dcas versions there). The per-operand redo state
    /// lives in the thread's one NMP operand ring, which is device memory
    /// and survives the crash; see CxlAllocator::free_batch and recover.
    FreeRemoteBatch = 13,
    /// An application (or migrator) reference-cell publish through the
    /// allocator's detectable CAS (CxlAllocator::cell_publish): consumes
    /// one CAS version but needs no heap redo. The record exists so the
    /// version counter resumes past the publish on recovery — without it
    /// an adopted slot could reuse the version and corrupt did_succeed
    /// reasoning (the help array may already have advanced to it).
    CellPublish = 14,
};

const char* to_string(Op op);

/// Decoded recovery record.
struct OpRecord {
    Op op = Op::None;
    bool large_heap = false;   ///< aux bit 12: slab op targets large heap
    std::uint16_t aux = 0;     ///< class or block index (12 bits)
    std::uint16_t version = 0; ///< detectable-CAS version (15 bits)
    std::uint32_t index = 0;   ///< slab / descriptor / region index

    std::uint64_t pack() const;
    static OpRecord unpack(std::uint64_t word);

    static constexpr std::uint16_t kAuxMask = 0x0fff;
};

/// The migration record kept in the spare bytes of a recovery row, behind
/// the 8-byte OpRecord at +0 (see cxlalloc/migrate.h for its stages). One
/// definition for the migrator that writes it and for the help check
/// (RecoveryLog::names) that reads its Publish version.
struct MigrationRow {
    /// Field offsets within the row; the whole record shares its line.
    static constexpr std::uint64_t kStage = 8; ///< see pack_stage()
    static constexpr std::uint64_t kCell = 16;
    static constexpr std::uint64_t kOld = 24;
    static constexpr std::uint64_t kNew = 32;
    static constexpr std::uint64_t kVersion = 40;
    /// Bytes from the row start through the last field.
    static constexpr std::uint64_t kBytes = kVersion + 8;

    enum class Stage : std::uint8_t {
        Idle = 0,
        Armed = 1,
        Copied = 2,
        Publish = 3,
        Free = 4,
    };

    /// Stage word: [ size:32 | pad:8 | free_new:8 | target:8 | stage:8 ].
    static std::uint64_t
    pack_stage(Stage stage, cxl::DeviceId target, bool free_new,
               std::uint32_t size)
    {
        return (static_cast<std::uint64_t>(size) << 32) |
               (static_cast<std::uint64_t>(free_new) << 16) |
               (static_cast<std::uint64_t>(target & 0xff) << 8) |
               static_cast<std::uint64_t>(stage);
    }

    static Stage
    stage_of(std::uint64_t word)
    {
        return static_cast<Stage>(word & 0xff);
    }
};

/// Writes and reads per-thread recovery records in the shared heap, and
/// tells the heap's DetectableCas which versions a row still names.
class RecoveryLog final : public cxlsync::VersionRows {
  public:
    RecoveryLog(const Layout* layout, bool enabled)
        : layout_(layout), enabled_(enabled)
    {
    }

    /// True in the recoverable build; false in the cxlalloc-nonrecoverable
    /// ablation, where log() is a no-op.
    bool enabled() const { return enabled_; }

    /// Publishes @p record as the calling thread's in-flight operation
    /// and makes it durable: 8-byte store, flush, fence. Required before
    /// any detectable CAS (see the header discipline). Without @p fence
    /// the caller owes it (a batch round fences its shards' rows once).
    void
    log(cxl::MemSession& mem, const OpRecord& record, bool fence = true)
    {
        if (!enabled_) {
            return;
        }
        cxl::HeapOffset row = layout_->recovery_row(mem.tid());
        mem.store<std::uint64_t>(row, record.pack());
        if (cxlcommon::defect::skip_record_publish_flush) {
            // Deliberately-broken variant: defer where deferral is NOT
            // sound. RecordFlushOracle must catch the dirty row at the
            // next DcasTry.
            pending_[mem.tid()] = true;
            return;
        }
        mem.flush(row, 8);
        if (fence) {
            mem.fence();
        }
        pending_[mem.tid()] = false;
    }

    /// Records a purely local operation: 8-byte store only, no ordering.
    /// Sound because process-crash recovery writes the cache back before
    /// reading the record, and because the row is registered as the
    /// session's durable line — the cache persists its newest value ahead
    /// of any dirty capacity eviction, so even a HOST crash never pairs a
    /// durable later effect with a stale durable record (see the header
    /// discipline). The row is otherwise written back opportunistically by
    /// the next flush_pending() / log() / clear().
    void
    log_local(cxl::MemSession& mem, const OpRecord& record)
    {
        if (!enabled_) {
            return;
        }
        cxl::HeapOffset row = layout_->recovery_row(mem.tid());
        mem.set_durable_row(row);
        mem.store<std::uint64_t>(row, record.pack());
        pending_[mem.tid()] = true;
    }

    /// Writes back a deferred record (flush only — the caller's fence
    /// completes it). flush_desc calls this right before its fence, so a
    /// Detach/Disown/PushGlobal record rides the descriptor publication's
    /// existing ordering at zero extra fences.
    void
    flush_pending(cxl::MemSession& mem)
    {
        if (!enabled_ || !pending_[mem.tid()]) {
            return;
        }
        mem.flush(layout_->recovery_row(mem.tid()), 8);
        pending_[mem.tid()] = false;
    }

    /// Reads thread @p tid's last record (used by that thread's recovery).
    OpRecord
    read(cxl::MemSession& mem, cxl::ThreadId tid)
    {
        cxl::HeapOffset row = layout_->recovery_row(tid);
        mem.flush(row, 8); // refetch: never act on a stale cached record
        return OpRecord::unpack(mem.load<std::uint64_t>(row));
    }

    /// cxlsync::VersionRows: thread @p tid's row, refetched from the
    /// device, names @p version while its record carries it or its
    /// migration record sits in Publish with that version (the two places
    /// recovery asks did_succeed from).
    bool names(cxl::MemSession& mem, cxl::ThreadId tid,
               std::uint16_t version) override;

    /// Clears the record after a completed recovery.
    void
    clear(cxl::MemSession& mem)
    {
        cxl::HeapOffset row = layout_->recovery_row(mem.tid());
        mem.store<std::uint64_t>(row, 0);
        mem.flush(row, 8);
        mem.fence();
        pending_[mem.tid()] = false;
    }

  private:
    const Layout* layout_;
    bool enabled_;
    /// Per-thread "record stored but not yet written back" flags.
    /// Single-writer (each slot only by its own thread), like the rows.
    std::array<bool, cxl::kMaxThreads + 1> pending_{};
};

/// Named crash-injection points (white-box recovery tests, paper §5.1).
namespace crashpoint {

inline constexpr int kAfterRecord = 1;     ///< record flushed, op not begun
inline constexpr int kMidInit = 2;         ///< popped unsized, not pushed
inline constexpr int kAfterDcas = 3;       ///< dcas applied, post-work not
inline constexpr int kMidSteal = 4;        ///< counter hit 0, steal not done
inline constexpr int kMidDetach = 5;       ///< desc flushed, not unlinked
inline constexpr int kMidFreeLocal = 6;    ///< bit set, lists not fixed
inline constexpr int kMidPushGlobal = 7;   ///< desc flushed, dcas not done
inline constexpr int kMidHugeAlloc = 8;    ///< desc written, not linked
inline constexpr int kMidHugeMap = 9;      ///< hazard published, not mapped
inline constexpr int kMidHugeFree = 10;    ///< free bit set, not unmapped
inline constexpr int kMidAlloc = 11;       ///< bit cleared, not returned
inline constexpr int kMidBatchStage = 12;  ///< ring staged, record not logged
inline constexpr int kMidBatchDoorbell = 13; ///< record logged, doorbell not rung
inline constexpr int kMidBatchDrain = 14;  ///< doorbell rung, results not drained

} // namespace crashpoint

/// Registers the allocator's crash points with cxlcommon::PointRegistry
/// (idempotent; called by the Allocator constructor, callable directly by
/// tools that never build an allocator).
void register_crash_points();

} // namespace cxlalloc
