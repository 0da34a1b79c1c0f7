/// @file
/// Detectable CAS (paper §3.4.2, after Attiya et al. [10]).
///
/// A recovering thread must be able to ask: "did the CAS I was executing
/// when I crashed take effect?" Plain CAS cannot answer this — the value
/// may have been overwritten since. Detectable CAS embeds a (thread id,
/// version) tag in each CAS target word and maintains a global help array:
/// before any thread displaces a tagged word, it records the displaced tag
/// in the help array. A CAS by thread t with version v therefore succeeded
/// iff the word still carries (t, v) or help[t] has advanced to >= v.
///
/// Word format (64 bits, as in the paper — CAS targets are at most 32 bits,
/// widened to 8 B of HWcc memory per slab):
///     [ value:32 | tid:16 | version:16 ]
/// A zero word decodes as value 0 with no owner, so zero-filled memory is a
/// valid initial state.

#pragma once

#include <array>
#include <cstdint>

#include "cxl/mem_ops.h"
#include "cxl/types.h"

namespace cxlsync {

/// Packing helpers for detectable-CAS words.
struct DcasWord {
    static std::uint64_t
    pack(std::uint32_t value, cxl::ThreadId tid, std::uint16_t version)
    {
        return (static_cast<std::uint64_t>(value) << 32) |
               (static_cast<std::uint64_t>(tid) << 16) | version;
    }

    static std::uint32_t value(std::uint64_t word)
    {
        return static_cast<std::uint32_t>(word >> 32);
    }

    static cxl::ThreadId tid(std::uint64_t word)
    {
        return static_cast<cxl::ThreadId>((word >> 16) & 0xffff);
    }

    static std::uint16_t version(std::uint64_t word)
    {
        return static_cast<std::uint16_t>(word & 0xffff);
    }
};

/// Versions are 15-bit circular counters (the allocator's 8-byte recovery
/// record budgets 15 bits for the version field; see cxlalloc/recovery.h).
inline constexpr std::uint16_t kVersionBits = 15;
inline constexpr std::uint16_t kVersionMask = (1u << kVersionBits) - 1;

/// Wrap-aware version comparison over the 15-bit circular space; only the
/// in-flight window matters.
inline bool
version_geq(std::uint16_t a, std::uint16_t b)
{
    std::uint16_t diff = (a - b) & kVersionMask;
    return diff < (1u << (kVersionBits - 1));
}

/// How far (in versions) a thread may run ahead of its own help entry by
/// skipping help records; see DetectableCas.
inline constexpr std::uint16_t kSelfHelpSlack = 256;

/// The durable recovery rows that name a DetectableCas's versions: the
/// only source of did_succeed queries (see DetectableCas, point 2). The
/// allocator's RecoveryLog implements it.
class VersionRows {
  public:
    /// Refetches thread @p tid's recovery row from the device (one flush
    /// and one read of its line) and reports whether it names @p version,
    /// i.e. whether recovery could still ask did_succeed about it.
    virtual bool names(cxl::MemSession& mem, cxl::ThreadId tid,
                       std::uint16_t version) = 0;

  protected:
    ~VersionRows() = default;
};

/// Detectable CAS over words in the HWcc (or device-biased) region.
///
/// Help elision. Under NoHwcc each help write is a full mCAS round trip,
/// so a CAS skips the help record when the displaced tag (t, v') can never
/// be queried:
///  - Self: t displaces its OWN tag while its help entry is known to lag
///    the version it is installing by at most kSelfHelpSlack.
///  - Foreign (only with rows, see set_rows): t's recovery row, refetched
///    from the device, no longer names v'.
/// Soundness:
///  1. A displaced tag (t, v') belongs to a CAS of t that succeeded; a
///     self-displacing t is now installing a newer version v.
///  2. did_succeed is queried only for the version named by t's CURRENT
///     record.
///  3. Every caller logs a new record naming v before a CAS with a new
///     version v, so once t installs v, v' is no longer named. The one
///     exception is CxlAllocator::free_batch's stage(), which runs before
///     the round's records are logged. A round may stage into several
///     shards, but versions, help arrays and records are all per shard,
///     and every touched shard's record is logged under the round's one
///     fence before the doorbell, the only point where any operand
///     executes. Until then each word still holds (t, v'), so an older
///     record's query reads the tag itself. Hence (t, v') is never
///     queried again once displaced.
///  4. The clients agree: the slab heap (PopGlobal, Extend, FreeRemote,
///     PushGlobal log per attempt; FreeRemoteBatch recovery reads each
///     ring slot's result and never asks), the huge heap (HugeReserve
///     logs per attempt; its recovery reads the region owner, not
///     did_succeed), migrate cells
///     (the row's v_pub is queried only while the row sits in Publish,
///     before t touches the cell again) and the memento queue (its own
///     DetectableCas; one record per push, one per pop attempt). The
///     redo loops of recovery (PushGlobal, memento push) CAS with fresh
///     versions under a record whose version never landed, so the tags
///     they displace are not the one that record names.
///  5. Skipping leaves help[t] LOWER than the unelided protocol would, so
///     it can only turn a true answer false, which (1-4) rule out — or
///     alias: the 15-bit wrap-aware version_geq misreads a help entry
///     more than 2^14 versions behind as ahead. Self skips and foreign
///     skips both let help[t] fall behind t's version; the slack bounds
///     how far (point 7), so no alias.
///  6. Foreign skips: the record naming v' was made durable (store,
///     flush, fence) before the CAS that installed (t, v') landed, so the
///     row on the device names v' or a newer record. Records only move
///     forward, so once the row has moved on, v' is never asked about
///     again (2). A row that still names v' gets the help write.
///  7. The bound: before each serial CAS (and after each batch round,
///     CxlAllocator::free_batch) t raises its own entry once its floor
///     lags the version its durable row names by more than the slack
///     (bound_lag). The raise goes to one below that version, so the
///     version itself still answers from the word or a later help write.
///     stage() does not raise: its round's records are not logged yet.
/// The bound is tracked without reading help[t]: floor_[t] is a host-side
/// copy (not persisted; 0 = unknown) of a value help[t] once held,
/// written only by thread t. Help entries only move forward, so it is
/// always a lower bound of help[t]. When it is stale — unknown, more than
/// the slack behind, or ahead of a rewound version counter — the help
/// entry is loaded and CASed as usual, and the floor refreshed.
/// Guarded by DetectableCas.SelfDisplacementCosts*, .CasFromLoadedWord*,
/// .WrapAware*, .ForeignDisplacementAfterSkips*, .FloorStaysALowerBound*,
/// .ForeignSkip*, NamedHelp.* and
/// DeallocateBatchCrash.{RetryRoundSweep,CrossShardRetryRoundSweep}.
class DetectableCas {
  public:
    /// @param help_base  offset of the help array: (kMaxThreads + 1) 64-bit
    ///                   words in HWcc memory; entry t holds the highest
    ///                   version of thread t observed displaced.
    /// @param detectable when false (the cxlalloc-nonrecoverable ablation)
    ///                   help recording is skipped and recovery queries are
    ///                   unsupported.
    explicit DetectableCas(cxl::HeapOffset help_base, bool detectable = true)
        : help_base_(help_base), detectable_(detectable)
    {
    }

    struct Result {
        bool success;
        /// On failure, the word observed at the target (fresh: a retry
        /// can CAS from it directly); on success, the displaced word.
        std::uint64_t observed;

        std::uint32_t value() const { return DcasWord::value(observed); }
    };

    /// One detectable CAS attempt of @p expected -> @p desired on the
    /// 32-bit value stored at @p word_offset, tagged with the caller's
    /// identity and @p version: loads the word, checks its value, then
    /// runs try_cas_from. Callers retry on failure.
    Result try_cas(cxl::MemSession& mem, cxl::HeapOffset word_offset,
                   std::uint32_t expected, std::uint32_t desired,
                   std::uint16_t version);

    /// One detectable CAS attempt from the word @p seen the caller already
    /// loaded from @p word_offset (no second load): publishes the
    /// displaced owner's success, then CASes @p seen -> (@p desired,
    /// caller, @p version). Under NoHwcc this is one mCAS round trip when
    /// the help record is elided.
    Result try_cas_from(cxl::MemSession& mem, cxl::HeapOffset word_offset,
                        std::uint64_t seen, std::uint32_t desired,
                        std::uint16_t version);

    /// The staging half of try_cas_from, for a batched NMP submission:
    /// publishes the displaced owner's success, then returns the raw
    /// operand for MemSession::mcas_post. The help record is written
    /// BEFORE the operand can execute, preserving the recovery invariant
    /// of the serial path; under NoHwcc it is a serial mCAS, so the
    /// caller's ring must be empty.
    cxl::McasOperand stage(cxl::MemSession& mem, cxl::HeapOffset word_offset,
                           std::uint64_t seen, std::uint32_t desired,
                           std::uint16_t version);

    /// Reads the 32-bit value currently stored at @p word_offset.
    std::uint32_t
    read(cxl::MemSession& mem, cxl::HeapOffset word_offset)
    {
        return DcasWord::value(mem.atomic_load64(word_offset));
    }

    /// Recovery query: did thread @p mem.tid()'s CAS tagged @p version on
    /// @p word_offset take effect? Only for a version named by the
    /// thread's current record (see the class comment).
    bool did_succeed(cxl::MemSession& mem, cxl::HeapOffset word_offset,
                     std::uint16_t version);

    bool detectable() const { return detectable_; }

    /// Helps a foreign tag only while its owner's row in @p rows still
    /// names it, and bounds the caller's own lag (see the class comment).
    /// The allocator wires its recovery rows under NoHwcc, where a help
    /// write is an mCAS round trip; a null @p rows (the default) helps
    /// every foreign tag.
    void set_rows(VersionRows* rows) { rows_ = rows; }

    /// The wrap bound (class comment, point 7): once the caller's floor
    /// lags @p named, a version its durable row names, by more than
    /// kSelfHelpSlack, raises its help entry to named - 1. No-op without
    /// rows or when the row does not name @p named. Issues a serial mCAS
    /// under NoHwcc, so the caller's NMP ring must be empty.
    void bound_lag(cxl::MemSession& mem, std::uint16_t named);

    /// Offset of thread @p tid's help entry (version + 1; 0 = none).
    cxl::HeapOffset help_entry(cxl::ThreadId tid) const
    {
        return help_base_ + static_cast<cxl::HeapOffset>(tid) * 8;
    }

    /// Thread @p tid's help floor: a lower bound of its help entry in the
    /// same (version + 1) encoding, 0 when unknown.
    std::uint16_t help_floor(cxl::ThreadId tid) const { return floor_[tid]; }

  private:
    /// Before displacing @p displaced with a CAS tagged @p installing,
    /// records that the displaced owner's CAS succeeded — unless the
    /// owner is the caller and its floor is within kSelfHelpSlack, or the
    /// owner's row no longer names the displaced version.
    void record_help(cxl::MemSession& mem, std::uint64_t displaced,
                     std::uint16_t installing);

    /// True when @p tid's floor is known and lags @p version by 1 to
    /// kSelfHelpSlack versions.
    bool within_slack(cxl::ThreadId tid, std::uint16_t version) const;

    /// Raises help[@p tid] to at least @p version (a wrap-aware max);
    /// returns the entry it leaves, in the (version + 1) encoding.
    std::uint64_t raise_help(cxl::MemSession& mem, cxl::ThreadId tid,
                             std::uint16_t version);

    /// try_cas_from without the DcasTry hook.
    Result cas_from(cxl::MemSession& mem, cxl::HeapOffset word_offset,
                    std::uint64_t seen, std::uint32_t desired,
                    std::uint16_t version);

    cxl::HeapOffset help_base_;
    bool detectable_;
    VersionRows* rows_ = nullptr;
    std::array<std::uint16_t, cxl::kMaxThreads + 1> floor_{};
};

} // namespace cxlsync
