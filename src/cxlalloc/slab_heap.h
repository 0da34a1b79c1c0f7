/// @file
/// The slab heap used for both the small (8 B-1 KiB, 32 KiB slabs) and
/// large (1 KiB-512 KiB, 512 KiB slabs) heaps — the paper's §3.1.1 design,
/// instantiated twice.
///
/// Core ideas reproduced here:
///  - per-slab free *bitset* in SWcc metadata, allocated from only by the
///    slab's owner (no synchronization on the hot path);
///  - a per-slab HWcc remote-free *down-counter* (2 B in the paper, widened
///    to one detectable-CAS word): remote frees decrement it, and whoever
///    takes it to zero steals the fully-remotely-freed slab;
///  - the detached / disowned states (paper Fig. 4) that let full slabs
///    leave the free lists without blocking reclamation;
///  - the SWcc protocol (§3.2.2): descriptors are flushed+fenced exactly
///    when ownership may change; readers of SWccDesc.owner may use stale
///    cached values safely (the case analysis in the paper);
///  - 8-byte redo records before every operation, with idempotent redo
///    (§3.4.2) driven by detectable-CAS success queries.

#pragma once

#include <cstdint>

#include "cxl/mem_ops.h"
#include "cxlalloc/layout.h"
#include "cxlalloc/recovery.h"
#include "cxlalloc/thread_state.h"
#include "obs/registry.h"
#include "pod/fault_handler.h"
#include "pod/thread_context.h"
#include "sync/detectable_cas.h"

namespace cxlalloc {

/// One slab heap (small or large).
class SlabHeap {
  public:
    /// @param large  selects the large-heap geometry and record heap bit.
    SlabHeap(const Layout* layout, bool large, cxlsync::DetectableCas* dcas,
             RecoveryLog* log);

    /// Allocates a block of at least @p size bytes; returns its heap
    /// offset, or 0 if the heap is exhausted.
    cxl::HeapOffset allocate(pod::ThreadContext& ctx, ThreadState& ts,
                             std::uint64_t size);

    /// Frees the block at @p offset. Returns true when the free took the
    /// remote path (the slab is owned by another thread), which observers
    /// count separately: remote frees cost a detectable CAS on the HWcc
    /// down-counter rather than a local bitset write.
    bool deallocate(pod::ThreadContext& ctx, ThreadState& ts,
                    cxl::HeapOffset offset);

    /// One offset's step in a batched free (CxlAllocator::free_batch).
    /// Serial: the caller owns the slab, or the counter stands at 1 — that
    /// decrement steals the slab, so a batched operand never lands a zero
    /// counter (batch recovery relies on it). Busy: one of the @p n
    /// operands in @p staged already targets the slab's counter, and a
    /// second would doom itself (Fig. 6(b)). Staged: the decrement, under
    /// a fresh version of @p ts, is now @p staged[n]. stage() may record
    /// help through a serial mCAS, so nothing may be posted yet.
    enum class Stage { Serial, Busy, Staged };
    Stage stage_free(cxl::MemSession& mem, ThreadState& ts,
                     cxl::HeapOffset offset, cxl::McasOperand* staged,
                     std::uint32_t n);

    /// Batch recovery: serially redoes a staged decrement of @p counter
    /// that never landed. Returns false when @p counter is not one of this
    /// heap's counters.
    bool redo_decrement(pod::ThreadContext& ctx, ThreadState& ts,
                        cxl::HeapOffset counter);

    /// True if @p offset lies in this heap's data region.
    bool contains(cxl::HeapOffset offset) const;

    /// Current heap length in slabs.
    std::uint32_t length(cxl::MemSession& mem);

    /// PC-T fault support: if @p offset lies in this heap's (data or
    /// descriptor) regions and is backed per current heap length, fills
    /// @p out and returns true.
    bool resolve(cxl::MemSession& mem, cxl::HeapOffset offset,
                 pod::MappedRange* out);

    /// Idempotently redoes the interrupted operation @p record on behalf
    /// of the crashed thread whose slot @p ctx adopted.
    void recover(pod::ThreadContext& ctx, ThreadState& ts,
                 const OpRecord& record);

    /// Recovery's repair of the adopted thread's own local lists, run
    /// before the redo: recounts the unsized list into its count word and
    /// rewrites every sized slab's prev link from the next chain. A kill
    /// inside a list operation can leave either out of step; both are
    /// derived data, and the walk covers only slabs the thread holds.
    void repair_local_lists(cxl::MemSession& mem);

    /// Runtime invariant checks (paper §5.1). Global: free list acyclic,
    /// slabs on it unowned. Requires quiescence.
    void check_global_invariants(cxl::MemSession& mem);

    /// Invariants over @p mem's thread's local lists: sized slabs are
    /// non-full, owned, correctly classed; lists acyclic.
    void check_local_invariants(cxl::MemSession& mem);

    /// Aggregate statistics for benchmarks.
    struct Stats {
        std::uint32_t length = 0;       ///< slabs ever created
        std::uint32_t global_free = 0;  ///< slabs on the global free list
        std::uint64_t data_bytes = 0;   ///< length * slab size
    };

    Stats stats(cxl::MemSession& mem);

    /// Enables heap-internal op counters ("alloc.fullcheck_fast",
    /// "alloc.scavenges"), sharded by thread id. nullptr disables.
    void set_metrics(obs::MetricsRegistry* registry);

    std::uint64_t slab_size() const { return slab_size_; }

    /// Data offset of slab @p slab.
    cxl::HeapOffset slab_data(std::uint32_t slab) const;

    // ---- test-only observers (model tests cross-check the O(1) counter
    //      against a full bitset scan after every operation) ----

    /// Raw SWccDesc.free counter of @p slab.
    std::uint32_t debug_free_blocks(cxl::MemSession& mem, std::uint32_t slab);
    /// Popcount of @p slab's bitset over its current class's words.
    /// Slab must have a class.
    std::uint32_t debug_bitset_count(cxl::MemSession& mem, std::uint32_t slab);
    /// Size class + 1; 0 = classless (bitset and counter are meaningless).
    std::uint8_t debug_class_biased(cxl::MemSession& mem, std::uint32_t slab);
    /// Raw HWcc remote-free down-counter of @p slab. Starts at the class's
    /// block count and decrements per remote free, so on a quiescent slab
    /// `remote_free - free_blocks` is the number of live blocks — the
    /// conservation law the fault-storm drain oracle sweeps (remote frees
    /// never merge into the bitset until the slab is fully stolen, so the
    /// bitset alone cannot prove a heap empty).
    std::uint32_t debug_remote_free(cxl::MemSession& mem, std::uint32_t slab);

    /// Owning thread of @p slab (cxl::kNoThread once the slab has been
    /// disowned — every free then takes the remote mCAS path regardless
    /// of the caller, which is what HotSlabMigrator::rehome inspects).
    cxl::ThreadId debug_owner(cxl::MemSession& mem, std::uint32_t slab);

  private:
    // ---- descriptor access (SWccDesc) ----
    // The first 16 bytes are two 8-byte words (DescField), each read with
    // one load per operation:
    //   word 0: next u32 | owner u16 | class+1 u8 | state u8
    //   word 1: hint u16 | free u16 | prev u32
    cxl::HeapOffset desc(std::uint32_t slab) const;
    cxl::HeapOffset hwcc(std::uint32_t slab) const;

    /// Descriptor word 0, decoded.
    struct Word0 {
        std::uint32_t next = 0;        ///< list link (OptIndex raw)
        cxl::ThreadId owner = 0;
        std::uint8_t cls = 0;          ///< size class + 1; 0 = none
        SlabState state = SlabState::Unmapped;
    };
    /// Descriptor word 1, decoded.
    struct Word1 {
        std::uint16_t hint = 0; ///< first possibly-nonempty bitset word
        std::uint16_t free = 0; ///< free-block counter
        std::uint32_t prev = 0; ///< sized-list back link (OptIndex raw)
    };
    Word0 word0(cxl::MemSession& mem, std::uint32_t slab);
    void set_word0(cxl::MemSession& mem, std::uint32_t slab, const Word0& w);
    Word1 word1(cxl::MemSession& mem, std::uint32_t slab);
    /// One 4-byte store of word 1's hint and free counter.
    void set_hint_free(cxl::MemSession& mem, std::uint32_t slab,
                       std::uint32_t hint, std::uint32_t free);

    std::uint32_t next_raw(cxl::MemSession& mem, std::uint32_t slab);
    void set_prev_raw(cxl::MemSession& mem, std::uint32_t slab,
                      std::uint32_t raw);
    void set_state(cxl::MemSession& mem, std::uint32_t slab, SlabState s);

    /// Flush + fence the whole descriptor: required before any transition
    /// after which another thread may become the writer (paper §3.2.2).
    void flush_desc(cxl::MemSession& mem, std::uint32_t slab);

    // ---- bitset + SWccDesc.free counter ----
    // The owner-maintained free counter shadows the bitset popcount so
    // full/empty transition checks need no O(words) scan. The hot paths
    // flip one bit and store hint|free once; crash recovery recomputes the
    // counter from the bitset, which stays the durable truth.
    std::uint32_t blocks_of(std::uint32_t cls) const;
    std::uint32_t bitset_words(std::uint32_t cls) const;
    /// Offset of the bitset word holding @p block's bit.
    cxl::HeapOffset bit_word(std::uint32_t slab, std::uint32_t block) const;
    void bitset_fill(cxl::MemSession& mem, std::uint32_t slab,
                     std::uint32_t cls);
    std::uint32_t bitset_count(cxl::MemSession& mem, std::uint32_t slab,
                               std::uint32_t cls);

    // ---- local list operations (owner-only) ----
    cxl::HeapOffset local_row(cxl::ThreadId tid) const;
    cxl::HeapOffset sized_head_off(cxl::ThreadId tid,
                                   std::uint32_t cls) const;
    cxl::HeapOffset unsized_head_off(cxl::ThreadId tid) const;
    cxl::HeapOffset unsized_count_off(cxl::ThreadId tid) const;

    /// Links @p slab at the head of its class's sized list. @p w is the
    /// slab's word 0 as it should read before the push (owner and class
    /// set); the state becomes TlSized in the last store. Idempotent on a
    /// push that stopped before that store.
    void push_sized(cxl::MemSession& mem, std::uint32_t slab, Word0 w);
    /// Unlinks the slab whose own links are @p next / @p prev from sized
    /// list @p cls. Leaves those links in place, so a redo that finds the
    /// slab still TlSized repeats the same stores.
    void remove_sized(cxl::MemSession& mem, std::uint32_t cls,
                      std::uint32_t next, std::uint32_t prev);
    /// Links @p slab onto the unsized list as owned, classless, TlUnsized.
    void push_unsized(cxl::MemSession& mem, std::uint32_t slab);
    /// Pops the unsized head, whose raw value @p headraw the caller loaded.
    std::uint32_t pop_unsized(cxl::MemSession& mem, std::uint32_t headraw);
    bool on_unsized_list(cxl::MemSession& mem, std::uint32_t slab);

    // ---- operations ----
    /// Refills sized list @p cls; returns its new head (raw), or 0 when
    /// the heap is exhausted.
    std::uint32_t refill(pod::ThreadContext& ctx, ThreadState& ts,
                         std::uint32_t cls);
    /// Moves the unsized head, whose raw value @p headraw the caller
    /// loaded, to sized list @p cls with a filled bitset.
    void init_from_unsized(pod::ThreadContext& ctx, ThreadState& ts,
                           std::uint32_t headraw, std::uint32_t cls);
    bool pop_global(pod::ThreadContext& ctx, ThreadState& ts);
    bool extend(pod::ThreadContext& ctx, ThreadState& ts);
    /// Unlinks the now-full sized slab @p slab (back link @p prev).
    void full_transition(pod::ThreadContext& ctx, std::uint32_t slab,
                         std::uint32_t cls, std::uint32_t prev);
    /// Frees @p block into the caller's own slab, whose word 0 @p w the
    /// caller loaded.
    void free_local(pod::ThreadContext& ctx, ThreadState& ts,
                    std::uint32_t slab, std::uint32_t block, const Word0& w);
    void free_remote(pod::ThreadContext& ctx, ThreadState& ts,
                     std::uint32_t slab);
    /// Takes ownership of an unlinked, empty slab onto the unsized list.
    void acquire_to_unsized(pod::ThreadContext& ctx, ThreadState& ts,
                            std::uint32_t slab);
    /// True when @p ts's thread owns @p slab. Loads word 0 into @p w only
    /// if the may-own filter allows the slab; a load that shows another
    /// owner clears the slab's bit.
    bool owns(cxl::MemSession& mem, ThreadState& ts, std::uint32_t slab,
              Word0* w);
    /// Moves one slab from TL unsized to the global free list.
    void push_global_one(pod::ThreadContext& ctx, ThreadState& ts);
    /// Enforces the unsized-list length threshold (paper §3.1.1).
    void trim_unsized(pod::ThreadContext& ctx, ThreadState& ts);
    /// Reclaims an idle, completely-empty warm slab from any of this
    /// thread's sized lists (memory-pressure fallback).
    bool scavenge_warm_slab(pod::ThreadContext& ctx, ThreadState& ts);
    void install_slab_mappings(pod::ThreadContext& ctx, std::uint32_t slab);

    /// Mapping range of slab @p slab's SWcc descriptor (page-rounded).
    pod::MappedRange desc_mapping(std::uint32_t slab) const;

    /// Resolved metric ids; valid only while registry != nullptr.
    struct Instruments {
        obs::MetricsRegistry* registry = nullptr;
        obs::MetricId fullcheck_fast = obs::kInvalidMetric;
        obs::MetricId scavenges = obs::kInvalidMetric;
    };

    const Layout* layout_;
    bool large_;
    cxlsync::DetectableCas* dcas_;
    RecoveryLog* log_;

    std::uint32_t num_slabs_;
    std::uint32_t num_classes_;
    std::uint64_t slab_size_;
    cxl::HeapOffset len_word_;
    cxl::HeapOffset free_word_;
    cxl::HeapOffset data_base_;
    cxl::HeapOffset swcc_base_;
    std::uint64_t desc_stride_;
    cxl::HeapOffset hwcc_base_;
    cxl::HeapOffset local_base_;

    /// TL unsized lists longer than this spill to the global free list
    /// (Config::unsized_limit).
    std::uint32_t unsized_limit_;

    Instruments inst_;
};

} // namespace cxlalloc
