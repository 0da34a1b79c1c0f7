#include "cxlalloc/slab_heap.h"

#include <algorithm>
#include <bit>

#include "common/assert.h"
#include "common/cacheline.h"
#include "common/points.h"
#include "pod/pod.h"
#include "pod/process.h"

namespace cxlalloc {

using cxlcommon::align_up;
using cxlsync::DcasWord;

namespace {

std::uint64_t
class_size_impl(bool large, std::uint32_t cls)
{
    return large ? large_class_size(cls) : small_class_size(cls);
}

std::uint32_t
class_for_impl(bool large, std::uint64_t size)
{
    return large ? large_class_for(size) : small_class_for(size);
}

} // namespace

SlabHeap::SlabHeap(const Layout* layout, bool large,
                   cxlsync::DetectableCas* dcas, RecoveryLog* log)
    : layout_(layout), large_(large), dcas_(dcas), log_(log),
      unsized_limit_(layout->config().unsized_limit)
{
    const Config& cfg = layout->config();
    if (large) {
        num_slabs_ = cfg.large_slabs;
        num_classes_ = kNumLargeClasses;
        slab_size_ = kLargeSlabSize;
        len_word_ = layout->large_len();
        free_word_ = layout->large_free();
        data_base_ = layout->large_data();
        swcc_base_ = layout->large_swcc_desc(0);
        desc_stride_ = Layout::kLargeDescStride;
        hwcc_base_ = layout->large_hwcc_desc(0);
        local_base_ = layout->large_local(0);
    } else {
        num_slabs_ = cfg.small_slabs;
        num_classes_ = kNumSmallClasses;
        slab_size_ = kSmallSlabSize;
        len_word_ = layout->small_len();
        free_word_ = layout->small_free();
        data_base_ = layout->small_data();
        swcc_base_ = layout->small_swcc_desc(0);
        desc_stride_ = Layout::kSmallDescStride;
        hwcc_base_ = layout->small_hwcc_desc(0);
        local_base_ = layout->small_local(0);
    }
}

// ---------------------------------------------------------------- accessors

cxl::HeapOffset
SlabHeap::desc(std::uint32_t slab) const
{
    CXL_ASSERT(slab < num_slabs_, "slab index out of range");
    return swcc_base_ + static_cast<cxl::HeapOffset>(slab) * desc_stride_;
}

cxl::HeapOffset
SlabHeap::hwcc(std::uint32_t slab) const
{
    CXL_ASSERT(slab < num_slabs_, "slab index out of range");
    return hwcc_base_ + static_cast<cxl::HeapOffset>(slab) * 8;
}

cxl::HeapOffset
SlabHeap::slab_data(std::uint32_t slab) const
{
    return data_base_ + static_cast<cxl::HeapOffset>(slab) * slab_size_;
}

// Word 0 and word 1 decode by byte position (DescField): the fields are
// stored individually elsewhere, so this relies on a little-endian host.
static_assert(std::endian::native == std::endian::little);
static_assert(DescField::kNext == 0 && DescField::kOwner == 4 &&
              DescField::kClass == 6 && DescField::kState == 7 &&
              DescField::kHint == 8 && DescField::kFree == 10 &&
              DescField::kPrev == 12);

SlabHeap::Word0
SlabHeap::word0(cxl::MemSession& mem, std::uint32_t slab)
{
    auto v = mem.load<std::uint64_t>(desc(slab));
    return Word0{.next = static_cast<std::uint32_t>(v),
                 .owner = static_cast<cxl::ThreadId>(v >> 32),
                 .cls = static_cast<std::uint8_t>(v >> 48),
                 .state = static_cast<SlabState>(v >> 56)};
}

void
SlabHeap::set_word0(cxl::MemSession& mem, std::uint32_t slab, const Word0& w)
{
    mem.store<std::uint64_t>(
        desc(slab), std::uint64_t{w.next} | std::uint64_t{w.owner} << 32 |
                        std::uint64_t{w.cls} << 48 |
                        std::uint64_t{static_cast<std::uint8_t>(w.state)}
                            << 56);
}

SlabHeap::Word1
SlabHeap::word1(cxl::MemSession& mem, std::uint32_t slab)
{
    auto v = mem.load<std::uint64_t>(desc(slab) + DescField::kHint);
    return Word1{.hint = static_cast<std::uint16_t>(v),
                 .free = static_cast<std::uint16_t>(v >> 16),
                 .prev = static_cast<std::uint32_t>(v >> 32)};
}

void
SlabHeap::set_hint_free(cxl::MemSession& mem, std::uint32_t slab,
                        std::uint32_t hint, std::uint32_t free)
{
    CXL_ASSERT(free <= 0xffff, "free-block count exceeds field width");
    mem.store<std::uint32_t>(desc(slab) + DescField::kHint, hint | free << 16);
}

std::uint32_t
SlabHeap::next_raw(cxl::MemSession& mem, std::uint32_t slab)
{
    return mem.load<std::uint32_t>(desc(slab) + DescField::kNext);
}

void
SlabHeap::set_prev_raw(cxl::MemSession& mem, std::uint32_t slab,
                       std::uint32_t raw)
{
    mem.store<std::uint32_t>(desc(slab) + DescField::kPrev, raw);
}

void
SlabHeap::set_state(cxl::MemSession& mem, std::uint32_t slab, SlabState s)
{
    mem.store<std::uint8_t>(desc(slab) + DescField::kState,
                            static_cast<std::uint8_t>(s));
}

void
SlabHeap::flush_desc(cxl::MemSession& mem, std::uint32_t slab)
{
    // Write back only the descriptor lines this thread dirtied — 1 line
    // instead of 9 in the common publication (the owner already knows
    // what it wrote; paper §3.2.2 generalized). The publish oracle in
    // tests/sched/test_sched_swcc.cc and litmus shape SwccPublishDirtyOnly
    // guard this elision: the full descriptor range must be clean at the
    // publishing CAS.
    mem.flush_dirty(desc(slab), desc_stride_);
    // A deferred local-op record (Detach/Disown/FreeLocal/...) rides this
    // publication's fence instead of paying its own — guarded by the
    // RecordFlushOracle suites in tests/sched/test_sched_record.cc.
    log_->flush_pending(mem);
    mem.fence();
}

// ------------------------------------------------------------------- bitset

std::uint32_t
SlabHeap::blocks_of(std::uint32_t cls) const
{
    return static_cast<std::uint32_t>(slab_size_ /
                                      class_size_impl(large_, cls));
}

std::uint32_t
SlabHeap::bitset_words(std::uint32_t cls) const
{
    return (blocks_of(cls) + 63) / 64;
}

cxl::HeapOffset
SlabHeap::bit_word(std::uint32_t slab, std::uint32_t block) const
{
    return desc(slab) + DescField::kBitset + (block / 64) * 8;
}

void
SlabHeap::bitset_fill(cxl::MemSession& mem, std::uint32_t slab,
                      std::uint32_t cls)
{
    cxl::HeapOffset base = desc(slab) + DescField::kBitset;
    std::uint32_t blocks = blocks_of(cls);
    std::uint32_t words = bitset_words(cls);
    for (std::uint32_t w = 0; w < words; w++) {
        std::uint32_t lo = w * 64;
        std::uint64_t value;
        if (blocks >= lo + 64) {
            value = ~std::uint64_t{0};
        } else if (blocks > lo) {
            value = (std::uint64_t{1} << (blocks - lo)) - 1;
        } else {
            value = 0;
        }
        mem.store<std::uint64_t>(base + w * 8, value);
    }
    set_hint_free(mem, slab, 0, blocks);
}

std::uint32_t
SlabHeap::bitset_count(cxl::MemSession& mem, std::uint32_t slab,
                       std::uint32_t cls)
{
    cxl::HeapOffset base = desc(slab) + DescField::kBitset;
    std::uint32_t words = bitset_words(cls);
    std::uint32_t total = 0;
    for (std::uint32_t w = 0; w < words; w++) {
        total += std::popcount(mem.load<std::uint64_t>(base + w * 8));
    }
    return total;
}

// -------------------------------------------------------------- local lists

cxl::HeapOffset
SlabHeap::local_row(cxl::ThreadId tid) const
{
    return local_base_ + static_cast<cxl::HeapOffset>(tid) *
                             Layout::kLocalStride;
}

cxl::HeapOffset
SlabHeap::unsized_head_off(cxl::ThreadId tid) const
{
    return local_row(tid);
}

cxl::HeapOffset
SlabHeap::sized_head_off(cxl::ThreadId tid, std::uint32_t cls) const
{
    CXL_ASSERT(cls < num_classes_, "class out of range");
    return local_row(tid) + 4 + static_cast<cxl::HeapOffset>(cls) * 4;
}

cxl::HeapOffset
SlabHeap::unsized_count_off(cxl::ThreadId tid) const
{
    return local_row(tid) + 4 + static_cast<cxl::HeapOffset>(num_classes_) * 4;
}

void
SlabHeap::push_sized(cxl::MemSession& mem, std::uint32_t slab, Word0 w)
{
    cxl::HeapOffset head = sized_head_off(mem.tid(), w.cls - 1);
    std::uint32_t old = mem.load<std::uint32_t>(head);
    if (old == slab + 1) {
        // A redo of a push that stopped short of its state store.
        set_state(mem, slab, SlabState::TlSized);
        return;
    }
    w.next = old;
    set_word0(mem, slab, w);
    set_prev_raw(mem, slab, 0);
    if (old != 0) {
        set_prev_raw(mem, old - 1, slab + 1);
    }
    mem.store<std::uint32_t>(head, slab + 1);
    // Last: recovery reads TlSized, or a head naming the slab, as "pushed".
    set_state(mem, slab, SlabState::TlSized);
}

void
SlabHeap::remove_sized(cxl::MemSession& mem, std::uint32_t cls,
                       std::uint32_t next, std::uint32_t prev)
{
    if (prev != 0) {
        // Only the neighbor's next field: a 4-byte store into its word 0.
        mem.store<std::uint32_t>(desc(prev - 1) + DescField::kNext, next);
    } else {
        mem.store<std::uint32_t>(sized_head_off(mem.tid(), cls), next);
    }
    if (next != 0) {
        set_prev_raw(mem, next - 1, prev);
    }
}

void
SlabHeap::push_unsized(cxl::MemSession& mem, std::uint32_t slab)
{
    cxl::HeapOffset head = unsized_head_off(mem.tid());
    // One store sets link, owner, class and state; the head store after it
    // makes the push visible.
    set_word0(mem, slab,
              Word0{.next = mem.load<std::uint32_t>(head),
                    .owner = mem.tid(),
                    .cls = 0,
                    .state = SlabState::TlUnsized});
    mem.store<std::uint32_t>(head, slab + 1);
    cxl::HeapOffset cnt = unsized_count_off(mem.tid());
    mem.store<std::uint32_t>(cnt, mem.load<std::uint32_t>(cnt) + 1);
}

std::uint32_t
SlabHeap::pop_unsized(cxl::MemSession& mem, std::uint32_t headraw)
{
    CXL_ASSERT(headraw != 0, "pop from empty unsized list");
    std::uint32_t slab = headraw - 1;
    mem.store<std::uint32_t>(unsized_head_off(mem.tid()), next_raw(mem, slab));
    cxl::HeapOffset cnt = unsized_count_off(mem.tid());
    std::uint32_t c = mem.load<std::uint32_t>(cnt);
    mem.store<std::uint32_t>(cnt, c == 0 ? 0 : c - 1);
    return slab;
}

bool
SlabHeap::on_unsized_list(cxl::MemSession& mem, std::uint32_t slab)
{
    std::uint32_t raw = mem.load<std::uint32_t>(unsized_head_off(mem.tid()));
    std::uint32_t steps = 0;
    while (raw != 0 && steps++ <= num_slabs_) {
        if (raw - 1 == slab) {
            return true;
        }
        raw = next_raw(mem, raw - 1);
    }
    return false;
}

// --------------------------------------------------------------- operations

bool
SlabHeap::contains(cxl::HeapOffset offset) const
{
    return offset >= data_base_ &&
           offset < data_base_ +
                        static_cast<cxl::HeapOffset>(num_slabs_) * slab_size_;
}

std::uint32_t
SlabHeap::length(cxl::MemSession& mem)
{
    return DcasWord::value(mem.atomic_load64(len_word_));
}

cxl::HeapOffset
SlabHeap::allocate(pod::ThreadContext& ctx, ThreadState& ts,
                   std::uint64_t size)
{
    cxl::MemSession& mem = ctx.mem();
    std::uint32_t cls = class_for_impl(large_, size);
    std::uint32_t headraw = mem.load<std::uint32_t>(
        sized_head_off(mem.tid(), cls));
    if (headraw == 0) {
        headraw = refill(ctx, ts, cls);
        if (headraw == 0) {
            return 0; // heap exhausted
        }
    }
    std::uint32_t slab = headraw - 1;
    // One load of word 1 (hint and counter), then the bitset from the hint:
    // the word found is the word cleared.
    Word1 w1 = word1(mem, slab);
    cxl::HeapOffset bits = desc(slab) + DescField::kBitset;
    std::uint32_t words = bitset_words(cls);
    std::uint32_t w = w1.hint;
    std::uint64_t word = 0;
    for (; w < words; w++) {
        word = mem.load<std::uint64_t>(bits + w * 8);
        if (word != 0) {
            break;
        }
    }
    CXL_ASSERT(w < words, "sized list contained a full slab");
    CXL_ASSERT(w1.free > 0, "free-block counter underflow");
    auto block = static_cast<std::uint32_t>(w * 64 + std::countr_zero(word));

    // Local operation: the record needs no flush or fence (process-crash
    // recovery writes the cache back; see RecoveryLog's discipline note).
    log_->log_local(mem, OpRecord{.op = Op::Alloc,
                                  .large_heap = large_,
                                  .aux = static_cast<std::uint16_t>(block),
                                  .version = ts.version,
                                  .index = slab});
    ctx.maybe_crash(crashpoint::kAfterRecord);
    mem.store<std::uint64_t>(bits + w * 8, word & (word - 1));
    std::uint32_t left = w1.free - 1u;
    set_hint_free(mem, slab, w, left);
    ctx.maybe_crash(crashpoint::kMidAlloc);
    // The counter answers the post-alloc fullness check without a rescan.
    CXL_PARANOID_ASSERT(left == bitset_count(mem, slab, cls),
                        "free-block counter diverged from bitset");
    if (inst_.registry != nullptr) {
        inst_.registry->shard(mem.tid()).add(inst_.fullcheck_fast);
    }
    if (left == 0) {
        // Maintain the invariant that sized lists hold only non-full slabs.
        full_transition(ctx, slab, cls, w1.prev);
    }
    return slab_data(slab) + static_cast<cxl::HeapOffset>(block) *
                                 class_size_impl(large_, cls);
}

std::uint32_t
SlabHeap::refill(pod::ThreadContext& ctx, ThreadState& ts, std::uint32_t cls)
{
    cxl::MemSession& mem = ctx.mem();
    // Transfer sources, in order (paper §3.1.1): thread-local unsized free
    // list, global free list, heap length (extension).
    while (true) {
        std::uint32_t uh = mem.load<std::uint32_t>(
            unsized_head_off(mem.tid()));
        if (uh != 0) {
            init_from_unsized(ctx, ts, uh, cls);
            return uh; // pushed at the head of sized list cls
        }
        if (pop_global(ctx, ts)) {
            continue; // slab landed on the unsized list
        }
        if (extend(ctx, ts)) {
            continue;
        }
        if (scavenge_warm_slab(ctx, ts)) {
            continue; // reclaimed an idle empty slab from another class
        }
        return 0;
    }
}

bool
SlabHeap::scavenge_warm_slab(pod::ThreadContext& ctx, ThreadState& ts)
{
    // Under memory pressure, give up the per-class warm slabs (kept to
    // avoid re-init thrash): any completely-empty slab on one of our sized
    // lists can serve another class.
    cxl::MemSession& mem = ctx.mem();
    for (std::uint32_t cls = 0; cls < num_classes_; cls++) {
        std::uint32_t raw =
            mem.load<std::uint32_t>(sized_head_off(mem.tid(), cls));
        std::uint32_t steps = 0;
        while (raw != 0 && steps++ <= num_slabs_) {
            std::uint32_t slab = raw - 1;
            raw = next_raw(mem, slab);
            // Emptiness via the free counter: one load of word 1 per
            // candidate instead of a popcount over its whole bitset.
            Word1 w1 = word1(mem, slab);
            if (w1.free == blocks_of(cls)) {
                CXL_PARANOID_ASSERT(
                    bitset_count(mem, slab, cls) == blocks_of(cls),
                    "free-block counter diverged from bitset");
                log_->log_local(mem, OpRecord{.op = Op::FreeLocal,
                                              .large_heap = large_,
                                              .aux = 0,
                                              .version = ts.version,
                                              .index = slab});
                remove_sized(mem, cls, raw, w1.prev);
                push_unsized(mem, slab);
                if (inst_.registry != nullptr) {
                    inst_.registry->shard(mem.tid()).add(inst_.scavenges);
                }
                return true;
            }
        }
    }
    return false;
}

void
SlabHeap::init_from_unsized(pod::ThreadContext& ctx, ThreadState& ts,
                            std::uint32_t headraw, std::uint32_t cls)
{
    cxl::MemSession& mem = ctx.mem();
    std::uint32_t slab = headraw - 1;
    log_->log(mem, OpRecord{.op = Op::Init,
                            .large_heap = large_,
                            .aux = static_cast<std::uint16_t>(cls),
                            .version = 0, // no CAS in this transition
                            .index = slab});
    ctx.maybe_crash(crashpoint::kAfterRecord);
    pop_unsized(mem, headraw);
    ctx.maybe_crash(crashpoint::kMidInit);
    bitset_fill(mem, slab, cls);
    // Reset the remote-free down-counter to the block count. A plain store
    // suffices: the slab is unlinked and no other thread can reference it.
    mem.atomic_store64(hwcc(slab), DcasWord::pack(blocks_of(cls), 0, 0));
    ctx.maybe_crash(crashpoint::kMidInit);
    // Owner and class ride push_sized's word-0 store.
    push_sized(mem, slab,
               Word0{.owner = mem.tid(),
                     .cls = static_cast<std::uint8_t>(cls + 1),
                     .state = SlabState::TlUnsized});
    ts.may_own[large_].set(slab);
}

bool
SlabHeap::pop_global(pod::ThreadContext& ctx, ThreadState& ts)
{
    cxl::MemSession& mem = ctx.mem();
    std::uint64_t word = mem.atomic_load64(free_word_);
    while (true) {
        std::uint32_t headraw = DcasWord::value(word);
        if (headraw == 0) {
            return false;
        }
        std::uint32_t slab = headraw - 1;
        // SWcc read protocol (§3.2.2): flush before loading another
        // thread's flushed next pointer. A stale value would be caught by
        // the CAS on the list head failing.
        mem.flush(desc(slab) + DescField::kNext, 4);
        std::uint32_t next = next_raw(mem, slab);
        std::uint16_t ver = ts.next_version();
        log_->log(mem, OpRecord{.op = Op::PopGlobal,
                                .large_heap = large_,
                                .aux = 0,
                                .version = ver,
                                .index = slab});
        ctx.maybe_crash(crashpoint::kAfterRecord);
        auto r = dcas_->try_cas_from(mem, free_word_, word, next, ver);
        if (r.success) {
            ctx.maybe_crash(crashpoint::kAfterDcas);
            acquire_to_unsized(ctx, ts, slab);
            return true;
        }
        word = r.observed;
    }
}

bool
SlabHeap::extend(pod::ThreadContext& ctx, ThreadState& ts)
{
    cxl::MemSession& mem = ctx.mem();
    std::uint64_t word = mem.atomic_load64(len_word_);
    while (true) {
        std::uint32_t len = DcasWord::value(word);
        if (len >= num_slabs_) {
            return false;
        }
        std::uint16_t ver = ts.next_version();
        log_->log(mem, OpRecord{.op = Op::Extend,
                                .large_heap = large_,
                                .aux = 0,
                                .version = ver,
                                .index = len});
        ctx.maybe_crash(crashpoint::kAfterRecord);
        auto r = dcas_->try_cas_from(mem, len_word_, word, len + 1, ver);
        if (r.success) {
            std::uint32_t slab = len;
            ctx.maybe_crash(crashpoint::kAfterDcas);
            // The new slab needs three mappings (descriptor pages + data;
            // the HWcc word lives in the eagerly-mapped sync region). Other
            // processes install theirs lazily via the fault handler.
            install_slab_mappings(ctx, slab);
            acquire_to_unsized(ctx, ts, slab);
            return true;
        }
        word = r.observed;
    }
}

void
SlabHeap::install_slab_mappings(pod::ThreadContext& ctx, std::uint32_t slab)
{
    pod::MappedRange dm = desc_mapping(slab);
    ctx.process().install_mapping(dm.start, dm.len);
    ctx.process().install_mapping(slab_data(slab), slab_size_);
}

pod::MappedRange
SlabHeap::desc_mapping(std::uint32_t slab) const
{
    cxl::HeapOffset start = desc(slab) & ~(cxl::kPageSize - 1);
    cxl::HeapOffset end =
        align_up(desc(slab) + desc_stride_, cxl::kPageSize);
    return pod::MappedRange{start, end - start};
}

void
SlabHeap::acquire_to_unsized(pod::ThreadContext& ctx, ThreadState& ts,
                             std::uint32_t slab)
{
    // Back the slab again in case it was decommitted on the global list.
    ctx.process().pod().device().note_committed(slab_data(slab), slab_size_);
    push_unsized(ctx.mem(), slab);
    ts.may_own[large_].set(slab);
}

void
SlabHeap::full_transition(pod::ThreadContext& ctx, std::uint32_t slab,
                          std::uint32_t cls, std::uint32_t prev)
{
    cxl::MemSession& mem = ctx.mem();
    std::uint32_t remote = dcas_->read(mem, hwcc(slab));
    // No remote frees yet: keep ownership but unlink (detached state); a
    // later local free relinks it to the sized list. Mixed local/remote
    // frees: give the slab up so every future free takes the remote path
    // and the whole slab is eventually stolen.
    bool detach = remote == blocks_of(cls);
    // Deferred: flush_desc below folds the record into its fence.
    log_->log_local(mem, OpRecord{.op = detach ? Op::Detach : Op::Disown,
                                  .large_heap = large_,
                                  .aux = static_cast<std::uint16_t>(cls),
                                  .version = 0,
                                  .index = slab});
    ctx.maybe_crash(crashpoint::kAfterRecord);
    Word0 w = word0(mem, slab);
    remove_sized(mem, cls, w.next, prev);
    set_word0(mem, slab,
              Word0{.next = 0,
                    .owner = detach ? w.owner : cxl::kNoThread,
                    .cls = w.cls,
                    .state = detach ? SlabState::Detached
                                    : SlabState::Disowned});
    ctx.maybe_crash(crashpoint::kMidDetach);
    // Ownership may change later (steal at counter zero): flush so no
    // dirty line of ours can clobber the stealer's writes.
    flush_desc(mem, slab);
}

bool
SlabHeap::owns(cxl::MemSession& mem, ThreadState& ts, std::uint32_t slab,
               Word0* w)
{
    MayOwnFilter& mine = ts.may_own[large_];
    if (!mine.test(slab)) {
        return false;
    }
    // The owner field may be read from our (possibly stale) cache without
    // flushing — the paper's §3.2.2 case analysis shows every outcome of a
    // stale read is safe.
    *w = word0(mem, slab);
    if (w->owner == mem.tid()) {
        return true;
    }
    mine.clear(slab);
    return false;
}

bool
SlabHeap::deallocate(pod::ThreadContext& ctx, ThreadState& ts,
                     cxl::HeapOffset offset)
{
    cxl::MemSession& mem = ctx.mem();
    CXL_ASSERT(contains(offset), "free of non-heap offset");
    auto slab = static_cast<std::uint32_t>((offset - data_base_) /
                                           slab_size_);
    Word0 w;
    if (owns(mem, ts, slab, &w)) {
        CXL_ASSERT(w.cls != 0, "freeing into classless slab");
        auto block = static_cast<std::uint32_t>(
            (offset - slab_data(slab)) / class_size_impl(large_, w.cls - 1));
        free_local(ctx, ts, slab, block, w);
        return false;
    }
    free_remote(ctx, ts, slab);
    return true;
}

SlabHeap::Stage
SlabHeap::stage_free(cxl::MemSession& mem, ThreadState& ts,
                     cxl::HeapOffset offset, cxl::McasOperand* staged,
                     std::uint32_t n)
{
    CXL_ASSERT(contains(offset), "free of non-heap offset");
    auto slab = static_cast<std::uint32_t>((offset - data_base_) /
                                           slab_size_);
    // Asked again every round: a steal in an earlier round's serial drain
    // may have made the slab local (and set its filter bit).
    Word0 w;
    if (owns(mem, ts, slab, &w)) {
        return Stage::Serial;
    }
    for (std::uint32_t k = 0; k < n; k++) {
        if (staged[k].target == hwcc(slab)) {
            return Stage::Busy;
        }
    }
    std::uint64_t word = mem.atomic_load64(hwcc(slab));
    std::uint32_t cur = DcasWord::value(word);
    CXL_ASSERT(cur > 0, "remote-free counter underflow (double free?)");
    if (cur == 1) {
        return Stage::Serial;
    }
    // cur >= 2, so a landed operand leaves a counter >= 1. A counter that
    // moves before the doorbell fails the operand, which retries.
    staged[n] = dcas_->stage(mem, hwcc(slab), word, cur - 1,
                             ts.next_version());
    return Stage::Staged;
}

bool
SlabHeap::redo_decrement(pod::ThreadContext& ctx, ThreadState& ts,
                         cxl::HeapOffset counter)
{
    if (counter < hwcc_base_ || (counter - hwcc_base_) / 8 >= num_slabs_) {
        return false;
    }
    CXL_ASSERT((counter - hwcc_base_) % 8 == 0,
               "batched operand misaligned in counter region");
    free_remote(ctx, ts,
                static_cast<std::uint32_t>((counter - hwcc_base_) / 8));
    return true;
}

void
SlabHeap::free_local(pod::ThreadContext& ctx, ThreadState& ts,
                     std::uint32_t slab, std::uint32_t block, const Word0& w)
{
    cxl::MemSession& mem = ctx.mem();
    std::uint32_t cls = w.cls - 1;
    cxl::HeapOffset at = bit_word(slab, block);
    std::uint64_t word = mem.load<std::uint64_t>(at);
    std::uint64_t mask = std::uint64_t{1} << (block % 64);
    CXL_ASSERT((word & mask) == 0, "double free (local)");
    log_->log_local(mem, OpRecord{.op = Op::FreeLocal,
                                  .large_heap = large_,
                                  .aux = static_cast<std::uint16_t>(block),
                                  .version = ts.version,
                                  .index = slab});
    ctx.maybe_crash(crashpoint::kAfterRecord);
    CXL_ASSERT(w.state == SlabState::TlSized || w.state == SlabState::Detached,
               "local free into slab in unexpected state");
    Word1 w1 = word1(mem, slab);
    mem.store<std::uint64_t>(at, word | mask);
    std::uint32_t free = w1.free + 1u;
    // Keep the scan hint conservative: no set bit below word `hint`.
    set_hint_free(mem, slab, std::min<std::uint32_t>(w1.hint, block / 64),
                  free);
    ctx.maybe_crash(crashpoint::kMidFreeLocal);
    CXL_PARANOID_ASSERT(free == bitset_count(mem, slab, cls),
                        "free-block counter diverged from bitset");
    if (w.state == SlabState::Detached) {
        // Previously full: relink so it can serve allocations again.
        push_sized(mem, slab, w);
    } else if (free == blocks_of(cls) && (w.next != 0 || w1.prev != 0)) {
        // Slab is now completely empty and the class has other slabs:
        // recycle it as unsized. (Keeping the last slab warm avoids
        // re-initializing it on every alloc/free alternation.)
        remove_sized(mem, cls, w.next, w1.prev);
        push_unsized(mem, slab); // drops the class
        trim_unsized(ctx, ts);
    }
}

void
SlabHeap::free_remote(pod::ThreadContext& ctx, ThreadState& ts,
                      std::uint32_t slab)
{
    cxl::MemSession& mem = ctx.mem();
    std::uint64_t word = mem.atomic_load64(hwcc(slab));
    while (true) {
        std::uint32_t cur = DcasWord::value(word);
        CXL_ASSERT(cur > 0, "remote-free counter underflow (double free?)");
        std::uint16_t ver = ts.next_version();
        log_->log(mem, OpRecord{.op = Op::FreeRemote,
                                .large_heap = large_,
                                .aux = 0,
                                .version = ver,
                                .index = slab});
        ctx.maybe_crash(crashpoint::kAfterRecord);
        auto r = dcas_->try_cas_from(mem, hwcc(slab), word, cur - 1, ver);
        if (!r.success) {
            word = r.observed;
            continue;
        }
        if (cur - 1 == 0) {
            // Every block was remotely freed: the slab is detached or
            // disowned and unlinked, so stealing needs no coordination
            // with the previous owner (paper §3.2.1).
            ctx.maybe_crash(crashpoint::kMidSteal);
            acquire_to_unsized(ctx, ts, slab);
            trim_unsized(ctx, ts);
        }
        return;
    }
}

void
SlabHeap::trim_unsized(pod::ThreadContext& ctx, ThreadState& ts)
{
    cxl::MemSession& mem = ctx.mem();
    while (mem.load<std::uint32_t>(unsized_count_off(mem.tid())) >
           unsized_limit_) {
        push_global_one(ctx, ts);
    }
}

void
SlabHeap::push_global_one(pod::ThreadContext& ctx, ThreadState& ts)
{
    cxl::MemSession& mem = ctx.mem();
    std::uint32_t slab = pop_unsized(
        mem, mem.load<std::uint32_t>(unsized_head_off(mem.tid())));
    // MADV_REMOVE analog (paper §3.3.1): heap extension is monotonic — the
    // mapping stays — but an empty slab's backing memory returns to the
    // device while it sits on the global free list.
    ctx.process().pod().device().note_decommitted(slab_data(slab),
                                                  slab_size_);
    std::uint64_t word = mem.atomic_load64(free_word_);
    while (true) {
        // Unowned, classless, Global, linked: one word-0 store per attempt.
        set_word0(mem, slab,
                  Word0{.next = DcasWord::value(word),
                        .owner = cxl::kNoThread,
                        .cls = 0,
                        .state = SlabState::Global});
        std::uint16_t ver = ts.next_version();
        // Record + descriptor coalesce into flush_desc's single flush +
        // fence (the record's flush_pending rides the same fence); on a
        // CAS retry only the re-dirtied kNext line and record row are
        // written back again — the owner-cached argument generalized.
        log_->log_local(mem, OpRecord{.op = Op::PushGlobal,
                                      .large_heap = large_,
                                      .aux = 0,
                                      .version = ver,
                                      .index = slab});
        // Ownership transfers to whoever pops: flush + fence first.
        if (!cxlcommon::defect::skip_swcc_publish_flush) {
            flush_desc(mem, slab);
        } else {
            // Fault isolation: skip only the DESCRIPTOR flush. The record
            // still goes durable so the publish oracle — not the record
            // oracle — is what catches this variant.
            log_->flush_pending(mem);
            mem.fence();
        }
        ctx.maybe_crash(crashpoint::kMidPushGlobal);
        auto r = dcas_->try_cas_from(mem, free_word_, word, slab + 1, ver);
        if (r.success) {
            return;
        }
        word = r.observed;
    }
}

bool
SlabHeap::resolve(cxl::MemSession& mem, cxl::HeapOffset offset,
                  pod::MappedRange* out)
{
    // Data region: backed iff the containing slab is below the heap length.
    if (contains(offset)) {
        auto slab = static_cast<std::uint32_t>((offset - data_base_) /
                                               slab_size_);
        if (slab >= length(mem)) {
            return false;
        }
        out->start = slab_data(slab);
        out->len = slab_size_;
        return true;
    }
    // SWcc descriptor region.
    cxl::HeapOffset desc_end =
        swcc_base_ + static_cast<cxl::HeapOffset>(num_slabs_) * desc_stride_;
    if (offset >= swcc_base_ && offset < desc_end) {
        auto slab = static_cast<std::uint32_t>((offset - swcc_base_) /
                                               desc_stride_);
        if (slab >= length(mem)) {
            return false;
        }
        *out = desc_mapping(slab);
        return true;
    }
    return false;
}

// ----------------------------------------------------------------- recovery

void
SlabHeap::recover(pod::ThreadContext& ctx, ThreadState& ts,
                  const OpRecord& record)
{
    cxl::MemSession& mem = ctx.mem();
    std::uint32_t slab = record.index;
    switch (record.op) {
      case Op::Alloc: {
        // The block may or may not have been handed out; the application
        // never saw the pointer, so completing the clear only costs one
        // block (recoverable by the application's own log, paper Table 1
        // "App" strategy).
        Word0 w = word0(mem, slab);
        CXL_ASSERT(w.cls != 0, "Alloc record against classless slab");
        cxl::HeapOffset at = bit_word(slab, record.aux);
        std::uint64_t word = mem.load<std::uint64_t>(at);
        std::uint64_t mask = std::uint64_t{1} << (record.aux % 64);
        if ((word & mask) != 0) {
            mem.store<std::uint64_t>(at, word & ~mask);
        }
        // A crash (especially Host severity) can surface a counter line
        // and bitset lines from different points in time: the bitset is
        // the durable truth, so rebuild the counter from it.
        std::uint32_t live = bitset_count(mem, slab, w.cls - 1);
        set_hint_free(mem, slab, 0, live);
        if (live == 0 && w.state == SlabState::TlSized) {
            full_transition(ctx, slab, w.cls - 1, word1(mem, slab).prev);
        }
        break;
      }
      case Op::Init: {
        std::uint32_t cls = record.aux;
        std::uint32_t uh = mem.load<std::uint32_t>(
            unsized_head_off(mem.tid()));
        if (uh == slab + 1) {
            // Nothing visible happened: rerun the transition.
            init_from_unsized(ctx, ts, uh, cls);
            break;
        }
        // push_sized stores class and link, then the list head, then the
        // state: a head naming the slab means the push completed but for
        // its last store.
        Word0 w = word0(mem, slab);
        if (w.cls == cls + 1 &&
            (w.state == SlabState::TlSized ||
             mem.load<std::uint32_t>(sized_head_off(mem.tid(), cls)) ==
                 slab + 1)) {
            // Completed; resync the counter with whatever bitset lines
            // proved durable.
            set_state(mem, slab, SlabState::TlSized);
            set_hint_free(mem, slab, 0, bitset_count(mem, slab, cls));
            break;
        }
        // Popped but not (fully) initialized: since this record is the
        // thread's last operation, no allocation has happened — refilling
        // the bitset is safe.
        bitset_fill(mem, slab, cls);
        mem.atomic_store64(hwcc(slab), DcasWord::pack(blocks_of(cls), 0, 0));
        push_sized(mem, slab,
                   Word0{.owner = mem.tid(),
                         .cls = static_cast<std::uint8_t>(cls + 1),
                         .state = w.state});
        ts.may_own[large_].set(slab);
        break;
      }
      case Op::PopGlobal:
      case Op::Extend: {
        cxl::HeapOffset word =
            record.op == Op::PopGlobal ? free_word_ : len_word_;
        if (!dcas_->did_succeed(mem, word, record.version)) {
            break; // CAS never took effect; the allocation was abandoned
        }
        if (record.op == Op::Extend) {
            install_slab_mappings(ctx, slab);
        }
        if (!on_unsized_list(mem, slab)) {
            acquire_to_unsized(ctx, ts, slab);
        }
        break;
      }
      case Op::Detach:
      case Op::Disown: {
        // Unfinished iff the slab is still ours and sized. No steal can
        // have happened before the transition finished (the last block
        // allocated from this slab never escaped the crashed allocate
        // call); after it, a stale record's slab may be anyone's.
        Word0 w = word0(mem, slab);
        if (w.owner == mem.tid() && w.state == SlabState::TlSized) {
            bool detach = record.op == Op::Detach;
            remove_sized(mem, record.aux, w.next, word1(mem, slab).prev);
            set_word0(mem, slab,
                      Word0{.next = 0,
                            .owner = detach ? w.owner : cxl::kNoThread,
                            .cls = w.cls,
                            .state = detach ? SlabState::Detached
                                            : SlabState::Disowned});
        }
        flush_desc(mem, slab);
        break;
      }
      case Op::FreeLocal: {
        Word0 w = word0(mem, slab);
        if (w.cls == 0) {
            // The free emptied the slab: remove_sized had finished and
            // push_unsized's word-0 store dropped the class. Left to do:
            // the rest of that push, or undoing a trim's pop_unsized that
            // took the slab back off before push_global_one logged (its
            // word-0 store may already read Global). A foreign owner means
            // a stale record whose slab has moved on.
            if ((w.owner == mem.tid() || w.owner == cxl::kNoThread) &&
                !on_unsized_list(mem, slab)) {
                acquire_to_unsized(ctx, ts, slab);
            }
            trim_unsized(ctx, ts);
            break;
        }
        std::uint32_t cls = w.cls - 1;
        cxl::HeapOffset at = bit_word(slab, record.aux);
        std::uint64_t word = mem.load<std::uint64_t>(at);
        std::uint64_t mask = std::uint64_t{1} << (record.aux % 64);
        if ((word & mask) == 0) {
            mem.store<std::uint64_t>(at, word | mask);
        }
        std::uint32_t free = bitset_count(mem, slab, cls);
        set_hint_free(mem, slab, 0, free);
        if (w.state == SlabState::Detached) {
            push_sized(mem, slab, w);
            break;
        }
        if (w.state == SlabState::TlSized && free == blocks_of(cls)) {
            std::uint32_t prev = word1(mem, slab).prev;
            if (w.next != 0 || prev != 0) {
                remove_sized(mem, cls, w.next, prev);
                push_unsized(mem, slab);
                trim_unsized(ctx, ts);
            }
        }
        break;
      }
      case Op::FreeRemote: {
        if (!dcas_->did_succeed(mem, hwcc(slab), record.version)) {
            // The decrement never landed; the block is still marked
            // allocated. Complete the free now.
            free_remote(ctx, ts, slab);
            break;
        }
        std::uint64_t word = mem.atomic_load64(hwcc(slab));
        if (DcasWord::tid(word) == mem.tid() &&
            DcasWord::version(word) == record.version &&
            DcasWord::value(word) == 0) {
            // Our decrement was the last one: we are the stealer. Only an
            // Init or a PushGlobal, each logged, moves the slab off our
            // unsized list; until then it belongs there (a trim may have
            // popped it before push_global_one logged).
            if (!on_unsized_list(mem, slab)) {
                acquire_to_unsized(ctx, ts, slab);
            }
            trim_unsized(ctx, ts);
        }
        break;
      }
      case Op::PushGlobal: {
        if (dcas_->did_succeed(mem, free_word_, record.version)) {
            break; // push landed
        }
        // Slab was popped from our unsized list but never published:
        // finish the push.
        std::uint64_t word = mem.atomic_load64(free_word_);
        while (true) {
            set_word0(mem, slab,
                      Word0{.next = DcasWord::value(word),
                            .owner = cxl::kNoThread,
                            .cls = 0,
                            .state = SlabState::Global});
            flush_desc(mem, slab);
            std::uint16_t ver = ts.next_version();
            auto r = dcas_->try_cas_from(mem, free_word_, word, slab + 1, ver);
            if (r.success) {
                break;
            }
            word = r.observed;
        }
        break;
      }
      default:
        CXL_PANIC("slab heap asked to recover a non-slab operation");
    }
}

void
SlabHeap::repair_local_lists(cxl::MemSession& mem)
{
    cxl::ThreadId tid = mem.tid();
    // The whole local row in one bulk read: unsized head, sized heads,
    // unsized count.
    std::uint32_t row[Layout::kLocalStride / 4];
    static_assert(sizeof(row) >= 4 * (kNumSmallClasses + 2) &&
                  sizeof(row) >= 4 * (kNumLargeClasses + 2));
    mem.read_bytes(local_row(tid), row, sizeof(row));
    std::uint32_t count = 0;
    for (std::uint32_t raw = row[0]; raw != 0 && count <= num_slabs_;
         count++) {
        raw = next_raw(mem, raw - 1);
    }
    CXL_ASSERT(count <= num_slabs_, "unsized list is cyclic");
    if (row[1 + num_classes_] != count) {
        mem.store<std::uint32_t>(unsized_count_off(tid), count);
    }
    for (std::uint32_t cls = 0; cls < num_classes_; cls++) {
        std::uint32_t prev = 0;
        std::uint32_t steps = 0;
        for (std::uint32_t raw = row[1 + cls];
             raw != 0 && steps++ <= num_slabs_;) {
            std::uint32_t slab = raw - 1;
            if (word1(mem, slab).prev != prev) {
                set_prev_raw(mem, slab, prev);
            }
            prev = raw;
            raw = next_raw(mem, slab);
        }
    }
}

// --------------------------------------------------------------- invariants

void
SlabHeap::check_global_invariants(cxl::MemSession& mem)
{
    std::uint32_t len = length(mem);
    CXL_ASSERT(len <= num_slabs_, "heap length exceeds capacity");
    std::uint64_t word = mem.atomic_load64(free_word_);
    std::uint32_t raw = DcasWord::value(word);
    std::uint32_t steps = 0;
    while (raw != 0) {
        CXL_ASSERT(++steps <= num_slabs_, "global free list is cyclic");
        std::uint32_t slab = raw - 1;
        CXL_ASSERT(slab < len, "global free list references unmapped slab");
        mem.flush(desc(slab), desc_stride_);
        Word0 w = word0(mem, slab);
        CXL_ASSERT(w.owner == cxl::kNoThread,
                   "slab on global free list has an owner");
        CXL_ASSERT(w.state == SlabState::Global,
                   "slab on global free list not in Global state");
        raw = w.next;
    }
}

void
SlabHeap::check_local_invariants(cxl::MemSession& mem)
{
    cxl::ThreadId tid = mem.tid();
    // Unsized list: owned, classless, acyclic; count matches.
    std::uint32_t raw = mem.load<std::uint32_t>(unsized_head_off(tid));
    std::uint32_t count = 0;
    while (raw != 0) {
        CXL_ASSERT(++count <= num_slabs_, "unsized list is cyclic");
        Word0 w = word0(mem, raw - 1);
        CXL_ASSERT(w.owner == tid, "unsized slab not owned");
        CXL_ASSERT(w.state == SlabState::TlUnsized,
                   "unsized slab in wrong state");
        raw = w.next;
    }
    CXL_ASSERT(mem.load<std::uint32_t>(unsized_count_off(tid)) == count,
               "unsized count out of sync");
    // Sized lists: owned, correctly classed, never full, doubly linked.
    for (std::uint32_t cls = 0; cls < num_classes_; cls++) {
        raw = mem.load<std::uint32_t>(sized_head_off(tid, cls));
        std::uint32_t prev = 0;
        std::uint32_t steps = 0;
        while (raw != 0) {
            CXL_ASSERT(++steps <= num_slabs_, "sized list is cyclic");
            std::uint32_t slab = raw - 1;
            Word0 w = word0(mem, slab);
            Word1 w1 = word1(mem, slab);
            CXL_ASSERT(w.owner == tid, "sized slab not owned");
            CXL_ASSERT(w.cls == cls + 1, "sized slab class mismatch");
            CXL_ASSERT(w.state == SlabState::TlSized,
                       "sized slab in wrong state");
            CXL_ASSERT(w1.free == bitset_count(mem, slab, cls),
                       "free-block counter diverged from bitset");
            CXL_ASSERT(w1.free != 0, "sized list contains a full slab");
            CXL_ASSERT(w1.prev == prev, "sized list prev link broken");
            prev = raw;
            raw = w.next;
        }
    }
}

void
SlabHeap::set_metrics(obs::MetricsRegistry* registry)
{
    inst_ = Instruments{};
    inst_.registry = registry;
    if (registry == nullptr) {
        return;
    }
    inst_.fullcheck_fast = registry->counter("alloc.fullcheck_fast");
    inst_.scavenges = registry->counter("alloc.scavenges");
}

std::uint32_t
SlabHeap::debug_free_blocks(cxl::MemSession& mem, std::uint32_t slab)
{
    return word1(mem, slab).free;
}

std::uint32_t
SlabHeap::debug_bitset_count(cxl::MemSession& mem, std::uint32_t slab)
{
    std::uint8_t biased = word0(mem, slab).cls;
    CXL_ASSERT(biased != 0, "bitset count of classless slab");
    return bitset_count(mem, slab, biased - 1);
}

std::uint8_t
SlabHeap::debug_class_biased(cxl::MemSession& mem, std::uint32_t slab)
{
    return word0(mem, slab).cls;
}

std::uint32_t
SlabHeap::debug_remote_free(cxl::MemSession& mem, std::uint32_t slab)
{
    return dcas_->read(mem, hwcc(slab));
}

cxl::ThreadId
SlabHeap::debug_owner(cxl::MemSession& mem, std::uint32_t slab)
{
    return word0(mem, slab).owner;
}

SlabHeap::Stats
SlabHeap::stats(cxl::MemSession& mem)
{
    Stats s;
    s.length = length(mem);
    s.data_bytes = static_cast<std::uint64_t>(s.length) * slab_size_;
    std::uint32_t raw = DcasWord::value(mem.atomic_load64(free_word_));
    std::uint32_t steps = 0;
    while (raw != 0 && steps <= num_slabs_) {
        steps++;
        raw = next_raw(mem, raw - 1);
    }
    s.global_free = steps;
    return s;
}

} // namespace cxlalloc
