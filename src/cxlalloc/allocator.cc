#include "cxlalloc/allocator.h"

#include <algorithm>

#include "common/assert.h"
#include "obs/timer.h"
#include "pod/process.h"

namespace cxlalloc {

CxlAllocator::CxlAllocator(pod::Pod& pod, const Config& config)
    : pod_(pod), layout_(config),
      dcas_(layout_.help_array(), config.recoverable),
      log_(&layout_, config.recoverable),
      small_(&layout_, /*large=*/false, &dcas_, &log_),
      large_(&layout_, /*large=*/true, &dcas_, &log_),
      huge_(&layout_, &dcas_, &log_)
{
    register_crash_points();
    CXL_FATAL_IF(pod.device().size() < layout_.end(),
                 "device too small for heap layout");
    // With a based layout (a pod shard) the sync region is the per-window
    // prefix, so the requirement is base-relative either way.
    CXL_FATAL_IF(pod.device().mode() != cxl::CoherenceMode::FullHwcc &&
                     pod.device().config().sync_region_size <
                         layout_.hwcc_end() - layout_.base(),
                 "sync region too small for HWcc metadata");
    CXL_FATAL_IF(layout_.base() != 0 &&
                     (pod.device().device_of(layout_.base()) !=
                          pod.device().device_of(layout_.end() - 1) ||
                      layout_.base() !=
                          pod.device().window_base(
                              pod.device().device_of(layout_.base()))),
                 "based heap layout must exactly occupy one device window");
}

void
CxlAllocator::attach(pod::Process& process)
{
    // Virtual address space reservations (paper Fig. 2, grey regions):
    // carve out the offset ranges cxlalloc manages so nothing else in the
    // process can take them (PC-S).
    process.reserve("hwcc-metadata", layout_.base(),
                    layout_.hwcc_end() - layout_.base());
    process.reserve("swcc-metadata", layout_.hwcc_end(),
                    layout_.small_data() - layout_.hwcc_end());
    process.reserve("small-data", layout_.small_data(),
                    layout_.large_data() - layout_.small_data());
    process.reserve("large-data", layout_.large_data(),
                    layout_.huge_data() - layout_.large_data());
    process.reserve("huge-data", layout_.huge_data(),
                    layout_.end() - layout_.huge_data());
    process.set_resolver(this);

    // Fixed-size metadata is mapped eagerly; per-slab descriptors and all
    // data are mapped lazily (heap extension + fault handler).
    process.install_mapping(layout_.base(),
                            layout_.hwcc_end() - layout_.base());
    process.install_mapping(layout_.recovery_row(0),
                            layout_.small_local(0) - layout_.recovery_row(0));
    process.install_mapping(layout_.small_local(0),
                            layout_.small_swcc_desc(0) -
                                layout_.small_local(0));
    process.install_mapping(layout_.huge_desc(0),
                            layout_.huge_desc_count() *
                                HugeDescField::kStride);
}

void
CxlAllocator::attach_thread(pod::ThreadContext& ctx)
{
    PerThread& pt = threads_[ctx.tid()];
    pt.state = ThreadState{};
    huge_.rebuild_thread_state(ctx, pt.state);
    pt.attached = true;
}

ThreadState&
CxlAllocator::state_of(pod::ThreadContext& ctx)
{
    PerThread& pt = threads_[ctx.tid()];
    if (!pt.attached) {
        attach_thread(ctx);
    }
    return pt.state;
}

ThreadState&
CxlAllocator::thread_state(cxl::ThreadId tid)
{
    return threads_[tid].state;
}

void
CxlAllocator::set_metrics(obs::MetricsRegistry* registry)
{
    inst_ = Instruments{};
    inst_.registry = registry;
    small_.set_metrics(registry);
    large_.set_metrics(registry);
    if (registry == nullptr) {
        return;
    }
    inst_.alloc_small = registry->counter("alloc.small");
    inst_.alloc_large = registry->counter("alloc.large");
    inst_.alloc_huge = registry->counter("alloc.huge");
    inst_.alloc_failures = registry->counter("alloc.failures");
    inst_.frees[kLocal] = registry->counter("alloc.free_local");
    inst_.frees[kRemote] = registry->counter("alloc.free_remote");
    inst_.frees[kHuge] = registry->counter("alloc.free_huge");
    inst_.free_batches = registry->counter("alloc.free_batches");
    inst_.free_batch_ns = registry->histogram("alloc.free_batch_ns");
    inst_.recoveries = registry->counter("alloc.recoveries");
    inst_.cleanups = registry->counter("alloc.cleanup_passes");
    inst_.alloc_ns = registry->histogram("alloc.alloc_ns");
    inst_.free_ns = registry->histogram("alloc.free_ns");
    inst_.remote_free_ns = registry->histogram("alloc.remote_free_ns");
    inst_.op_alloc = registry->op("alloc");
    inst_.op_free = registry->op("free");
}

cxl::HeapOffset
CxlAllocator::allocate_impl(pod::ThreadContext& ctx, std::uint64_t size)
{
    CXL_ASSERT(size > 0, "zero-size allocation");
    ThreadState& ts = state_of(ctx);
    if (size <= kSmallMax) {
        return small_.allocate(ctx, ts, size);
    }
    if (size <= kLargeMax) {
        return large_.allocate(ctx, ts, size);
    }
    return huge_.allocate(ctx, ts, size);
}

cxl::HeapOffset
CxlAllocator::allocate(pod::ThreadContext& ctx, std::uint64_t size)
{
    if (inst_.registry == nullptr) {
        return allocate_impl(ctx, size);
    }
    std::uint64_t t0 = obs::now_ns();
    cxl::HeapOffset off = allocate_impl(ctx, size);
    std::uint64_t dt = obs::now_ns() - t0;
    obs::MetricsShard& sh = inst_.registry->shard(ctx.tid());
    sh.add(size <= kSmallMax
               ? inst_.alloc_small
               : (size <= kLargeMax ? inst_.alloc_large : inst_.alloc_huge));
    if (off == 0) {
        sh.add(inst_.alloc_failures);
    }
    sh.record(inst_.alloc_ns, dt);
    sh.trace().push({inst_.op_alloc, ctx.tid(), t0, dt, size});
    return off;
}

CxlAllocator::FreeKind
CxlAllocator::free_one(pod::ThreadContext& ctx, cxl::HeapOffset offset)
{
    CXL_ASSERT(offset != 0, "freeing null offset");
    ThreadState& ts = state_of(ctx);
    if (small_.contains(offset) || large_.contains(offset)) {
        SlabHeap& heap = small_.contains(offset) ? small_ : large_;
        return heap.deallocate(ctx, ts, offset) ? kRemote : kLocal;
    }
    CXL_FATAL_IF(!huge_.contains(offset),
                 "free of offset outside any heap region");
    huge_.deallocate(ctx, ts, offset);
    return kHuge;
}

void
CxlAllocator::deallocate(pod::ThreadContext& ctx, cxl::HeapOffset offset)
{
    std::uint64_t t0 = inst_.registry != nullptr ? obs::now_ns() : 0;
    FreeKind kind = free_one(ctx, offset);
    if (inst_.registry == nullptr) {
        return;
    }
    std::uint64_t dt = obs::now_ns() - t0;
    obs::MetricsShard& sh = inst_.registry->shard(ctx.tid());
    sh.add(inst_.frees[kind]);
    sh.record(kind == kRemote ? inst_.remote_free_ns : inst_.free_ns, dt);
    sh.trace().push({inst_.op_free, ctx.tid(), t0, dt, offset});
}

void
CxlAllocator::deallocate_batch(pod::ThreadContext& ctx,
                               const cxl::HeapOffset* offsets,
                               std::uint32_t n)
{
    CxlAllocator* self = this;
    free_batch(ctx, &self, 1, offsets, n);
}

void
CxlAllocator::free_batch(pod::ThreadContext& ctx,
                         CxlAllocator* const* shards,
                         std::uint32_t shard_count,
                         const cxl::HeapOffset* offsets, std::uint32_t n)
{
    constexpr std::uint32_t kSlots = cxl::kNmpRingSlots;
    // Offsets in play per round: two rings' worth, so a round can pass
    // over duplicates and serial frees and still fill the ring. It bounds
    // the serial drain and the carry-over too.
    constexpr std::uint32_t kWindow = 2 * kSlots;
    cxl::MemSession& mem = ctx.mem();
    auto shard_of = [&](cxl::HeapOffset off) -> std::uint32_t {
        return shard_count == 1 ? 0 : mem.device()->device_of(off);
    };
    // Coherent CAS costs no device round trip: nothing to amortize.
    bool nmp = mem.device()->mode() == cxl::CoherenceMode::NoHwcc;
    CxlAllocator* any = nullptr;
    std::uint64_t t0 = obs::now_ns();
    std::uint64_t kinds[3] = {0, 0, 0};
    cxl::HeapOffset pending[kWindow];
    std::uint32_t n_pending = 0;
    std::uint32_t next = 0;
    cxl::McasBackoff backoff;
    while (n_pending > 0 || next < n) {
        for (; n_pending < kWindow && next < n; next++) {
            CXL_ASSERT(offsets[next] != 0, "freeing null offset");
            if (CxlAllocator* h = shards[shard_of(offsets[next])]) {
                any = h;
                pending[n_pending++] = offsets[next];
            }
        }
        cxl::HeapOffset serial[kWindow], carry[kWindow], staged_off[kSlots];
        cxl::McasOperand staged[kSlots];
        // Per shard: the round's operand count and last version there.
        OpRecord rec[cxl::kMaxDevices] = {};
        std::uint32_t n_serial = 0, n_carry = 0, n_staged = 0;
        for (std::uint32_t i = 0; i < n_pending; i++) {
            cxl::HeapOffset off = pending[i];
            std::uint32_t d = shard_of(off);
            CxlAllocator& h = *shards[d];
            SlabHeap* heap = h.small_.contains(off)   ? &h.small_
                             : h.large_.contains(off) ? &h.large_
                                                      : nullptr;
            ThreadState& ts = h.state_of(ctx);
            SlabHeap::Stage st =
                !nmp || heap == nullptr ? SlabHeap::Stage::Serial
                : n_staged == kSlots    ? SlabHeap::Stage::Busy
                    : heap->stage_free(mem, ts, off, staged, n_staged);
            if (st == SlabHeap::Stage::Serial) {
                serial[n_serial++] = off;
            } else if (st == SlabHeap::Stage::Busy) {
                carry[n_carry++] = off;
            } else {
                staged_off[n_staged++] = off;
                rec[d].aux++;
                rec[d].version = ts.version;
            }
        }
        if (n_staged > 0) {
            // Post only after the scan: stage() records help through the
            // serial mCAS path, which requires an empty ring.
            for (std::uint32_t k = 0; k < n_staged; k++) {
                bool posted = mem.mcas_post(staged[k]);
                CXL_ASSERT(posted, "ring rejected a ring-bounded batch");
            }
            ctx.maybe_crash(crashpoint::kMidBatchStage);
            // Every touched shard's row names its part of the round; the
            // rows become durable under one fence, before the doorbell.
            for (std::uint32_t d = 0; d < shard_count; d++) {
                if (rec[d].aux != 0) {
                    rec[d].op = Op::FreeRemoteBatch;
                    shards[d]->log_.log(mem, rec[d], /*fence=*/false);
                }
            }
            if (any->log_.enabled()) {
                mem.fence();
            }
            ctx.maybe_crash(crashpoint::kMidBatchDoorbell);
            mem.mcas_doorbell();
            ctx.maybe_crash(crashpoint::kMidBatchDrain);
            bool conflicted = false;
            for (std::uint32_t k = 0; k < n_staged; k++) {
                cxl::McasResult r;
                bool polled = mem.mcas_poll(&r);
                CXL_ASSERT(polled, "doorbell executed fewer ops than staged");
                if (r.success) {
                    kinds[kRemote]++;
                } else {
                    conflicted |= r.conflict;
                    carry[n_carry++] = staged_off[k];
                }
            }
            if (conflicted) {
                mem.charge(backoff.next_ns());
            } else {
                backoff.reset();
            }
        }
        for (std::uint32_t i = 0; i < n_serial; i++) {
            kinds[shards[shard_of(serial[i])]->free_one(ctx, serial[i])]++;
        }
        std::copy(carry, carry + n_carry, pending);
        n_pending = n_carry;
    }
    if (any == nullptr || any->inst_.registry == nullptr) {
        return;
    }
    const Instruments& in = any->inst_;
    obs::MetricsShard& sh = in.registry->shard(ctx.tid());
    sh.add(in.free_batches);
    for (int kind : {kLocal, kRemote, kHuge}) {
        sh.add(in.frees[kind], kinds[kind]);
    }
    sh.record(in.free_batch_ns, obs::now_ns() - t0);
}

void
CxlAllocator::recover(pod::ThreadContext& ctx)
{
    cxl::NmpSlotView ring[cxl::kNmpRingSlots];
    cxl::Nmp& nmp = pod_.nmp();
    std::uint32_t live =
        nmp.ring_snapshot(ctx.tid(), ring, cxl::kNmpRingSlots);
    nmp.reset_ring(ctx.tid());
    recover(ctx, ring, live);
}

void
CxlAllocator::recover(pod::ThreadContext& ctx, const cxl::NmpSlotView* ring,
                      std::uint32_t ring_size)
{
    cxl::MemSession& mem = ctx.mem();
    PerThread& pt = threads_[ctx.tid()];
    pt.state = ThreadState{};

    OpRecord record = log_.read(mem, ctx.tid());
    // Resume the version counter past the interrupted operation so no
    // future CAS reuses its tag, and past every operand the thread staged
    // into this window. The ring holds this shard's part of a batch round
    // iff one of those operands carries the record's version: the last one
    // the round took here. A stale record of an earlier, completed round
    // names an older version; a round that crashed before logging rang no
    // doorbell. Neither has anything to redo.
    pt.state.version = (record.version + 1) & cxlsync::kVersionMask;
    auto here = [&](const cxl::NmpSlotView& v) {
        return v.op.target >= layout_.base() && v.op.target < layout_.end();
    };
    bool logged = false;
    for (std::uint32_t i = 0; i < ring_size; i++) {
        std::uint16_t v = cxlsync::DcasWord::version(ring[i].op.swap);
        if (here(ring[i])) {
            logged |= record.op == Op::FreeRemoteBatch && v == record.version;
            if (cxlsync::version_geq(v, pt.state.version)) {
                pt.state.version = v;
            }
        }
    }
    // Huge-heap volatile state must exist before huge redo logic runs.
    huge_.rebuild_thread_state(ctx, pt.state);
    pt.attached = true;

    switch (record.op) {
      case Op::None:
        break;
      case Op::CellPublish:
        // A cell publish has no heap effect to redo; the record's only
        // job — resuming the version counter past the CAS — happened
        // above. Whether the CAS landed is the publisher's protocol
        // question (dcas().did_succeed with the recorded version).
        break;
      case Op::FreeRemoteBatch:
        for (std::uint32_t i = 0; logged && i < ring_size; i++) {
            const cxl::NmpSlotView& v = ring[i];
            CXL_ASSERT(cxlsync::DcasWord::tid(v.op.swap) == mem.tid(),
                       "foreign operand in adopted ring");
            // Each slot's own state says whether it landed: did_succeed
            // cannot, since a foreign CAS displacing a LATER operand's tag
            // moves help[t] past earlier operands' versions. A landed
            // operand left a counter >= 1, so no steal is left to finish.
            if (!here(v) || (v.state == cxl::NmpSlotState::Executed &&
                             v.result.success)) {
                continue;
            }
            bool redone = small_.redo_decrement(ctx, pt.state, v.op.target) ||
                          large_.redo_decrement(ctx, pt.state, v.op.target);
            CXL_ASSERT(redone, "batched operand outside the counter region");
        }
        break;
      case Op::HugeReserve:
      case Op::HugeAlloc:
      case Op::HugeFree:
        huge_.recover(ctx, pt.state, record);
        // Ownership may have changed during redo: rebuild once more.
        huge_.rebuild_thread_state(ctx, pt.state);
        break;
      default: {
        // Only the record's own operation can have been inside a list
        // operation, so only its heap's lists can be out of step.
        SlabHeap& heap = record.large_heap ? large_ : small_;
        heap.repair_local_lists(mem);
        heap.recover(ctx, pt.state, record);
        break;
      }
    }
    log_.clear(mem);
    if (inst_.registry != nullptr) {
        inst_.registry->shard(ctx.tid()).add(inst_.recoveries);
    }
}

OpRecord
CxlAllocator::pending_record(pod::ThreadContext& ctx)
{
    return log_.read(ctx.mem(), ctx.tid());
}

void
CxlAllocator::quiesce_record(pod::ThreadContext& ctx)
{
    log_.clear(ctx.mem());
}

std::uint16_t
CxlAllocator::log_cell_publish(pod::ThreadContext& ctx)
{
    std::uint16_t version = state_of(ctx).next_version();
    OpRecord rec;
    rec.op = Op::CellPublish;
    rec.version = version;
    log_.log(ctx.mem(), rec);
    return version;
}

cxlsync::DetectableCas::Result
CxlAllocator::cell_publish(pod::ThreadContext& ctx, cxl::HeapOffset cell,
                           std::uint32_t expected, std::uint32_t desired)
{
    std::uint16_t version = log_cell_publish(ctx);
    return dcas_.try_cas(ctx.mem(), cell, expected, desired, version);
}

cxl::HeapOffset
CxlAllocator::record_block_offset(cxl::MemSession& mem,
                                  const OpRecord& record)
{
    SlabHeap& heap = record.large_heap ? large_ : small_;
    std::uint8_t biased = heap.debug_class_biased(mem, record.index);
    CXL_ASSERT(biased != 0, "record names a classless slab");
    std::uint32_t cls = biased - 1;
    std::uint64_t block_size = record.large_heap ? large_class_size(cls)
                                                 : small_class_size(cls);
    return heap.slab_data(record.index) +
           static_cast<cxl::HeapOffset>(record.aux) * block_size;
}

void
CxlAllocator::cleanup(pod::ThreadContext& ctx)
{
    huge_.cleanup(ctx, state_of(ctx));
    if (inst_.registry != nullptr) {
        inst_.registry->shard(ctx.tid()).add(inst_.cleanups);
    }
}

bool
CxlAllocator::resolve_fault(pod::Process& process, cxl::MemSession& mem,
                            cxl::HeapOffset offset, pod::MappedRange* out)
{
    if (small_.resolve(mem, offset, out)) {
        return true;
    }
    if (large_.resolve(mem, offset, out)) {
        return true;
    }
    return huge_.resolve(process, mem, offset, out);
}

void
CxlAllocator::check_invariants(cxl::MemSession& mem)
{
    small_.check_global_invariants(mem);
    large_.check_global_invariants(mem);
    huge_.check_invariants(mem);
}

void
CxlAllocator::check_local_invariants(cxl::MemSession& mem)
{
    small_.check_local_invariants(mem);
    large_.check_local_invariants(mem);
}

CxlAllocator::Stats
CxlAllocator::stats(cxl::MemSession& mem)
{
    Stats s;
    s.small = small_.stats(mem);
    s.large = large_.stats(mem);
    s.huge = huge_.stats(mem);
    s.hwcc_bytes = layout_.hwcc_bytes();
    s.committed_bytes = pod_.device().committed_bytes();
    return s;
}

} // namespace cxlalloc
