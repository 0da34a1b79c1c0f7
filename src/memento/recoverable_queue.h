/// @file
/// A Memento-style detectably-recoverable queue (paper Fig. 7, [18]).
///
/// Memento composes data structures from detectable primitives so that a
/// crashed thread's in-flight operation can be completed (or observed as
/// complete) on recovery. This reproduction uses one detectable CAS per
/// operation on the queue head plus a per-thread 16-byte application redo
/// record — the same recoverability contract, over any PodAllocator.
///
/// Service order is LIFO (a Treiber structure): Fig. 7 measures allocation
/// churn and recovery behaviour, both independent of FIFO-vs-LIFO order;
/// the single-CAS detectable publication step is what matters.

#pragma once

#include <cstdint>

#include "baselines/pod_allocator.h"
#include "pod/pod.h"
#include "pod/thread_context.h"
#include "sync/detectable_cas.h"

namespace memento {

/// Application-level crash points (distinct from the allocator's).
namespace qcrash {
inline constexpr int kAfterAlloc = 100;  ///< object allocated, not recorded
inline constexpr int kAfterRecord = 101; ///< record written, not linked
inline constexpr int kAfterLink = 102;   ///< linked, op record still open
inline constexpr int kAfterUnlink = 103; ///< popped, object not yet freed
} // namespace qcrash

/// Registers the queue's crash points with cxlcommon::PointRegistry
/// (idempotent; also called by the RecoverableQueue constructor).
void register_queue_crash_points();

class RecoverableQueue {
  public:
    /// Shared metadata footprint: head word + detectable-CAS help array +
    /// per-thread records.
    static std::uint64_t meta_size();

    /// @param meta  device offset (inside the sync region) of a zeroed
    ///              area of meta_size() bytes.
    RecoverableQueue(pod::Pod& pod, cxl::HeapOffset meta,
                     baselines::PodAllocator* alloc);

    /// Allocates an object of @p size, fills it with @p fill, and
    /// detectably publishes it. Returns false on allocation failure.
    bool push(pod::ThreadContext& ctx, std::uint64_t size,
              unsigned char fill);

    /// Pops one object and frees it; false if empty.
    bool pop(pod::ThreadContext& ctx);

    /// Recovers the crashed slot @p ctx adopted: finishes or re-executes
    /// its in-flight queue operation (and the object free a crashed pop
    /// left behind). Call AFTER the allocator's own recovery.
    void recover(pod::ThreadContext& ctx);

    /// Quiescent walk of the queue's live objects (GC roots for
    /// ralloc-style recovery).
    template <typename F>
    void
    for_each(pod::ThreadContext& ctx, F&& visit)
    {
        std::uint64_t node = dcas_.read(ctx.mem(), head_) * 8ULL;
        while (node != 0) {
            visit(static_cast<cxl::HeapOffset>(node));
            node = ctx.mem().load<std::uint64_t>(node);
        }
    }

    /// Pops and frees everything (teardown).
    void drain(pod::ThreadContext& ctx);

    std::uint64_t approximate_size(pod::ThreadContext& ctx);

  private:
    enum class QOp : std::uint8_t { None = 0, Push = 1, Pop = 2 };

    cxl::HeapOffset record_off(cxl::ThreadId tid) const;
    void write_record(cxl::MemSession& mem, QOp op, std::uint16_t version,
                      std::uint64_t node);

    pod::Pod& pod_;
    cxl::HeapOffset head_;    ///< detectable-CAS word (value = offset / 8)
    cxl::HeapOffset records_; ///< per-thread 16 B app records
    baselines::PodAllocator* alloc_;
    cxlsync::DetectableCas dcas_;
    /// Volatile per-thread version counters (restored from records).
    std::uint16_t versions_[cxl::kMaxThreads + 1] = {};
};

} // namespace memento
