/// @file
/// A Memento-style detectably-recoverable hash map (paper Fig. 7, [18]):
/// the lock-free index plus a per-thread application redo record so that a
/// crashed thread's in-flight insert or remove can be finished on recovery
/// without leaking the node.

#pragma once

#include <cstdint>

#include "kv/hash_table.h"
#include "pod/thread_context.h"

namespace memento {

namespace mcrash {
inline constexpr int kMapAfterAlloc = 110;
inline constexpr int kMapAfterRecord = 111;
inline constexpr int kMapAfterLink = 112;
} // namespace mcrash

/// Registers the map's crash points with cxlcommon::PointRegistry
/// (idempotent; also called by the RecoverableMap constructor).
void register_map_crash_points();

class RecoverableMap {
  public:
    /// Metadata footprint: per-thread 16 B records.
    static std::uint64_t
    meta_size()
    {
        return (cxl::kMaxThreads + 1) * 16;
    }

    /// @param meta     zeroed device area of meta_size() bytes;
    /// @param buckets  zeroed device area of kv::HashTable::footprint(n).
    RecoverableMap(pod::Pod& pod, cxl::HeapOffset meta,
                   cxl::HeapOffset buckets, std::uint64_t num_buckets,
                   baselines::PodAllocator* alloc);

    /// Inserts key @p id with a @p vlen-byte value; detectably recoverable.
    bool insert(pod::ThreadContext& ctx, std::uint64_t id,
                std::uint32_t vlen);

    /// Removes key @p id.
    bool remove(pod::ThreadContext& ctx, std::uint64_t id);

    bool contains(pod::ThreadContext& ctx, std::uint64_t id);

    /// Recovers the crashed slot @p ctx adopted (run after the allocator's
    /// own recovery).
    void recover(pod::ThreadContext& ctx);

    kv::HashTable& table() { return table_; }

    /// Live node walk (GC roots for ralloc-style recovery).
    template <typename F>
    void
    for_each_node(F&& visit)
    {
        table_.for_each_node(visit);
    }

    void clear(pod::ThreadContext& ctx) { table_.clear(ctx); }

  private:
    enum class MOp : std::uint8_t { None = 0, Insert = 1, Remove = 2 };

    cxl::HeapOffset record_off(cxl::ThreadId tid) const;
    void write_record(cxl::MemSession& mem, MOp op, std::uint64_t id);

    pod::Pod& pod_;
    cxl::HeapOffset meta_;
    kv::HashTable table_;
    baselines::PodAllocator* alloc_;
};

} // namespace memento
