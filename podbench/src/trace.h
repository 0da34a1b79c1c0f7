/// @file
/// In-memory span tracing around calls into the system's public functions.
///
/// A span is {name, start, end, parent, op_id} plus the modeled time
/// (MemSession::sim_ns delta) its session was charged while it was open.
/// Spans are recorded only by the benchmark's own code — around KvStore,
/// PodShardedAllocator (through TracedAllocator), HotSlabMigrator,
/// LivenessDetector and detectable-CAS cell publishes — so tracing sits
/// entirely outside the modeled system: a traced run must produce the
/// same modeled numbers as an untraced one (the benchmark checks it).
/// Spans stay in memory and are written out when the run ends.

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "cxl/mem_ops.h"

namespace podbench {

/// Every span the benchmark records. Names follow the modules.
enum class SpanName : std::uint8_t {
    KvInsert,
    KvGet,
    KvRemove,
    AllocSmallAllocate,
    AllocSmallDeallocate,
    AllocLargeAllocate,
    AllocLargeDeallocate,
    AllocHugeAllocate,
    AllocHugeDeallocate,
    AllocDeallocateBatch,
    AllocCleanup,
    RecoveryRecover,
    MigrateRunEpoch,
    SyncCellPublish,
    LivenessBeat,
    LivenessPoll,
    StoreRead,
    StoreReplace,
    kCount,
};

inline constexpr std::size_t kSpanNames =
    static_cast<std::size_t>(SpanName::kCount);

/// Dotted metric prefix of a span name ("kv.insert", "alloc.small.allocate").
const char* span_label(SpanName name);

struct Span {
    std::uint64_t start_ns = 0; ///< host steady-clock ns since tracer start
    std::uint64_t end_ns = 0;
    std::uint64_t sim_ns = 0; ///< modeled ns charged while open
    std::uint64_t op_id = 0;  ///< shared by a top-level span and its children
    std::int32_t parent = -1; ///< index into the span list; -1 = top level
    SpanName name = SpanName::kCount;
    bool failed = false;
};

/// Per-name aggregate of a span list.
struct SpanStats {
    std::uint64_t calls = 0;
    std::uint64_t fails = 0;
    std::uint64_t sim_ns = 0;
    std::uint64_t self_host_ns = 0; ///< duration minus child coverage
    std::vector<std::uint64_t> host_ns; ///< one duration per call
};

class Tracer {
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /// Reserves room for @p spans spans and restarts the host time base.
    void start(std::size_t spans);

    /// Opens a span on a session whose modeled clock reads @p sim_now.
    /// Nested inside the innermost open span, if any; a top-level span
    /// starts a new op id. Returns the span's index.
    std::int32_t open(SpanName name, std::uint64_t sim_now);

    /// Closes span @p index (must be the innermost open span).
    void close(std::int32_t index, std::uint64_t sim_now, bool failed);

    const std::vector<Span>& spans() const { return spans_; }

    /// Writes the spans as CSV (name,start_ns,end_ns,parent,op_id,sim_ns,
    /// failed). Returns false if the file could not be written.
    bool write_csv(const std::string& path) const;

  private:
    std::uint64_t now_ns() const;

    bool enabled_;
    std::chrono::steady_clock::time_point t0_{};
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
    std::uint64_t next_op_ = 0;
};

/// RAII span around one call. A no-op when tracing is off. Closes on
/// exceptions too (a simulated crash unwinds through it), reading the
/// session's clock before the caller tears the session down.
class SpanScope {
  public:
    SpanScope(Tracer& tracer, SpanName name, const cxl::MemSession& mem)
        : tracer_(tracer), mem_(mem),
          index_(tracer.enabled() ? tracer.open(name, mem.sim_ns()) : -1)
    {
    }

    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    ~SpanScope()
    {
        if (index_ >= 0) {
            tracer_.close(index_, mem_.sim_ns(), failed_);
        }
    }

    void fail() { failed_ = true; }

  private:
    Tracer& tracer_;
    const cxl::MemSession& mem_;
    std::int32_t index_;
    bool failed_ = false;
};

/// Aggregates @p spans by name. Self time is a span's duration minus the
/// union of its direct children's intervals (clipped to the parent).
std::array<SpanStats, kSpanNames> aggregate(const std::vector<Span>& spans);

/// Sum of the modeled time of the top-level spans.
std::uint64_t top_level_sim_ns(const std::vector<Span>& spans);

} // namespace podbench
