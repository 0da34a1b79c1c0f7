/// @file
/// Injection-point registry: one id space for every place a test or sweep
/// can inject a failure.
///
/// Three kinds of point share it:
///  - Crash: a protocol step where a thread can die (paper §5.1). The
///    allocator, the migrator and the memento apps define them and fire
///    them through pod::ThreadContext::maybe_crash.
///  - Fault: an infrastructure failure the pod must survive (edge down or
///    flap, NMP stall or delay, host kill); see pod/faults.h.
///  - Defect: a deliberately broken protocol variant. Each disables one
///    proven-necessary step so the schedule explorer's oracles can be
///    shown to catch it; the point holds a pointer to its switch.
///
/// Ids are plain ints so this header stays at the bottom of the layer
/// stack. Registration is idempotent; registering an id again under a
/// different name or kind aborts, so no two points can share an id. By
/// convention crash points take 1-49 and 100+, fault points 50-69 and
/// defect points 70-99. Crash and fault firings both reach sched::hook
/// as hook(Op::CrashPoint, 0, id).

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cxlcommon {

using PointId = int;

enum class PointKind : std::uint8_t { Crash, Fault, Defect };

/// "crash", "fault" or "defect".
const char* to_string(PointKind kind);

struct PointInfo {
    PointId id = 0;
    PointKind kind = PointKind::Crash;
    /// Stable dotted name, e.g. "slab.mid_push_global".
    std::string name;
    /// Human-readable site, e.g. "SlabHeap::push_global_one".
    std::string site;
    /// Defect points: the switch this point arms. Null otherwise.
    bool* flag = nullptr;
};

/// Process-wide registry. find() results stay valid across add().
class PointRegistry {
  public:
    static PointRegistry& instance();

    void add(PointId id, PointKind kind, std::string_view name,
             std::string_view site, bool* flag = nullptr);

    /// Null if the id was never registered.
    const PointInfo* find(PointId id) const;

    /// Null if no point has this name.
    const PointInfo* find_name(std::string_view name) const;

    /// Every registered point of @p kind (of every kind when empty),
    /// sorted by id.
    std::vector<PointInfo> all(std::optional<PointKind> kind = {}) const;

    /// Turns every defect switch off.
    void disarm_all();

  private:
    PointRegistry();

    mutable std::mutex mu_;
    std::map<PointId, PointInfo> points_; ///< node-based: stable find()
};

/// Registered name of @p id, or "point:<id>" for unknown ids.
std::string point_name(PointId id);

/// Defect switches. All default to off and nothing outside tests sets
/// them; they are plain bools read with one load at their sites, because
/// explored schedules are fully serialized and real-thread tests never
/// touch them. Registered by the PointRegistry constructor.
namespace defect {

/// SlabHeap::push_global_one: skip the descriptor flush before the CAS
/// that publishes the slab onto the global free list (paper §3.2 case
/// "free slab publication"). Under a Host-severity crash the consumer can
/// then pop a descriptor whose payload never reached the device.
inline constexpr PointId kSkipSwccPublishFlush = 70;
extern bool skip_swcc_publish_flush;

/// HazardOffsets::try_publish: skip the flush + fence after writing the
/// hazard slot. A reclaimer's scan can then miss the publication and
/// reclaim the block while the reader still dereferences it.
inline constexpr PointId kSkipHazardPublishFlush = 71;
extern bool skip_hazard_publish_flush;

/// RecoveryLog::log: defer the record's flush + fence as if the op were a
/// local one (the deferred-record discipline applied where it is NOT
/// sound — before a detectable CAS). The RecordFlushOracle must catch the
/// dirty record row at the DcasTry hook.
inline constexpr PointId kSkipRecordPublishFlush = 72;
extern bool skip_record_publish_flush;

/// MemSession::note_dirty: drop dirty-line bookkeeping, modeling an
/// undertracking bug — flush_dirty() then misses genuinely dirty lines
/// and the flush-before-publish oracle / litmus suite must catch the
/// stale publication.
inline constexpr PointId kSkipDirtyLineTracking = 73;
extern bool skip_dirty_line_tracking;

/// HazardOffsets::try_publish: skip raising the row-bound word before
/// writing the hazard slot. A reclaimer's snapshot then stops below the
/// publisher's row and can reclaim a block the reader still dereferences.
inline constexpr PointId kSkipHazardRowRaise = 74;
extern bool skip_hazard_row_raise;

} // namespace defect

/// Arms one defect point for the enclosing scope. The destructor disarms
/// every defect, so a failing test cannot poison its neighbours.
class ScopedArm {
  public:
    explicit ScopedArm(PointId defect);
    ~ScopedArm() { PointRegistry::instance().disarm_all(); }

    ScopedArm(const ScopedArm&) = delete;
    ScopedArm& operator=(const ScopedArm&) = delete;
};

} // namespace cxlcommon
