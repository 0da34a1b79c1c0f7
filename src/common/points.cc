#include "common/points.h"

#include "common/assert.h"

namespace cxlcommon {

namespace defect {
bool skip_swcc_publish_flush = false;
bool skip_hazard_publish_flush = false;
bool skip_record_publish_flush = false;
bool skip_dirty_line_tracking = false;
bool skip_hazard_row_raise = false;
} // namespace defect

const char*
to_string(PointKind kind)
{
    switch (kind) {
    case PointKind::Crash: return "crash";
    case PointKind::Fault: return "fault";
    case PointKind::Defect: return "defect";
    }
    return "?";
}

PointRegistry::PointRegistry()
{
    using namespace defect;
    add(kSkipSwccPublishFlush, PointKind::Defect,
        "defect.skip_swcc_publish_flush", "SlabHeap::push_global_one",
        &skip_swcc_publish_flush);
    add(kSkipHazardPublishFlush, PointKind::Defect,
        "defect.skip_hazard_publish_flush", "HazardOffsets::try_publish",
        &skip_hazard_publish_flush);
    add(kSkipRecordPublishFlush, PointKind::Defect,
        "defect.skip_record_publish_flush", "RecoveryLog::log",
        &skip_record_publish_flush);
    add(kSkipDirtyLineTracking, PointKind::Defect,
        "defect.skip_dirty_line_tracking", "MemSession::note_dirty",
        &skip_dirty_line_tracking);
    add(kSkipHazardRowRaise, PointKind::Defect,
        "defect.skip_hazard_row_raise", "HazardOffsets::try_publish",
        &skip_hazard_row_raise);
}

PointRegistry&
PointRegistry::instance()
{
    static PointRegistry registry;
    return registry;
}

void
PointRegistry::add(PointId id, PointKind kind, std::string_view name,
                   std::string_view site, bool* flag)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = points_.try_emplace(
        id, PointInfo{id, kind, std::string(name), std::string(site), flag});
    if (!inserted && it->second.name != name) {
        CXL_PANIC("point id registered twice with different names");
    }
    if (!inserted && it->second.kind != kind) {
        CXL_PANIC("point id registered twice with different kinds");
    }
}

const PointInfo*
PointRegistry::find(PointId id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = points_.find(id);
    return it != points_.end() ? &it->second : nullptr;
}

const PointInfo*
PointRegistry::find_name(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, info] : points_)
        if (info.name == name)
            return &info;
    return nullptr;
}

std::vector<PointInfo>
PointRegistry::all(std::optional<PointKind> kind) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<PointInfo> out;
    for (const auto& [id, info] : points_)
        if (!kind || info.kind == *kind)
            out.push_back(info);
    return out;
}

void
PointRegistry::disarm_all()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, info] : points_)
        if (info.flag != nullptr)
            *info.flag = false;
}

std::string
point_name(PointId id)
{
    const PointInfo* info = PointRegistry::instance().find(id);
    return info != nullptr ? info->name : "point:" + std::to_string(id);
}

ScopedArm::ScopedArm(PointId defect)
{
    const PointInfo* info = PointRegistry::instance().find(defect);
    if (info == nullptr || info->kind != PointKind::Defect) {
        CXL_PANIC("ScopedArm: not a defect point");
    }
    *info->flag = true;
}

} // namespace cxlcommon
