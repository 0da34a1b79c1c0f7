/// @file
/// The injection-point registry: one id space for crash, fault and defect
/// points — idempotent registration, kind conflicts that abort, lookups
/// filtered by kind, and the defect switches with scoped arming.

#include "common/points.h"

#include <gtest/gtest.h>

namespace {

using cxlcommon::PointInfo;
using cxlcommon::PointKind;
using cxlcommon::PointRegistry;
using cxlcommon::ScopedArm;
namespace defect = cxlcommon::defect;

bool
any_defect_armed()
{
    return defect::skip_swcc_publish_flush ||
           defect::skip_hazard_publish_flush ||
           defect::skip_record_publish_flush ||
           defect::skip_dirty_line_tracking ||
           defect::skip_hazard_row_raise;
}

TEST(PointRegistry, RegistersEveryDefectSwitchUpFront)
{
    std::vector<PointInfo> defects =
        PointRegistry::instance().all(PointKind::Defect);
    ASSERT_EQ(defects.size(), 5u);
    for (const PointInfo& info : defects) {
        EXPECT_EQ(info.name.rfind("defect.", 0), 0u) << info.name;
        EXPECT_FALSE(info.site.empty()) << info.name;
        ASSERT_NE(info.flag, nullptr) << info.name;
        EXPECT_FALSE(*info.flag) << info.name;
    }
    const PointInfo* swcc =
        PointRegistry::instance().find(defect::kSkipSwccPublishFlush);
    ASSERT_NE(swcc, nullptr);
    EXPECT_EQ(swcc->flag, &defect::skip_swcc_publish_flush);
    EXPECT_EQ(PointRegistry::instance().find_name(
                  "defect.skip_dirty_line_tracking")
                  ->id,
              defect::kSkipDirtyLineTracking);
}

TEST(PointRegistry, ScopedArmSetsOneSwitchAndDisarmsAllOnExit)
{
    {
        ScopedArm arm(defect::kSkipHazardPublishFlush);
        EXPECT_TRUE(defect::skip_hazard_publish_flush);
        EXPECT_FALSE(defect::skip_swcc_publish_flush);
        EXPECT_FALSE(defect::skip_record_publish_flush);
        EXPECT_FALSE(defect::skip_dirty_line_tracking);
        // A switch flipped by hand inside the scope is reset too.
        defect::skip_record_publish_flush = true;
    }
    EXPECT_FALSE(any_defect_armed());

    defect::skip_dirty_line_tracking = true;
    PointRegistry::instance().disarm_all();
    EXPECT_FALSE(any_defect_armed());
}

TEST(PointRegistry, AllFiltersByKindAndStaysSortedById)
{
    PointRegistry& reg = PointRegistry::instance();
    reg.add(900, PointKind::Crash, "test.crash", "PointRegistryTest");
    reg.add(900, PointKind::Crash, "test.crash", "PointRegistryTest");
    reg.add(60, PointKind::Fault, "test.fault", "PointRegistryTest");

    std::vector<PointInfo> crash = reg.all(PointKind::Crash);
    ASSERT_EQ(crash.size(), 1u);
    EXPECT_EQ(crash[0].id, 900);
    EXPECT_EQ(crash[0].flag, nullptr);
    std::vector<PointInfo> fault = reg.all(PointKind::Fault);
    ASSERT_EQ(fault.size(), 1u);
    EXPECT_EQ(fault[0].name, "test.fault");

    std::vector<PointInfo> all = reg.all();
    EXPECT_EQ(all.size(), 7u);
    for (std::size_t i = 1; i < all.size(); i++) {
        EXPECT_LT(all[i - 1].id, all[i].id);
    }
    EXPECT_EQ(cxlcommon::point_name(900), "test.crash");
    EXPECT_EQ(cxlcommon::point_name(901), "point:901");
    EXPECT_STREQ(cxlcommon::to_string(PointKind::Defect), "defect");
}

TEST(PointRegistryDeathTest, ReRegistrationUnderAnotherKindDies)
{
    EXPECT_DEATH(PointRegistry::instance().add(
                     defect::kSkipSwccPublishFlush, PointKind::Crash,
                     "defect.skip_swcc_publish_flush", "elsewhere"),
                 "different kinds");
}

TEST(PointRegistryDeathTest, ScopedArmRejectsPointsOfAnotherKind)
{
    // Registered only inside the death-test child, so the other tests
    // see an unchanged registry.
    EXPECT_DEATH(
        {
            PointRegistry::instance().add(902, PointKind::Crash,
                                          "test.not_defect", "here");
            ScopedArm arm(902);
        },
        "not a defect point");
    EXPECT_DEATH(ScopedArm arm(903), "not a defect point");
}

} // namespace
