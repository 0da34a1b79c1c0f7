#include "sync/detectable_cas.h"

#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "cxl/device.h"
#include "cxl/nmp.h"
#include "pod/pod.h"

namespace {

using cxl::CoherenceMode;
using cxl::Device;
using cxl::DeviceConfig;
using cxl::MemSession;
using cxl::Nmp;
using cxlsync::DcasWord;
using cxlsync::DetectableCas;
using cxlsync::kSelfHelpSlack;
using cxlsync::kVersionMask;

constexpr cxl::HeapOffset kHelpBase = 0;
constexpr cxl::HeapOffset kWord = 8 * (cxl::kMaxThreads + 2);

struct Rig {
    explicit Rig(CoherenceMode mode = CoherenceMode::PartialHwcc)
        : dev(DeviceConfig{.size = 1 << 20,
                           .mode = mode,
                           .sync_region_size = 64 << 10}),
          nmp(&dev), dcas(kHelpBase)
    {
    }

    MemSession
    session(cxl::ThreadId tid)
    {
        return MemSession(&dev, &nmp, tid);
    }

    Device dev;
    Nmp nmp;
    DetectableCas dcas;
};

TEST(DcasWord, PackUnpackRoundTrip)
{
    std::uint64_t w = DcasWord::pack(0xdeadbeef, 17, 42);
    EXPECT_EQ(DcasWord::value(w), 0xdeadbeefu);
    EXPECT_EQ(DcasWord::tid(w), 17);
    EXPECT_EQ(DcasWord::version(w), 42);
}

TEST(DcasWord, ZeroWordIsUnowned)
{
    EXPECT_EQ(DcasWord::value(0), 0u);
    EXPECT_EQ(DcasWord::tid(0), cxl::kNoThread);
}

TEST(VersionGeq, WrapAware)
{
    EXPECT_TRUE(cxlsync::version_geq(5, 5));
    EXPECT_TRUE(cxlsync::version_geq(6, 5));
    EXPECT_FALSE(cxlsync::version_geq(5, 6));
    // Wraparound in the 15-bit circular space: 2 is "after" 32766.
    EXPECT_TRUE(cxlsync::version_geq(2, 32766));
    EXPECT_FALSE(cxlsync::version_geq(32766, 2));
}

TEST(DetectableCas, SuccessfulCasVisibleViaRead)
{
    Rig rig;
    MemSession s = rig.session(1);
    auto r = rig.dcas.try_cas(s, kWord, 0, 123, /*version=*/1);
    EXPECT_TRUE(r.success);
    EXPECT_EQ(rig.dcas.read(s, kWord), 123u);
}

TEST(DetectableCas, FailureReturnsObservedValue)
{
    Rig rig;
    MemSession s = rig.session(1);
    ASSERT_TRUE(rig.dcas.try_cas(s, kWord, 0, 123, 1).success);
    auto r = rig.dcas.try_cas(s, kWord, 0, 55, 2);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.value(), 123u);
}

TEST(DetectableCas, RecoveryDetectsSuccessWhileTagInPlace)
{
    Rig rig;
    MemSession s = rig.session(1);
    ASSERT_TRUE(rig.dcas.try_cas(s, kWord, 0, 7, /*version=*/9).success);
    // "Crash": thread 1 asks whether its op with version 9 took effect.
    EXPECT_TRUE(rig.dcas.did_succeed(s, kWord, 9));
    // Its never-executed next op did not.
    EXPECT_FALSE(rig.dcas.did_succeed(s, kWord, 10));
}

TEST(DetectableCas, RecoveryDetectsSuccessAfterDisplacement)
{
    // The essential detectable-CAS property: thread 1's successful CAS is
    // detectable even after thread 2 overwrites the word, because thread 2
    // recorded the displaced tag in the help array.
    Rig rig;
    MemSession s1 = rig.session(1);
    MemSession s2 = rig.session(2);
    ASSERT_TRUE(rig.dcas.try_cas(s1, kWord, 0, 7, /*version=*/9).success);
    ASSERT_TRUE(rig.dcas.try_cas(s2, kWord, 7, 8, /*version=*/1).success);
    EXPECT_TRUE(rig.dcas.did_succeed(s1, kWord, 9));
}

TEST(DetectableCas, RecoveryDetectsFailure)
{
    Rig rig;
    MemSession s1 = rig.session(1);
    MemSession s2 = rig.session(2);
    // Thread 1's CAS never happened (it "crashed" before the attempt);
    // thread 2's ops must not make thread 1's query come back true.
    ASSERT_TRUE(rig.dcas.try_cas(s2, kWord, 0, 7, 1).success);
    ASSERT_TRUE(rig.dcas.try_cas(s2, kWord, 7, 9, 2).success);
    EXPECT_FALSE(rig.dcas.did_succeed(s1, kWord, 4));
}

TEST(DetectableCas, HelpArrayTracksNewestVersion)
{
    Rig rig;
    MemSession s1 = rig.session(1);
    MemSession s2 = rig.session(2);
    // Two successive successful ops by thread 1, both displaced by
    // thread 2: both must be detectable.
    ASSERT_TRUE(rig.dcas.try_cas(s1, kWord, 0, 1, 1).success);
    ASSERT_TRUE(rig.dcas.try_cas(s2, kWord, 1, 2, 1).success);
    ASSERT_TRUE(rig.dcas.try_cas(s1, kWord, 2, 3, 2).success);
    ASSERT_TRUE(rig.dcas.try_cas(s2, kWord, 3, 4, 2).success);
    EXPECT_TRUE(rig.dcas.did_succeed(s1, kWord, 1));
    EXPECT_TRUE(rig.dcas.did_succeed(s1, kWord, 2));
    EXPECT_FALSE(rig.dcas.did_succeed(s1, kWord, 3));
}

TEST(DetectableCas, WorksOverMcas)
{
    Rig rig(CoherenceMode::NoHwcc);
    MemSession s1 = rig.session(1);
    MemSession s2 = rig.session(2);
    ASSERT_TRUE(rig.dcas.try_cas(s1, kWord, 0, 7, 9).success);
    ASSERT_TRUE(rig.dcas.try_cas(s2, kWord, 7, 8, 1).success);
    EXPECT_TRUE(rig.dcas.did_succeed(s1, kWord, 9));
    EXPECT_GT(rig.nmp.total_ops(), 0u);
}

TEST(DetectableCas, ConcurrentCountedIncrements)
{
    for (CoherenceMode mode :
         {CoherenceMode::PartialHwcc, CoherenceMode::NoHwcc}) {
        Rig rig(mode);
        constexpr int kThreads = 4;
        constexpr int kOps = 300;
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; t++) {
            threads.emplace_back([&rig, t] {
                MemSession s =
                    rig.session(static_cast<cxl::ThreadId>(t + 1));
                for (std::uint16_t v = 1; v <= kOps; v++) {
                    std::uint32_t cur = rig.dcas.read(s, kWord);
                    while (true) {
                        auto r = rig.dcas.try_cas(s, kWord, cur, cur + 1, v);
                        if (r.success) {
                            break;
                        }
                        cur = r.value();
                    }
                }
            });
        }
        for (auto& th : threads) {
            th.join();
        }
        MemSession check = rig.session(kThreads + 1);
        EXPECT_EQ(rig.dcas.read(check, kWord), kThreads * kOps);
    }
}

/// Runs @p n CASes by @p s, each displacing the caller's own previous tag
/// (value v -> v + 1), with consecutive versions after @p *version.
void
self_displace(DetectableCas& dcas, MemSession& s, std::uint32_t n,
              std::uint16_t* version)
{
    for (std::uint32_t i = 0; i < n; i++) {
        std::uint32_t cur = dcas.read(s, kWord);
        *version = (*version + 1) & kVersionMask;
        ASSERT_TRUE(dcas.try_cas(s, kWord, cur, cur + 1, *version).success);
    }
}

TEST(DetectableCas, SelfDisplacementCostsOneMcasPerCas)
{
    // Displacing its own tag, a thread skips the help mCAS except to
    // refresh its floor: once at first (floor unknown), then once per
    // kSelfHelpSlack versions. The unelided protocol pays 2 per CAS.
    Rig rig(CoherenceMode::NoHwcc);
    MemSession s = rig.session(1);
    ASSERT_TRUE(rig.dcas.try_cas(s, kWord, 0, 0, /*version=*/0).success);
    constexpr std::uint32_t kN = 1000;
    std::uint64_t mcas0 = s.counters().mcas_ops;
    std::uint16_t version = 0;
    self_displace(rig.dcas, s, kN, &version);
    std::uint64_t mcas = s.counters().mcas_ops - mcas0;
    EXPECT_LE(mcas, kN + (kN + kSelfHelpSlack - 1) / kSelfHelpSlack + 1);
    EXPECT_GE(mcas, kN);
    // The latest CAS is still detectable; a later version is not.
    EXPECT_TRUE(rig.dcas.did_succeed(s, kWord, version));
    EXPECT_FALSE(rig.dcas.did_succeed(s, kWord, version + 1));
}

TEST(DetectableCas, CasFromLoadedWordIssuesNoLoadWhenHelpIsElided)
{
    // try_cas_from CASes from the word the caller holds: with the help
    // record elided, a self-displacing attempt touches the device once.
    Rig rig(CoherenceMode::NoHwcc);
    MemSession s = rig.session(1);
    auto r = rig.dcas.try_cas(s, kWord, 0, 1, /*version=*/1);
    ASSERT_TRUE(r.success);
    std::uint64_t word = DcasWord::pack(1, 1, 1);
    // First self-displacement: floor unknown, so help is loaded + CASed.
    ASSERT_TRUE(rig.dcas.try_cas_from(s, kWord, word, 2, 2).success);
    word = DcasWord::pack(2, 1, 2);
    std::uint64_t loads0 = s.counters().loads;
    std::uint64_t mcas0 = s.counters().mcas_ops;
    for (std::uint16_t v = 3; v < 3 + 10; v++) {
        ASSERT_TRUE(rig.dcas.try_cas_from(s, kWord, word, v, v).success);
        word = DcasWord::pack(v, 1, v);
    }
    EXPECT_EQ(s.counters().loads - loads0, 0u);
    EXPECT_EQ(s.counters().mcas_ops - mcas0, 10u);
    // A stale word fails and hands back the fresh one.
    auto stale = rig.dcas.try_cas_from(s, kWord, DcasWord::pack(2, 1, 2), 99,
                                       20);
    EXPECT_FALSE(stale.success);
    EXPECT_EQ(stale.observed, word);
    EXPECT_EQ(stale.value(), 12u);
}

TEST(DetectableCas, WrapAwareQueryStaysFalseAcrossLongSelfRuns)
{
    // help[1] is set once by a foreign displacement, then thread 1 runs
    // more than 2^14 versions displacing only itself. Were help[1] left
    // there, version_geq would alias it past the never-landed query
    // version; the slack bound forces refreshes that prevent it.
    Rig rig;
    MemSession s1 = rig.session(1);
    MemSession s2 = rig.session(2);
    std::uint16_t version = 1;
    ASSERT_TRUE(rig.dcas.try_cas(s1, kWord, 0, 1, version).success);
    ASSERT_TRUE(rig.dcas.try_cas(s2, kWord, 1, 2, 1).success);
    ASSERT_TRUE(rig.dcas.did_succeed(s1, kWord, version));
    self_displace(rig.dcas, s1, (1u << 14) + 2 * kSelfHelpSlack, &version);
    auto never = static_cast<std::uint16_t>((version + 1) & kVersionMask);
    EXPECT_FALSE(rig.dcas.did_succeed(s1, kWord, never));
    EXPECT_TRUE(rig.dcas.did_succeed(s1, kWord, version));
}

TEST(DetectableCas, ForeignDisplacementAfterSkipsKeepsLatestDetectable)
{
    Rig rig(CoherenceMode::NoHwcc);
    MemSession s1 = rig.session(1);
    MemSession s2 = rig.session(2);
    std::uint16_t version = 0;
    ASSERT_TRUE(rig.dcas.try_cas(s1, kWord, 0, 0, version).success);
    self_displace(rig.dcas, s1, kSelfHelpSlack / 2, &version);
    std::uint32_t cur = rig.dcas.read(s2, kWord);
    ASSERT_TRUE(rig.dcas.try_cas(s2, kWord, cur, cur + 1, 1).success);
    // Thread 2 recorded thread 1's displaced tag: the latest version is
    // detectable through help[1] alone, the next one is not.
    EXPECT_TRUE(rig.dcas.did_succeed(s1, kWord, version));
    EXPECT_FALSE(rig.dcas.did_succeed(s1, kWord, version + 1));
    EXPECT_EQ(s1.atomic_load64(rig.dcas.help_entry(1)), version + 1u);
}

/// True when the floor (0 = unknown) is a wrap-aware lower bound of
/// @p tid's help entry.
bool
floor_is_lower_bound(DetectableCas& dcas, MemSession& s, cxl::ThreadId tid)
{
    std::uint16_t floor = dcas.help_floor(tid);
    std::uint64_t help = s.atomic_load64(dcas.help_entry(tid));
    if (floor == 0) {
        return true;
    }
    return help != 0 &&
           cxlsync::version_geq(static_cast<std::uint16_t>(help - 1),
                                static_cast<std::uint16_t>(floor - 1));
}

TEST(DetectableCas, FloorStaysALowerBoundAcrossAdoption)
{
    for (auto severity :
         {pod::Pod::CrashSeverity::Process, pod::Pod::CrashSeverity::Host}) {
        pod::PodConfig cfg;
        cfg.device = DeviceConfig{.size = 1 << 20,
                                  .mode = CoherenceMode::NoHwcc,
                                  .sync_region_size = 64 << 10};
        pod::Pod pod(cfg);
        pod::Process* proc = pod.create_process();
        DetectableCas dcas(kHelpBase);
        auto t1 = pod.create_thread(proc);
        auto t2 = pod.create_thread(proc);
        cxl::ThreadId tid = t1->tid();
        std::uint16_t version = 0;
        ASSERT_TRUE(dcas.try_cas(t1->mem(), kWord, 0, 0, version).success);
        self_displace(dcas, t1->mem(), kSelfHelpSlack + 3, &version);
        ASSERT_NE(dcas.help_floor(tid), 0u);
        ASSERT_TRUE(floor_is_lower_bound(dcas, t2->mem(), tid));
        pod.mark_crashed(std::move(t1), severity);
        // Another thread displaces the dead thread's tag, advancing help
        // past the floor; the floor is still a lower bound.
        std::uint32_t cur = dcas.read(t2->mem(), kWord);
        ASSERT_TRUE(dcas.try_cas(t2->mem(), kWord, cur, cur + 1, 1).success);
        auto adopted = pod.adopt_thread(proc, tid);
        EXPECT_TRUE(floor_is_lower_bound(dcas, adopted->mem(), tid));
        EXPECT_TRUE(dcas.did_succeed(adopted->mem(), kWord, version));
        // The adopted slot resumes at an OLDER version than the floor
        // names (a rewound counter): no skip may use the stale distance,
        // and every later CAS keeps the floor a lower bound.
        std::uint16_t resumed = (version - 8) & kVersionMask;
        for (int i = 0; i < 2 * kSelfHelpSlack; i++) {
            self_displace(dcas, adopted->mem(), 1, &resumed);
            ASSERT_TRUE(floor_is_lower_bound(dcas, adopted->mem(), tid));
        }
        EXPECT_TRUE(dcas.did_succeed(adopted->mem(), kWord, resumed));
        EXPECT_FALSE(dcas.did_succeed(adopted->mem(), kWord,
                                      (resumed + 1) & kVersionMask));
        pod.release_thread(std::move(adopted));
        pod.release_thread(std::move(t2));
    }
}

TEST(DetectableCas, NonrecoverableVariantSkipsHelpRecording)
{
    Rig rig;
    DetectableCas plain(kHelpBase, /*detectable=*/false);
    MemSession s1 = rig.session(1);
    MemSession s2 = rig.session(2);
    ASSERT_TRUE(plain.try_cas(s1, kWord, 0, 7, 1).success);
    ASSERT_TRUE(plain.try_cas(s2, kWord, 7, 8, 1).success);
    // Help entry for thread 1 was never written.
    EXPECT_EQ(s1.atomic_load64(kHelpBase + 8 * 1), 0u);
}

} // namespace
