#include <gtest/gtest.h>

#include <algorithm>

#include "generators.h"

namespace {

using podbench::KvMix;
using podbench::KvOpKind;
using podbench::KeySet;

TEST(KvMix, ExactQuarterInsertQuarterRemoveHalfRead)
{
    KvMix mix(42);
    std::uint64_t n[3] = {0, 0, 0};
    for (int i = 0; i < 40'000; i++) {
        n[static_cast<int>(mix.next())]++;
    }
    EXPECT_EQ(n[static_cast<int>(KvOpKind::Insert)], 10'000u);
    EXPECT_EQ(n[static_cast<int>(KvOpKind::Remove)], 10'000u);
    EXPECT_EQ(n[static_cast<int>(KvOpKind::Read)], 20'000u);
}

TEST(KvMix, SeedChangesOrderNotProportions)
{
    KvMix a(1);
    KvMix b(2);
    int differ = 0;
    for (int i = 0; i < 400; i++) {
        differ += a.next() != b.next() ? 1 : 0;
    }
    EXPECT_GT(differ, 0);
}

TEST(KvMix, LiveSetStaysInBand)
{
    // S sessions share one store; whatever the interleaving, the live set
    // never leaves preload +- S.
    constexpr std::uint32_t kSessions = 4;
    constexpr std::uint64_t kKeys = 4096;
    KeySet keys(kKeys);
    cxlcommon::Xoshiro rng(7);
    for (std::uint64_t k = 0; k < kKeys; k += 2) {
        keys.insert(k);
    }
    const std::uint64_t preload = keys.live();
    std::vector<KvMix> mix;
    for (std::uint32_t s = 0; s < kSessions; s++) {
        mix.emplace_back(100 + s);
    }
    cxlcommon::ScrambledZipfian zipf(kKeys, 0.99);
    std::uint64_t lo = preload;
    std::uint64_t hi = preload;
    for (int op = 0; op < 200'000; op++) {
        auto s = static_cast<std::uint32_t>(rng.next_below(kSessions));
        switch (mix[s].next()) {
          case KvOpKind::Insert: {
            std::uint64_t k = keys.probe(zipf.sample(rng), false);
            ASSERT_LT(k, kKeys);
            ASSERT_FALSE(keys.present(k));
            keys.insert(k);
            break;
          }
          case KvOpKind::Remove: {
            std::uint64_t k = keys.probe(zipf.sample(rng), true);
            ASSERT_LT(k, kKeys);
            ASSERT_TRUE(keys.present(k));
            keys.remove(k);
            break;
          }
          case KvOpKind::Read:
            break;
        }
        lo = std::min(lo, keys.live());
        hi = std::max(hi, keys.live());
    }
    EXPECT_GE(lo + kSessions, preload);
    EXPECT_LE(hi, preload + kSessions);
}

TEST(KeySet, VersionsAdvancePerInsert)
{
    KeySet keys(8);
    EXPECT_EQ(keys.next_version(3), 1u);
    EXPECT_EQ(keys.insert(3), 1u);
    keys.remove(3);
    EXPECT_EQ(keys.insert(3), 2u);
    EXPECT_EQ(keys.version(3), 2u);
    EXPECT_EQ(keys.probe(3, true), 3u);
    EXPECT_EQ(keys.probe(3, false), 4u);
}

TEST(ShiftingHotRange, HotShareLandsInTheWindow)
{
    podbench::ShiftingHotRange picker(1000, 100, 950, 0.9);
    cxlcommon::Xoshiro rng(3);
    int hot = 0;
    for (int i = 0; i < 10'000; i++) {
        std::uint32_t p = picker.pick(rng, 1); // window [50, 150)
        hot += (p >= 50 && p < 150) ? 1 : 0;
    }
    EXPECT_NEAR(hot / 10'000.0, 0.9 + 0.1 * 0.1, 0.02);
    EXPECT_EQ(picker.hot_base(0), 950u);
    EXPECT_EQ(picker.hot_base(1), 50u);
}

} // namespace
