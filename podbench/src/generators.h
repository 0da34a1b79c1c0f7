/// @file
/// Seeded input generators. The benchmark hands the system only what these
/// produce; the same seed gives the same op stream.

#pragma once

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/zipfian.h"

namespace podbench {

/// Stateless 64-bit mix (splitmix64 finalizer): seeds and payload tags.
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Seed of stream @p stream under run seed @p seed.
inline std::uint64_t
stream_seed(std::uint64_t seed, std::uint64_t stream)
{
    return mix64(seed * 0x100000001b3ULL + stream);
}

enum class KvOpKind : std::uint8_t { Insert, Remove, Read };

/// KV op mix of 25 % insert, 25 % remove, 50 % read, drawn as shuffled
/// blocks of four (one insert, one remove, two reads). Within any prefix
/// of the stream, inserts minus removes is -1, 0 or +1, so a store shared
/// by S sessions keeps its live set within ±S of the preload.
class KvMix {
  public:
    explicit KvMix(std::uint64_t seed) : rng_(seed) {}

    KvOpKind
    next()
    {
        if (pos_ == 4) {
            block_[0] = KvOpKind::Insert;
            block_[1] = KvOpKind::Remove;
            block_[2] = KvOpKind::Read;
            block_[3] = KvOpKind::Read;
            for (std::uint32_t i = 3; i > 0; i--) {
                auto j = static_cast<std::uint32_t>(rng_.next_below(i + 1));
                KvOpKind t = block_[i];
                block_[i] = block_[j];
                block_[j] = t;
            }
            pos_ = 0;
        }
        return block_[pos_++];
    }

  private:
    cxlcommon::Xoshiro rng_;
    KvOpKind block_[4] = {};
    std::uint32_t pos_ = 4;
};

/// Which keys of one store are live, with each key's payload version —
/// the benchmark's expectation of what the store must return. Inserts probe
/// forward from the drawn key to the next absent key and removes to the
/// next present one, so both always succeed on a store that holds neither
/// none nor all of its keys.
class KeySet {
  public:
    explicit KeySet(std::uint64_t keys) : live_(keys, 0), version_(keys, 0) {}

    std::uint64_t live() const { return count_; }
    bool present(std::uint64_t key) const { return live_[key] != 0; }
    std::uint32_t version(std::uint64_t key) const { return version_[key]; }

    /// First key at or after @p key (cyclically) whose presence is @p want.
    std::uint64_t
    probe(std::uint64_t key, bool want) const
    {
        std::uint64_t n = live_.size();
        for (std::uint64_t i = 0; i < n; i++) {
            std::uint64_t k = (key + i) % n;
            if ((live_[k] != 0) == want) {
                return k;
            }
        }
        return n; // none
    }

    /// Marks @p key live under a fresh version; returns that version.
    std::uint32_t
    insert(std::uint64_t key)
    {
        live_[key] = 1;
        count_++;
        return ++version_[key];
    }

    /// Version the next insert of @p key will carry.
    std::uint32_t next_version(std::uint64_t key) const
    {
        return version_[key] + 1;
    }

    void
    remove(std::uint64_t key)
    {
        live_[key] = 0;
        count_--;
    }

  private:
    std::vector<std::uint8_t> live_;
    std::vector<std::uint32_t> version_;
    std::uint64_t count_ = 0;
};

/// Object picker whose skew follows a hot range that shifts: @p hot_share
/// of picks fall uniformly in a window of @p hot_len objects starting at
/// base + phase * hot_len, the rest uniformly over all objects.
class ShiftingHotRange {
  public:
    ShiftingHotRange(std::uint32_t objects, std::uint32_t hot_len,
                     std::uint32_t base, double hot_share)
        : objects_(objects), hot_len_(hot_len), base_(base),
          hot_share_(hot_share)
    {
    }

    std::uint32_t
    hot_base(std::uint64_t phase) const
    {
        return static_cast<std::uint32_t>(
            (base_ + phase * hot_len_) % objects_);
    }

    std::uint32_t
    pick(cxlcommon::Xoshiro& rng, std::uint64_t phase) const
    {
        if (rng.next_double() < hot_share_) {
            return static_cast<std::uint32_t>(
                (hot_base(phase) + rng.next_below(hot_len_)) % objects_);
        }
        return static_cast<std::uint32_t>(rng.next_below(objects_));
    }

  private:
    std::uint32_t objects_;
    std::uint32_t hot_len_;
    std::uint32_t base_;
    double hot_share_;
};

} // namespace podbench
