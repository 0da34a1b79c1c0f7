/// kv_pod: the paper's Fig. 8 application path on a multi-host pod.
///
/// Dense 4-host x 4-device PartialHwcc pod (far edges +120/+180 ns), four
/// sessions per host, one KvStore per host in its home window. A 25 %
/// insert / 25 % remove / 50 % read mix over zipfian(0.99) keys with
/// 960 B values; every 8th read of a session goes to the next host's
/// store and first pulls that store's bucket line through the session so
/// the edge is charged (the fig8_kvstore --pod convention). Each host
/// beats its liveness lease once per round of modeled time and host 0
/// polls. After the measured phase the load goes on while idle slots are
/// killed, adopted and recovered (Harness::restart_probe).

#include <cstring>
#include <memory>

#include "harness.h"
#include "generators.h"
#include "kv/kv_store.h"
#include "pod/liveness.h"
#include "lowest_clock.h"

namespace podbench {

namespace {

constexpr std::uint32_t kHosts = 4;
constexpr std::uint32_t kDevices = 4;
constexpr std::uint32_t kSessionsPerHost = 4;
constexpr std::uint32_t kSessions = kHosts * kSessionsPerHost;
constexpr std::uint64_t kKeysPerHost = 16'384;
constexpr std::uint64_t kBuckets = 1 << 14;
constexpr std::uint32_t kKeyLen = 24;
constexpr std::uint32_t kValueLen = 960;
constexpr std::uint64_t kOpsPerSession = 25'000;
/// Liveness round: each host beats once per kBeatNs of modeled time and
/// host 0 polls every kPollNs. A poll interval spans several beats, so a
/// healthy pod never misses a lease.
constexpr std::uint64_t kBeatNs = 20'000;
constexpr std::uint64_t kPollNs = 4 * kBeatNs;
/// Idle-slot restarts after the measured phase.
constexpr std::uint32_t kRestarts = 64;

cxl::EdgeCost
far_edge()
{
    cxl::EdgeCost e;
    e.read_add_ns = 120;
    e.write_add_ns = 180;
    e.ns_per_kib = 8;
    return e;
}

std::uint64_t
payload_tag(std::uint32_t host, std::uint64_t key, std::uint32_t version)
{
    return mix64((static_cast<std::uint64_t>(host) << 56) ^ (key << 20) ^
                 version);
}

/// Value bytes: the tag at both ends, filler between.
void
fill_value(char* value, std::uint64_t tag)
{
    std::memcpy(value, &tag, 8);
    std::memcpy(value + kValueLen - 8, &tag, 8);
}

bool
value_matches(const char* value, std::uint64_t tag)
{
    std::uint64_t head;
    std::uint64_t tail;
    std::memcpy(&head, value, 8);
    std::memcpy(&tail, value + kValueLen - 8, 8);
    return head == tag && tail == tag;
}

} // namespace

TrialResult
run_kv_pod(const TrialConfig& config)
{
    TrialResult out;
    Harness h(config, out);

    RigSpec spec;
    spec.topology = pod::Topology::dense(kHosts, kDevices, cxl::EdgeCost{},
                                         far_edge());
    // 128 MiB per shard for an ~8 MiB live set: blocks freed by another
    // session return to their slab only once the whole slab drains, so a
    // run commits far more than it keeps live (space_amp).
    spec.shard.small_slabs = 4096;
    spec.shard.large_slabs = 8;
    spec.shard.huge_regions = 1;
    spec.shard.huge_region_size = 1 << 20;
    spec.shard.app_sync_bytes = pod::kLeaseTableBytes;
    spec.coherence = cxl::CoherenceMode::PartialHwcc;
    spec.latency = cxl::LatencyModel::cxl_hwcc();
    spec.extra_window_bytes = kv::HashTable::footprint(kBuckets);
    h.build(spec);

    std::vector<std::unique_ptr<kv::KvStore>> stores;
    std::vector<cxl::HeapOffset> bucket_base;
    for (pod::HostId host = 0; host < kHosts; host++) {
        cxl::DeviceId home = spec.topology.home_of(host);
        bucket_base.push_back(h.heap().extra_base(home));
        stores.push_back(std::make_unique<kv::KvStore>(
            h.pod(), bucket_base.back(), kBuckets, &h.alloc()));
    }
    for (pod::HostId host = 0; host < kHosts; host++) {
        for (std::uint32_t i = 0; i < kSessionsPerHost; i++) {
            h.add_session(host);
        }
    }
    pod::LivenessConfig lcfg;
    lcfg.lease_base = h.heap().shard(0).layout().app_sync();
    pod::LivenessDetector detector(h.pod(), lcfg);

    std::vector<KeySet> keys(kHosts, KeySet(kKeysPerHost));
    cxlcommon::ScrambledZipfian zipf(kKeysPerHost, 0.99);
    std::vector<char> value(kValueLen, 'v');
    std::vector<char> buf(kValueLen);

    // Preload half of every store's keyspace (a seeded choice).
    h.begin_preload();
    for (pod::HostId host = 0; host < kHosts; host++) {
        cxlcommon::Xoshiro rng(stream_seed(config.seed, 1'000 + host));
        std::uint64_t inserted = 0;
        while (inserted < kKeysPerHost / 2) {
            std::uint64_t key = keys[host].probe(
                rng.next_below(kKeysPerHost), /*want=*/false);
            Session& s = h.session(host * kSessionsPerHost +
                                   static_cast<std::uint32_t>(
                                       inserted % kSessionsPerHost));
            std::uint32_t version = keys[host].next_version(key);
            fill_value(value.data(), payload_tag(host, key, version));
            if (!stores[host]->insert(*s.ctx, key, kKeyLen, value.data(),
                                      kValueLen)) {
                h.fail("preload insert failed");
                break;
            }
            keys[host].insert(key);
            inserted++;
        }
    }
    h.end_preload();
    if (config.setup_only) {
        return out;
    }
    const std::uint64_t preload = kHosts * (kKeysPerHost / 2);

    std::vector<KvMix> mix;
    std::vector<cxlcommon::Xoshiro> rng;
    std::vector<std::uint64_t> reads(kSessions, 0);
    for (std::uint32_t w = 0; w < kSessions; w++) {
        mix.emplace_back(stream_seed(config.seed, 2'000 + w));
        rng.emplace_back(stream_seed(config.seed, 3'000 + w));
    }
    std::vector<std::uint64_t> next_beat(kHosts, 0);
    std::uint64_t next_poll = 0;
    std::uint64_t live_min = preload;
    std::uint64_t live_max = preload;
    std::uint64_t live = preload;

    auto total_ops = static_cast<std::uint64_t>(
        static_cast<double>(kSessions * kOpsPerSession) * config.scale);
    // One op of session w; its modeled latency is recorded when @p record.
    auto run_op = [&](std::uint32_t w, bool record) {
        Session& s = h.session(w);
        auto host = static_cast<pod::HostId>(w / kSessionsPerHost);

        // Liveness rides on whichever session of the host runs first past
        // the host's next deadline, so one long op cannot stall a lease.
        if (s.clock() >= next_beat[host]) {
            next_beat[host] = s.clock() + kBeatNs;
            SpanScope span(h.tracer(), SpanName::LivenessBeat, s.mem());
            pod::LivenessDetector::beat(s.mem(), lcfg.lease_base, host);
        }
        if (host == 0 && s.clock() >= next_poll) {
            next_poll = s.clock() + kPollNs;
            SpanScope span(h.tracer(), SpanName::LivenessPoll, s.mem());
            if (!detector.poll(s.mem()).empty()) {
                h.fail("liveness declared a beating host dead");
            }
        }

        KeySet& mine = keys[host];
        kv::KvStore& store = *stores[host];
        std::uint64_t before = s.clock();
        switch (mix[w].next()) {
          case KvOpKind::Insert: {
            std::uint64_t key =
                mine.probe(zipf.sample(rng[w]), /*want=*/false);
            std::uint32_t version = mine.next_version(key);
            fill_value(value.data(), payload_tag(host, key, version));
            SpanScope span(h.tracer(), SpanName::KvInsert, s.mem());
            if (store.insert(*s.ctx, key, kKeyLen, value.data(),
                             kValueLen)) {
                mine.insert(key);
                live++;
            } else {
                span.fail();
                h.fail("kv insert failed");
            }
            break;
          }
          case KvOpKind::Remove: {
            std::uint64_t key =
                mine.probe(zipf.sample(rng[w]), /*want=*/true);
            SpanScope span(h.tracer(), SpanName::KvRemove, s.mem());
            if (store.remove(*s.ctx, key, kKeyLen)) {
                mine.remove(key);
                live--;
            } else {
                span.fail();
                h.fail("kv remove missed a live key");
            }
            break;
          }
          case KvOpKind::Read: {
            bool remote = ++reads[w] % 8 == 0;
            auto target = static_cast<pod::HostId>(
                remote ? (host + 1u) % kHosts : host);
            std::uint64_t key = zipf.sample(rng[w]);
            SpanScope span(h.tracer(), SpanName::KvGet, s.mem());
            // The KV data path uses host pointers (full-HWcc semantics);
            // pulling the bucket line through the session routes the
            // read over the (host, device) edge and charges it.
            char kb[96];
            kv::KvStore::format_key(key, kKeyLen, kb);
            std::uint64_t hash = kv::HashTable::hash_bytes(kb, kKeyLen);
            std::uint64_t head;
            s.mem().read_bytes(bucket_base[target] + (hash % kBuckets) * 8,
                               &head, 8);
            bool hit = stores[target]->get(*s.ctx, key, kKeyLen, buf.data(),
                                           kValueLen);
            const KeySet& expect = keys[target];
            if (hit != expect.present(key) ||
                (hit && !value_matches(buf.data(),
                                       payload_tag(target, key,
                                                   expect.version(key))))) {
                span.fail();
                h.fail("kv read returned a wrong answer");
            }
            break;
          }
        }
        if (record) {
            h.record_op(s.clock() - before);
        }
        live_min = std::min(live_min, live);
        live_max = std::max(live_max, live);
    };

    h.begin_measure(total_ops * 2 +
                    kRestarts * (Harness::kRestartEvery * 2 + 1));
    LowestClockScheduler sched(kSessions);
    for (std::uint64_t op = 0; op < total_ops; op++) {
        std::uint32_t w = sched.next();
        run_op(w, true);
        sched.requeue(w, h.session(w).clock());
    }
    h.end_measure(total_ops, kSessions);
    h.restart_probe(
        kRestarts, sched, [&](std::uint32_t w) { run_op(w, false); },
        [&](pod::ThreadContext& ctx) { h.alloc().recover(ctx); });

    // Live-set band: each session's shuffled 1/1/2 blocks keep the live
    // count within one op per session of the preload.
    char note[160];
    std::snprintf(note, sizeof note,
                  "live keys: preload %llu, min %llu, max %llu, band "
                  "+-%u",
                  static_cast<unsigned long long>(preload),
                  static_cast<unsigned long long>(live_min),
                  static_cast<unsigned long long>(live_max), kSessions);
    out.notes.push_back(note);
    if (live_min + kSessions < preload || live_max > preload + kSessions) {
        h.fail("live set left its band");
    }
    for (pod::HostId host = 0; host < kHosts; host++) {
        if (stores[host]->table().size() != keys[host].live()) {
            h.fail("store size differs from the benchmark's key set");
        }
    }
    if (detector.deaths() != 0 || detector.false_suspects() != 0) {
        h.fail("liveness verdicts on a healthy pod");
    }
    h.sweep("end of run");
    h.finish();
    return out;
}

} // namespace podbench
