/// churn_mcas: allocator-only churn on a NoHwcc pod, where every
/// synchronization is an NMP mCAS.
///
/// Dense 4-host x 4-device pod, two sessions per host. Sizes mix small
/// (8 B - 1 KiB), large (<= 512 KiB) and a few huge blocks. A quarter of
/// all blocks are handed to a session on the next host, which reads their
/// tags and frees them; a quarter of the frees go out as deallocate_batch.
///
/// Three parts of the design this workload was specified with stay off
/// because they stop on allocator defects (podbench/README.md): checked
/// mappings, where a cross-process free of an early large block dies on a
/// PC-T fault (CheckedMappingDeathTest pins it); black-box crashes in the
/// middle of allocator calls, after whose recovery the heap fails its own
/// invariants; and idle-slot restarts, whose recovery redoes a stale
/// FreeLocal record against a slab that has since lost its class
/// (IdleRestartDeathTest pins it).

#include <cstring>

#include "generators.h"
#include "harness.h"
#include "lowest_clock.h"

namespace podbench {

namespace {

constexpr std::uint32_t kHosts = 4;
constexpr std::uint32_t kDevices = 4;
constexpr std::uint32_t kSessionsPerHost = 2;
constexpr std::uint32_t kSessions = kHosts * kSessionsPerHost;
constexpr std::uint64_t kOpsPerSession = 240'000;
/// Blocks each session holds for freeing at steady state.
constexpr std::size_t kPoolTarget = 384;
constexpr std::uint32_t kBatch = 8;
/// Huge-heap reclamation pass every this many ops of a session, charged
/// to the op it precedes.
constexpr std::uint64_t kCleanupEvery = 256;

cxl::EdgeCost
far_edge()
{
    cxl::EdgeCost e;
    e.read_add_ns = 120;
    e.write_add_ns = 180;
    e.ns_per_kib = 8;
    return e;
}

struct Block {
    cxl::HeapOffset offset = 0;
    std::uint64_t size = 0;
    std::uint64_t tag = 0;
};

/// 85 % small (8 B - 1 KiB), 14 % large (1 KiB - 512 KiB, log-uniform),
/// 1 % huge (600 KiB - 2 MiB).
std::uint64_t
draw_size(cxlcommon::Xoshiro& rng)
{
    std::uint64_t roll = rng.next_below(100);
    if (roll < 85) {
        return 8 + rng.next_below(1017);
    }
    if (roll < 99) {
        std::uint64_t shift = 10 + rng.next_below(9); // 1 KiB .. 256 KiB
        std::uint64_t lo = std::uint64_t{1} << shift;
        return lo + 1 + rng.next_below(lo);
    }
    return (600u << 10) + rng.next_below((2u << 20) - (600u << 10));
}

} // namespace

TrialResult
run_churn_mcas(const TrialConfig& config)
{
    TrialResult out;
    Harness h(config, out);

    RigSpec spec;
    spec.topology = pod::Topology::dense(kHosts, kDevices, cxl::EdgeCost{},
                                         far_edge());
    spec.shard.small_slabs = 256;  // 8 MiB
    spec.shard.large_slabs = 256;  // 128 MiB
    spec.shard.huge_regions = 32;
    spec.shard.huge_region_size = 4 << 20;
    spec.coherence = cxl::CoherenceMode::NoHwcc;
    spec.latency = cxl::LatencyModel::cxl_mcas();
    h.build(spec);
    for (pod::HostId host = 0; host < kHosts; host++) {
        for (std::uint32_t i = 0; i < kSessionsPerHost; i++) {
            h.add_session(host);
        }
    }

    std::vector<std::vector<Block>> pools(kSessions);
    std::vector<cxlcommon::Xoshiro> rng;
    for (std::uint32_t w = 0; w < kSessions; w++) {
        rng.emplace_back(stream_seed(config.seed, 4'000 + w));
    }
    std::uint64_t next_tag = stream_seed(config.seed, 5'000);

    // Writes a fresh tag at both ends of a new block (through the
    // allocating session's own process) and hands it to its freeing pool.
    auto place = [&](std::uint32_t w, cxl::HeapOffset off,
                     std::uint64_t size, bool remote) {
        Block b{off, size, mix64(next_tag++)};
        cxl::MemSession& mem = h.session(w).mem();
        std::memcpy(mem.data_ptr(off, 8), &b.tag, 8);
        if (size >= 16) {
            std::memcpy(mem.data_ptr(off + size - 8, 8), &b.tag, 8);
        }
        std::uint32_t dest = remote ? (w + kSessionsPerHost) % kSessions : w;
        pools[dest].push_back(b);
    };
    // Reads a block's tags through the freeing session's process.
    auto tag_ok = [&](std::uint32_t w, const Block& b) {
        cxl::MemSession& mem = h.session(w).mem();
        std::uint64_t head;
        std::uint64_t tail = b.tag;
        std::memcpy(&head, mem.data_ptr(b.offset, 8), 8);
        if (b.size >= 16) {
            std::memcpy(&tail, mem.data_ptr(b.offset + b.size - 8, 8), 8);
        }
        return head == b.tag && tail == b.tag;
    };
    auto take = [&](std::uint32_t w) {
        std::vector<Block>& pool = pools[w];
        std::size_t i = rng[w].next_below(pool.size());
        Block b = pool[i];
        pool[i] = pool.back();
        pool.pop_back();
        return b;
    };

    h.begin_preload();
    for (std::uint32_t w = 0; w < kSessions; w++) {
        for (std::size_t i = 0; i < kPoolTarget; i++) {
            std::uint64_t size = draw_size(rng[w]);
            cxl::HeapOffset off = h.alloc().allocate(*h.session(w).ctx, size);
            if (off == 0) {
                h.fail("preload allocation failed");
                continue;
            }
            place(w, off, size, /*remote=*/false);
        }
    }
    h.end_preload();
    if (config.setup_only) {
        return out;
    }

    auto total_ops = static_cast<std::uint64_t>(
        static_cast<double>(kSessions * kOpsPerSession) * config.scale);
    std::vector<std::uint64_t> session_ops(kSessions, 0);
    cxl::HeapOffset batch[kBatch];
    // One op of session w.
    auto run_op = [&](std::uint32_t w) {
        Session& s = h.session(w);
        cxlcommon::Xoshiro& r = rng[w];
        std::uint64_t before = s.clock();
        if (++session_ops[w] % kCleanupEvery == 0) {
            h.alloc().cleanup(*s.ctx);
        }

        std::vector<Block>& pool = pools[w];
        bool alloc = pool.size() < kPoolTarget ||
                     (pool.size() == kPoolTarget && r.next_below(2) == 0);
        bool batched = !alloc && pool.size() >= kBatch &&
                       r.next_below(4) == 0;
        std::uint64_t size = alloc ? draw_size(r) : 0;
        bool remote = alloc && r.next_below(4) == 0;

        if (alloc) {
            cxl::HeapOffset off = h.alloc().allocate(*s.ctx, size);
            if (off != 0) {
                place(w, off, size, remote);
            }
        } else if (batched) {
            for (std::uint32_t i = 0; i < kBatch; i++) {
                Block b = take(w);
                if (!tag_ok(w, b)) {
                    h.fail("block tag changed before a batched free");
                }
                batch[i] = b.offset;
            }
            h.alloc().deallocate_batch(*s.ctx, batch, kBatch);
        } else {
            Block b = take(w);
            if (!tag_ok(w, b)) {
                h.fail("block tag changed before a free");
            }
            h.alloc().deallocate(*s.ctx, b.offset);
        }
        h.record_op(s.clock() - before);
    };

    h.begin_measure(total_ops * 2);
    LowestClockScheduler sched(kSessions);
    for (std::uint64_t op = 0; op < total_ops; op++) {
        std::uint32_t w = sched.next();
        run_op(w);
        sched.requeue(w, h.session(w).clock());
    }
    h.end_measure(total_ops, kSessions);
    h.sweep("end of run");
    h.finish();
    return out;
}

} // namespace podbench
