/// @file
/// Shared benchmark harness: constructs any evaluated allocator by name on
/// a fresh pod, runs per-thread workloads, and reports wall-clock plus
/// simulated time and memory (see DESIGN.md §2 on why both).
///
/// Memory-mode naming follows Fig. 12: "local" = host DRAM latencies,
/// "hwcc" = CXL memory with inter-host HWcc, "mcas" = CXL memory with no
/// HWcc (all synchronization through the NMP engine).

#pragma once

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/boostish.h"
#include "baselines/cxlalloc_adapter.h"
#include "baselines/pod_sharded_adapter.h"
#include "baselines/cxlshmish.h"
#include "baselines/lightningish.h"
#include "baselines/mimic.h"
#include "baselines/rallocish.h"
#include "common/cacheline.h"
#include "common/stats.h"
#include "cxlalloc/allocator.h"
#include "cxlalloc/pod_shard.h"
#include "obs/registry.h"
#include "pod/pod.h"
#include "pod/topology.h"

namespace bench {

/// Process-wide metrics switch. When non-null (bench::parse_options sets it
/// for --metrics-json/--metrics-csv runs), make_bundle wires cxlalloc's op
/// instrumentation into this registry and run_threads publishes each
/// session's MemSession counters and sim_ns into it. Null (the default)
/// keeps all hot paths uninstrumented.
inline obs::MetricsRegistry*&
bundle_metrics()
{
    static obs::MetricsRegistry* registry = nullptr;
    return registry;
}

/// Memory substrate for a run (Fig. 12 series).
enum class MemoryMode { Local, CxlHwcc, CxlMcas };

inline const char*
to_string(MemoryMode m)
{
    switch (m) {
      case MemoryMode::Local:
        return "local";
      case MemoryMode::CxlHwcc:
        return "hwcc";
      case MemoryMode::CxlMcas:
        return "mcas";
    }
    return "?";
}

/// The seven allocators of the paper's evaluation (Table 1).
inline std::vector<std::string>
all_allocators()
{
    return {"cxlalloc",     "cxlalloc-nonrecoverable",
            "mimalloc-like", "ralloc-like",
            "cxl-shm-like",  "boost-like",
            "lightning-like"};
}

/// One fully constructed allocator-under-test on its own fresh pod.
struct Bundle {
    std::string name;
    MemoryMode mode = MemoryMode::Local;
    std::unique_ptr<pod::Pod> pod;
    std::unique_ptr<cxlalloc::CxlAllocator> cxl_heap; // when cxlalloc
    std::unique_ptr<baselines::PodAllocator> alloc;
    pod::Process* process = nullptr;
    cxl::LatencyModel latency;
    bool use_latency_model = false;
    /// Device offset of the extra region callers requested (index arrays).
    cxl::HeapOffset extra_base = 0;

    std::unique_ptr<pod::ThreadContext>
    thread(pod::Process* proc = nullptr)
    {
        auto ctx = pod->create_thread(proc != nullptr ? proc : process);
        alloc->attach_thread(*ctx);
        if (use_latency_model) {
            ctx->mem().set_latency_model(&latency);
        }
        return ctx;
    }
};

/// Heap geometry knobs for a run.
struct Geometry {
    std::uint32_t small_slabs = 2048;       // 64 MiB
    std::uint32_t large_slabs = 96;         // 48 MiB
    std::uint32_t huge_regions = 16;
    std::uint64_t huge_region_size = 8 << 20;
    std::uint64_t extra_bytes = 0;          ///< index arrays, queue meta...
    /// Full hardware coherence (the paper's DRAM-machine experiments,
    /// Figs. 7-10): atomics work anywhere, including the extra region.
    bool full_hwcc = false;
    /// Enforce PC-T mapping checks per access (Fig. 10 huge study).
    bool checked_mappings = false;
    /// Per-shard reference-cell table (Layout::app_sync; detectable-CAS
    /// words the tiered benchmarks and the migrator publish through).
    std::uint64_t app_sync_bytes = 0;
    /// Tiered placement knobs, used only when the pod topology has
    /// LocalDram windows (pod::Topology::with_local_dram): geometry of the
    /// per-host DRAM shard and the Config::dram_percent /
    /// Config::dram_max_block policy split.
    std::uint32_t dram_small_slabs = 64; // 2 MiB
    std::uint32_t dram_percent = 0;
    std::uint64_t dram_max_block = 0;    // 0 = small blocks only
};

/// Builds @p which ("cxlalloc", "ralloc-like", ...) on a fresh device.
inline Bundle
make_bundle(const std::string& which, const Geometry& geom,
            MemoryMode mode = MemoryMode::Local)
{
    Bundle b;
    b.name = which;
    b.mode = mode;
    switch (mode) {
      case MemoryMode::Local:
        b.latency = cxl::LatencyModel::local_dram();
        break;
      case MemoryMode::CxlHwcc:
        b.latency = cxl::LatencyModel::cxl_hwcc();
        break;
      case MemoryMode::CxlMcas:
        b.latency = cxl::LatencyModel::cxl_mcas();
        break;
    }
    b.use_latency_model = mode != MemoryMode::Local;
    cxl::CoherenceMode coherence = mode == MemoryMode::CxlMcas
                                       ? cxl::CoherenceMode::NoHwcc
                                       : (geom.full_hwcc
                                              ? cxl::CoherenceMode::FullHwcc
                                              : cxl::CoherenceMode::PartialHwcc);

    if (which == "cxlalloc" || which == "cxlalloc-nonrecoverable") {
        cxlalloc::Config cfg;
        cfg.small_slabs = geom.small_slabs;
        cfg.large_slabs = geom.large_slabs;
        cfg.huge_regions = geom.huge_regions;
        cfg.huge_region_size = geom.huge_region_size;
        cfg.recoverable = which == "cxlalloc";
        pod::PodConfig pc;
        pc.device = cxlalloc::Layout(cfg).device_config(coherence);
        pc.checked_mappings = geom.checked_mappings;
        b.extra_base = pc.device.size;
        pc.device.size += (geom.extra_bytes + cxl::kPageSize - 1) &
                          ~(cxl::kPageSize - 1);
        b.pod = std::make_unique<pod::Pod>(pc);
        b.cxl_heap = std::make_unique<cxlalloc::CxlAllocator>(*b.pod, cfg);
        b.cxl_heap->set_metrics(bundle_metrics());
        b.process = b.pod->create_process();
        b.cxl_heap->attach(*b.process);
        b.alloc =
            std::make_unique<baselines::CxlallocAdapter>(b.cxl_heap.get());
        return b;
    }

    // Baselines share a flat arena; ralloc's metadata goes at the front of
    // the sync region so it works under mCAS.
    std::uint64_t arena_size =
        static_cast<std::uint64_t>(geom.small_slabs) * (32 << 10) +
        static_cast<std::uint64_t>(geom.large_slabs) * (512 << 10) +
        geom.huge_regions * geom.huge_region_size;
    std::uint32_t ralloc_slabs =
        static_cast<std::uint32_t>(arena_size / (64 << 10));
    std::uint64_t meta_bytes =
        baselines::Rallocish::meta_size(ralloc_slabs) + 4096;
    std::uint64_t arena =
        (64 + meta_bytes + cxl::kPageSize - 1) & ~(cxl::kPageSize - 1);

    pod::PodConfig pc;
    pc.device.mode = coherence;
    pc.checked_mappings = geom.checked_mappings;
    pc.device.sync_region_size = arena; // metadata prefix is coherent
    b.extra_base = arena + arena_size;
    pc.device.size = ((b.extra_base + geom.extra_bytes + cxl::kPageSize - 1) &
                      ~(cxl::kPageSize - 1));
    b.pod = std::make_unique<pod::Pod>(pc);
    b.process = b.pod->create_process();

    if (which == "mimalloc-like") {
        b.alloc = std::make_unique<baselines::Mimic>(*b.pod, arena,
                                                     arena_size);
    } else if (which == "boost-like") {
        b.alloc = std::make_unique<baselines::Boostish>(*b.pod, arena,
                                                        arena_size);
    } else if (which == "lightning-like") {
        b.alloc = std::make_unique<baselines::Lightningish>(*b.pod, arena,
                                                            arena_size);
    } else if (which == "cxl-shm-like") {
        b.alloc = std::make_unique<baselines::Cxlshmish>(*b.pod, arena,
                                                         arena_size);
    } else if (which == "ralloc-like") {
        b.alloc = std::make_unique<baselines::Rallocish>(
            *b.pod, /*meta=*/64, /*data=*/arena, ralloc_slabs);
    } else {
        std::fprintf(stderr, "unknown allocator '%s'\n", which.c_str());
        std::abort();
    }
    return b;
}

/// Result of one multi-threaded run.
struct RunResult {
    double wall_s = 0;
    std::uint64_t ops = 0;
    std::uint64_t sim_ns = 0; ///< max over threads (critical path)
    std::uint64_t committed_bytes = 0;
    std::uint64_t hwcc_bytes = 0;
    std::uint64_t metadata_bytes = 0;
    cxl::MemEventCounters events;

    double
    mops_wall() const
    {
        return wall_s > 0 ? static_cast<double>(ops) / wall_s / 1e6 : 0;
    }

    double
    mops_sim() const
    {
        return sim_ns > 0
                   ? static_cast<double>(ops) / static_cast<double>(sim_ns) *
                         1e3
                   : 0;
    }
};

/// Per-worker body: returns the number of operations it performed.
using WorkerBody =
    std::function<std::uint64_t(pod::ThreadContext&, std::uint32_t)>;

/// The run loop under run_threads and run_pod_threads: spawns @p nthreads
/// OS threads, each running @p body on the context @p spawn makes for its
/// worker index (on that thread), then joins them and aggregates ops, the
/// critical-path sim_ns, event counters and the heap footprint. Each
/// session's counters and run.ops are published when bundle metrics are
/// on. hwcc_bytes is left to the caller.
inline RunResult
run_workers(pod::Pod& pod, baselines::PodAllocator& alloc,
            std::uint32_t nthreads,
            const std::function<std::unique_ptr<pod::ThreadContext>(
                std::uint32_t)>& spawn,
            const WorkerBody& body)
{
    std::vector<std::thread> workers;
    std::vector<std::uint64_t> ops(nthreads, 0);
    std::vector<std::uint64_t> sim(nthreads, 0);
    std::vector<cxl::MemEventCounters> events(nthreads);
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t w = 0; w < nthreads; w++) {
        workers.emplace_back([&, w] {
            auto ctx = spawn(w);
            ops[w] = body(*ctx, w);
            sim[w] = ctx->mem().sim_ns();
            events[w] = ctx->mem().counters();
            if (obs::MetricsRegistry* reg = bundle_metrics()) {
                ctx->mem().publish_metrics(*reg);
                reg->shard(ctx->tid()).add(reg->counter("run.ops"), ops[w]);
            }
            pod.release_thread(std::move(ctx));
        });
    }
    for (auto& th : workers) {
        th.join();
    }
    RunResult r;
    r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
    for (std::uint32_t w = 0; w < nthreads; w++) {
        r.ops += ops[w];
        r.sim_ns = std::max(r.sim_ns, sim[w]);
        r.events += events[w];
    }
    if (obs::MetricsRegistry* reg = bundle_metrics()) {
        reg->set_gauge(reg->gauge("run.sim_ns_max"),
                       static_cast<double>(r.sim_ns));
    }
    r.committed_bytes = pod.device().committed_bytes();
    r.metadata_bytes = alloc.metadata_overhead_bytes();
    return r;
}

/// Runs @p body once per thread (each on its own pod process when
/// @p process_per_thread) and aggregates results.
inline RunResult
run_threads(Bundle& b, std::uint32_t nthreads, const WorkerBody& body,
            bool process_per_thread = false)
{
    RunResult r = run_workers(
        *b.pod, *b.alloc, nthreads,
        [&](std::uint32_t) {
            pod::Process* proc = b.process;
            if (process_per_thread) {
                proc = b.pod->create_process();
                if (b.cxl_heap != nullptr) {
                    b.cxl_heap->attach(*proc);
                }
            }
            return b.thread(proc);
        },
        body);
    auto probe = b.thread();
    r.hwcc_bytes = b.alloc->hwcc_bytes(probe->mem());
    b.pod->release_thread(std::move(probe));
    return r;
}

/// Prints one benchmark series row.
inline void
print_row(const char* figure, const std::string& workload,
          const std::string& alloc, std::uint32_t threads,
          const RunResult& r, const char* note = "")
{
    std::printf("%-6s %-16s %-24s t=%-2u  %9.3f Mops/s (wall)  "
                "mem=%-11s hwcc=%-11s%s%s\n",
                figure, workload.c_str(), alloc.c_str(), threads,
                r.mops_wall(),
                cxlcommon::format_bytes(r.committed_bytes + r.metadata_bytes)
                    .c_str(),
                cxlcommon::format_bytes(r.hwcc_bytes).c_str(),
                note[0] != '\0' ? "  " : "", note);
}

// ---------------------------------------------------------------------------
// Multi-host pod runs (topology-aware sharded allocation; see
// docs/POD_TOPOLOGY.md).

/// A sharded cxlalloc heap on a multi-host pod: one process per host, one
/// allocator shard per device window.
struct PodBundle {
    MemoryMode mode = MemoryMode::CxlHwcc;
    std::unique_ptr<pod::Pod> pod;
    std::unique_ptr<cxlalloc::PodShardedAllocator> heap;
    std::unique_ptr<baselines::PodShardedAdapter> alloc;
    std::vector<pod::Process*> host_process; // index = HostId
    cxl::LatencyModel latency;
    /// Per-host private extra bytes (from Geometry::extra_bytes), placed in
    /// the host's home window after the shard layout.
    std::uint64_t extra_per_host = 0;

    /// Spawns a thread on @p host. The latency model is always installed:
    /// pod runs exist to measure edge costs.
    std::unique_ptr<pod::ThreadContext>
    thread(pod::HostId host)
    {
        auto ctx = pod->create_thread(host_process[host]);
        alloc->attach_thread(*ctx);
        ctx->mem().set_latency_model(&latency);
        return ctx;
    }

    /// Device offset of @p host's private extra slice: hosts sharing a home
    /// device get consecutive extra_per_host slices of its window.
    cxl::HeapOffset
    extra_base_for_host(pod::HostId host) const
    {
        const pod::Topology& topo = pod->topology();
        cxl::DeviceId home = topo.home_of(host);
        std::uint64_t rank = 0;
        for (pod::HostId h = 0; h < host; h++) {
            if (topo.home_of(h) == home) {
                rank++;
            }
        }
        return heap->extra_base(home) + rank * extra_per_host;
    }
};

/// Builds a sharded cxlalloc heap over @p topology. Each device window
/// holds one shard of @p geom's geometry plus enough extra space to give
/// every host homed on it a private Geometry::extra_bytes slice.
inline PodBundle
make_pod_bundle(const pod::Topology& topology, const Geometry& geom,
                MemoryMode mode = MemoryMode::CxlHwcc)
{
    PodBundle b;
    b.mode = mode;
    switch (mode) {
      case MemoryMode::Local:
        b.latency = cxl::LatencyModel::local_dram();
        break;
      case MemoryMode::CxlHwcc:
        b.latency = cxl::LatencyModel::cxl_hwcc();
        break;
      case MemoryMode::CxlMcas:
        b.latency = cxl::LatencyModel::cxl_mcas();
        break;
    }
    cxl::CoherenceMode coherence = mode == MemoryMode::CxlMcas
                                       ? cxl::CoherenceMode::NoHwcc
                                       : (geom.full_hwcc
                                              ? cxl::CoherenceMode::FullHwcc
                                              : cxl::CoherenceMode::PartialHwcc);

    cxlalloc::Config cfg;
    cfg.small_slabs = geom.small_slabs;
    cfg.large_slabs = geom.large_slabs;
    cfg.huge_regions = geom.huge_regions;
    cfg.huge_region_size = geom.huge_region_size;
    cfg.app_sync_bytes = geom.app_sync_bytes;
    cfg.dram_percent = geom.dram_percent;
    cfg.dram_max_block = geom.dram_max_block;

    // LocalDram windows hold a smaller host-private shard; the policy split
    // (dram_percent) rides on the shard config above.
    bool tiered = topology.has_dram_tier();
    cxlalloc::Config dram_cfg = cfg;
    if (tiered) {
        dram_cfg.small_slabs = geom.dram_small_slabs;
        dram_cfg.large_slabs = 8;
        dram_cfg.huge_regions = 1;
        dram_cfg.huge_region_size = 1 << 20;
    }

    // Worst-case hosts homed on one device decides the per-window extra.
    std::vector<std::uint32_t> homed(topology.devices(), 0);
    for (pod::HostId h = 0; h < topology.hosts(); h++) {
        homed[topology.home_of(h)]++;
    }
    std::uint32_t max_homed = 1;
    for (std::uint32_t n : homed) {
        max_homed = std::max(max_homed, n);
    }
    b.extra_per_host = (geom.extra_bytes + cxlcommon::kCacheLine - 1) &
                       ~std::uint64_t{cxlcommon::kCacheLine - 1};

    pod::PodConfig pc;
    pc.device = cxlalloc::PodShardedAllocator::device_config(
        cfg, topology, coherence, /*simulate_cache=*/false,
        /*extra_window_bytes=*/b.extra_per_host * max_homed,
        tiered ? &dram_cfg : nullptr);
    pc.checked_mappings = geom.checked_mappings;
    pc.topology = topology;
    b.pod = std::make_unique<pod::Pod>(pc);
    b.heap = std::make_unique<cxlalloc::PodShardedAllocator>(
        *b.pod, cfg, tiered ? &dram_cfg : nullptr);
    b.heap->set_metrics(bundle_metrics());
    b.host_process.resize(topology.hosts());
    for (pod::HostId h = 0; h < topology.hosts(); h++) {
        b.host_process[h] = b.pod->create_process(h);
        b.heap->attach(*b.host_process[h]);
    }
    b.alloc = std::make_unique<baselines::PodShardedAdapter>(b.heap.get());
    return b;
}

/// Runs @p body on @p hosts x @p threads_per_host threads — thread (h, i)
/// runs on host h's process and sees worker index h * threads_per_host + i.
/// Aggregation matches run_threads.
inline RunResult
run_pod_threads(PodBundle& b, std::uint32_t hosts,
                std::uint32_t threads_per_host,
                const std::function<std::uint64_t(pod::ThreadContext&,
                                                  pod::HostId,
                                                  std::uint32_t)>& body)
{
    auto host_of = [&](std::uint32_t w) {
        return static_cast<pod::HostId>(w / threads_per_host);
    };
    RunResult r = run_workers(
        *b.pod, *b.alloc, hosts * threads_per_host,
        [&](std::uint32_t w) { return b.thread(host_of(w)); },
        [&](pod::ThreadContext& ctx, std::uint32_t w) {
            return body(ctx, host_of(w), w);
        });
    r.hwcc_bytes = b.heap->hwcc_bytes();
    return r;
}

} // namespace bench
