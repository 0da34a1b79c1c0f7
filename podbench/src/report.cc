#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace podbench {

namespace {

/// 1-based nearest rank of percentile @p per_10k among @p n samples.
std::uint64_t
nearest_rank(std::uint64_t n, std::uint32_t per_10k)
{
    return std::max<std::uint64_t>((n * per_10k + 9'999) / 10'000, 1);
}

} // namespace

std::uint64_t
samples_beyond(std::uint64_t n, std::uint32_t per_10k)
{
    // Nearest rank: the smallest rank r (1-based) with r >= n * p.
    std::uint64_t rank = nearest_rank(n, per_10k);
    return n >= rank ? n - rank : 0;
}

std::optional<double>
percentile(std::vector<std::uint64_t>& samples, std::uint32_t per_10k)
{
    std::uint64_t n = samples.size();
    if (n == 0 || samples_beyond(n, per_10k) < kMinBeyond) {
        return std::nullopt;
    }
    auto nth = samples.begin() +
               static_cast<std::ptrdiff_t>(nearest_rank(n, per_10k) - 1);
    std::nth_element(samples.begin(), nth, samples.end());
    return static_cast<double>(*nth);
}

std::optional<double>
tail_mean(std::vector<std::uint64_t>& samples, std::uint32_t per_10k)
{
    std::uint64_t n = samples.size();
    if (n == 0 || samples_beyond(n, per_10k) < kMinBeyond) {
        return std::nullopt;
    }
    auto first = samples.begin() +
                 static_cast<std::ptrdiff_t>(nearest_rank(n, per_10k));
    std::nth_element(samples.begin(), first, samples.end());
    std::vector<std::uint64_t> tail(first, samples.end());
    return mean_of(tail);
}

double
mean_of(const std::vector<std::uint64_t>& samples)
{
    double sum = 0;
    for (std::uint64_t x : samples) {
        sum += static_cast<double>(x);
    }
    return samples.empty() ? 0 : sum / static_cast<double>(samples.size());
}

std::uint32_t
highest_reportable(std::uint64_t n)
{
    std::uint32_t best = 0;
    for (std::uint32_t p : {5'000u, 9'000u, 9'900u, 9'990u, 9'999u}) {
        if (n > 0 && samples_beyond(n, p) >= kMinBeyond) {
            best = p;
        }
    }
    return best;
}

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0;
    }
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2;
}

const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics()
{
    static const std::vector<std::pair<std::string, std::string>> table = [] {
        std::vector<std::pair<std::string, std::string>> t;
        for (const char* op : {"insert", "get", "remove"}) {
            std::string p = std::string("kv.") + op;
            t.push_back({p + ".calls", "count"});
            t.push_back({p + ".host_ns_p50", "ns"});
        }
        t.push_back({"kv.self_host_ns_per_op", "ns"});
        std::vector<std::string> alloc_ops;
        for (const char* cls : {"small", "large", "huge"}) {
            for (const char* op : {"allocate", "deallocate"}) {
                alloc_ops.push_back(std::string("alloc.") + cls + "." + op);
            }
        }
        alloc_ops.push_back("alloc.deallocate_batch");
        for (const std::string& p : alloc_ops) {
            t.push_back({p + ".calls", "count"});
            t.push_back({p + ".host_ns_p50", "ns"});
            t.push_back({p + ".sim_ns_per_call", "ns"});
            t.push_back({p + ".fails", "count"});
        }
        t.push_back({"alloc.cleanup.calls", "count"});
        t.push_back({"alloc.cleanup.host_ns_p50", "ns"});
        t.push_back({"alloc.cleanup.sim_ns_per_call", "ns"});
        t.push_back({"alloc.remote_free_ratio", "ratio"});
        for (const char* c : {"loads", "stores", "flushed_lines", "fences",
                              "cas_ops", "mcas_ops"}) {
            t.push_back({std::string("mem.") + c + "_per_op", "1/op"});
        }
        t.push_back({"mem.cas_fail_ratio", "ratio"});
        t.push_back({"mem.mcas_conflict_ratio", "ratio"});
        t.push_back({"mem.mcas_batch_occupancy", "ops/batch"});
        t.push_back({"mem.tlb_hit_ratio", "ratio"});
        t.push_back({"mem.faults_per_op", "1/op"});
        t.push_back({"cache.evictions_per_op", "1/op"});
        t.push_back({"pod.remote_op_ratio", "ratio"});
        t.push_back({"pod.steal_per_op", "1/op"});
        t.push_back({"pod.dram_ratio", "ratio"});
        t.push_back({"recovery.recover.calls", "count"});
        t.push_back({"recovery.recover.sim_us", "us"});
        t.push_back({"recovery.recover.host_us", "us"});
        t.push_back({"migrate.run_epoch.calls", "count"});
        t.push_back({"migrate.run_epoch.host_us_p50", "us"});
        t.push_back({"migrate.run_epoch.sim_us", "us"});
        t.push_back({"migrate.promotions", "count"});
        t.push_back({"migrate.demotions", "count"});
        t.push_back({"migrate.aborted", "count"});
        t.push_back({"migrate.dram_read_ratio", "ratio"});
        t.push_back({"sync.cell_publish.calls", "count"});
        t.push_back({"sync.cell_publish.sim_ns_per_call", "ns"});
        t.push_back({"sync.cell_publish.cas_fail_ratio", "ratio"});
        for (const char* op : {"beat", "poll"}) {
            std::string p = std::string("liveness.") + op;
            t.push_back({p + ".calls", "count"});
            t.push_back({p + ".host_ns_p50", "ns"});
            t.push_back({p + ".sim_ns_per_call", "ns"});
        }
        t.push_back({"setup.pod_s", "s"});
        t.push_back({"setup.heap_s", "s"});
        t.push_back({"setup.preload_s", "s"});
        t.push_back({"obs.host_kops", "kops/s"});
        t.push_back({"obs.trace_overhead", "ratio"});
        return t;
    }();
    return table;
}

bool
is_host_metric(const std::string& name)
{
    return name.find("host_") != std::string::npos ||
           name.rfind("setup.", 0) == 0 || name.rfind("obs.", 0) == 0;
}

std::string
result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric>& metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        out += first ? "" : ", ";
        out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
        first = false;
    }
    out += "}}";
    return out;
}

} // namespace podbench
