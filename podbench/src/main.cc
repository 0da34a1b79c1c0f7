/// podbench: the pod benchmark's single command.
///
///   podbench --workload <kv_pod|churn_mcas|tiered_shift> --seed <n>
///            --seconds <s> --trace <0|1> [--spans-out <path>]
///
/// Runs trials of one workload from one OS thread until --seconds have
/// passed (at least three), each followed by set-up probes, checks every
/// trial's outputs, checks that the modeled results repeat bit for bit,
/// that a traced trial models exactly what an untraced one does, and that
/// another seed changes them. Prints
/// a human-readable summary, then one JSON line: the end-to-end metrics
/// (--trace 0) or the per-layer metrics of the traced trials (--trace 1).
/// Exits 1 if any check failed, 2 on bad arguments.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace {

using podbench::Metric;
using podbench::TrialConfig;
using podbench::TrialResult;

/// Share of a trial's host time spent on the set-up probes after it.
constexpr double kProbeShare = 0.1;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans_out;
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "podbench: %s\nusage: podbench --workload "
                 "<kv_pod|churn_mcas|tiered_shift> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <path>]\n",
                 why);
    std::exit(2);
}

Args
parse(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value for " + flag).c_str());
        }
        std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = value;
            } else if (flag == "--seed") {
                a.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                a.seconds = std::stod(value);
            } else if (flag == "--trace") {
                a.trace = std::stoi(value) != 0;
            } else if (flag == "--spans-out") {
                a.spans_out = value;
            } else {
                usage(("unknown flag " + flag).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (a.workload.empty()) {
        usage("--workload is required");
    }
    return a;
}

double
host_kops(const TrialResult& r)
{
    return r.run_s > 0 ? static_cast<double>(r.modeled.ops) / r.run_s / 1e3
                       : 0;
}

/// Peak resident set size of this process, in MiB.
double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    Args args = parse(argc, argv);
    std::optional<podbench::Workload> workload =
        podbench::parse_workload(args.workload);
    if (!workload) {
        usage(("unknown workload " + args.workload).c_str());
    }

    std::vector<std::string> errors;
    // Failed checks of the run as a whole (determinism, seed); failed
    // checks inside a trial count in its Modeled::failed.
    std::uint64_t run_failed = 0;
    auto run_error = [&](const std::string& what) {
        run_failed++;
        errors.push_back(what);
    };
    std::vector<TrialResult> plain;
    std::vector<TrialResult> traced;
    // Set-up times of every trial and set-up probe.
    std::vector<double> setup;
    std::vector<double> setup_pod;
    std::vector<double> setup_heap;
    std::vector<double> setup_preload;
    auto add_setup = [&](const TrialResult& r) {
        setup.push_back(r.setup_s());
        setup_pod.push_back(r.setup_pod_s);
        setup_heap.push_back(r.setup_heap_s);
        setup_preload.push_back(r.setup_preload_s);
    };
    auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    // Untraced trials measure the end-to-end numbers; in a traced run they
    // alternate with traced trials, which give the per-layer numbers.
    for (std::uint32_t i = 0;; i++) {
        bool want_more = elapsed() < args.seconds || plain.size() < 3 ||
                         (args.trace && traced.size() < 2);
        if (!want_more) {
            break;
        }
        TrialConfig cfg;
        cfg.workload = *workload;
        cfg.seed = args.seed;
        cfg.trace = args.trace && i % 2 == 1;
        double trial_start = elapsed();
        TrialResult r = podbench::run_trial(cfg);
        for (const std::string& e : r.errors) {
            errors.push_back("trial " + std::to_string(i) + ": " + e);
        }
        add_setup(r);
        // Set-up is short and host speed drifts over seconds, so every
        // trial is followed by set-up probes: each run has many set-ups,
        // spread over its whole length, however long its trials are.
        double probe_end = elapsed() + (elapsed() - trial_start) * kProbeShare;
        while (elapsed() < probe_end) {
            TrialConfig probe = cfg;
            probe.trace = false;
            probe.setup_only = true;
            TrialResult p = podbench::run_trial(probe);
            for (const std::string& e : p.errors) {
                errors.push_back("set-up probe: " + e);
            }
            add_setup(p);
        }
        const TrialResult& ref = plain.empty() ? r : plain.front();
        if (!(r.modeled == ref.modeled)) {
            run_error("trial " + std::to_string(i) +
                      (cfg.trace ? " (traced)" : "") +
                      ": modeled results differ from trial 0");
        }
        if (cfg.trace && !traced.empty()) {
            for (const auto& [name, value] : r.layer) {
                if (!podbench::is_host_metric(name) &&
                    traced.front().layer.at(name) != value) {
                    run_error("traced trial " + std::to_string(i) + ": " +
                              name + " differs");
                }
            }
        }
        if (cfg.trace && !traced.empty()) {
            traced.back().tracer = podbench::Tracer(false); // keep one span set
        }
        (cfg.trace ? traced : plain).push_back(std::move(r));
        if (!errors.empty()) {
            break;
        }
    }

    // The seed must reach the generators.
    if (errors.empty()) {
        TrialConfig other;
        other.workload = *workload;
        other.seed = args.seed + 1;
        TrialResult r = podbench::run_trial(other);
        if (r.modeled.sim_mops() == plain.front().modeled.sim_mops()) {
            run_error("seed " + std::to_string(other.seed) +
                      " gave the same sim_mops as seed " +
                      std::to_string(args.seed));
        }
    }

    const podbench::Modeled& m = plain.front().modeled;
    std::uint64_t attempted = 0;
    std::uint64_t trial_failed = 0;
    std::vector<double> kops;
    std::vector<double> kops_traced;
    std::vector<std::uint64_t> windows;
    for (const auto* list : {&plain, &traced}) {
        for (const TrialResult& r : *list) {
            attempted += r.modeled.ops;
            trial_failed += r.modeled.failed;
            (list == &plain ? kops : kops_traced).push_back(host_kops(r));
            if (list == &plain) {
                windows.insert(windows.end(), r.window_ns.begin(),
                               r.window_ns.end());
            }
        }
    }
    // Host time on a shared machine comes in fast and slow stretches of
    // seconds. The fastest set-up of the run and the 10th percentile of
    // short window times read the fast stretches, which nearly every run
    // has; medians read the mix of stretches, which drifts from run to run.
    double setup_best = *std::min_element(setup.begin(), setup.end());
    std::optional<double> window_p10 = podbench::percentile(windows, 1'000);
    if (!window_p10) {
        run_error("too few host-time windows for host_kops");
    }
    double kops_fast =
        window_p10 ? static_cast<double>(podbench::kWindowOps) /
                         *window_p10 * 1e6
                   : 0;
    std::printf("podbench %s seed=%llu: %zu untraced + %zu traced trials "
                "of %llu ops\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), plain.size(),
                traced.size(), static_cast<unsigned long long>(m.ops));
    for (const std::string& note : plain.front().notes) {
        std::printf("  %s\n", note.c_str());
    }
    std::printf("  setup (host): fastest %.6f s, median %.6f s over %zu "
                "set-ups\n",
                setup_best, podbench::median(setup), setup.size());
    std::printf("  host_kops: %.3f at the 10th percentile of %zu window "
                "times of %llu ops, %.3f over whole untraced trials "
                "(median)\n",
                kops_fast, windows.size(),
                static_cast<unsigned long long>(podbench::kWindowOps),
                podbench::median(kops));
    std::uint64_t failed = trial_failed + run_failed;
    std::printf("  fail_ratio %.6g (%llu of %llu)\n",
                attempted > 0 ? static_cast<double>(failed) /
                                    static_cast<double>(attempted)
                              : 0.0,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));

    std::vector<Metric> metrics;
    if (!args.trace) {
        double ops = static_cast<double>(attempted);
        metrics = {
            {"sim_mops", m.sim_mops(), "Mops/s"},
            {"sim_op_ns_mean", m.op_mean_ns, "ns"},
            {"sim_op_ns_tail999", m.op_tail999_ns, "ns"},
            {"ok_ratio", ops > 0 ? 1.0 - static_cast<double>(failed) / ops : 0,
             "ratio"},
            {"space_amp", m.space_amp(), "ratio"},
            {"hwcc_bytes", static_cast<double>(m.hwcc_bytes), "bytes"},
            {"setup_s", setup_best, "s"},
            {"host_rss_mb", peak_rss_mb(), "MiB"},
        };
    } else {
        std::map<std::string, double> layer;
        if (!traced.empty()) {
            layer = traced.front().layer;
        }
        for (auto& [name, value] : layer) {
            if (podbench::is_host_metric(name)) {
                std::vector<double> across;
                for (const TrialResult& r : traced) {
                    across.push_back(r.layer.at(name));
                }
                value = podbench::median(across);
            }
        }
        auto fastest = [](const std::vector<double>& v) {
            return *std::min_element(v.begin(), v.end());
        };
        layer["setup.pod_s"] = fastest(setup_pod);
        layer["setup.heap_s"] = fastest(setup_heap);
        layer["setup.preload_s"] = fastest(setup_preload);
        layer["obs.host_kops"] = kops_fast;
        double base = podbench::median(kops);
        layer["obs.trace_overhead"] =
            base > 0 ? podbench::median(kops_traced) / base : 0;
        for (const auto& [name, unit] : podbench::per_layer_metrics()) {
            auto it = layer.find(name);
            metrics.push_back(
                {name, it != layer.end() ? it->second : 0.0, unit});
        }
        if (!args.spans_out.empty() && !traced.empty() &&
            !traced.back().tracer.write_csv(args.spans_out)) {
            run_error("cannot write spans to " + args.spans_out);
        }
    }
    for (const Metric& metric : metrics) {
        std::printf("  %-40s %16.6f %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    }
    for (const std::string& e : errors) {
        std::printf("FAILED CHECK: %s\n", e.c_str());
    }
    failed = trial_failed + run_failed; // a spans-file error may have landed
    bool correct = errors.empty() && failed == 0;
    std::printf("%s\n",
                podbench::result_json(correct, attempted, failed, metrics)
                    .c_str());
    return correct ? 0 : 1;
}
