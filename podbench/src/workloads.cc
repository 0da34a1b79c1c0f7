#include "workloads.h"

#include <algorithm>
#include <cstdio>

#include "harness.h"
#include "report.h"

namespace podbench {

TrialResult run_kv_pod(const TrialConfig& config);
TrialResult run_churn_mcas(const TrialConfig& config);
TrialResult run_tiered_shift(const TrialConfig& config);

const char*
workload_name(Workload workload)
{
    switch (workload) {
      case Workload::KvPod:
        return "kv_pod";
      case Workload::ChurnMcas:
        return "churn_mcas";
      case Workload::TieredShift:
        return "tiered_shift";
    }
    return "?";
}

std::optional<Workload>
parse_workload(const std::string& name)
{
    for (Workload w : {Workload::KvPod, Workload::ChurnMcas,
                       Workload::TieredShift}) {
        if (name == workload_name(w)) {
            return w;
        }
    }
    return std::nullopt;
}

TrialResult
run_trial(const TrialConfig& config)
{
    switch (config.workload) {
      case Workload::KvPod:
        return run_kv_pod(config);
      case Workload::ChurnMcas:
        return run_churn_mcas(config);
      case Workload::TieredShift:
        return run_tiered_shift(config);
    }
    return {};
}

double
Modeled::sim_mops() const
{
    return max_worker_sim_ns > 0 ? static_cast<double>(ops) /
                                       static_cast<double>(max_worker_sim_ns) *
                                       1e3
                                 : 0;
}

double
Modeled::space_amp() const
{
    // The sharded heap keeps no host-side metadata, so the memory column
    // is the committed device footprint.
    return live_payload_bytes > 0
               ? static_cast<double>(committed_bytes) /
                     static_cast<double>(live_payload_bytes)
               : 0;
}

std::array<std::uint64_t, kMemFields>
mem_fields(const cxl::MemEventCounters& c, std::uint64_t evictions)
{
    return {c.loads,         c.stores,         c.flushes,
            c.flushed_lines, c.fences,         c.cas_ops,
            c.cas_failures,  c.mcas_ops,       c.mcas_conflicts,
            c.mcas_batches,  c.mcas_batch_ops, c.faults,
            c.tlb_hits,      c.tlb_misses,     c.pod_local,
            c.pod_remote,    c.pod_dram,       c.pod_edge_down,
            c.nmp_stall_escalations, evictions};
}

namespace {

double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

} // namespace

Harness::Harness(const TrialConfig& config, TrialResult& out)
    : config_(config), out_(out)
{
}

Harness::~Harness() = default;

void
Harness::build(const RigSpec& spec)
{
    latency_ = spec.latency;
    const cxlalloc::Config* dram = spec.dram ? &*spec.dram : nullptr;

    auto t0 = Clock::now();
    pod::PodConfig pc;
    pc.device = cxlalloc::PodShardedAllocator::device_config(
        spec.shard, spec.topology, spec.coherence, /*simulate_cache=*/false,
        spec.extra_window_bytes, dram);
    pc.checked_mappings = spec.checked_mappings;
    pc.topology = spec.topology;
    pod_ = std::make_unique<pod::Pod>(pc);
    out_.setup_pod_s = seconds_since(t0);

    auto t1 = Clock::now();
    heap_ = std::make_unique<cxlalloc::PodShardedAllocator>(*pod_, spec.shard,
                                                            dram);
    for (pod::HostId h = 0; h < spec.topology.hosts(); h++) {
        host_process_.push_back(pod_->create_process(h));
        heap_->attach(*host_process_.back());
    }
    // The checker inspects, it never allocates: an unchecked process of its
    // own, so its reads neither fault mappings into the workers' processes
    // nor commit pages.
    checker_process_ = std::make_unique<pod::Process>(
        pod_.get(), /*pid=*/1'000'000, /*checked=*/false, /*host=*/0);
    checker_ = pod_->create_thread(checker_process_.get());
    ledger_ = std::make_unique<BlockLedger>(*heap_);
    alloc_ = std::make_unique<TracedAllocator>(*heap_, *ledger_, out_.tracer);
    out_.setup_heap_s = seconds_since(t1);
}

Session&
Harness::add_session(pod::HostId host)
{
    auto t0 = Clock::now();
    auto s = std::make_unique<Session>();
    s->host = host;
    s->ctx = pod_->create_thread(host_process_[host]);
    alloc_->attach_thread(*s->ctx);
    s->ctx->mem().set_latency_model(&latency_);
    sessions_.push_back(std::move(s));
    out_.setup_heap_s += seconds_since(t0);
    return *sessions_.back();
}

void
Harness::begin_preload()
{
    phase_start_ = Clock::now();
}

void
Harness::end_preload()
{
    out_.setup_preload_s = seconds_since(phase_start_);
    for (auto& s : sessions_) {
        s->ctx->mem().reset_accounting();
    }
}

void
Harness::begin_measure(std::size_t spans)
{
    if (config_.trace) {
        out_.tracer = Tracer(true); // set-up and preload stay untraced
        out_.tracer.start(spans);
    }
    excluded_s_ = 0;
    measuring_ = true;
    phase_start_ = Clock::now();
    window_start_ = phase_start_;
    window_excluded_s_ = 0;
}

void
Harness::end_measure(std::uint64_t ops, std::uint32_t workers)
{
    out_.run_s = seconds_since(phase_start_) - excluded_s_;
    measuring_ = false;
    Modeled& m = out_.modeled;
    m.ops = ops;
    for (std::uint32_t i = 0; i < workers; i++) {
        m.max_worker_sim_ns =
            std::max(m.max_worker_sim_ns, sessions_[i]->clock());
    }
    for (auto& s : sessions_) {
        measured_mem_ += s->retired;
        measured_mem_ += s->ctx->mem().counters();
        measured_evictions_ +=
            s->retired_evictions + s->ctx->mem().cache().evictions();
    }
    measured_steals_ = alloc_->steals();
    m.hwcc_bytes = heap_->hwcc_bytes();
}

void
Harness::record_op(std::uint64_t sim_ns)
{
    op_ns_.push_back(sim_ns);
    if (op_ns_.size() % kWindowOps == 0) {
        Clock::time_point now = Clock::now();
        double s = std::chrono::duration<double>(now - window_start_).count() -
                   (excluded_s_ - window_excluded_s_);
        out_.window_ns.push_back(static_cast<std::uint64_t>(s * 1e9));
        window_start_ = now;
        window_excluded_s_ = excluded_s_;
    }
    if (op_ns_.size() % kSpaceEvery == 0) {
        out_.modeled.committed_bytes += pod_->device().committed_bytes();
        out_.modeled.live_payload_bytes += ledger_->live_bytes();
    }
}

void
Harness::exclude(const std::function<void()>& fn)
{
    auto t0 = Clock::now();
    fn();
    if (measuring_) {
        excluded_s_ += seconds_since(t0);
    }
}

void
Harness::fail(const std::string& what)
{
    check_failures_++;
    if (out_.errors.size() < 8) {
        out_.errors.push_back(what);
    }
}

void
Harness::sweep(const char* where)
{
    exclude([&] {
        heap_->check_invariants(checker());
        std::string diff = ledger_->compare_with_heap(checker());
        if (!diff.empty()) {
            fail(std::string(where) + ": " + diff);
        }
    });
}

void
Harness::crash_and_adopt(Session& s)
{
    cxl::ThreadId tid = s.ctx->tid();
    std::uint64_t clock = s.ctx->mem().sim_ns();
    s.retired += s.ctx->mem().counters();
    s.retired_evictions += s.ctx->mem().cache().evictions();
    pod_->mark_crashed(std::move(s.ctx));
    s.ctx = pod_->adopt_thread(host_process_[s.host], tid);
    s.ctx->mem().set_latency_model(&latency_);
    s.ctx->mem().charge(clock);
}

void
Harness::restart_probe(std::uint32_t restarts, LowestClockScheduler& sched,
                       const std::function<void(std::uint32_t)>& step,
                       const std::function<void(pod::ThreadContext&)>& recover)
{
    for (std::uint32_t i = 0; i < restarts; i++) {
        for (std::uint32_t k = 0; k < kRestartEvery; k++) {
            std::uint32_t w = sched.next();
            step(w);
            sched.requeue(w, sessions_[w]->clock());
        }
        std::uint32_t w = sched.next();
        Session& s = *sessions_[w];
        crash_and_adopt(s);
        std::uint64_t before = s.clock();
        recover(*s.ctx);
        record_recover(s.clock() - before);
        sweep("restart probe");
        sched.requeue(w, s.clock());
    }
}

void
Harness::finish()
{
    Modeled& m = out_.modeled;

    // Percentiles and tail means under the reporting rule.
    m.op_samples = op_ns_.size();
    m.recover_samples = recover_ns_.size();
    auto need = [&](std::optional<double> value, const char* what) {
        if (!value) {
            fail(std::string("too few samples for ") + what);
        }
        return value.value_or(0.0);
    };
    m.op_mean_ns = mean_of(op_ns_);
    m.recover_mean_ns = mean_of(recover_ns_);
    m.op_tail999_ns = need(tail_mean(op_ns_, 9'990), "sim_op_ns_tail999");
    m.op_p50_ns = need(percentile(op_ns_, 5'000), "op p50");
    m.op_p999_ns = need(percentile(op_ns_, 9'990), "op p99.9");
    if (!recover_ns_.empty()) {
        m.recover_p50_ns = need(percentile(recover_ns_, 5'000), "recover p50");
    }

    cxl::MemEventCounters total{};
    std::uint64_t evictions = 0;
    std::uint64_t sessions_sim = 0;
    for (auto& s : sessions_) {
        total += s->retired;
        total += s->ctx->mem().counters();
        evictions += s->retired_evictions + s->ctx->mem().cache().evictions();
        sessions_sim += s->clock();
    }
    m.mem = mem_fields(total, evictions);

    char note[200];
    std::snprintf(note, sizeof note,
                  "op latency (modeled): p50 %.0f ns, p99.9 %.0f ns, mean "
                  "%.3f ns over %llu ops (highest reportable p%.2f)",
                  m.op_p50_ns, m.op_p999_ns, m.op_mean_ns,
                  static_cast<unsigned long long>(m.op_samples),
                  highest_reportable(m.op_samples) / 100.0);
    out_.notes.push_back(note);
    if (m.recover_samples > 0) {
        std::snprintf(note, sizeof note,
                      "recovery (modeled): p50 %.3f us, mean %.6f us over "
                      "%llu restarts (highest reportable p%.2f)",
                      m.recover_p50_ns / 1e3, m.recover_mean_ns / 1e3,
                      static_cast<unsigned long long>(m.recover_samples),
                      highest_reportable(m.recover_samples) / 100.0);
        out_.notes.push_back(note);
    }

    if (config_.trace) {
        layer_metrics(sessions_sim);
    }
    m.failed = check_failures_ + alloc_->failures();
}

void
Harness::layer_metrics(std::uint64_t sessions_sim)
{
    Modeled& m = out_.modeled;

    // Every modeled nanosecond of every session lies inside exactly one
    // top-level span.
    std::uint64_t spans_sim = top_level_sim_ns(out_.tracer.spans());
    if (spans_sim != sessions_sim) {
        fail("top-level spans hold " + std::to_string(spans_sim) +
             " sim ns, sessions " + std::to_string(sessions_sim));
    }

    std::array<SpanStats, kSpanNames> agg =
        aggregate(out_.tracer.spans());
    std::map<std::string, double>& L = out_.layer;
    auto p50_of = [](std::vector<std::uint64_t>& v) {
        return percentile(v, 5'000).value_or(0.0);
    };
    for (std::size_t i = 0; i < kSpanNames; i++) {
        SpanStats& st = agg[i];
        std::string label = span_label(static_cast<SpanName>(i));
        double calls = static_cast<double>(st.calls);
        L[label + ".calls"] = calls;
        L[label + ".fails"] = static_cast<double>(st.fails);
        L[label + ".sim_ns_per_call"] =
            ratio(static_cast<double>(st.sim_ns), calls);
        L[label + ".host_ns_p50"] = p50_of(st.host_ns);
    }

    auto stat = [&](SpanName n) -> SpanStats& {
        return agg[static_cast<std::size_t>(n)];
    };
    double kv_calls = 0;
    double kv_self = 0;
    for (SpanName n : {SpanName::KvInsert, SpanName::KvGet,
                       SpanName::KvRemove}) {
        kv_calls += static_cast<double>(stat(n).calls);
        kv_self += static_cast<double>(stat(n).self_host_ns);
    }
    L["kv.self_host_ns_per_op"] = ratio(kv_self, kv_calls);

    SpanStats& rec = stat(SpanName::RecoveryRecover);
    double rec_calls = static_cast<double>(rec.calls);
    double rec_host = 0;
    for (std::uint64_t d : rec.host_ns) {
        rec_host += static_cast<double>(d);
    }
    L["recovery.recover.sim_us"] =
        ratio(static_cast<double>(rec.sim_ns), rec_calls) / 1e3;
    L["recovery.recover.host_us"] = ratio(rec_host, rec_calls) / 1e3;

    SpanStats& epoch = stat(SpanName::MigrateRunEpoch);
    L["migrate.run_epoch.host_us_p50"] = p50_of(epoch.host_ns) / 1e3;
    L["migrate.run_epoch.sim_us"] =
        ratio(static_cast<double>(epoch.sim_ns),
              static_cast<double>(epoch.calls)) /
        1e3;

    SpanStats& publish = stat(SpanName::SyncCellPublish);
    L["sync.cell_publish.cas_fail_ratio"] =
        ratio(static_cast<double>(publish.fails),
              static_cast<double>(publish.calls));

    L["alloc.remote_free_ratio"] =
        ratio(static_cast<double>(alloc_->remote_frees()),
              static_cast<double>(alloc_->frees()));

    const cxl::MemEventCounters& c = measured_mem_;
    auto ops = static_cast<double>(m.ops);
    auto per_op = [&](std::uint64_t n) {
        return ratio(static_cast<double>(n), ops);
    };
    L["mem.loads_per_op"] = per_op(c.loads);
    L["mem.stores_per_op"] = per_op(c.stores);
    L["mem.flushed_lines_per_op"] = per_op(c.flushed_lines);
    L["mem.fences_per_op"] = per_op(c.fences);
    L["mem.cas_ops_per_op"] = per_op(c.cas_ops);
    L["mem.mcas_ops_per_op"] = per_op(c.mcas_ops);
    L["mem.cas_fail_ratio"] = ratio(static_cast<double>(c.cas_failures),
                                    static_cast<double>(c.cas_ops));
    L["mem.mcas_conflict_ratio"] =
        ratio(static_cast<double>(c.mcas_conflicts),
              static_cast<double>(c.mcas_ops));
    L["mem.mcas_batch_occupancy"] =
        ratio(static_cast<double>(c.mcas_batch_ops),
              static_cast<double>(c.mcas_batches));
    L["mem.tlb_hit_ratio"] =
        ratio(static_cast<double>(c.tlb_hits),
              static_cast<double>(c.tlb_hits + c.tlb_misses));
    L["mem.faults_per_op"] = per_op(c.faults);
    L["cache.evictions_per_op"] = per_op(measured_evictions_);
    L["pod.remote_op_ratio"] =
        ratio(static_cast<double>(c.pod_remote),
              static_cast<double>(c.pod_local + c.pod_remote));
    L["pod.steal_per_op"] = per_op(measured_steals_);
    L["pod.dram_ratio"] =
        ratio(static_cast<double>(c.pod_dram),
              static_cast<double>(c.pod_local + c.pod_remote + c.pod_dram));
}

} // namespace podbench
