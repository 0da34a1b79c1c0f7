#include "obs/registry.h"

#include <algorithm>
#include <cstdio>

#include "common/assert.h"

namespace obs {

std::uint64_t
MetricsSnapshot::counter(std::string_view name) const
{
    for (const auto& [n, v] : counters) {
        if (n == name) {
            return v;
        }
    }
    return 0;
}

double
MetricsSnapshot::gauge(std::string_view name) const
{
    for (const auto& [n, v] : gauges) {
        if (n == name) {
            return v;
        }
    }
    return 0;
}

const Histogram*
MetricsSnapshot::histogram(std::string_view name) const
{
    for (const auto& [n, h] : histograms) {
        if (n == name) {
            return &h;
        }
    }
    return nullptr;
}

void
MetricsSnapshot::merge(const MetricsSnapshot& other)
{
    for (const auto& [name, v] : other.counters) {
        auto it = std::find_if(counters.begin(), counters.end(),
                               [&](const auto& p) { return p.first == name; });
        if (it == counters.end()) {
            counters.emplace_back(name, v);
        } else {
            it->second += v;
        }
    }
    for (const auto& [name, v] : other.gauges) {
        auto it = std::find_if(gauges.begin(), gauges.end(),
                               [&](const auto& p) { return p.first == name; });
        if (it == gauges.end()) {
            gauges.emplace_back(name, v);
        } else {
            it->second = v; // gauges: latest value wins
        }
    }
    for (const auto& [name, h] : other.histograms) {
        auto it = std::find_if(histograms.begin(), histograms.end(),
                               [&](const auto& p) { return p.first == name; });
        if (it == histograms.end()) {
            histograms.emplace_back(name, h);
        } else {
            it->second.merge(h);
        }
    }
    trace.insert(trace.end(), other.trace.begin(), other.trace.end());
}

MetricsRegistry::~MetricsRegistry()
{
    for (auto& slot : shards_) {
        delete slot.load(std::memory_order_acquire);
    }
}

MetricId
MetricsRegistry::intern(std::vector<std::string>& names, std::size_t cap,
                        std::string_view name, const char* kind)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < names.size(); i++) {
        if (names[i] == name) {
            return static_cast<MetricId>(i);
        }
    }
    if (names.size() >= cap) {
        if (dropped_.empty()) {
            std::fprintf(stderr, "metrics registry: out of %s slots (%zu) "
                                 "at '%.*s'; counting dropped names in "
                                 "obs.dropped_metrics\n",
                         kind, cap, static_cast<int>(name.size()),
                         name.data());
        }
        dropped_.insert(std::string(kind) + ':' + std::string(name));
        return static_cast<MetricId>(cap);
    }
    names.emplace_back(name);
    return static_cast<MetricId>(names.size() - 1);
}

MetricId
MetricsRegistry::counter(std::string_view name)
{
    return intern(counter_names_, kMaxCounters, name, "counter");
}

MetricId
MetricsRegistry::gauge(std::string_view name)
{
    return intern(gauge_names_, kMaxGauges, name, "gauge");
}

MetricId
MetricsRegistry::histogram(std::string_view name)
{
    return intern(histogram_names_, kMaxHistograms, name, "histogram");
}

MetricId
MetricsRegistry::op(std::string_view name)
{
    // Op labels have no fixed storage; cap only bounds the name table.
    return intern(op_names_, 4096, name, "trace op");
}

MetricsShard&
MetricsRegistry::shard(std::uint32_t shard_id)
{
    CXL_ASSERT(shard_id < kMaxShards, "metrics shard id out of range");
    MetricsShard* s = shards_[shard_id].load(std::memory_order_acquire);
    if (s != nullptr) {
        return *s;
    }
    std::lock_guard<std::mutex> lock(mu_);
    s = shards_[shard_id].load(std::memory_order_acquire);
    if (s == nullptr) {
        s = new MetricsShard();
        shards_[shard_id].store(s, std::memory_order_release);
    }
    return *s;
}

void
MetricsRegistry::set_gauge(MetricId id, double value)
{
    gauge_values_[id].store(value, std::memory_order_relaxed);
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    // Copy the name tables under the lock, then read shard values relaxed.
    std::vector<std::string> counters, gauges, hists, ops;
    std::uint64_t dropped = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        dropped = dropped_.size();
        counters = counter_names_;
        gauges = gauge_names_;
        hists = histogram_names_;
        ops = op_names_;
    }
    MetricsSnapshot snap;
    snap.counters.reserve(counters.size());
    for (std::size_t c = 0; c < counters.size(); c++) {
        std::uint64_t total = 0;
        for (const auto& slot : shards_) {
            const MetricsShard* s = slot.load(std::memory_order_acquire);
            if (s != nullptr) {
                total += s->counters_[c].load(std::memory_order_relaxed);
            }
        }
        snap.counters.emplace_back(counters[c], total);
    }
    for (std::size_t g = 0; g < gauges.size(); g++) {
        snap.gauges.emplace_back(
            gauges[g], gauge_values_[g].load(std::memory_order_relaxed));
    }
    for (std::size_t h = 0; h < hists.size(); h++) {
        Histogram merged;
        for (const auto& slot : shards_) {
            const MetricsShard* s = slot.load(std::memory_order_acquire);
            if (s != nullptr) {
                merged.merge(s->histograms_[h].snapshot());
            }
        }
        snap.histograms.emplace_back(hists[h], merged);
    }
    std::vector<TraceEvent> events;
    for (const auto& slot : shards_) {
        const MetricsShard* s = slot.load(std::memory_order_acquire);
        if (s != nullptr) {
            s->trace_.collect(events);
        }
    }
    std::sort(events.begin(), events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                  return a.start_ns < b.start_ns;
              });
    snap.trace.reserve(events.size());
    for (const TraceEvent& e : events) {
        NamedTraceEvent ne;
        ne.op = e.op < ops.size() ? ops[e.op] : "?";
        ne.shard = e.shard;
        ne.start_ns = e.start_ns;
        ne.dur_ns = e.dur_ns;
        ne.arg = e.arg;
        snap.trace.push_back(std::move(ne));
    }
    if (dropped > 0) {
        // merge() matches by name, so an absorbed registry's own
        // obs.dropped_metrics counter and this one add up.
        MetricsSnapshot own;
        own.counters.emplace_back("obs.dropped_metrics", dropped);
        snap.merge(own);
    }
    return snap;
}

void
MetricsRegistry::absorb(const MetricsSnapshot& snap, std::string_view prefix)
{
    std::string name;
    MetricsShard& sh = shard(0);
    for (const auto& [n, v] : snap.counters) {
        if (v == 0) {
            continue;
        }
        name.assign(prefix);
        name += n;
        sh.add(counter(name), v);
    }
    for (const auto& [n, v] : snap.gauges) {
        name.assign(prefix);
        name += n;
        set_gauge(gauge(name), v);
    }
    for (const auto& [n, h] : snap.histograms) {
        if (h.count() == 0) {
            continue;
        }
        name.assign(prefix);
        name += n;
        sh.histograms_[histogram(name)].merge(h);
    }
}

void
MetricsRegistry::reset()
{
    for (auto& slot : shards_) {
        MetricsShard* s = slot.load(std::memory_order_acquire);
        if (s == nullptr) {
            continue;
        }
        for (auto& c : s->counters_) {
            c.store(0, std::memory_order_relaxed);
        }
        for (auto& h : s->histograms_) {
            h.reset();
        }
    }
    for (auto& g : gauge_values_) {
        g.store(0, std::memory_order_relaxed);
    }
}

MetricsRegistry&
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

} // namespace obs
