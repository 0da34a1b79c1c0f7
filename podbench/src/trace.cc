#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace podbench {

const char*
span_label(SpanName name)
{
    switch (name) {
      case SpanName::KvInsert:
        return "kv.insert";
      case SpanName::KvGet:
        return "kv.get";
      case SpanName::KvRemove:
        return "kv.remove";
      case SpanName::AllocSmallAllocate:
        return "alloc.small.allocate";
      case SpanName::AllocSmallDeallocate:
        return "alloc.small.deallocate";
      case SpanName::AllocLargeAllocate:
        return "alloc.large.allocate";
      case SpanName::AllocLargeDeallocate:
        return "alloc.large.deallocate";
      case SpanName::AllocHugeAllocate:
        return "alloc.huge.allocate";
      case SpanName::AllocHugeDeallocate:
        return "alloc.huge.deallocate";
      case SpanName::AllocDeallocateBatch:
        return "alloc.deallocate_batch";
      case SpanName::AllocCleanup:
        return "alloc.cleanup";
      case SpanName::RecoveryRecover:
        return "recovery.recover";
      case SpanName::MigrateRunEpoch:
        return "migrate.run_epoch";
      case SpanName::SyncCellPublish:
        return "sync.cell_publish";
      case SpanName::LivenessBeat:
        return "liveness.beat";
      case SpanName::LivenessPoll:
        return "liveness.poll";
      case SpanName::StoreRead:
        return "store.read";
      case SpanName::StoreReplace:
        return "store.replace";
      case SpanName::kCount:
        break;
    }
    return "?";
}

void
Tracer::start(std::size_t spans)
{
    spans_.clear();
    stack_.clear();
    next_op_ = 0;
    spans_.reserve(spans);
    t0_ = std::chrono::steady_clock::now();
}

std::uint64_t
Tracer::now_ns() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
}

std::int32_t
Tracer::open(SpanName name, std::uint64_t sim_now)
{
    Span s;
    s.name = name;
    s.sim_ns = sim_now; // start clock until close() turns it into a delta
    if (stack_.empty()) {
        s.op_id = next_op_++;
    } else {
        s.parent = stack_.back();
        s.op_id = spans_[static_cast<std::size_t>(s.parent)].op_id;
    }
    auto index = static_cast<std::int32_t>(spans_.size());
    stack_.push_back(index);
    s.start_ns = now_ns();
    spans_.push_back(s);
    return index;
}

void
Tracer::close(std::int32_t index, std::uint64_t sim_now, bool failed)
{
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = now_ns();
    s.sim_ns = sim_now - s.sim_ns;
    s.failed = failed;
    stack_.pop_back();
}

bool
Tracer::write_csv(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::fputs("name,start_ns,end_ns,parent,op_id,sim_ns,failed\n", f);
    for (const Span& s : spans_) {
        std::fprintf(f, "%s,%llu,%llu,%d,%llu,%llu,%d\n", span_label(s.name),
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns), s.parent,
                     static_cast<unsigned long long>(s.op_id),
                     static_cast<unsigned long long>(s.sim_ns),
                     s.failed ? 1 : 0);
    }
    return std::fclose(f) == 0;
}

std::array<SpanStats, kSpanNames>
aggregate(const std::vector<Span>& spans)
{
    // Children are recorded in start order, so a running "covered until"
    // per parent merges overlapping child intervals into their union.
    std::vector<std::uint64_t> covered(spans.size(), 0);
    std::vector<std::uint64_t> covered_until(spans.size(), 0);
    for (const Span& s : spans) {
        if (s.parent < 0) {
            continue;
        }
        auto p = static_cast<std::size_t>(s.parent);
        const Span& parent = spans[p];
        std::uint64_t lo = std::max({s.start_ns, parent.start_ns,
                                     covered_until[p]});
        std::uint64_t hi = std::min(s.end_ns, parent.end_ns);
        if (hi > lo) {
            covered[p] += hi - lo;
        }
        covered_until[p] = std::max(covered_until[p], hi);
    }

    std::array<SpanStats, kSpanNames> out;
    for (std::size_t i = 0; i < spans.size(); i++) {
        const Span& s = spans[i];
        SpanStats& st = out[static_cast<std::size_t>(s.name)];
        std::uint64_t dur = s.end_ns - s.start_ns;
        st.calls++;
        st.fails += s.failed ? 1 : 0;
        st.sim_ns += s.sim_ns;
        st.self_host_ns += dur - std::min(dur, covered[i]);
        st.host_ns.push_back(dur);
    }
    return out;
}

std::uint64_t
top_level_sim_ns(const std::vector<Span>& spans)
{
    std::uint64_t total = 0;
    for (const Span& s : spans) {
        if (s.parent < 0) {
            total += s.sim_ns;
        }
    }
    return total;
}

} // namespace podbench
