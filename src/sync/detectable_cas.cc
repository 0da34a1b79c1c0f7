#include "sync/detectable_cas.h"

#include "common/assert.h"
#include "common/points.h"
#include "sched/hook.h"

namespace cxlsync {

DetectableCas::Result
DetectableCas::try_cas(cxl::MemSession& mem, cxl::HeapOffset word_offset,
                       std::uint32_t expected, std::uint32_t desired,
                       std::uint16_t version)
{
    sched::hook(sched::Op::DcasTry, word_offset, desired);
    std::uint64_t seen = mem.atomic_load64(word_offset);
    if (DcasWord::value(seen) != expected) {
        return Result{false, seen};
    }
    return cas_from(mem, word_offset, seen, desired, version);
}

DetectableCas::Result
DetectableCas::try_cas_from(cxl::MemSession& mem,
                            cxl::HeapOffset word_offset, std::uint64_t seen,
                            std::uint32_t desired, std::uint16_t version)
{
    sched::hook(sched::Op::DcasTry, word_offset, desired);
    return cas_from(mem, word_offset, seen, desired, version);
}

DetectableCas::Result
DetectableCas::cas_from(cxl::MemSession& mem, cxl::HeapOffset word_offset,
                        std::uint64_t seen, std::uint32_t desired,
                        std::uint16_t version)
{
    bound_lag(mem, version);
    // Before displacing a tagged word, publish the displaced owner's success
    // so its recovery can detect it even after the word moves on.
    record_help(mem, seen, version);
    std::uint64_t observed = seen;
    if (mem.cas64(word_offset, observed,
                  DcasWord::pack(desired, mem.tid(), version))) {
        return Result{true, seen};
    }
    return Result{false, observed};
}

cxl::McasOperand
DetectableCas::stage(cxl::MemSession& mem, cxl::HeapOffset word_offset,
                     std::uint64_t seen, std::uint32_t desired,
                     std::uint16_t version)
{
    record_help(mem, seen, version);
    return cxl::McasOperand{
        .target = word_offset,
        .expected = seen,
        .swap = DcasWord::pack(desired, mem.tid(), version)};
}

bool
DetectableCas::did_succeed(cxl::MemSession& mem,
                           cxl::HeapOffset word_offset, std::uint16_t version)
{
    CXL_ASSERT(detectable_, "recovery query on nonrecoverable DetectableCas");
    std::uint64_t current = mem.atomic_load64(word_offset);
    if (DcasWord::tid(current) == mem.tid() &&
        DcasWord::version(current) == version) {
        return true;
    }
    std::uint64_t help = mem.atomic_load64(help_entry(mem.tid()));
    // Help entries store (version + 1) so that a zero entry means "nothing
    // recorded" even for version 0.
    if (help == 0) {
        return false;
    }
    return version_geq(static_cast<std::uint16_t>(help - 1), version);
}

bool
DetectableCas::within_slack(cxl::ThreadId tid, std::uint16_t version) const
{
    if (floor_[tid] == 0) {
        return false;
    }
    // Distance from the version help[tid] is known to hold; 0 or "behind"
    // (a rewound, adopted slot) is never within the slack.
    auto lag = static_cast<std::uint16_t>(
        (version - (floor_[tid] - 1)) & kVersionMask);
    return lag != 0 && lag <= kSelfHelpSlack;
}

std::uint64_t
DetectableCas::raise_help(cxl::MemSession& mem, cxl::ThreadId tid,
                          std::uint16_t version)
{
    cxl::HeapOffset entry = help_entry(tid);
    std::uint64_t biased = static_cast<std::uint64_t>(version) + 1;
    std::uint64_t current = mem.atomic_load64(entry);
    while (current == 0 ||
           !version_geq(static_cast<std::uint16_t>(current - 1), version)) {
        if (mem.cas64(entry, current, biased)) {
            return biased;
        }
        // current reloaded by cas64 on failure; loop.
    }
    return current;
}

void
DetectableCas::bound_lag(cxl::MemSession& mem, std::uint16_t named)
{
    cxl::ThreadId tid = mem.tid();
    if (!detectable_ || rows_ == nullptr || within_slack(tid, named)) {
        return;
    }
    // A foreign helper may have raised the entry since the floor was taken.
    std::uint64_t current = mem.atomic_load64(help_entry(tid));
    if (current != 0) {
        floor_[tid] = static_cast<std::uint16_t>(current);
        if (within_slack(tid, named)) {
            return;
        }
    }
    // Only a version the durable row names bounds the raise: a recovery
    // redo's fresh version may sit past the record's own, still-open one.
    if (!rows_->names(mem, tid, named)) {
        return;
    }
    floor_[tid] = static_cast<std::uint16_t>(
        raise_help(mem, tid, (named - 1) & kVersionMask));
}

void
DetectableCas::record_help(cxl::MemSession& mem, std::uint64_t displaced,
                           std::uint16_t installing)
{
    cxl::ThreadId tid = DcasWord::tid(displaced);
    if (!detectable_ || tid == cxl::kNoThread) {
        return;
    }
    sched::hook(sched::Op::DcasHelp, help_entry(tid), tid);
    std::uint16_t version = DcasWord::version(displaced);
    bool self = tid == mem.tid();
    if (self) {
        if (within_slack(tid, installing)) {
            return; // see the class comment: (tid, v') is never queried
        }
    } else if (rows_ != nullptr &&
               (cxlcommon::defect::skip_named_help ||
                !rows_->names(mem, tid, version))) {
        return; // the owner's row has moved on: never queried (point 6)
    }
    std::uint64_t current = raise_help(mem, tid, version);
    if (self) {
        floor_[tid] = static_cast<std::uint16_t>(current);
    }
}

} // namespace cxlsync
