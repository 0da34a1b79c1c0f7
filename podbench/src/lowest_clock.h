/// @file
/// Lowest-modeled-clock-first scheduler for simulated pod sessions.
///
/// Every session of a workload runs on one OS thread; the benchmark asks the
/// scheduler which session executes its next operation. The answer is the
/// session whose modeled clock (MemSession::sim_ns) is lowest, ties going
/// to the lower session index. Because the choice depends only on modeled
/// clocks, every modeled number a run produces is a function of binary,
/// seed and workload — never of how the host OS schedules threads.

#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace podbench {

class LowestClockScheduler {
  public:
    /// @p sessions sessions, every clock starting at zero.
    explicit LowestClockScheduler(std::uint32_t sessions)
    {
        for (std::uint32_t i = 0; i < sessions; i++) {
            heap_.push({0, i});
        }
    }

    /// Removes and returns the session to run next: lowest clock, then
    /// lowest index. The caller runs one operation on it and hands it back
    /// through requeue() with its new clock.
    std::uint32_t
    next()
    {
        std::uint32_t index = heap_.top().second;
        heap_.pop();
        return index;
    }

    /// Returns @p index to the run queue at modeled time @p clock.
    void requeue(std::uint32_t index, std::uint64_t clock)
    {
        heap_.push({clock, index});
    }

    bool empty() const { return heap_.empty(); }

  private:
    using Entry = std::pair<std::uint64_t, std::uint32_t>; // clock, index
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        heap_;
};

} // namespace podbench
