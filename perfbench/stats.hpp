// Sample statistics and open-loop accounting shared by the workloads.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending sample: the value at 1-based rank
/// ceil(p/100 * n), clamped to [1, n].  Returns 0 for an empty sample.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double p);

/// A tail percentile together with the evidence behind it.
struct Tail {
  double pct = 0.0;        ///< the percentile chosen
  double value = 0.0;      ///< the sample at its nearest rank
  std::size_t beyond = 0;  ///< samples ranked strictly above it
};

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// The highest percentile of the ladder 50, 51, ..., 99, 99.9 that has at
/// least kTailBeyond samples ranked beyond it.  Because the choice depends
/// only on the sample count, a workload with a fixed count always reports
/// the same percentile.  Below 2 * kTailBeyond samples no ladder rung
/// qualifies and the median is returned with its (short) beyond count.
[[nodiscard]] Tail tail_percentile(const std::vector<double>& sorted);

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  Tail tail;
};

/// Sorts a copy of `samples` and summarises it.
[[nodiscard]] Summary summarize(std::vector<double> samples);

/// Open-loop arrival schedule: request i is due at start + i * period,
/// whatever happened to earlier requests (a stall is never re-paced away).
class OpenLoopSchedule {
 public:
  using Clock = std::chrono::steady_clock;

  OpenLoopSchedule(Clock::time_point start, double rate_per_s);

  [[nodiscard]] Clock::time_point due(std::uint64_t i) const;
  [[nodiscard]] Clock::time_point start() const { return start_; }

 private:
  Clock::time_point start_;
  double period_ns_;
};

/// One open-loop request, timed from when it was due.  The engine reports
/// queue wait and compute; lag is how late the generator sent it, and
/// resolve is the remainder (promise hand-off and completion detection).
struct OpenLoopRecord {
  double lag_us = 0.0;
  double latency_us = 0.0;
  double queue_us = 0.0;
  double compute_us = 0.0;

  [[nodiscard]] double resolve_us() const {
    return latency_us - lag_us - queue_us - compute_us;
  }
};

[[nodiscard]] OpenLoopRecord account(OpenLoopSchedule::Clock::time_point due,
                                     OpenLoopSchedule::Clock::time_point sent,
                                     OpenLoopSchedule::Clock::time_point done,
                                     double queue_us, double compute_us);

}  // namespace perfbench
