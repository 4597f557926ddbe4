#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile p in a sample of n.
std::size_t nearest_rank(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

Tail tail_percentile(const std::vector<double>& sorted) {
  Tail tail;
  if (sorted.empty()) return tail;
  const std::size_t n = sorted.size();
  std::vector<double> ladder;
  for (int p = 50; p <= 99; ++p) ladder.push_back(p);
  ladder.push_back(99.9);
  tail.pct = 50.0;
  for (const double p : ladder) {
    if (n - nearest_rank(n, p) >= kTailBeyond) tail.pct = p;
  }
  tail.value = percentile_sorted(sorted, tail.pct);
  tail.beyond = n - nearest_rank(n, tail.pct);
  return tail;
}

Summary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  if (s.n == 0) return s;
  s.p50 = percentile_sorted(samples, 50.0);
  s.p99 = percentile_sorted(samples, 99.0);
  s.tail = tail_percentile(samples);
  return s;
}

OpenLoopSchedule::OpenLoopSchedule(Clock::time_point start, double rate_per_s)
    : start_(start), period_ns_(1e9 / rate_per_s) {}

OpenLoopSchedule::Clock::time_point OpenLoopSchedule::due(std::uint64_t i) const {
  return start_ + std::chrono::nanoseconds(static_cast<std::int64_t>(
                      std::llround(static_cast<double>(i) * period_ns_)));
}

OpenLoopRecord account(OpenLoopSchedule::Clock::time_point due,
                       OpenLoopSchedule::Clock::time_point sent,
                       OpenLoopSchedule::Clock::time_point done,
                       double queue_us, double compute_us) {
  const auto us = [](auto d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  OpenLoopRecord r;
  r.lag_us = us(sent - due);
  r.latency_us = us(done - due);
  r.queue_us = queue_us;
  r.compute_us = compute_us;
  return r;
}

}  // namespace perfbench
