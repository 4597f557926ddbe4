// Tests of the benchmark's own helpers: the tail-percentile rule, open-loop
// lag accounting, and span self-time subtraction.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <numeric>
#include <thread>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> iota_sample(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // value == 1-based rank
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = iota_sample(100);
  EXPECT_EQ(percentile_sorted(v, 50), 50);
  EXPECT_EQ(percentile_sorted(v, 99), 99);
  EXPECT_EQ(percentile_sorted(v, 100), 100);
  EXPECT_EQ(percentile_sorted(v, 0), 1);
  EXPECT_EQ(percentile_sorted({}, 50), 0);
  EXPECT_EQ(percentile_sorted(iota_sample(108), 90), 98);  // ceil(97.2)
}

TEST(TailPercentile, KeepsTenSamplesBeyond) {
  // The campaign's 108 cells: p90 sits at rank 98, ten cells beyond.
  Tail t = tail_percentile(iota_sample(108));
  EXPECT_EQ(t.pct, 90);
  EXPECT_EQ(t.value, 98);
  EXPECT_EQ(t.beyond, 10);

  // p99.9 needs 10000 samples; one fewer drops to p99.
  t = tail_percentile(iota_sample(10000));
  EXPECT_DOUBLE_EQ(t.pct, 99.9);
  EXPECT_EQ(t.beyond, 10);
  t = tail_percentile(iota_sample(9999));
  EXPECT_EQ(t.pct, 99);
  EXPECT_EQ(t.beyond, 99);

  // A serve window (500 requests) reports p98 with 10 beyond.
  t = tail_percentile(iota_sample(500));
  EXPECT_EQ(t.pct, 98);
  EXPECT_EQ(t.beyond, 10);
}

TEST(TailPercentile, SmallSamplesFallBackToTheMedian) {
  Tail t = tail_percentile(iota_sample(24));  // online: 24 episodes
  EXPECT_EQ(t.pct, 58);
  EXPECT_EQ(t.beyond, 10);
  t = tail_percentile(iota_sample(15));
  EXPECT_EQ(t.pct, 50);
  EXPECT_EQ(t.value, 8);
  EXPECT_EQ(t.beyond, 7);
  t = tail_percentile({});
  EXPECT_EQ(t.beyond, 0);
  EXPECT_EQ(t.value, 0);
}

TEST(TailPercentile, EveryRungHasTenBeyond) {
  for (std::size_t n = 20; n < 3000; n += 7) {
    const Tail t = tail_percentile(iota_sample(n));
    EXPECT_GE(t.beyond, kTailBeyond) << n;
    EXPECT_EQ(t.value, static_cast<double>(n - t.beyond)) << n;
  }
}

TEST(Summarize, SortsItsCopy) {
  const Summary s = summarize({5, 1, 4, 2, 3});
  EXPECT_EQ(s.n, 5U);
  EXPECT_EQ(s.p50, 3);
  EXPECT_EQ(s.p99, 5);
}

using Clock = OpenLoopSchedule::Clock;

TEST(OpenLoop, ScheduleIsNeverRepaced) {
  const auto t0 = Clock::time_point{};
  const OpenLoopSchedule sched(t0, 30000.0);
  // Due times depend only on the index: no drift over a long run and no
  // shift after a late send.
  EXPECT_EQ(sched.due(0), t0);
  EXPECT_EQ(sched.due(3), t0 + std::chrono::nanoseconds(100000));
  EXPECT_EQ(sched.due(300000), t0 + std::chrono::seconds(10));
}

TEST(OpenLoop, LatencyRunsFromTheDueTime) {
  using std::chrono::microseconds;
  const auto due = Clock::time_point{} + microseconds(1000);
  // The generator stalled 40 us, the engine queued 100 us and computed
  // 200 us, and completion was seen 5 us after the promise was set.
  const OpenLoopRecord r =
      account(due, due + microseconds(40), due + microseconds(345), 100.0, 200.0);
  EXPECT_DOUBLE_EQ(r.lag_us, 40.0);
  EXPECT_DOUBLE_EQ(r.latency_us, 345.0);
  EXPECT_DOUBLE_EQ(r.resolve_us(), 5.0);
}

TEST(OpenLoop, AStallChargesEveryLaterRequest) {
  using std::chrono::microseconds;
  const OpenLoopSchedule sched(Clock::time_point{}, 10000.0);  // one per 100 us
  // The generator stalls for 1 ms and then sends the ten overdue requests at
  // once; each served in 50 us.  Their latencies count the stall.
  const auto resume = sched.due(0) + microseconds(1000);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const OpenLoopRecord r =
        account(sched.due(i), resume, resume + microseconds(50), 0.0, 50.0);
    EXPECT_DOUBLE_EQ(r.lag_us, 1000.0 - 100.0 * static_cast<double>(i));
    EXPECT_DOUBLE_EQ(r.latency_us, r.lag_us + 50.0);
    EXPECT_DOUBLE_EQ(r.resolve_us(), 0.0);
  }
}

SpanRecord span(const char* name, std::int64_t start, std::int64_t end, std::uint64_t id,
                std::uint64_t parent) {
  return {name, start, end, id, parent, 0};
}

TEST(SelfTime, SubtractsChildCoverageOnce) {
  // root [0,100) with children [10,30), [20,50) (overlapping) and [60,70);
  // a grandchild inside the first child does not count against the root.
  const std::vector<SpanRecord> spans = {
      span("root", 0, 100, 1, 0),     span("a", 10, 30, 2, 1), span("b", 20, 50, 3, 1),
      span("c", 60, 70, 4, 1),        span("g", 12, 18, 5, 2),
  };
  const auto layers = layer_times(spans);
  EXPECT_DOUBLE_EQ(layers.at("root").total_ns, 100);
  EXPECT_DOUBLE_EQ(layers.at("root").self_ns, 100 - 40 - 10);
  EXPECT_DOUBLE_EQ(layers.at("a").self_ns, 20 - 6);
  EXPECT_DOUBLE_EQ(layers.at("g").self_ns, 6);
  EXPECT_EQ(layers.at("root").count, 1U);
}

TEST(SelfTime, ClipsChildrenToTheParent) {
  // A child on another thread may outlive its parent; only the overlap counts.
  const std::vector<SpanRecord> spans = {span("p", 0, 50, 1, 0), span("c", 40, 90, 2, 1)};
  EXPECT_DOUBLE_EQ(layer_times(spans).at("p").self_ns, 40);
}

TEST(SelfTime, UnattributedCountsRootAndContainers) {
  const std::vector<SpanRecord> spans = {
      span("worker", 0, 100, 1, 0), span("cell", 0, 80, 2, 1), span("fit", 10, 70, 3, 2),
      span("worker", 0, 100, 4, 0), span("cell", 0, 100, 5, 4), span("fit", 0, 100, 6, 5),
  };
  const auto layers = layer_times(spans);
  // worker self 20 + 0, cell self 20 + 0, over 200 ns of workers.
  EXPECT_DOUBLE_EQ(unattributed_frac(layers, "worker"), 20.0 / 200.0);
  EXPECT_DOUBLE_EQ(unattributed_frac(layers, "worker", {"cell"}), 40.0 / 200.0);
  EXPECT_DOUBLE_EQ(unattributed_frac(layers, "missing"), 0.0);
  EXPECT_DOUBLE_EQ(mean_ns(layers, "fit"), 80.0);
  EXPECT_DOUBLE_EQ(mean_ns(layers, "missing"), 0.0);
}

TEST(Tracer, RecordsNestingAndExplicitParents) {
  const std::int64_t since = Tracer::now_ns();
  Tracer::global().set_enabled(true);
  std::uint64_t outer_id = 0;
  {
    Span outer("outer");
    outer_id = outer.id();
    { Span inner("inner"); }
    std::thread([&] { Span remote("remote", outer_id); }).join();
  }
  { Span after("after"); }
  Tracer::global().set_enabled(false);
  { Span off("off"); }

  const auto spans = Tracer::global().collect(since);
  ASSERT_EQ(spans.size(), 4U);
  std::map<std::string, SpanRecord> by_name;
  for (const auto& s : spans) by_name[s.name] = s;
  EXPECT_EQ(by_name.count("off"), 0U);
  EXPECT_EQ(by_name["outer"].parent, 0U);
  EXPECT_EQ(by_name["inner"].parent, outer_id);
  EXPECT_EQ(by_name["remote"].parent, outer_id);
  EXPECT_NE(by_name["remote"].thread, by_name["outer"].thread);
  EXPECT_EQ(by_name["after"].parent, 0U);  // the stack unwound
  EXPECT_LE(by_name["outer"].start_ns, by_name["inner"].start_ns);
  EXPECT_GE(by_name["outer"].end_ns, by_name["inner"].end_ns);
}

}  // namespace
}  // namespace perfbench
