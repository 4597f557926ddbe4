// serve: the pure read path — batching queue, registry replicas and the
// fp32 ConvNet forward pass at batch <= 8.
//
// A seeded ConvNet checkpoint goes through ModelRegistry::load into an
// InferenceEngine with EngineConfig defaults (2 inline workers, batch 8)
// except for a deeper admission queue (see kQueueDepth).  One generator
// thread drives it.  Latency comes from an open loop at a fixed absolute
// rate, each request timed from when it was due; throughput comes from a
// separate closed saturation phase with a fixed in-flight window (saturated
// latency would only measure queue depth).
//
// Both phases report the median over windows, so that a hypervisor stall
// (~10 ms, a few times a minute on the shared 4-vCPU host this was tuned
// on) spoils a window instead of the run: the open loop is cut into windows
// of kWindowRequests consecutive requests, the saturation phase into
// quarter-second segments.
//
// The offered rate is low enough that the batching wait, not the forward
// pass, makes up most of the latency.  On that host the batch-8 forward
// takes ~0.2 ms, but in bursts of tens of milliseconds ~0.3 ms (a lone
// forward-pass loop shows it too), and how often depends on the host's
// other tenants.  At 30,000 rps a batch fills in 0.23 ms, so the tail was
// fill + forward and moved by a fifth with that mode (over ten runs its
// IQR was a third of its median); at 5,000 rps a batch fills in 1.4 ms,
// well inside the 2 ms flush delay, and the mode moves the tail by ~6%.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "data/synthetic.hpp"
#include "models/model_zoo.hpp"
#include "nn/checkpoint.hpp"
#include "nn/trainer.hpp"
#include "serve/serve.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace serve = tdfm::serve;

constexpr double kOfferedRps = 5000.0;  ///< open-loop rate, absolute
constexpr std::size_t kWindowRequests = 500;  ///< open-loop statistics window
constexpr double kSegmentS = 0.25;  ///< saturation throughput segment
constexpr std::size_t kSatWindow = 64;   ///< closed-loop in-flight requests
/// The default (256) holds 51 ms of traffic at kOfferedRps; 1024 rides out
/// a 200 ms stall, so no catch-up burst after a stalled generator time
/// slice is ever rejected.
constexpr std::size_t kQueueDepth = 1024;
constexpr std::size_t kPoolSize = 256;   ///< distinct request images
constexpr std::size_t kWarmupRequests = 4096;
constexpr int kSetupReps = 5;
constexpr double kOpenShare = 0.65;  ///< of --seconds; the rest saturates

struct Setup {
  std::unique_ptr<tdfm::nn::Network> net;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::InferenceEngine> engine;
  std::vector<tdfm::Tensor> pool;
  std::vector<int> expected;  ///< direct predict_batch of each pool image
  double load_ms = 0.0;

  void tear_down() {
    engine.reset();  // joins the workers before the registry goes away
    registry.reset();
  }
};

/// EngineConfig defaults (2 inline workers, batch 8) with the deeper queue.
serve::EngineConfig engine_config() {
  serve::EngineConfig ecfg;
  ecfg.batching.max_queue_depth = kQueueDepth;
  return ecfg;
}

tdfm::Tensor sample(const tdfm::Tensor& images, std::size_t i) {
  tdfm::Tensor out({images.dim(1), images.dim(2), images.dim(3)});
  std::memcpy(out.data(), images.data() + i * out.numel(), out.numel() * sizeof(float));
  return out;
}

/// One in-flight request.
struct Pending {
  std::future<serve::Response> future;
  std::uint64_t index = 0;  ///< send order (open loop)
  std::size_t image = 0;
  Clock::time_point due;
  Clock::time_point sent;
};

/// Tallies of one load phase.
struct Phase {
  Clock::time_point start;
  std::vector<std::vector<OpenLoopRecord>> windows;  ///< open loop, by send order
  std::vector<std::uint64_t> completed;  ///< per segment, by completion time
  /// Sum over served requests of 1 / batch size, i.e. batches served.  A
  /// scalar, not a vector of sizes: the saturation phase serves ~2^19
  /// requests, and whether a growing vector crossed that capacity doubling
  /// moved peak RSS by 4 MiB from run to run.
  double batches = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t wrong = 0;
  double seconds = 0.0;

  [[nodiscard]] std::size_t segment_of(Clock::time_point t) const {
    return static_cast<std::size_t>(std::chrono::duration<double>(t - start).count() /
                                    kSegmentS);
  }
  [[nodiscard]] std::vector<OpenLoopRecord> all_records() const {
    std::vector<OpenLoopRecord> out;
    for (const auto& w : windows) out.insert(out.end(), w.begin(), w.end());
    return out;
  }
};

/// Polls every in-flight request once; settles the finished ones.  Polling
/// from the generator thread stamps completions within one sweep (a few
/// microseconds at the in-flight counts used here) without a second thread.
void poll(std::vector<Pending>& inflight, const Setup& s, Phase& phase, bool open_loop,
          Clock::time_point window_end) {
  for (std::size_t k = 0; k < inflight.size();) {
    Pending& p = inflight[k];
    if (p.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      ++k;
      continue;
    }
    const auto done = Clock::now();
    const serve::Response resp = p.future.get();
    if (!resp.ok()) {
      ++phase.rejected;
    } else {
      ++phase.ok;
      if (resp.predicted_class != s.expected[p.image]) ++phase.wrong;
      if (done <= window_end && phase.segment_of(done) < phase.completed.size()) {
        ++phase.completed[phase.segment_of(done)];
      }
      phase.batches += 1.0 / static_cast<double>(resp.batch_size);
      if (open_loop) {
        phase.windows[p.index / kWindowRequests].push_back(
            account(p.due, p.sent, done, resp.queue_us, resp.compute_us));
      }
    }
    if (k + 1 != inflight.size()) inflight[k] = std::move(inflight.back());
    inflight.pop_back();
  }
}

/// Open loop: request i is due at start + i / rate and is sent then (or as
/// soon after as the generator gets to it); latency runs from the due time.
Phase open_loop(const Setup& s, std::size_t windows, std::uint64_t seed) {
  Phase phase;
  const std::uint64_t n = kWindowRequests * windows;
  const OpenLoopSchedule schedule(Clock::now() + std::chrono::milliseconds(1), kOfferedRps);
  phase.start = schedule.start();
  phase.windows.resize(windows);
  for (auto& w : phase.windows) w.reserve(kWindowRequests);
  std::vector<Pending> inflight;
  std::uint64_t i = 0;
  while (i < n || !inflight.empty()) {
    if (i < n && Clock::now() >= schedule.due(i)) {
      const std::size_t image = (i * 7 + seed) % s.pool.size();
      Pending p;
      p.index = i;
      p.image = image;
      p.due = schedule.due(i);
      p.sent = Clock::now();
      p.future = s.engine->submit(s.pool[image]);
      inflight.push_back(std::move(p));
      ++i;
      continue;
    }
    poll(inflight, s, phase, /*open_loop=*/true, Clock::time_point::max());
  }
  phase.sent = n;
  return phase;
}

/// Closed loop with kSatWindow requests in flight.  With `count` > 0 it
/// sends exactly that many requests; otherwise it runs for `segments`
/// segments and counts completions per segment.  `traced` wraps every
/// submit in a span (the traced run's overhead probe).
Phase saturate(const Setup& s, std::size_t segments, std::uint64_t count, bool traced) {
  Phase phase;
  std::vector<Pending> inflight;
  const auto start = Clock::now();
  phase.start = start;
  phase.completed.assign(segments, 0);
  const auto window_end =
      count > 0 ? Clock::time_point::max()
                : start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(kSegmentS * segments));
  std::uint64_t i = 0;
  const auto more = [&] {
    return count > 0 ? i < count : Clock::now() < window_end;
  };
  while (more() || !inflight.empty()) {
    while (inflight.size() < kSatWindow && more()) {
      Pending p;
      p.image = i % s.pool.size();
      if (traced) {
        Span span("serve.submit");
        p.future = s.engine->submit(s.pool[p.image]);
      } else {
        p.future = s.engine->submit(s.pool[p.image]);
      }
      inflight.push_back(std::move(p));
      ++i;
    }
    poll(inflight, s, phase, /*open_loop=*/false, window_end);
  }
  phase.sent = i;
  phase.seconds = std::chrono::duration<double>(
                      (count > 0 ? Clock::now() : window_end) - start)
                      .count();
  return phase;
}

void set_up(Setup& s, const Options& opts) {
  s.tear_down();
  tdfm::data::SyntheticSpec spec;
  spec.kind = tdfm::data::DatasetKind::kCifar10Sim;
  spec.scale = 0.15;
  spec.seed = 1000 + opts.seed;
  const tdfm::data::TrainTestPair data = tdfm::data::generate(spec);
  const auto config = tdfm::models::ModelConfig::for_dataset(spec, 8);
  tdfm::Rng rng(opts.seed);
  s.net = tdfm::models::build_model(tdfm::models::Arch::kConvNet, config, rng);
  const std::string ckpt = opts.workdir + "/serve.ckpt";
  tdfm::nn::save_checkpoint(*s.net, ckpt,
                            tdfm::models::checkpoint_meta(tdfm::models::Arch::kConvNet, config));

  const serve::EngineConfig ecfg = engine_config();
  s.registry = std::make_unique<serve::ModelRegistry>(ecfg.workers);
  const auto t0 = Clock::now();
  (void)s.registry->load("convnet", ckpt);
  s.load_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  s.pool.clear();
  s.expected.clear();
  const std::size_t n = std::min(kPoolSize, data.test.size());
  for (std::size_t i = 0; i < n; ++i) {
    s.pool.push_back(sample(data.test.images, i));
    tdfm::Tensor one({1, data.test.channels(), data.test.height(), data.test.width()});
    std::memcpy(one.data(), s.pool.back().data(), one.numel() * sizeof(float));
    s.expected.push_back(tdfm::nn::predict_batch(*s.net, one)[0]);
  }
  s.engine = std::make_unique<serve::InferenceEngine>(*s.registry, "convnet", ecfg);
  (void)saturate(s, 0, kWarmupRequests, false);
}

/// Failed requests and wrong classes of a phase.
void settle(const Phase& p, const char* what, Result& r) {
  r.attempted += p.sent;
  r.failed += p.rejected;
  if (p.wrong > 0) {
    r.fail_check(std::string(what) + ": " + std::to_string(p.wrong) +
                 " responses differ from a direct predict_batch");
  }
  if (p.ok + p.rejected != p.sent) {
    r.fail_check(std::string(what) + ": " + std::to_string(p.sent - p.ok - p.rejected) +
                 " requests never resolved");
  }
}

std::vector<double> field(const std::vector<OpenLoopRecord>& recs,
                          double (*get)(const OpenLoopRecord&)) {
  std::vector<double> out;
  out.reserve(recs.size());
  for (const auto& r : recs) out.push_back(get(r));
  return out;
}

}  // namespace

ThreadBudget serve_budget(const Options&) {
  // One generator thread (which also detects completions) plus the
  // engine's inline workers; use_thread_pool stays off.
  const serve::EngineConfig ecfg = engine_config();
  if (ecfg.use_thread_pool) throw std::logic_error("serve must not fan out to the pool");
  return {"serve", 1, ecfg.workers, 0};
}

Result run_serve(const Options& opts) {
  Result r;
  Setup s;
  const double setup_s = median_setup_seconds(kSetupReps, [&] { set_up(s, opts); });
  const auto open_windows = std::max<std::size_t>(
      3, static_cast<std::size_t>(opts.seconds * kOpenShare * kOfferedRps / kWindowRequests));
  const auto sat_segments = std::max<std::size_t>(
      3, static_cast<std::size_t>(opts.seconds * (1.0 - kOpenShare) / kSegmentS));
  const double cpu0 = process_cpu_seconds();
  const Phase open = open_loop(s, open_windows, opts.seed);
  const Phase sat = saturate(s, sat_segments, 0, false);
  const double cpu_s = process_cpu_seconds() - cpu0;
  settle(open, "open loop", r);
  settle(sat, "saturation", r);
  if (open.rejected > 0) {
    r.notes.push_back("open loop: " + std::to_string(open.rejected) + " requests rejected");
  }

  // Median over windows of each window's p50 and tail, and over segments
  // of the saturated throughput.
  std::vector<double> p50s;
  std::vector<double> tails;
  Tail tail;
  for (const auto& w : open.windows) {
    const Summary lat = summarize(field(w, [](const OpenLoopRecord& x) { return x.latency_us; }));
    p50s.push_back(lat.p50);
    tails.push_back(lat.tail.value);
    tail = lat.tail;
  }
  std::vector<double> rates;
  for (const std::uint64_t c : sat.completed) rates.push_back(static_cast<double>(c) / kSegmentS);
  r.add("setup_s", setup_s, "s");
  r.add("ops_per_s", summarize(rates).p50, "1/s");
  r.add("latency_p50_ms", summarize(p50s).p50 * 1e-3, "ms");
  r.add("latency_tail_ms", summarize(tails).p50 * 1e-3, "ms");
  r.add("cpu_s", cpu_s, "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MiB");
  r.notes.push_back("serve: open loop " + std::to_string(open.sent) + " requests at " +
                    std::to_string(kOfferedRps) + " rps in " + std::to_string(open_windows) +
                    " windows, tail = median window p" + std::to_string(tail.pct) + " (" +
                    std::to_string(tail.beyond) + " of " + std::to_string(kWindowRequests) +
                    " beyond); saturation window " + std::to_string(kSatWindow) + " in " +
                    std::to_string(sat_segments) + " segments");
  s.tear_down();
  return r;
}

Result trace_serve(const Options& opts) {
  Result r;
  Setup s;
  std::vector<double> load_ms;
  (void)median_setup_seconds(kSetupReps, [&] {
    set_up(s, opts);
    load_ms.push_back(s.load_ms);
  });

  // Tracing overhead: the same fixed number of saturated requests with and
  // without a span around each submit, alternated three times (medians).
  constexpr std::uint64_t sat_requests = 30000;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  for (int rep = 0; rep < 3; ++rep) {
    const Phase untraced = saturate(s, 0, sat_requests, false);
    Tracer::global().set_enabled(true);
    const Phase traced = saturate(s, 0, sat_requests, true);
    Tracer::global().set_enabled(false);
    settle(untraced, "saturation (untraced)", r);
    settle(traced, "saturation (traced)", r);
    untraced_s.push_back(untraced.seconds);
    traced_s.push_back(traced.seconds);
  }
  const Phase open = open_loop(s, 40, opts.seed);
  settle(open, "open loop", r);

  // Per-stage latency of the open loop: the engine reports queue wait and
  // compute; lag is the generator's; resolve is what remains.
  const std::vector<OpenLoopRecord> rec = open.all_records();
  const Summary queue = summarize(field(rec, [](const OpenLoopRecord& x) { return x.queue_us; }));
  const Summary compute =
      summarize(field(rec, [](const OpenLoopRecord& x) { return x.compute_us; }));
  const Summary resolve =
      summarize(field(rec, [](const OpenLoopRecord& x) { return x.resolve_us(); }));
  const Summary lag = summarize(field(rec, [](const OpenLoopRecord& x) { return x.lag_us; }));
  double latency_sum = 0.0;
  double resolve_sum = 0.0;
  for (const auto& x : rec) {
    latency_sum += x.latency_us;
    resolve_sum += x.resolve_us();
  }

  // Single-network forward at the served batch sizes, outside the engine.
  const auto forward_us = [&](std::size_t batch) {
    tdfm::Tensor input({batch, s.pool[0].dim(0), s.pool[0].dim(1), s.pool[0].dim(2)});
    for (std::size_t b = 0; b < batch; ++b) {
      std::memcpy(input.data() + b * s.pool[0].numel(), s.pool[b].data(),
                  s.pool[0].numel() * sizeof(float));
    }
    std::vector<double> t;
    for (int rep = 0; rep < 2000; ++rep) {
      const auto t0 = Clock::now();
      (void)s.net->logits(input, /*training=*/false);
      t.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
    return summarize(t).p50;
  };

  r.add("serve.queue_wait_us.p50", queue.p50, "us");
  r.add("serve.queue_wait_us.p99", queue.p99, "us");
  r.add("serve.compute_us.p50", compute.p50, "us");
  r.add("serve.compute_us.p99", compute.p99, "us");
  r.add("serve.resolve_us.p50", resolve.p50, "us");
  r.add("serve.resolve_us.p99", resolve.p99, "us");
  r.add("serve.batch_size.mean", static_cast<double>(open.ok) / open.batches,
        "count");
  r.add("nn.fwd_us.b1", forward_us(1), "us");
  r.add("nn.fwd_us.b8", forward_us(8), "us");
  r.add("serve.registry.load_ms", summarize(load_ms).p50, "ms");
  r.add("serve.weight_bytes_per_version",
        static_cast<double>(s.net->parameter_count() * sizeof(float) *
                            s.registry->replica_slots()),
        "B");
  r.add("serve.generator_lag_us.p99", lag.p99, "us");
  r.add("serve.unattributed_frac", resolve_sum / latency_sum, "ratio");
  const double untraced_med = summarize(untraced_s).p50;
  r.add("serve.trace_overhead_frac", (summarize(traced_s).p50 - untraced_med) / untraced_med,
        "ratio");
  s.tear_down();
  return r;
}

}  // namespace perfbench
