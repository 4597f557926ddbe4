// online: repeated OnlinePipeline::run episodes — writes beside reads.
//
// Each episode is the pipeline smoke drill's story (8 rounds, 20% faulty
// stream, 192-sample windows, ConvNet retrained every 2nd round, AD guardrail
// 0.5, sign-flip weight-corruption drill at round 3 with rollback at
// 0.5 * 1.4) plus q8_0 serving and 256 live requests per round.  Retraining,
// registry installs and hot swaps, and decision-log appends sit next to q8
// serving, which the serve workload never exercises.  serve_per_round stays
// at the queue depth: above it run() aborts on a rejected request.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>

#include "bench.hpp"
#include "nn/trainer.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/weight_corruptor.hpp"
#include "stats.hpp"
#include "study/spec.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace pipeline = tdfm::pipeline;
namespace serve = tdfm::serve;

/// Pipeline seeds whose episode tells the whole story with the same shape:
/// one promotion, the drill, one rollback (7 is the smoke drill's seed; the
/// others were vetted among seeds 1..60).  Episodes cycle through them
/// starting at --seed, and a run holds whole cycles, so every run covers
/// the same mix.
constexpr std::uint64_t kStorySeeds[] = {7, 11, 13, 14, 16, 21, 25, 27};
constexpr std::size_t kStories = std::size(kStorySeeds);
constexpr double kNominalEpisodeS = 0.8;  ///< sizes the episode count
constexpr int kSetupReps = 5;
constexpr std::size_t kTracedEpisodes = 2;

pipeline::PipelineConfig story_config(std::uint64_t story_seed, const std::string& log) {
  pipeline::PipelineConfig cfg;
  cfg.dataset.kind = tdfm::data::DatasetKind::kCifar10Sim;
  cfg.dataset.scale = 0.6;
  cfg.stream.mislabel_percent = 20.0;
  cfg.stream.chunk_size = 96;
  cfg.ingest.window = 192;
  cfg.ingest.capacity = 4 * cfg.ingest.window;
  cfg.retrain.arch = tdfm::models::Arch::kConvNet;
  cfg.retrain.model_config.width = 8;
  cfg.retrain.technique = tdfm::mitigation::TechniqueKind::kBaseline;
  cfg.retrain.train_opts.epochs = 6;
  cfg.retrain.train_opts.threads = 0;
  cfg.canary.ad_threshold = 0.5;
  cfg.canary.accuracy_margin = 0.05;
  cfg.canary.rollback_factor = 1.4;
  cfg.engine.workers = 1;
  cfg.engine.batching.max_batch_size = 8;
  cfg.engine.batching.max_queue_delay_us = 500;
  cfg.engine.batching.max_queue_depth = 256;
  cfg.serve_per_round = 256;
  cfg.retrain_every = 2;
  cfg.rounds = 8;
  cfg.corrupt_round = 3;
  cfg.corruption.mode = pipeline::CorruptionMode::kSignFlip;
  cfg.corruption.fraction = 0.2;
  cfg.quantize = true;
  cfg.bootstrap_epochs = 4;
  cfg.decision_log_path = log;
  cfg.seed = story_seed;
  return cfg;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t story_seed(const Options& opts, std::size_t episode) {
  return kStorySeeds[(opts.seed + episode) % kStories];
}

std::string log_path(const Options& opts, std::size_t episode, const char* tag) {
  return opts.workdir + "/online-" + tag + "-" + std::to_string(episode) + ".jsonl";
}

/// Checks one episode's decision log: the story's shape and the pinned bytes.
void check_episode(const Options& opts, std::uint64_t seed, const std::string& log,
                   Result& r) {
  const auto decisions = pipeline::DecisionLog::load(log);
  std::size_t promote = 0;
  std::size_t rollback = 0;
  std::size_t drill = 0;
  for (const auto& d : decisions) {
    promote += d.action == pipeline::Action::kPromote;
    rollback += d.action == pipeline::Action::kRollback;
    drill += d.action == pipeline::Action::kCorrupt;
  }
  if (promote < 1 || rollback < 1 || drill != 1) {
    r.fail_check("online story " + std::to_string(seed) + ": " + std::to_string(promote) +
                 " promote, " + std::to_string(rollback) + " rollback, " +
                 std::to_string(drill) + " drill");
  }
  const std::string note = check_digest(opts, "online/story=" + std::to_string(seed),
                                        tdfm::study::stable_hash64(read_file(log)), r);
  if (std::find(r.notes.begin(), r.notes.end(), "online digest " + note) == r.notes.end()) {
    r.notes.push_back("online digest " + note);
  }
}

/// Runs one untraced episode; returns its wall seconds (0 on failure).
double episode(const Options& opts, std::size_t e, const char* tag, Result& r) {
  const std::string log = log_path(opts, e, tag);
  std::filesystem::remove(log);
  const std::uint64_t seed = story_seed(opts, e);
  ++r.attempted;
  const auto t0 = Clock::now();
  try {
    pipeline::OnlinePipeline p(story_config(seed, log));
    (void)p.run();
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    check_episode(opts, seed, log, r);
    return wall;
  } catch (const std::exception& ex) {
    ++r.failed;
    r.notes.push_back("online episode " + std::to_string(e) + " aborted: " + ex.what());
    return 0.0;
  }
}

/// What a fresh deployment does before its first round: generate the world
/// and fit the bootstrap model on the first window.
void set_up(const Options& opts) {
  const pipeline::PipelineConfig cfg = story_config(story_seed(opts, 0), "");
  const tdfm::data::TrainTestPair world = tdfm::data::generate(cfg.dataset);
  pipeline::StreamConfig scfg = cfg.stream;
  scfg.seed = cfg.seed;
  pipeline::StreamSource stream(world.train, scfg);
  pipeline::IngestBuffer buffer(cfg.ingest);
  while (!buffer.window_ready()) buffer.push(stream.next());
  const tdfm::data::Dataset window = buffer.take_window();
  pipeline::RetrainerConfig rcfg = cfg.retrain;
  rcfg.seed = cfg.seed;
  rcfg.model_config = tdfm::models::ModelConfig::for_dataset(cfg.dataset, rcfg.model_config.width);
  rcfg.train_opts.epochs = cfg.bootstrap_epochs;
  (void)pipeline::Retrainer(rcfg).fit_candidate(window, 0);
}

// --- traced replay ---------------------------------------------------------

tdfm::Tensor sample_tensor(const tdfm::data::Dataset& ds, std::size_t i) {
  const std::size_t row = ds.channels() * ds.height() * ds.width();
  tdfm::Tensor t({ds.channels(), ds.height(), ds.width()});
  std::memcpy(t.data(), ds.images.data() + i * row, row * sizeof(float));
  return t;
}

/// The pipeline's shadow evaluation: the whole slice through the engine in
/// waves of half the queue depth.
std::vector<int> shadow_predict(serve::InferenceEngine& engine, const tdfm::data::Dataset& ds) {
  const std::size_t depth = engine.config().batching.max_queue_depth;
  const std::size_t wave = depth > 1 ? depth / 2 : 1;
  std::vector<int> preds(ds.size(), -1);
  for (std::size_t i = 0; i < ds.size();) {
    const std::size_t end = std::min(ds.size(), i + wave);
    std::vector<std::future<serve::Response>> futures;
    for (std::size_t j = i; j < end; ++j) futures.push_back(engine.submit(sample_tensor(ds, j)));
    for (std::size_t j = i; j < end; ++j) {
      const serve::Response resp = futures[j - i].get();
      if (!resp.ok()) throw std::runtime_error("shadow evaluation rejected");
      preds[j] = resp.predicted_class;
    }
    i = end;
  }
  return preds;
}

/// One episode of OnlinePipeline::run, step for step, through the public
/// functions of the stream, ingest, retrainer, canary, registry, engine and
/// decision log, with a span around each.  Its decision log must be
/// byte-identical to the untraced episode's.
void replay_episode(pipeline::PipelineConfig cfg) {
  Span root("online.episode");
  cfg.stream.seed = cfg.seed;
  cfg.retrain.seed = cfg.seed;
  cfg.engine.default_deadline_us = 0;

  tdfm::data::TrainTestPair world = [&] {
    Span span("pipeline.world_generate");
    return tdfm::data::generate(cfg.dataset);
  }();
  const auto model_config =
      tdfm::models::ModelConfig::for_dataset(cfg.dataset, cfg.retrain.model_config.width);
  cfg.retrain.model_config = model_config;
  const auto factory = tdfm::models::make_factory(cfg.retrain.arch, model_config);

  const std::size_t test_n = world.test.size();
  const std::size_t canary_n = std::clamp<std::size_t>(
      static_cast<std::size_t>(static_cast<double>(test_n) * cfg.canary_fraction), 1,
      test_n - 1);
  std::vector<std::size_t> idx(test_n);
  std::iota(idx.begin(), idx.end(), 0);
  const auto canary_ds = world.test.subset(std::span(idx).subspan(0, canary_n));
  const auto live_pool = world.test.subset(std::span(idx).subspan(canary_n));
  const std::span<const int> truth(canary_ds.labels);

  pipeline::StreamSource stream(world.train, cfg.stream);
  pipeline::IngestBuffer buffer(cfg.ingest);
  pipeline::Retrainer retrainer(cfg.retrain);
  pipeline::DecisionLog log(cfg.decision_log_path);
  serve::ModelRegistry registry(std::max<std::size_t>(1, cfg.engine.workers));

  const auto next_chunk = [&] {
    pipeline::StreamChunk chunk = [&] {
      Span span("pipeline.stream_next");
      return stream.next();
    }();
    Span span("pipeline.ingest_push");
    buffer.push(chunk);
  };
  const auto install = [&](std::unique_ptr<tdfm::nn::Network> net) {
    std::vector<serve::MemberInit> members;
    members.push_back({factory, std::move(net)});
    Span span(cfg.quantize ? "serve.registry.install.q8" : "serve.registry.install");
    return registry.install(cfg.model_name, std::move(members), cfg.quantize);
  };
  const auto append = [&](const pipeline::Decision& d) {
    Span span("pipeline.decision_append");
    log.append(d);
  };
  const auto eval_candidate = [&](tdfm::nn::Network& net) {
    if (!cfg.quantize) return tdfm::nn::predict_classes(net, canary_ds.images);
    tdfm::Rng twin_rng(1);
    auto twin = factory(twin_rng);
    twin->copy_weights_from(net);
    twin->quantize_for_inference();
    return tdfm::nn::predict_classes(*twin, canary_ds.images);
  };

  std::uint64_t live_version = 0;
  std::vector<float> good_weights;
  {
    Span span("pipeline.bootstrap");
    while (!buffer.window_ready()) next_chunk();
    std::uint64_t first_seq = 0;
    std::uint64_t last_seq = 0;
    const auto window = buffer.take_window(&first_seq, &last_seq);
    pipeline::RetrainerConfig boot_cfg = cfg.retrain;
    boot_cfg.train_opts.epochs = cfg.bootstrap_epochs;
    pipeline::Retrainer bootstrapper(boot_cfg);
    std::unique_ptr<tdfm::nn::Network> net;
    {
      Span fit("pipeline.bootstrap_fit");
      net = bootstrapper.fit_candidate(window, 0);
    }
    good_weights = net->save_weights();
    live_version = install(std::move(net));
    pipeline::Decision d;
    d.round = 0;
    d.action = pipeline::Action::kBootstrap;
    d.candidate_version = live_version;
    d.technique = bootstrapper.technique_label();
    d.window_first_seq = first_seq;
    d.window_last_seq = last_seq;
    d.window_samples = window.size();
    d.ad_threshold = cfg.canary.ad_threshold;
    d.rollback_threshold = cfg.canary.rollback_threshold();
    d.quantized = cfg.quantize;
    d.reason = "bootstrap: first window, no live model to beat";
    append(d);
  }

  serve::InferenceEngine engine(registry, cfg.model_name, cfg.engine);
  std::vector<int> reference;
  const auto repin = [&] {
    Span span("pipeline.reference_pin");
    reference = shadow_predict(engine, canary_ds);
  };
  repin();

  std::size_t live_cursor = 0;
  for (std::uint64_t round = 1; round <= cfg.rounds; ++round) {
    Span round_span("online.round");
    next_chunk();
    {
      Span span("pipeline.live_serve");
      std::vector<std::future<serve::Response>> futures;
      std::vector<int> expected;
      for (std::size_t k = 0; k < cfg.serve_per_round; ++k) {
        futures.push_back(engine.submit(sample_tensor(live_pool, live_cursor)));
        expected.push_back(live_pool.labels[live_cursor]);
        live_cursor = (live_cursor + 1) % live_pool.size();
      }
      for (auto& f : futures) {
        if (!f.get().ok()) throw std::runtime_error("live traffic rejected");
      }
    }

    if (round % cfg.retrain_every == 0 && buffer.window_ready()) {
      std::vector<int> live_now;
      pipeline::CanaryVerdict health;
      {
        Span span("pipeline.health_check");
        live_now = shadow_predict(engine, canary_ds);
        health = pipeline::judge_live_health(reference, live_now, truth, cfg.canary);
      }
      pipeline::Decision d;
      d.round = round;
      d.ad_threshold = cfg.canary.ad_threshold;
      d.rollback_threshold = cfg.canary.rollback_threshold();
      d.quantized = cfg.quantize;
      if (health.action == pipeline::Action::kRollback) {
        const std::uint64_t breached = live_version;
        tdfm::Rng rng(1);
        auto net = factory(rng);
        net->load_weights(good_weights);
        live_version = install(std::move(net));
        repin();
        d.action = pipeline::Action::kRollback;
        d.live_version = breached;
        d.candidate_version = live_version;
        d.live_accuracy = health.live_accuracy;
        d.candidate_ad = health.ad;
        d.reverse_ad = health.reverse_ad;
        d.reason = health.reason;
        append(d);
      } else {
        std::uint64_t first_seq = 0;
        std::uint64_t last_seq = 0;
        const auto window = buffer.take_window(&first_seq, &last_seq);
        std::unique_ptr<tdfm::nn::Network> candidate;
        {
          Span span("pipeline.retrain_fit");
          candidate = retrainer.fit_candidate(window, round);
        }
        pipeline::CanaryVerdict verdict;
        {
          Span span("pipeline.canary_eval");
          const std::vector<int> cand_preds = eval_candidate(*candidate);
          verdict = pipeline::judge_candidate(live_now, cand_preds, truth, cfg.canary);
        }
        d.action = verdict.action;
        d.live_version = live_version;
        d.technique = retrainer.technique_label();
        d.window_first_seq = first_seq;
        d.window_last_seq = last_seq;
        d.window_samples = window.size();
        d.candidate_accuracy = verdict.candidate_accuracy;
        d.live_accuracy = verdict.live_accuracy;
        d.candidate_ad = verdict.ad;
        d.reverse_ad = verdict.reverse_ad;
        d.reason = verdict.reason;
        if (verdict.action == pipeline::Action::kPromote) {
          good_weights = candidate->save_weights();
          live_version = install(std::move(candidate));
          repin();
          d.candidate_version = live_version;
        }
        append(d);
      }
    }

    if (cfg.corrupt_round != 0 && round == cfg.corrupt_round) {
      tdfm::Rng rng(1);
      auto corrupted = factory(rng);
      corrupted->load_weights(good_weights);
      pipeline::CorruptionSpec spec = cfg.corruption;
      spec.seed = tdfm::study::stable_hash64("pipeline-corrupt|seed=" +
                                             std::to_string(cfg.seed) +
                                             "|round=" + std::to_string(round));
      pipeline::CorruptionReport report;
      {
        Span span("pipeline.drill_corrupt");
        report = pipeline::corrupt_network(*corrupted, spec);
      }
      const std::uint64_t previous = live_version;
      live_version = install(std::move(corrupted));
      pipeline::Decision d;
      d.round = round;
      d.action = pipeline::Action::kCorrupt;
      d.live_version = previous;
      d.candidate_version = live_version;
      d.technique = std::string("drill:") + pipeline::corruption_mode_name(spec.mode);
      d.ad_threshold = cfg.canary.ad_threshold;
      d.rollback_threshold = cfg.canary.rollback_threshold();
      d.quantized = cfg.quantize;
      d.corrupted = true;
      d.reason = "fault drill: " + std::string(pipeline::corruption_mode_name(spec.mode)) +
                 " hit " + std::to_string(report.scalars_hit + report.blocks_hit) +
                 " weights";
      append(d);
    }
  }
  Span span("serve.engine_drain");
  engine.drain();
}

}  // namespace

ThreadBudget online_budget(const Options&) {
  // The pipeline's own thread (stream, retrain, canary) drives one engine
  // worker; training runs inline on the pool-less global ThreadPool.
  const serve::EngineConfig ecfg = story_config(kStorySeeds[0], "").engine;
  if (ecfg.use_thread_pool) throw std::logic_error("online must not fan out to the pool");
  return {"online", 1, ecfg.workers, 0};
}

Result run_online(const Options& opts) {
  Result r;
  const double setup_s = median_setup_seconds(kSetupReps, [&] { set_up(opts); });
  const std::size_t cycles = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(opts.seconds / kNominalEpisodeS / kStories)));
  const std::size_t episodes = cycles * kStories;
  std::vector<double> walls;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  for (std::size_t e = 0; e < episodes; ++e) {
    const double w = episode(opts, e, "run", r);
    if (w > 0.0) walls.push_back(w);
  }
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  const double cpu_s = process_cpu_seconds() - cpu0;

  const Summary lat = summarize(walls);
  r.add("setup_s", setup_s, "s");
  r.add("ops_per_s", static_cast<double>(walls.size()) / wall, "1/s");
  r.add("latency_p50_ms", lat.p50 * 1e3, "ms");
  r.add("latency_tail_ms", lat.tail.value * 1e3, "ms");
  r.add("cpu_s", cpu_s, "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MiB");
  r.notes.push_back("online: " + std::to_string(episodes) + " episodes, tail = p" +
                    std::to_string(lat.tail.pct) + " (" + std::to_string(lat.tail.beyond) +
                    " beyond)");
  return r;
}

Result trace_online(const Options& opts) {
  Result r;
  set_up(opts);
  double untraced_wall = 0.0;
  for (std::size_t e = 0; e < kTracedEpisodes; ++e) untraced_wall += episode(opts, e, "run", r);

  const std::int64_t since = Tracer::now_ns();
  Tracer::global().set_enabled(true);
  const auto t1 = Clock::now();
  for (std::size_t e = 0; e < kTracedEpisodes; ++e) {
    const std::string log = log_path(opts, e, "replay");
    std::filesystem::remove(log);
    ++r.attempted;
    try {
      replay_episode(story_config(story_seed(opts, e), log));
    } catch (const std::exception& ex) {
      ++r.failed;
      r.fail_check(std::string("online replay threw: ") + ex.what());
      continue;
    }
    if (read_file(log) != read_file(log_path(opts, e, "run"))) {
      r.fail_check("replayed episode " + std::to_string(e) +
                   " decision log differs from OnlinePipeline::run's");
    }
  }
  const double traced_wall = std::chrono::duration<double>(Clock::now() - t1).count();
  Tracer::global().set_enabled(false);
  const auto layers = layer_times(Tracer::global().collect(since));

  r.add("pipeline.stream_next_us", mean_ns(layers, "pipeline.stream_next") * 1e-3, "us");
  r.add("pipeline.ingest_push_us", mean_ns(layers, "pipeline.ingest_push") * 1e-3, "us");
  r.add("pipeline.retrain_fit_ms", mean_ns(layers, "pipeline.retrain_fit") * 1e-6, "ms");
  r.add("pipeline.live_serve_ms", mean_ns(layers, "pipeline.live_serve") * 1e-6, "ms");
  r.add("pipeline.canary_eval_ms", mean_ns(layers, "pipeline.canary_eval") * 1e-6, "ms");
  r.add("pipeline.decision_append_us", mean_ns(layers, "pipeline.decision_append") * 1e-3,
        "us");
  r.add("serve.registry.install_ms.q8", mean_ns(layers, "serve.registry.install.q8") * 1e-6,
        "ms");
  r.add("online.unattributed_frac",
        unattributed_frac(layers, "online.episode", {"online.round", "pipeline.bootstrap"}),
        "ratio");
  r.add("online.trace_overhead_frac", (traced_wall - untraced_wall) / untraced_wall, "ratio");
  return r;
}

}  // namespace perfbench
