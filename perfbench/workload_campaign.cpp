// campaign: the paper's TDFM study as a 108-cell factorial grid.
//
// 3 datasets x ConvNet x mislabelling 10/30/50% x all six techniques x 2
// trials, at jobs = nproc with an on-disk journal and no shuffle, run once
// per ~10 s of --seconds.  One operation is one cell; its latency is the
// interval between consecutive completions on the same worker thread.  A
// single panel model keeps every Ens cell a real fit (ensemble fits are
// shared only across models), so the Ens cells form the slowest mode and
// the tail percentile lands inside it.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "core/thread_pool.hpp"
#include "data/dataset.hpp"
#include "faults/fault_injector.hpp"
#include "metrics/metrics.hpp"
#include "mitigation/baseline.hpp"
#include "stats.hpp"
#include "study/dataset_cache.hpp"
#include "study/runner.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using tdfm::study::CellRecord;
namespace study = tdfm::study;
namespace mitigation = tdfm::mitigation;

/// --seed picks one of this many pinned input sets (campaign master seeds).
constexpr std::uint64_t kInputSets = 8;
/// Set-up takes ~10 ms, so it is repeated more often than the others'.
constexpr int kSetupReps = 9;
constexpr double kNominalCampaignS = 10.0;  ///< sizes the campaign count

study::StudySpec campaign_spec(std::uint64_t seed) {
  using tdfm::data::DatasetKind;
  study::StudySpec spec;
  spec.name = "perfbench-campaign";
  spec.datasets = {DatasetKind::kPneumoniaSim, DatasetKind::kGtsrbSim,
                   DatasetKind::kCifar10Sim};
  spec.models = {tdfm::models::Arch::kConvNet};
  spec.fault_levels =
      tdfm::experiment::standard_sweep(tdfm::faults::FaultType::kMislabelling);
  spec.techniques = mitigation::all_techniques();
  spec.trials = 2;
  spec.scale = 0.25;
  spec.model_width = 8;
  spec.seed = 1 + seed % kInputSets;
  spec.train_opts.epochs = 3;
  // Without the bench presets' small-dataset tuning, pneumonia's cells are
  // the cheapest block, so the median (rank 54) lands mid-block among the
  // gtsrb/cifar10 Base/LS/RL cells and the p90 (rank 98) among the gtsrb Ens
  // cells — each inside one mode.
  spec.tune_small_datasets = false;
  return spec;
}

struct Setup {
  study::StudySpec spec;
  std::vector<study::Cell> cells;
  std::vector<std::string> ids;
  double generate_ms = 0.0;  ///< generating every dataset of the grid
};

/// Expands the grid and warms the process-wide dataset cache from cold.
Setup set_up(std::uint64_t seed) {
  Setup s;
  s.spec = campaign_spec(seed);
  s.cells = study::expand_cells(s.spec);
  for (const auto& c : s.cells) s.ids.push_back(study::cell_id(s.spec, c));
  study::DatasetCache::global().clear();
  const auto t0 = Clock::now();
  for (const auto kind : s.spec.datasets) {
    (void)study::DatasetCache::global().get(study::dataset_spec_for(s.spec, kind));
  }
  s.generate_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return s;
}

/// Digest of the records in expansion order, wall-clock fields zeroed.
std::uint64_t records_digest(std::vector<CellRecord> records) {
  std::string all;
  for (CellRecord& r : records) {
    r.train_seconds = 0.0;
    r.infer_seconds = 0.0;
    all += study::to_jsonl(r);
    all += '\n';
  }
  return study::stable_hash64(all);
}

struct Measured {
  study::CampaignResult result;
  std::vector<double> cell_latency_s;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t failed = 0;
};

Measured measure(const Setup& s, const Options& opts, const std::string& journal) {
  std::filesystem::remove(journal);
  Measured m;
  std::mutex mu;
  std::map<std::thread::id, Clock::time_point> last_done;
  Clock::time_point t0;
  study::RunOptions ro;
  ro.jobs = opts.nproc;
  ro.journal_path = journal;
  ro.on_cell = [&](const CellRecord&) {
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(mu);
    const auto it = last_done.try_emplace(std::this_thread::get_id(), t0).first;
    m.cell_latency_s.push_back(std::chrono::duration<double>(now - it->second).count());
    it->second = now;
  };
  const double cpu0 = process_cpu_seconds();
  t0 = Clock::now();
  try {
    m.result = study::run_campaign(s.spec, ro);
  } catch (const std::exception&) {
    m.failed = s.cells.size() - m.cell_latency_s.size();
  }
  m.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  m.cpu_s = process_cpu_seconds() - cpu0;
  return m;
}

/// All cells present, in expansion order, and the digest pinned for this
/// input set.
void check_records(const Setup& s, const std::vector<CellRecord>& records,
                   const Options& opts, Result& result) {
  if (records.size() != s.cells.size()) {
    result.fail_check("campaign produced " + std::to_string(records.size()) + " of " +
                      std::to_string(s.cells.size()) + " records");
    return;
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].cell != s.ids[i]) {
      result.fail_check("campaign record " + std::to_string(i) + " is cell " +
                        records[i].cell + ", expected " + s.ids[i]);
      return;
    }
  }
  result.notes.push_back(
      "campaign digest " +
      check_digest(opts, "campaign/seed=" + std::to_string(s.spec.seed),
                   records_digest(records), result));
}

// --- traced replay ---------------------------------------------------------

struct Golden {
  std::vector<int> preds;
  double accuracy = 0.0;
};

struct Fit {
  std::vector<int> preds;
  double inference_models = 1.0;
};

/// Re-runs one cell through the public functions of data, faults,
/// mitigation and metrics, under spans.  Mirrors study::run_campaign's
/// cell (same role-scoped seeds), so the record must equal the untraced one
/// modulo timing.
CellRecord replay_cell(const study::StudySpec& spec, const study::Cell& cell,
                       const std::string& id,
                       study::OnceMap<std::shared_ptr<const Golden>>& goldens,
                       study::OnceMap<std::shared_ptr<const Fit>>& shared_fits) {
  const auto kind = spec.datasets[cell.dataset];
  const auto dspec = study::dataset_spec_for(spec, kind);
  std::shared_ptr<const tdfm::data::TrainTestPair> data;
  {
    Span span("data.cache_get");
    data = study::DatasetCache::global().get(dspec);
  }
  const auto model_config = tdfm::models::ModelConfig::for_dataset(dspec, spec.model_width);
  tdfm::nn::TrainOptions topts = study::train_options_for(spec, kind);
  topts.threads = 0;

  std::shared_ptr<const Golden> golden;
  {
    Span wait("study.golden_cache");  // self time = waiting on another worker
    golden = goldens.get(study::golden_key(spec, cell), [&] {
      mitigation::BaselineTechnique technique;
      mitigation::FitContext ctx;
      ctx.train = &data->train;
      ctx.primary_arch = spec.models[cell.model];
      ctx.model_config = model_config;
      ctx.train_opts = topts;
      tdfm::Rng rng(study::golden_seed(spec, cell));
      ctx.rng = &rng;
      auto out = std::make_shared<Golden>();
      std::unique_ptr<mitigation::Classifier> classifier;
      {
        Span fit("mitigation.fit.golden");
        classifier = technique.fit(ctx);
      }
      {
        Span predict("mitigation.predict");
        out->preds = classifier->predict(data->test.images);
      }
      out->accuracy = tdfm::metrics::accuracy(out->preds, data->test.labels);
      return out;
    });
  }

  const auto tkind = spec.techniques[cell.technique];
  const std::string tname = mitigation::technique_name(tkind);
  const auto run_fit = [&] {
    auto technique = mitigation::make_technique(tkind, spec.hyperparams);
    mitigation::FitContext ctx;
    ctx.primary_arch = spec.models[cell.model];
    ctx.model_config = model_config;
    ctx.train_opts = topts;
    tdfm::data::Dataset faulty;
    tdfm::data::Dataset lc_clean;
    const auto& level = spec.fault_levels[cell.level];
    if (technique->wants_clean_subset()) {
      tdfm::Rng split_rng(study::lc_split_seed(spec, cell));
      auto [head, rest] = [&] {
        Span split("data.random_split");
        return tdfm::data::random_split(data->train, spec.hyperparams.lc_gamma, split_rng);
      }();
      lc_clean = std::move(head);
      tdfm::Rng inject_rng(study::lc_inject_seed(spec, cell));
      Span inject("faults.inject");
      faulty = tdfm::faults::inject(rest, level, inject_rng);
      ctx.clean_subset = &lc_clean;
    } else {
      tdfm::Rng inject_rng(study::inject_seed(spec, cell));
      Span inject("faults.inject");
      faulty = tdfm::faults::inject(data->train, level, inject_rng);
    }
    ctx.train = &faulty;
    tdfm::Rng fit_rng(study::fit_seed(spec, cell));
    ctx.rng = &fit_rng;
    std::unique_ptr<mitigation::Classifier> classifier;
    {
      Span fit("mitigation.fit." + tname);
      classifier = technique->fit(ctx);
    }
    Fit out;
    {
      Span predict("mitigation.predict");
      out.preds = classifier->predict(data->test.images);
    }
    out.inference_models = classifier->inference_model_count();
    return out;
  };

  Fit fit;
  bool shared = false;
  if (const std::uint64_t key = study::shared_fit_key(spec, cell); key != 0) {
    shared = true;
    Span wait("study.shared_fit_cache");
    fit = *shared_fits.get(key, [&] { return std::make_shared<const Fit>(run_fit()); });
  } else {
    fit = run_fit();
  }

  Span score("metrics.score");
  CellRecord rec;
  rec.cell = id;
  rec.dataset = tdfm::data::dataset_name(kind);
  rec.model = tdfm::models::arch_name(spec.models[cell.model]);
  rec.fault_level = spec.fault_level_name(cell.level);
  rec.technique = tname;
  rec.trial = cell.trial + 1;
  rec.golden_accuracy = golden->accuracy;
  rec.faulty_accuracy = tdfm::metrics::accuracy(fit.preds, data->test.labels);
  rec.ad = tdfm::metrics::accuracy_delta(golden->preds, fit.preds, data->test.labels);
  rec.reverse_ad =
      tdfm::metrics::reverse_accuracy_delta(golden->preds, fit.preds, data->test.labels);
  rec.naive_drop =
      tdfm::metrics::naive_accuracy_drop(golden->preds, fit.preds, data->test.labels);
  rec.inference_models = fit.inference_models;
  rec.shared_fit = shared;
  return rec;
}

/// Durations (ms) of every span named `name`.
std::vector<double> span_ms(const std::vector<SpanRecord>& spans, const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

double ratio(const study::CacheCounters& c) {
  const auto total = c.hits + c.misses;
  return total == 0 ? 0.0 : static_cast<double>(c.hits) / static_cast<double>(total);
}

}  // namespace

ThreadBudget campaign_budget(const Options& opts) {
  // jobs = nproc workers, each training inline; the global pool has no
  // helper threads; the calling thread only waits for the workers.
  return {"campaign", 0, opts.nproc, 0};
}

Result run_campaign(const Options& opts) {
  Result r;
  Setup s;
  const double setup_s = median_setup_seconds(kSetupReps, [&] { s = set_up(opts.seed); });
  const long campaigns = std::max(1L, std::lround(opts.seconds / kNominalCampaignS));
  std::vector<CellRecord> first;
  std::vector<double> latency_s;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t done = 0;
  for (long c = 0; c < campaigns; ++c) {
    const Measured m = measure(s, opts, opts.workdir + "/campaign.jsonl");
    r.attempted += s.cells.size();
    r.failed += m.failed;
    if (c == 0) {
      check_records(s, m.result.records, opts, r);
      first = m.result.records;
    } else if (!std::equal(first.begin(), first.end(), m.result.records.begin(),
                           m.result.records.end(), study::equal_modulo_timing)) {
      r.fail_check("campaign " + std::to_string(c + 1) +
                   " differs from the first modulo timing");
    }
    latency_s.insert(latency_s.end(), m.cell_latency_s.begin(), m.cell_latency_s.end());
    wall_s += m.wall_s;
    cpu_s += m.cpu_s;
    done += m.result.records.size();
  }

  const Summary lat = summarize(latency_s);
  r.add("setup_s", setup_s, "s");
  r.add("ops_per_s", static_cast<double>(done) / wall_s, "1/s");
  r.add("latency_p50_ms", lat.p50 * 1e3, "ms");
  r.add("latency_tail_ms", lat.tail.value * 1e3, "ms");
  r.add("cpu_s", cpu_s, "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MiB");
  r.notes.push_back("campaign: " + std::to_string(campaigns) + " x " +
                    std::to_string(s.cells.size()) + " cells, seed " +
                    std::to_string(s.spec.seed) + ", tail = p" +
                    std::to_string(lat.tail.pct) + " of " + std::to_string(lat.n) +
                    " (" + std::to_string(lat.tail.beyond) + " beyond)");
  return r;
}

Result trace_campaign(const Options& opts) {
  Result r;
  Setup s;
  std::vector<double> generate_ms;
  (void)median_setup_seconds(kSetupReps, [&] {
    s = set_up(opts.seed);
    generate_ms.push_back(s.generate_ms);
  });

  const Measured m = measure(s, opts, opts.workdir + "/campaign.jsonl");
  r.attempted = s.cells.size();
  r.failed = m.failed;
  check_records(s, m.result.records, opts, r);

  // Replay the same cells, in the same order, on the same number of workers.
  const std::int64_t since = Tracer::now_ns();
  Tracer::global().set_enabled(true);
  std::vector<std::optional<CellRecord>> replayed(s.cells.size());
  study::OnceMap<std::shared_ptr<const Golden>> goldens;
  study::OnceMap<std::shared_ptr<const Fit>> shared_fits;
  const std::string replay_journal = opts.workdir + "/campaign-replay.jsonl";
  std::filesystem::remove(replay_journal);
  study::Journal journal(replay_journal);
  std::atomic<std::size_t> cursor{0};
  std::mutex error_mu;
  std::string first_error;
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < opts.nproc; ++w) {
      workers.emplace_back([&] {
        const tdfm::core::ThreadPool::InlineScope inline_scope;
        Span root("campaign.worker");
        for (std::size_t i = cursor.fetch_add(1); i < s.cells.size(); i = cursor.fetch_add(1)) {
          try {
            Span cell("campaign.cell");
            CellRecord rec = replay_cell(s.spec, s.cells[i], s.ids[i], goldens, shared_fits);
            {
              Span append("study.journal.append");
              journal.append(rec);
            }
            replayed[i] = std::move(rec);
          } catch (const std::exception& e) {
            const std::lock_guard<std::mutex> lock(error_mu);
            if (first_error.empty()) first_error = e.what();
          }
        }
      });
    }
    for (auto& t : workers) t.join();
  }
  const double traced_wall = std::chrono::duration<double>(Clock::now() - t0).count();
  Tracer::global().set_enabled(false);
  const std::vector<SpanRecord> spans = Tracer::global().collect(since);

  if (!first_error.empty()) r.fail_check("campaign replay threw: " + first_error);
  if (m.result.records.size() == s.cells.size()) {
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
      if (!replayed[i] || !study::equal_modulo_timing(*replayed[i], m.result.records[i])) {
        r.fail_check("replayed cell " + s.ids[i] + " differs from the campaign's record");
        break;
      }
    }
  }

  const auto layers = layer_times(spans);
  r.add("data.generate_ms", summarize(generate_ms).p50, "ms");
  r.add("faults.inject_ms", mean_ns(layers, "faults.inject") * 1e-6, "ms");
  for (const auto kind : s.spec.techniques) {
    const std::string t = mitigation::technique_name(kind);
    r.add("mitigation.fit_ms." + t, mean_ns(layers, "mitigation.fit." + t) * 1e-6, "ms");
  }
  r.add("mitigation.predict_ms", mean_ns(layers, "mitigation.predict") * 1e-6, "ms");
  r.add("study.cache.dataset.hit_ratio", ratio(m.result.dataset_cache), "ratio");
  r.add("study.cache.golden.hit_ratio", ratio(m.result.golden_cache), "ratio");
  double busy = 0.0;
  for (const double l : m.cell_latency_s) busy += l;
  r.add("study.worker_busy_frac", busy / (m.wall_s * static_cast<double>(opts.nproc)),
        "ratio");
  const Summary append = summarize(span_ms(spans, "study.journal.append"));
  r.add("study.journal.append_ms.p50", append.p50, "ms");
  r.add("study.journal.append_ms.p99", append.p99, "ms");
  r.add("campaign.unattributed_frac",
        unattributed_frac(layers, "campaign.worker", {"campaign.cell"}), "ratio");
  r.add("campaign.trace_overhead_frac", (traced_wall - m.wall_s) / m.wall_s, "ratio");
  r.notes.push_back("campaign: untraced wall " + std::to_string(m.wall_s) +
                    " s, traced replay wall " + std::to_string(traced_wall) + " s");
  return r;
}

}  // namespace perfbench
