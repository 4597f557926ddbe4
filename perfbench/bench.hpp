// Shared types of the perfbench workloads.
//
// Each workload has an untraced entry point (the end-to-end metrics) and a
// traced one (the per-layer metrics).  Both check the outputs they produce.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string workdir;      ///< scratch files of this run (inside the checkout)
  std::size_t nproc = 1;    ///< thread budget
  std::string kernel_isa;   ///< active GEMM kernel (tags pinned digests)
  std::string digest_file;  ///< digests recorded for ISAs without a pinned table
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< printed before the result line

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed output check (the run then reports correct=false).
  void fail_check(const std::string& what) {
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
  void merge(Result other);
};

/// Threads a workload keeps busy, checked against nproc before it starts.
struct ThreadBudget {
  std::string workload;
  std::size_t generator = 0;  ///< request-generating / driving threads
  std::size_t workers = 0;    ///< campaign jobs or engine workers
  std::size_t pool = 0;       ///< global ThreadPool helper threads

  [[nodiscard]] std::size_t total() const { return generator + workers + pool; }
  [[nodiscard]] std::string describe() const;
};

/// Throws if the budget exceeds nproc.
void enforce(const ThreadBudget& budget, std::size_t nproc);

/// Seconds of process user+sys CPU time so far.
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set of the process so far, in MiB.
[[nodiscard]] double peak_rss_mb();
/// Median wall seconds of `reps` calls of `setup` (the last call's state is
/// what the workload keeps).
[[nodiscard]] double median_setup_seconds(int reps, const std::function<void()>& setup);

/// Checks a digest against the table pinned for this ISA, or, for an ISA
/// with no pinned table, against the digest this checkout recorded the
/// first time it saw `key`.  Returns a short description for the notes;
/// records a failed check in `result` on a mismatch.
std::string check_digest(const Options& opts, const std::string& key,
                         std::uint64_t digest, Result& result);

// Workloads.  `run_*` measures the end-to-end metrics with tracing off;
// `trace_*` replays the same work through the layers' public functions
// under spans and reports per-layer metrics.
[[nodiscard]] Result run_campaign(const Options& opts);
[[nodiscard]] Result trace_campaign(const Options& opts);
[[nodiscard]] Result run_serve(const Options& opts);
[[nodiscard]] Result trace_serve(const Options& opts);
[[nodiscard]] Result run_online(const Options& opts);
[[nodiscard]] Result trace_online(const Options& opts);
/// Kernel and single-network micro-phases (traced runs only).
[[nodiscard]] Result trace_kernels(const Options& opts);

[[nodiscard]] ThreadBudget campaign_budget(const Options& opts);
[[nodiscard]] ThreadBudget serve_budget(const Options& opts);
[[nodiscard]] ThreadBudget online_budget(const Options& opts);

}  // namespace perfbench
