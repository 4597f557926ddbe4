#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "digests.hpp"
#include "stats.hpp"

namespace perfbench {

void Result::merge(Result other) {
  correct = correct && other.correct;
  attempted += other.attempted;
  failed += other.failed;
  for (auto& m : other.metrics) metrics.push_back(std::move(m));
  for (auto& n : other.notes) notes.push_back(std::move(n));
}

std::string ThreadBudget::describe() const {
  std::ostringstream os;
  os << workload << ": generator=" << generator << " workers=" << workers
     << " pool=" << pool << " total=" << total();
  return os.str();
}

void enforce(const ThreadBudget& budget, std::size_t nproc) {
  if (budget.total() > nproc) {
    throw std::runtime_error("thread budget exceeded: " + budget.describe() +
                             " > nproc=" + std::to_string(nproc));
  }
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median_setup_seconds(int reps, const std::function<void()>& setup) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    setup();
    t.push_back(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                    .count());
  }
  return summarize(t).p50;
}

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string check_digest(const Options& opts, const std::string& key,
                         std::uint64_t digest, Result& result) {
  const std::string got = hex64(digest);
  const std::string full_key = opts.kernel_isa + "/" + key;
  if (const char* pinned = pinned_digest(opts.kernel_isa, key)) {
    if (got != pinned) {
      result.fail_check("digest " + full_key + " = " + got + ", pinned " + pinned);
    }
    return full_key + " " + got + " (pinned)";
  }
  // No pinned table for this ISA: the first run in this checkout records the
  // digest and every later run must reproduce it.
  std::map<std::string, std::string> seen;
  {
    std::ifstream in(opts.digest_file);
    std::string k;
    std::string v;
    while (in >> k >> v) seen[k] = v;
  }
  const auto it = seen.find(full_key);
  if (it == seen.end()) {
    std::ofstream(opts.digest_file, std::ios::app) << full_key << " " << got << "\n";
    return full_key + " " + got + " (recorded, no pinned table for this ISA)";
  }
  if (it->second != got) {
    result.fail_check("digest " + full_key + " = " + got + ", recorded " + it->second);
  }
  return full_key + " " + got + " (recorded earlier in this checkout)";
}

}  // namespace perfbench
