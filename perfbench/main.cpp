// perfbench: one command for the end-to-end and per-layer metrics of the
// three workloads (campaign, serve, online).
//
//   perfbench --workload campaign|serve|online --seed N --seconds S
//             --trace 0|1 --workdir DIR
//
// --trace 0 prints the workload's end-to-end metrics.  --trace 1 prints
// every per-layer metric: it runs the traced phase of all three workloads
// and the kernel micro-phase, whichever --workload is named.  The last line
// of standard output is the result as one JSON object.
#include <sched.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/logging.hpp"
#include "core/thread_pool.hpp"
#include "kernels/kernels.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print(const Result& r, const std::vector<ThreadBudget>& budgets,
           const Options& opts) {
  std::cout << "host: nproc=" << opts.nproc << " kernel_isa=" << opts.kernel_isa << "\n";
  for (const ThreadBudget& b : budgets) {
    std::cout << "thread budget " << b.describe() << " <= nproc " << opts.nproc << "\n";
  }
  for (const std::string& n : r.notes) std::cout << n << "\n";
  for (const Metric& m : r.metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit << "\n";
  }
  std::string json = "{\"correct\": " + std::string(r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) json += ", ";
    json += json_string(m.name) + ": {\"value\": " + number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args = {
      {"workload", ""}, {"seed", "0"}, {"seconds", "10"}, {"trace", "0"}, {"workdir", ""}};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || !args.count(flag.substr(2)) || i + 1 >= argc) {
      throw std::invalid_argument("bad argument " + flag);
    }
    args[flag.substr(2)] = argv[++i];
  }
  Options opts;
  opts.seed = std::stoull(args["seed"]);
  opts.seconds = std::stod(args["seconds"]);
  opts.workdir = args["workdir"];
  opts.nproc = cpu_count();
  opts.kernel_isa = tdfm::kernels::kernel_name(tdfm::kernels::active_kernel());
  const bool trace = args["trace"] == "1";
  const std::string workload = args["workload"];
  if (opts.workdir.empty()) throw std::invalid_argument("--workdir is required");
  if (!(opts.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  std::filesystem::create_directories(opts.workdir);
  opts.digest_file = opts.workdir + "/../recorded-digests.txt";

  tdfm::set_log_level(tdfm::LogLevel::kWarn);
  // The global pool gets no helper threads: campaign workers and serving
  // workers all run their compute inline, so each workload's thread count
  // is exactly its budget.
  tdfm::core::ThreadPool::set_global_threads(1);

  const std::map<std::string, ThreadBudget> budgets = {
      {"campaign", campaign_budget(opts)},
      {"serve", serve_budget(opts)},
      {"online", online_budget(opts)}};
  if (!budgets.count(workload)) throw std::invalid_argument("unknown workload " + workload);
  std::vector<ThreadBudget> used;
  for (const auto& [name, b] : budgets) {
    if (trace || name == workload) {
      enforce(b, opts.nproc);
      used.push_back(b);
    }
  }

  Result result;
  if (!trace) {
    if (workload == "campaign") result = run_campaign(opts);
    if (workload == "serve") result = run_serve(opts);
    if (workload == "online") result = run_online(opts);
  } else {
    result.merge(trace_campaign(opts));
    result.merge(trace_serve(opts));
    result.merge(trace_online(opts));
    result.merge(trace_kernels(opts));
    Tracer::global().write_chrome_trace(opts.workdir + "/trace.json");
  }
  print(result, used, opts);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
