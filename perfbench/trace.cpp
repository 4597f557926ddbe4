#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

struct ThreadBuffer {
  std::mutex mu;  // uncontended except against collect()/clear()
  std::vector<SpanRecord> spans;
  std::uint32_t ordinal = 0;
};

struct State {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> next_id{1};
  std::mutex mu;  // guards buffers
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

State& state() {
  static State s;
  return s;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    State& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    b->ordinal = static_cast<std::uint32_t>(s.buffers.size());
    s.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

thread_local std::uint64_t t_current = 0;  // innermost open span

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_enabled(bool on) { state().enabled.store(on); }

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kEpoch)
      .count();
}

std::vector<SpanRecord> Tracer::collect(std::int64_t since_ns) const {
  State& s = state();
  std::vector<SpanRecord> all;
  const std::lock_guard<std::mutex> lock(s.mu);
  for (const auto& b : s.buffers) {
    const std::lock_guard<std::mutex> block(b->mu);
    for (const SpanRecord& r : b->spans) {
      if (r.start_ns >= since_ns) all.push_back(r);
    }
  }
  std::sort(all.begin(), all.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const SpanRecord& r : collect()) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << json_escape(r.name) << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":" << r.thread << ",\"ts\":" << static_cast<double>(r.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1e3
        << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent << "}}";
  }
  out << "\n]}\n";
}

Span::Span(std::string_view name, std::uint64_t parent) {
  if (!state().enabled.load(std::memory_order_relaxed)) return;
  start_ns_ = Tracer::now_ns();
  name_ = name;
  id_ = state().next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = parent != 0 ? parent : t_current;
  saved_current_ = t_current;
  t_current = id_;
}

Span::~Span() {
  if (id_ == 0) return;
  const std::int64_t end_ns = Tracer::now_ns();
  t_current = saved_current_;
  ThreadBuffer& buf = local_buffer();
  const std::lock_guard<std::mutex> lock(buf.mu);
  buf.spans.push_back({std::move(name_), start_ns_, end_ns, id_, parent_, buf.ordinal});
}

std::map<std::string, LayerTime> layer_times(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, LayerTime> out;
  for (const SpanRecord& s : spans) {
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const std::int64_t lo = std::max(c->start_ns, s.start_ns);
        const std::int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : cover) {
      if (run_hi < lo) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    LayerTime& lt = out[s.name];
    ++lt.count;
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    lt.total_ns += dur;
    lt.self_ns += dur - static_cast<double>(covered);
  }
  return out;
}

double mean_ns(const std::map<std::string, LayerTime>& layers, const std::string& name) {
  const auto it = layers.find(name);
  if (it == layers.end() || it->second.count == 0) return 0.0;
  return it->second.total_ns / static_cast<double>(it->second.count);
}

double unattributed_frac(const std::map<std::string, LayerTime>& layers,
                         const std::string& root,
                         const std::vector<std::string>& containers) {
  const auto it = layers.find(root);
  if (it == layers.end() || it->second.total_ns <= 0.0) return 0.0;
  double self = it->second.self_ns;
  for (const std::string& c : containers) {
    if (const auto ct = layers.find(c); ct != layers.end()) self += ct->second.self_ns;
  }
  return self / it->second.total_ns;
}

}  // namespace perfbench
