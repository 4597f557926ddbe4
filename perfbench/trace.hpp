// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions; nothing inside the library is instrumented.
// Each span keeps its name, start, end, parent and thread.  Recording is a
// push onto a per-thread vector, and everything is written out once, when
// the run ends (write_chrome_trace).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;  ///< steady_clock, relative to the tracer epoch
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;      ///< unique per run, never 0
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t thread = 0;  ///< small per-thread ordinal
};

/// Process-wide recorder.  Disabled (the default) it records nothing and a
/// Span costs one relaxed load.
class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on);

  /// Every span recorded so far that started at or after `since_ns`,
  /// ordered by start time.
  [[nodiscard]] std::vector<SpanRecord> collect(std::int64_t since_ns = 0) const;

  /// Chrome trace_event JSON ('X' events), loadable in Perfetto.
  void write_chrome_trace(const std::string& path) const;

  /// Nanoseconds since the tracer epoch.
  [[nodiscard]] static std::int64_t now_ns();
};

/// RAII span.  The parent is the innermost open span on the same thread,
/// unless one is given explicitly (a worker thread's root names the span
/// that spawned it).
class Span {
 public:
  explicit Span(std::string_view name, std::uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  std::string name_;
  std::int64_t start_ns_ = 0;
  std::uint64_t id_ = 0;  ///< 0 = tracing was off when the span began
  std::uint64_t parent_ = 0;
  std::uint64_t saved_current_ = 0;
};

/// Aggregate of every span of one name.
struct LayerTime {
  std::size_t count = 0;
  double total_ns = 0.0;  ///< summed durations
  double self_ns = 0.0;   ///< summed durations minus child coverage
};

/// A span's self time is its duration minus the part of its interval that
/// its children cover (overlapping children are counted once).
[[nodiscard]] std::map<std::string, LayerTime> layer_times(
    const std::vector<SpanRecord>& spans);

/// Mean duration of the spans named `name`, in ns (0 if there were none).
[[nodiscard]] double mean_ns(const std::map<std::string, LayerTime>& layers,
                             const std::string& name);

/// The part of the traced work that no layer span accounts for: the self
/// time of the `root` spans plus that of the `containers` (spans that only
/// group layer calls, such as one cell), as a share of the roots' duration.
[[nodiscard]] double unattributed_frac(const std::map<std::string, LayerTime>& layers,
                                       const std::string& root,
                                       const std::vector<std::string>& containers = {});

}  // namespace perfbench
