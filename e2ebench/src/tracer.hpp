// Span recorder for the benchmark's traced pass. Spans (name, start, end,
// thread, parent) are recorded around calls into each fpr_core layer from
// the benchmark's own code, kept in memory, written as Chrome Trace Event
// JSON when the run ends, and reduced to per-layer busy and self times.
// Exact work counts are recorded at the same boundaries.
//
// A span name is "<layer>.<what>"; the layer is the part before the dot
// (kernels, memsim, model, study, io). The root span of a traced pass has
// no dot and belongs to no layer.
#pragma once
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "memsim/trace_source.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  ///< static storage
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
  std::uint32_t tid = 0;
  std::int32_t parent = -1;
  /// Replay spans only: time spent inside TraceSource::fill, and the layer
  /// that time belongs to ("memsim" for generation, "io" for decode). The
  /// rest of the span is the cache walk. Accumulated rather than recorded
  /// as child spans: a replay pulls one block per 1024 references, and a
  /// span per block would bloat the trace file.
  std::int64_t fill_ns = 0;
  const char* fill_layer = nullptr;
};

/// Per-layer reduction of one traced pass (the root span's interval).
struct LayerTimes {
  double wall_s = 0.0;
  /// Summed span durations by span name (thread-seconds), plus
  /// "<fill_layer>.fill" for the accumulated fill time of replay spans.
  std::map<std::string, double> busy_s;
  /// Wall-clock self time by layer: at each instant the interval is split
  /// evenly over the threads' innermost open spans, so layer self times
  /// plus `unattributed_s` sum to `wall_s` exactly. On one thread this is
  /// the usual "duration minus child coverage".
  std::map<std::string, double> self_s;
  /// Time in which no thread was inside any layer span: scheduling gaps,
  /// thread start-up, and the benchmark's own glue.
  double unattributed_s = 0.0;
  /// End of the last span named `last_of` minus the root's start.
  double last_end_s = 0.0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open a span on the calling thread. Its parent is the thread's
  /// innermost open span, or the root when the thread has none.
  int begin(const char* name);
  void end(int id, std::int64_t fill_ns, const char* fill_layer);
  /// Spans opened on threads with no open span become children of `id`.
  void set_root(int id);

  void count(const std::string& name, std::uint64_t n);
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;

  [[nodiscard]] LayerTimes analyze(int root, const char* last_of) const;
  /// {"traceEvents": [...]} with one complete ("X") event per span.
  [[nodiscard]] std::string chrome_json() const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  Clock::time_point origin_;
  mutable std::mutex mu_;  // guards spans_, counts_, root_
  std::vector<Span> spans_;
  std::map<std::string, std::uint64_t> counts_;
  int root_ = -1;
};

/// RAII span; a null tracer makes it a no-op, so traced and untraced
/// passes share one code path.
class Scoped {
 public:
  Scoped(Tracer* tracer, const char* name);
  ~Scoped();
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  [[nodiscard]] int id() const { return id_; }
  void set_fill(std::int64_t ns, const char* layer) {
    fill_ns_ = ns;
    fill_layer_ = layer;
  }

 private:
  Tracer* tracer_;
  int id_ = -1;
  int prev_ = -1;
  std::int64_t fill_ns_ = 0;
  const char* fill_layer_ = nullptr;
};

/// TraceSource wrapper that times every fill() and counts references, so
/// a replay span can split generation or decode from the cache walk.
class TimedSource final : public fpr::memsim::TraceSource {
 public:
  explicit TimedSource(fpr::memsim::TraceSource& inner) : inner_(inner) {}
  std::size_t fill(fpr::memsim::MemRef* out, std::size_t n) override {
    const auto t0 = Clock::now();
    const std::size_t got = inner_.fill(out, n);
    fill_ns_ += (Clock::now() - t0).count();
    refs_ += got;
    return got;
  }
  [[nodiscard]] std::int64_t fill_ns() const { return fill_ns_; }
  [[nodiscard]] std::uint64_t refs() const { return refs_; }

 private:
  fpr::memsim::TraceSource& inner_;
  std::int64_t fill_ns_ = 0;
  std::uint64_t refs_ = 0;
};

}  // namespace e2e
