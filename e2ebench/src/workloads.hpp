// The benchmark's four workloads over fpr_core's public entry points.
// Why each exists, and which layer each is meant to expose, is in
// e2ebench/NOTES.md.
#pragma once
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "tracer.hpp"

namespace e2e {

struct Settings {
  std::uint64_t seed = 42;          ///< kernel input seed
  std::uint64_t search_seed = 2019; ///< pareto explorer walks
  unsigned jobs = 1;                ///< stage / scoring workers
  bool tiny = false;                ///< self-test size: seconds, not minutes
  bool corrupt_trace = false;       ///< flip one payload byte (self-test)
  std::string work_dir;             ///< where trace-replay records its files
};

struct PassOutcome {
  std::uint64_t items = 0;   ///< items attempted in the pass
  std::uint64_t failed = 0;  ///< threw, failed verification, or mismatched
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Program-side preparation before the first timed pass. Timed; run
  /// several times per benchmark run.
  virtual void setup(Tracer* tr) = 0;
  /// The benchmark's own reference for the correctness check. Untimed.
  virtual void reference() = 0;
  /// One unit of work, checked against the reference. With a tracer the
  /// pass records spans and counts (see NOTES.md for which passes are
  /// re-driven through public functions rather than the engines).
  virtual PassOutcome pass(Tracer* tr) = 0;
  /// Per-layer numbers read from engine stats or setup timers rather
  /// than from spans.
  virtual void observed(std::map<std::string, double>&) const {}
  /// Span whose last end marks "last kernel measurement landed", or null.
  [[nodiscard]] virtual const char* producer_span() const { return nullptr; }
};

/// Throws std::invalid_argument for an unknown workload name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Settings& s);

}  // namespace e2e
