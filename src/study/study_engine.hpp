// StudyEngine: the study pipeline decomposed into schedulable jobs.
//
// The evaluation grid is one instrumented kernel run per kernel (the
// paper's SDE/PCM step) feeding three per-machine stages (memory
// simulation + model evaluation + frequency sweep) per kernel. Both
// axes fan out:
//
//  - kernel runs execute on up to cfg.kernel_jobs producer threads.
//    Every run gets its own ExecutionContext (a private worker pool of
//    cfg.threads workers plus a run-local counter sink), so concurrent
//    runs share no mutable state — the de-globalization that lifted the
//    old "kernel runs are inherently serial" constraint, which existed
//    only because kernels used to count into process-wide thread-local
//    tallies on a single global pool;
//  - each finished measurement streams its (kernel, machine) stages —
//    pure functions of (CpuSpec, measurement) — to the workers of an
//    engine-owned pool of cfg.jobs threads. A producer that runs out of
//    kernels joins those workers until the queue drains.
//
// Guarantees:
//  - each kernel's instrumented run executes exactly once, shared by all
//    machine stages (stats().kernel_runs counts them);
//  - results are slot-indexed, so ordering is deterministic — identical
//    across any (kernel_jobs, jobs) combination, and byte-identical once
//    serialized when cfg.canonical_timing strips the only wall-clock
//    field (op counts are analytic and chunking is static, so the
//    parallel engine is a pure reordering of the serial pipeline);
//  - a kernel-verification exception aborts fail-fast: queued machine
//    jobs are dropped, no further kernel runs start, and run() rethrows
//    the original exception.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "kernels/kernel.hpp"
#include "study/study.hpp"

namespace fpr::study {

/// Execution counters for the run-count assertions in tests and for the
/// throughput bench's sanity output.
struct EngineStats {
  std::uint64_t kernel_runs = 0;    ///< instrumented kernel executions
  std::uint64_t machine_evals = 0;  ///< completed (kernel, machine) stages
  std::uint64_t sim_hits = 0;       ///< memoized hierarchy replays reused
  std::uint64_t sim_misses = 0;     ///< hierarchy replays actually simulated
  /// Of the misses, those that walked only the last level over a stored
  /// stream (memsim::SimCache::Stats::stream_replays).
  std::uint64_t sim_stream_replays = 0;
};

class StudyEngine {
 public:
  /// Source of kernels to run (tests inject counting/failing fakes).
  using KernelFactory =
      std::function<std::vector<std::unique_ptr<kernels::ProxyKernel>>()>;

  explicit StudyEngine(StudyConfig cfg, KernelFactory factory = nullptr);

  /// Execute the pipeline. Call at most once per engine.
  [[nodiscard]] StudyResults run();

  /// Valid after run() returns (or throws).
  [[nodiscard]] const EngineStats& stats() const { return stats_; }

 private:
  StudyConfig cfg_;
  KernelFactory factory_;
  EngineStats stats_;
};

/// The deterministic configuration behind tests/golden/study_snapshot.json:
/// a six-kernel subset covering every workload class at reduced scale,
/// single-threaded kernel runs (host-independent op counts), canonical
/// timing. Regenerate the snapshot with
/// `fpr study --golden --out tests/golden/study_snapshot.json`.
[[nodiscard]] StudyConfig golden_config();

}  // namespace fpr::study
