// VariantEvaluator: the incremental half of the design-space machinery.
//
// The old explore pipeline paid one StudyEngine (kernel, machine) stage
// per variant — O(variants × kernels) memory simulations and a
// StudyResults that grew with the grid. The evaluator splits that into
// two phases:
//
//  1. a one-time *measurement phase*: every selected kernel runs
//     instrumented exactly once (a StudyEngine over the base machine),
//     and the base machine's hierarchy replays land in a SimCache the
//     evaluator keeps alive. Given the caller's first batch, the same
//     StudyEngine also replays that batch's full-hierarchy geometries,
//     on stage workers that would otherwise idle behind the kernel runs;
//  2. batched *scoring*: evaluate_batch(variants) plans, replays,
//     profiles, then scores. Memory profiles come from a model-level
//     memo keyed by arch::memory_model_digest, so bandwidth/TDP/FPU
//     respins reuse the base profiles outright. A batch first collects
//     its digests that are not memoized yet (first-seen order), runs
//     their distinct hierarchy replays (SimCache keys) as one flat task
//     list on every ExecutionContext worker, builds each new profile set
//     from those cached replays in kernel order, and finally scores
//     every variant into its slot. The compute-side model
//     (model::evaluate_at_turbo) is recomputed per variant because it
//     is cheap pure arithmetic.
//
// The plan, the memo inserts and the evaluator counters happen on the
// calling thread, and each distinct replay is looked up exactly once, so
// scores, EvaluatorStats and the SimCache counters are a pure function
// of the call sequence for any worker count. Scoring
// reproduces the monolithic pipeline's arithmetic exactly — same model
// calls, same inputs, same order — which is what lets the rewired
// ExploreEngine keep the golden explore snapshot byte for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/variant.hpp"
#include "memsim/sim_cache.hpp"
#include "model/exec_model.hpp"
#include "model/memprofile.hpp"
#include "study/study_engine.hpp"

namespace fpr {
class ExecutionContext;  // common/execution_context.hpp
}

namespace fpr::study {

/// One kernel evaluated on one variant, plus its deltas vs the base
/// machine (ratios < 1 mean the variant is better).
struct KernelProjection {
  std::string abbrev;
  model::MemoryProfile mem;
  model::EvalResult perf;
  double time_ratio = 1.0;     ///< seconds / base seconds
  double energy_ratio = 1.0;   ///< (power * seconds) / base energy
  double fp64_pct_peak = 0.0;  ///< achieved FP64 as % of the variant's peak
};

/// One variant's full scorecard over the kernel selection.
struct VariantScore {
  arch::MachineVariant variant;  ///< spec "" = the base machine itself
  std::vector<KernelProjection> kernels;
  double geomean_time_ratio = 1.0;    ///< time-to-solution vs base
  double geomean_energy_ratio = 1.0;  ///< energy-to-solution vs base
  double mean_fp64_pct_peak = 0.0;    ///< over kernels with FP64 work
  double site_pct_peak = 0.0;  ///< Fig. 7 projection, averaged over sites

  [[nodiscard]] const std::string& name() const {
    return variant.cpu.short_name;
  }
};

/// Geometric mean of per-kernel ratios. Every input must be finite and
/// > 0 — std::log(0) would otherwise poison the whole aggregate with
/// -inf silently; a zero or non-finite ratio means a model bug upstream,
/// so this throws std::domain_error naming the offending value instead.
double geomean_ratio(const std::vector<double>& ratios);

/// Scoring-side counters (the measurement phase reports EngineStats).
/// Deterministic for a fixed call sequence, whatever the worker count.
struct EvaluatorStats {
  std::uint64_t evaluations = 0;  ///< variants scored
  std::uint64_t memo_hits = 0;    ///< profile sets served from the memo
  std::uint64_t memo_misses = 0;  ///< profile sets computed (exactly once
                                  ///< per distinct memory-model digest)
};

class VariantEvaluator {
 public:
  struct Config {
    /// Kernel selection / run parameters, as for StudyConfig.
    std::vector<std::string> kernels;
    double scale = 0.3;
    unsigned threads = 0;
    std::uint64_t trace_refs = model::kDefaultTraceRefs;
    std::uint64_t seed = 42;
    unsigned jobs = 1;
    unsigned kernel_jobs = 1;
  };

  /// Runs the measurement phase (throws whatever the kernel runs throw).
  /// `first_batch` is the batch the caller will score first, derived
  /// from `base` like any batch. Its machines whose replays walk the
  /// whole hierarchy (the cores, or a level other than the last, differ
  /// from the base and from each other) replay during the measurement
  /// phase, so evaluate_batch(first_batch) finds them in the SimCache.
  /// Machines that differ only in bandwidth or in the last level are
  /// left to evaluate_batch: they hit the base's replays or walk one
  /// level over its streams. Scores, EvaluatorStats and the SimCache
  /// misses, stream replays and stream bytes are the same with or
  /// without a first batch; SimCache hits rise by one per replay run
  /// early.
  VariantEvaluator(arch::CpuSpec base, const Config& cfg,
                   const std::vector<arch::MachineVariant>& first_batch = {},
                   StudyEngine::KernelFactory factory = nullptr);

  /// Score `variants` against the measured base, result i for variant i.
  /// Every `variant.cpu` must be derived from this evaluator's base
  /// machine (arch::derive_variant); the base itself is the empty spec.
  /// The batch's new hierarchy replays run on `ctx`'s workers (the
  /// calling thread alone when null). Thread-safe: concurrent calls run
  /// one batch at a time.
  [[nodiscard]] std::vector<VariantScore> evaluate_batch(
      const std::vector<arch::MachineVariant>& variants,
      ExecutionContext* ctx = nullptr) const;

  /// A batch of one, on the calling thread.
  [[nodiscard]] VariantScore evaluate(const arch::MachineVariant& variant) const;

  [[nodiscard]] const arch::CpuSpec& base() const { return base_; }
  [[nodiscard]] std::size_t kernel_count() const { return kernels_.size(); }

  /// Measurement-phase counters: kernel_runs == machine_evals ==
  /// kernel_count() (the first batch's stages are counted when
  /// evaluate_batch scores them); the sim counters include the first
  /// batch's replays.
  [[nodiscard]] const EngineStats& measurement_stats() const {
    return measurement_stats_;
  }
  /// Scoring-side counters: memo_misses is the number of distinct new
  /// memory-model digests scored so far, memo_hits + memo_misses ==
  /// evaluations, for every worker count.
  [[nodiscard]] EvaluatorStats stats() const;
  /// The shared hierarchy-replay cache's counters (measurement + scoring).
  [[nodiscard]] memsim::SimCache::Stats sim_stats() const {
    return sim_cache_->stats();
  }

 private:
  /// Everything scoring needs per kernel, captured once.
  struct KernelBase {
    kernels::KernelInfo info;
    model::WorkloadMeasurement meas;
    model::EvalResult perf;  ///< on the base machine
  };
  using ProfileSet = std::vector<model::MemoryProfile>;  // kernel order

  /// Model arithmetic only: one variant against its memory profiles.
  [[nodiscard]] VariantScore score_against(
      const arch::MachineVariant& variant, const ProfileSet& profiles) const;

  arch::CpuSpec base_;
  std::uint64_t trace_refs_ = model::kDefaultTraceRefs;
  std::vector<KernelBase> kernels_;
  std::shared_ptr<memsim::SimCache> sim_cache_;
  EngineStats measurement_stats_;

  mutable std::mutex mu_;  // held for a whole batch; guards memo_, stats_
  mutable std::unordered_map<std::string, ProfileSet> memo_;  // by digest
  mutable EvaluatorStats stats_;
};

}  // namespace fpr::study
