#include "study/variant_eval.hpp"

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "common/execution_context.hpp"
#include "common/units.hpp"
#include "study/domain_util.hpp"

namespace fpr::study {

double geomean_ratio(const std::vector<double>& ratios) {
  if (ratios.empty()) return 1.0;
  double log_sum = 0.0;
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    const double x = ratios[i];
    if (!std::isfinite(x) || x <= 0.0) {
      throw std::domain_error(
          "geomean_ratio: ratio #" + std::to_string(i) + " is " +
          std::to_string(x) +
          " — every per-kernel ratio must be finite and > 0 (a zero or "
          "non-finite ratio means a model produced a degenerate time or "
          "energy value upstream)");
    }
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(ratios.size()));
}

namespace {

/// What a machine's last-level input streams depend on besides the
/// kernel: the core count (through the per-core slice) and every level
/// but the last. Machines equal in it share those streams
/// (SimCache::upper_key), so only one of them replays the whole
/// hierarchy.
std::string upper_geometry(const arch::CpuSpec& cpu) {
  std::string g = std::to_string(cpu.cores);
  const auto levels =
      memsim::hierarchy_levels(cpu, model::kDefaultScaleShift);
  for (std::size_t i = 0; i + 1 < levels.size(); ++i) {
    g += ';';
    g += std::to_string(levels[i].config.size_bytes);
    g += ',';
    g += std::to_string(levels[i].config.associativity);
  }
  return g;
}

}  // namespace

VariantEvaluator::VariantEvaluator(
    arch::CpuSpec base, const Config& cfg,
    const std::vector<arch::MachineVariant>& first_batch,
    StudyEngine::KernelFactory factory)
    : base_(std::move(base)),
      trace_refs_(cfg.trace_refs),
      sim_cache_(std::make_shared<memsim::SimCache>()) {
  // Measurement phase: one study over the base machine. Each kernel
  // runs instrumented exactly once; the base's hierarchy replays land in
  // sim_cache_, which outlives the engine so later geometry-changing
  // variants extend the same memo instead of restarting it.
  StudyConfig sc;
  sc.scale = cfg.scale;
  sc.threads = cfg.threads;
  sc.freq_sweep = false;  // the Fig. 6 sweep is a per-real-machine study
  sc.trace_refs = cfg.trace_refs;
  sc.kernels = cfg.kernels;
  sc.seed = cfg.seed;
  sc.jobs = cfg.jobs;
  sc.kernel_jobs = cfg.kernel_jobs;
  sc.canonical_timing = true;  // scores are analytic; keep them stable
  sc.machines.push_back(base_);
  sc.sim_cache = sim_cache_;
  // One extra machine per new upper geometry in the first batch: its
  // stages fill the stage workers while the producers run kernels, and
  // leave full replays in sim_cache_ for evaluate_batch to hit.
  std::unordered_set<std::string> uppers{upper_geometry(base_)};
  for (const auto& v : first_batch) {
    if (uppers.insert(upper_geometry(v.cpu)).second) {
      sc.machines.push_back(v.cpu);
    }
  }

  StudyEngine engine(sc, std::move(factory));
  auto results = engine.run();  // rethrows kernel-verification failures
  measurement_stats_ = engine.stats();
  measurement_stats_.machine_evals = results.kernels.size();  // base only

  ProfileSet base_profiles;
  base_profiles.reserve(results.kernels.size());
  kernels_.reserve(results.kernels.size());
  for (auto& k : results.kernels) {
    base_profiles.push_back(k.machines[0].mem);
    kernels_.push_back(
        {std::move(k.info), std::move(k.meas), k.machines[0].perf});
  }
  // Prime the model-level memo: every variant that leaves the memory
  // system untouched (TDP, FPU respins) shares the base digest and pays
  // zero simulation work.
  memo_.emplace(arch::memory_model_digest(base_), std::move(base_profiles));
}

std::vector<VariantScore> VariantEvaluator::evaluate_batch(
    const std::vector<arch::MachineVariant>& variants,
    ExecutionContext* ctx) const {
  std::lock_guard lock(mu_);

  // 1. Plan: the batch's memory models not memoized yet, in first-seen
  //    order. Each costs one memo miss; every other variant is a hit.
  std::vector<std::string> digests;
  digests.reserve(variants.size());
  std::vector<std::size_t> fresh;  // first variant carrying each new digest
  std::unordered_set<std::string> planned;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    digests.push_back(arch::memory_model_digest(variants[i].cpu));
    if (!memo_.contains(digests[i]) && planned.insert(digests[i]).second) {
      fresh.push_back(i);
    }
  }

  // 2. Replay: the distinct hierarchy simulations behind the new
  //    profiles (digests that differ only in bandwidth share them), as
  //    one flat task list. Replay costs vary widely with the pattern
  //    mix, so workers claim tasks from a shared cursor; static chunks
  //    would leave workers idle behind the slowest one.
  //    Each key is looked up once, so the SimCache counters do not
  //    depend on the schedule.
  struct Replay {
    const arch::CpuSpec* cpu;
    memsim::AccessPatternSpec sliced;
  };
  std::vector<Replay> replays;
  std::unordered_set<std::string> keys;
  for (const std::size_t i : fresh) {
    const arch::CpuSpec& cpu = variants[i].cpu;
    for (const auto& kb : kernels_) {
      // The slice and key profile_memory uses, so step 3 only hits.
      auto sliced = model::per_core_slice(kb.meas.access, cpu.cores);
      if (keys.insert(memsim::SimCache::key(cpu, sliced, trace_refs_,
                                            model::kProfileSeed,
                                            model::kDefaultScaleShift))
              .second) {
        replays.push_back({&cpu, std::move(sliced)});
      }
    }
  }
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t t = next++; t < replays.size(); t = next++) {
      (void)memsim::simulate_pattern_cached(
          sim_cache_.get(), *replays[t].cpu, replays[t].sliced, trace_refs_,
          model::kProfileSeed, model::kDefaultScaleShift);
    }
  };
  if (ctx != nullptr && replays.size() > 1) {
    ctx->parallel_for(ctx->concurrency(),
                      [&](std::size_t, std::size_t, unsigned) { drain(); });
  } else {
    drain();
  }

  // 3. Profile each new memory model in kernel order from the cache.
  for (const std::size_t i : fresh) {
    ProfileSet set;
    set.reserve(kernels_.size());
    for (const auto& kb : kernels_) {
      set.push_back(model::profile_memory(variants[i].cpu, kb.meas,
                                          trace_refs_,
                                          model::kDefaultScaleShift,
                                          sim_cache_.get()));
    }
    memo_.emplace(digests[i], std::move(set));
  }
  stats_.memo_misses += fresh.size();
  stats_.memo_hits += variants.size() - fresh.size();

  // 4. Score: model arithmetic into slot-indexed outputs.
  std::vector<VariantScore> scores(variants.size());
  const auto score_one = [&](std::size_t i) {
    scores[i] = score_against(variants[i], memo_.at(digests[i]));
  };
  if (ctx != nullptr) {
    ctx->for_each(variants.size(), score_one);
  } else {
    for (std::size_t i = 0; i < variants.size(); ++i) score_one(i);
  }
  stats_.evaluations += variants.size();
  return scores;
}

VariantScore VariantEvaluator::evaluate(
    const arch::MachineVariant& variant) const {
  return std::move(evaluate_batch({variant}).front());
}

VariantScore VariantEvaluator::score_against(
    const arch::MachineVariant& variant, const ProfileSet& profiles) const {
  VariantScore score;
  score.variant = variant;
  const arch::CpuSpec& cpu = score.variant.cpu;

  std::vector<double> time_ratios, energy_ratios, fp64_pcts;
  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    const KernelBase& kb = kernels_[i];
    KernelProjection p;
    p.abbrev = kb.info.abbrev;
    p.mem = profiles[i];
    p.perf = model::evaluate_at_turbo(cpu, kb.meas, p.mem);
    p.time_ratio = p.perf.seconds / kb.perf.seconds;
    p.energy_ratio = (p.perf.power_w * p.perf.seconds) /
                     (kb.perf.power_w * kb.perf.seconds);
    const auto ops = kb.meas.ops_on(cpu.has_mcdram());
    if (ops.fp64 > 0) {
      const double achieved_gflops =
          static_cast<double>(ops.fp64) / p.perf.seconds / kGiga;
      p.fp64_pct_peak =
          100.0 * achieved_gflops / cpu.peak_gflops(arch::Precision::fp64);
      fp64_pcts.push_back(p.fp64_pct_peak);
    }
    time_ratios.push_back(p.time_ratio);
    energy_ratios.push_back(p.energy_ratio);
    score.kernels.push_back(std::move(p));
  }

  score.geomean_time_ratio = geomean_ratio(time_ratios);
  score.geomean_energy_ratio = geomean_ratio(energy_ratios);
  if (!fp64_pcts.empty()) {
    double sum = 0.0;
    for (const double v : fp64_pcts) sum += v;
    score.mean_fp64_pct_peak = sum / static_cast<double>(fp64_pcts.size());
  }

  // Mean Fig. 7 site projection over the surveyed sites, from the same
  // per-kernel points the full-study overload would build.
  std::vector<ProjectionPoint> points;
  points.reserve(kernels_.size());
  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    points.push_back({kernels_[i].info.domain,
                      kernels_[i].meas.ops.fp_total() != 0,
                      score.kernels[i].perf.pct_of_peak});
  }
  const auto& sites = site_utilization();
  double site_sum = 0.0;
  for (const auto& site : sites) {
    site_sum += project_site_pct_peak(site, points);
  }
  score.site_pct_peak =
      sites.empty() ? 0.0 : site_sum / static_cast<double>(sites.size());
  return score;
}

EvaluatorStats VariantEvaluator::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace fpr::study
