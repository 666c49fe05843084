// Tests for the incremental design-space machinery: dominance and the
// non-dominated filter, the ParetoEngine's archive/budget/determinism
// invariants, VariantEvaluator-vs-ExploreEngine equality, counters that
// do not depend on --jobs, the
// geomean_ratio guard, and the pareto-results JSON round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/machines.hpp"
#include "arch/variant.hpp"
#include "common/execution_context.hpp"
#include "io/explore_json.hpp"
#include "io/pareto_json.hpp"
#include "study/explore.hpp"
#include "study/pareto.hpp"
#include "study/variant_eval.hpp"

namespace fpr::study {
namespace {

/// Small deterministic search: two kernels with opposite resource
/// appetites, shallow composition, few explorer walks.
ParetoConfig small_config() {
  ParetoConfig cfg;
  cfg.base = "KNL";
  cfg.kernels = {"HPL", "BABL2"};
  cfg.scale = 0.15;
  cfg.threads = 1;
  cfg.trace_refs = 60'000;
  cfg.rounds = 2;
  cfg.explorers = 8;
  cfg.max_depth = 3;
  return cfg;
}

ParetoResults run_small(unsigned jobs = 1) {
  ParetoConfig cfg = small_config();
  cfg.jobs = jobs;
  return ParetoEngine(cfg).run();
}

TEST(Dominance, SemanticsAreStrict) {
  EXPECT_TRUE(dominates({1.0, 1.0}, {2.0, 1.0}));
  EXPECT_TRUE(dominates({1.0, 0.5}, {2.0, 1.0}));
  EXPECT_FALSE(dominates({1.0, 1.0}, {1.0, 1.0}));  // ties dominate nothing
  EXPECT_FALSE(dominates({2.0, 1.0}, {1.0, 1.0}));
  EXPECT_FALSE(dominates({0.5, 2.0}, {2.0, 0.5}));  // incomparable
}

TEST(Dominance, NonDominatedSetInvariantToVisitOrder) {
  const std::vector<std::vector<double>> pts = {
      {1.0, 4.0}, {2.0, 3.0}, {3.0, 3.5},  // dominated by {2,3}
      {4.0, 1.0}, {2.0, 3.0},              // duplicate of a frontier point
      {5.0, 5.0},                          // dominated by everything
  };
  // The kept *set of points* must be the same for every permutation.
  auto kept_points = [&](const std::vector<std::size_t>& order) {
    std::vector<std::vector<double>> permuted;
    for (const std::size_t i : order) permuted.push_back(pts[i]);
    std::vector<std::vector<double>> kept;
    for (const std::size_t i : non_dominated(permuted)) {
      kept.push_back(permuted[i]);
    }
    std::sort(kept.begin(), kept.end());
    return kept;
  };
  std::vector<std::size_t> order = {0, 1, 2, 3, 4, 5};
  const auto reference = kept_points(order);
  EXPECT_EQ(reference.size(), 4u);  // {1,4}, {2,3} x2, {4,1}
  while (std::next_permutation(order.begin(), order.end())) {
    ASSERT_EQ(kept_points(order), reference);
  }
}

TEST(GeomeanRatio, GuardsAgainstZeroAndNonFinite) {
  EXPECT_DOUBLE_EQ(geomean_ratio({1.0, 1.0, 1.0}), 1.0);
  EXPECT_NEAR(geomean_ratio({2.0, 0.5}), 1.0, 1e-12);
  // std::log(0) == -inf would silently zero the whole geomean; the model
  // must refuse instead.
  EXPECT_THROW((void)geomean_ratio({1.0, 0.0, 2.0}), std::domain_error);
  EXPECT_THROW((void)geomean_ratio({-1.0}), std::domain_error);
  EXPECT_THROW(
      (void)geomean_ratio({std::numeric_limits<double>::quiet_NaN()}),
      std::domain_error);
  EXPECT_THROW((void)geomean_ratio({std::numeric_limits<double>::infinity()}),
               std::domain_error);
  try {
    (void)geomean_ratio({1.0, 0.0});
    FAIL() << "expected std::domain_error";
  } catch (const std::domain_error& e) {
    EXPECT_NE(std::string(e.what()).find("ratio #1"), std::string::npos);
  }
}

TEST(ParetoEngine, ArchiveNeverContainsADominatedPoint) {
  const auto r = run_small();
  ASSERT_GE(r.frontier.size(), 2u);
  for (std::size_t i = 0; i < r.frontier.size(); ++i) {
    for (std::size_t j = 0; j < r.frontier.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(
          dominates(r.frontier[i].objectives, r.frontier[j].objectives))
          << r.frontier[i].name() << " dominates " << r.frontier[j].name();
    }
  }
}

TEST(ParetoEngine, FrontierRespectsTheBudgetBox) {
  const auto r = run_small();
  for (const auto& p : r.frontier) {
    EXPECT_TRUE(arch::within_budget(p.budget, r.budget)) << p.name();
    // Recorded budget must match a fresh computation from the spec.
    const auto v = arch::derive_variant(arch::knl(), p.spec());
    const auto budget = arch::variant_budget(v.cpu, arch::knl());
    EXPECT_DOUBLE_EQ(p.budget.area_ratio, budget.area_ratio) << p.name();
    EXPECT_DOUBLE_EQ(p.budget.tdp_ratio, budget.tdp_ratio) << p.name();
  }
}

TEST(ParetoEngine, ByteIdenticalAcrossJobCountsAndRuns) {
  const std::string serial = io::dump(io::to_json(run_small(1)));
  EXPECT_EQ(serial, io::dump(io::to_json(run_small(1))));  // rerun
  EXPECT_EQ(serial, io::dump(io::to_json(run_small(2))));
  EXPECT_EQ(serial, io::dump(io::to_json(run_small(8))));
}

TEST(ParetoEngine, StatsAccountForTheCandidateStream) {
  ParetoEngine engine(small_config());
  const auto r = engine.run();
  const auto& st = engine.stats();
  EXPECT_EQ(st.generated,
            st.deduped + st.invalid + st.over_budget + st.evaluated);
  EXPECT_GT(st.deduped, 0u);  // composed specs collide canonically
  EXPECT_GT(st.over_budget, 0u);
  EXPECT_GE(st.evaluated, r.frontier.size());
  EXPECT_EQ(st.evaluator.evaluations, st.evaluated);
  EXPECT_EQ(st.measurement.kernel_runs, 2u);  // measured exactly once
  EXPECT_GT(st.evaluator.memo_hits, 0u);
}

TEST(ParetoEngine, CountersIdenticalAcrossJobCounts) {
  // The seed batch's full-replay geometries run during measurement, on
  // however many stage workers and producers there are; every counter,
  // the measurement phase's included, must not depend on either count.
  auto stats_at = [](unsigned jobs, unsigned kernel_jobs) {
    ParetoConfig cfg = small_config();
    cfg.jobs = jobs;
    cfg.kernel_jobs = kernel_jobs;
    ParetoEngine engine(cfg);
    (void)engine.run();
    return engine.stats();
  };
  const ParetoStats ref = stats_at(1, 1);
  EXPECT_EQ(ref.evaluator.memo_hits + ref.evaluator.memo_misses,
            ref.evaluator.evaluations);
  EXPECT_EQ(ref.measurement.machine_evals, ref.measurement.kernel_runs);
  // cores=0.9 is the seed batch's one new upper geometry (cores=1.25 is
  // over the default budget), replayed while measuring.
  EXPECT_EQ(ref.measurement.sim_misses, 2 * ref.measurement.kernel_runs);
  for (const unsigned jobs : {1u, 2u, 8u}) {
    for (const unsigned kernel_jobs : {1u, 2u}) {
      if (jobs == 1 && kernel_jobs == 1) continue;
      const ParetoStats st = stats_at(jobs, kernel_jobs);
      const std::string at = "jobs=" + std::to_string(jobs) +
                             " kernel-jobs=" + std::to_string(kernel_jobs);
      EXPECT_EQ(st.generated, ref.generated) << at;
      EXPECT_EQ(st.deduped, ref.deduped) << at;
      EXPECT_EQ(st.invalid, ref.invalid) << at;
      EXPECT_EQ(st.over_budget, ref.over_budget) << at;
      EXPECT_EQ(st.evaluated, ref.evaluated) << at;
      EXPECT_EQ(st.rounds, ref.rounds) << at;
      EXPECT_EQ(st.evaluator.evaluations, ref.evaluator.evaluations) << at;
      EXPECT_EQ(st.evaluator.memo_hits, ref.evaluator.memo_hits) << at;
      EXPECT_EQ(st.evaluator.memo_misses, ref.evaluator.memo_misses) << at;
      EXPECT_EQ(st.measurement.kernel_runs, ref.measurement.kernel_runs)
          << at;
      EXPECT_EQ(st.measurement.machine_evals, ref.measurement.machine_evals)
          << at;
      EXPECT_EQ(st.measurement.sim_hits, ref.measurement.sim_hits) << at;
      EXPECT_EQ(st.measurement.sim_misses, ref.measurement.sim_misses) << at;
      EXPECT_EQ(st.sim.hits, ref.sim.hits) << at;
      EXPECT_EQ(st.sim.misses, ref.sim.misses) << at;
      EXPECT_EQ(st.sim.stream_replays, ref.sim.stream_replays) << at;
      EXPECT_EQ(st.sim.stream_bytes, ref.sim.stream_bytes) << at;
    }
  }
}

TEST(ParetoEngine, RejectsDegenerateConfigs) {
  {
    ParetoConfig cfg = small_config();
    cfg.base = "EPYC";
    EXPECT_THROW((void)ParetoEngine(cfg).run(), std::invalid_argument);
  }
  {
    ParetoConfig cfg = small_config();
    cfg.objectives = {};
    EXPECT_THROW((void)ParetoEngine(cfg).run(), std::invalid_argument);
  }
  {
    ParetoConfig cfg = small_config();
    cfg.objectives = {Objective::time, Objective::time};
    EXPECT_THROW((void)ParetoEngine(cfg).run(), std::invalid_argument);
  }
  {
    ParetoConfig cfg = small_config();
    cfg.max_depth = 0;
    EXPECT_THROW((void)ParetoEngine(cfg).run(), std::invalid_argument);
  }
}

TEST(VariantEvaluator, MatchesTheExploreEngineOnTheGoldenConfig) {
  // The rewired ExploreEngine must price every variant exactly as a
  // stand-alone evaluator does — same measurements, same arithmetic.
  const ExploreConfig gc = golden_explore_config();
  const auto explored = ExploreEngine(gc).run();

  arch::CpuSpec base;
  for (auto& cpu : arch::all_machines()) {
    if (cpu.short_name == gc.base) base = std::move(cpu);
  }
  VariantEvaluator::Config ec;
  ec.kernels = gc.kernels;
  ec.scale = gc.scale;
  ec.threads = gc.threads;
  ec.trace_refs = gc.trace_refs;
  ec.seed = gc.seed;
  const VariantEvaluator evaluator(base, ec);

  auto dump = [](const VariantScore& s) {
    return io::dump(io::to_json(s));
  };
  EXPECT_EQ(dump(evaluator.evaluate({"", base})), dump(explored.baseline));
  for (const auto& v : explored.variants) {
    const auto score = evaluator.evaluate(
        arch::derive_variant(base, v.variant.spec));
    EXPECT_EQ(dump(score), dump(v)) << v.name();
  }
}

TEST(VariantEvaluator, MemoizesProfilesByMemoryModel) {
  arch::CpuSpec base = arch::knl();
  VariantEvaluator::Config ec;
  ec.kernels = {"BABL2"};
  ec.scale = 0.15;
  ec.threads = 1;
  ec.trace_refs = 60'000;
  const VariantEvaluator evaluator(base, ec);
  // TDP respins keep the memory model: both serve from the primed base
  // profiles. A bandwidth change is a new digest, computed exactly once.
  (void)evaluator.evaluate(arch::derive_variant(base, "tdp=0.85"));
  (void)evaluator.evaluate(arch::derive_variant(base, "tdp=0.9"));
  EXPECT_EQ(evaluator.stats().memo_misses, 0u);
  (void)evaluator.evaluate(arch::derive_variant(base, "mcdram-bw=1.5"));
  (void)evaluator.evaluate(arch::derive_variant(base, "mcdram-bw=1.5"));
  const auto st = evaluator.stats();
  EXPECT_EQ(st.memo_misses, 1u);
  EXPECT_EQ(st.memo_hits, 3u);
  EXPECT_EQ(st.evaluations, 4u);
}

TEST(VariantEvaluator, BatchCountersAreIdenticalAcrossJobCounts) {
  // Two rounds with repeats inside and across batches, bandwidth-only
  // digests (new profiles, shared replays) and geometry changes (new
  // replays). Scores, memo counters and SimCache counters must not
  // depend on how many workers run the replays.
  const arch::CpuSpec base = arch::knl();
  const std::vector<std::vector<std::string>> rounds = {
      {"", "tdp=0.85", "mcdram-bw=1.5", "cores=0.9", "mcdram-cap=2",
       "cores=0.9+dram-bw=1.25", "mcdram-cap=2+tdp=0.9"},
      {"mcdram-bw=1.5", "cores=1.25", "cores=0.9+halve-fp64",
       "mcdram-cap=2+mcdram-bw=1.25", "cores=1.25+tdp=0.9"},
  };
  std::set<std::string> new_digests;
  std::uint64_t variants = 0;
  for (const auto& specs : rounds) {
    for (const auto& spec : specs) {
      const auto digest =
          arch::memory_model_digest(arch::derive_variant(base, spec).cpu);
      if (digest != arch::memory_model_digest(base)) {
        new_digests.insert(digest);
      }
      ++variants;
    }
  }

  VariantEvaluator::Config ec;
  ec.kernels = {"HPL", "BABL2"};
  ec.scale = 0.15;
  ec.threads = 1;
  ec.trace_refs = 60'000;
  struct Run {
    std::string scores;
    EvaluatorStats stats;
    memsim::SimCache::Stats sim;
  };
  auto run_at = [&](unsigned jobs) {
    const VariantEvaluator evaluator(base, ec);
    ExecutionContext ctx(jobs);
    Run r;
    for (const auto& specs : rounds) {
      std::vector<arch::MachineVariant> batch;
      for (const auto& spec : specs) {
        batch.push_back(arch::derive_variant(base, spec));
      }
      for (const auto& s : evaluator.evaluate_batch(batch, &ctx)) {
        r.scores += io::dump(io::to_json(s));
      }
    }
    r.stats = evaluator.stats();
    r.sim = evaluator.sim_stats();
    return r;
  };
  const Run ref = run_at(1);
  EXPECT_EQ(ref.stats.evaluations, variants);
  EXPECT_EQ(ref.stats.memo_misses, new_digests.size());
  EXPECT_EQ(ref.stats.memo_hits + ref.stats.memo_misses,
            ref.stats.evaluations);
  for (const unsigned jobs : {2u, 8u}) {
    const Run r = run_at(jobs);
    EXPECT_EQ(r.scores, ref.scores) << "jobs=" << jobs;
    EXPECT_EQ(r.stats.evaluations, ref.stats.evaluations) << "jobs=" << jobs;
    EXPECT_EQ(r.stats.memo_hits, ref.stats.memo_hits) << "jobs=" << jobs;
    EXPECT_EQ(r.stats.memo_misses, ref.stats.memo_misses) << "jobs=" << jobs;
    EXPECT_EQ(r.sim.hits, ref.sim.hits) << "jobs=" << jobs;
    EXPECT_EQ(r.sim.misses, ref.sim.misses) << "jobs=" << jobs;
  }
}

/// Small evaluator config shared by the first-batch tests.
VariantEvaluator::Config first_batch_config() {
  VariantEvaluator::Config ec;
  ec.kernels = {"HPL", "BABL2"};
  ec.scale = 0.15;
  ec.threads = 1;
  ec.trace_refs = 60'000;
  return ec;
}

std::vector<arch::MachineVariant> derive_all(
    const arch::CpuSpec& base, const std::vector<std::string>& specs) {
  std::vector<arch::MachineVariant> out;
  for (const auto& spec : specs) out.push_back(arch::derive_variant(base, spec));
  return out;
}

TEST(VariantEvaluator, FirstBatchReplaysFullGeometriesDuringMeasurement) {
  // Two new upper geometries (cores=0.9 twice, cores=1.25) beside
  // respins that reuse the base's replays: the measurement phase
  // replays the base plus the two geometries, and scoring the batch
  // then simulates nothing. Scores, memo counters and SimCache misses,
  // stream replays and stream bytes match an evaluator built without a
  // first batch; only the hits rise, by one per replay run early.
  const arch::CpuSpec base = arch::knl();
  const auto batch =
      derive_all(base, {"", "tdp=0.85", "cores=0.9", "cores=1.25",
                        "cores=0.9+dram-bw=1.25", "mcdram-bw=1.5"});
  const std::uint64_t kernels = 2, geometries = 2;

  VariantEvaluator::Config ec = first_batch_config();
  const VariantEvaluator plain(base, ec);
  EXPECT_EQ(plain.sim_stats().misses, kernels);
  std::string plain_scores;
  for (const auto& s : plain.evaluate_batch(batch)) {
    plain_scores += io::dump(io::to_json(s));
  }
  const auto plain_sim = plain.sim_stats();

  struct Run {
    EngineStats measurement;
    memsim::SimCache::Stats measured, scored;
    EvaluatorStats stats;
  };
  std::vector<Run> runs;
  for (const unsigned jobs : {1u, 2u, 8u}) {
    for (const unsigned kernel_jobs : {1u, 2u}) {
      const std::string at = "jobs=" + std::to_string(jobs) +
                             " kernel-jobs=" + std::to_string(kernel_jobs);
      ec.jobs = jobs;
      ec.kernel_jobs = kernel_jobs;
      const VariantEvaluator primed(base, ec, batch);
      Run r;
      r.measurement = primed.measurement_stats();
      r.measured = primed.sim_stats();
      EXPECT_EQ(r.measured.misses, kernels * (1 + geometries)) << at;
      EXPECT_EQ(r.measurement.machine_evals, kernels) << at;

      ExecutionContext ctx(jobs);
      std::string scores;
      for (const auto& s : primed.evaluate_batch(batch, &ctx)) {
        scores += io::dump(io::to_json(s));
      }
      r.scored = primed.sim_stats();
      r.stats = primed.stats();
      EXPECT_EQ(scores, plain_scores) << at;
      EXPECT_EQ(r.scored.misses, r.measured.misses) << at;  // all prefetched
      EXPECT_EQ(r.scored.misses, plain_sim.misses) << at;
      EXPECT_EQ(r.scored.stream_replays, plain_sim.stream_replays) << at;
      EXPECT_EQ(r.scored.stream_bytes, plain_sim.stream_bytes) << at;
      EXPECT_EQ(r.scored.hits, plain_sim.hits + kernels * geometries) << at;
      EXPECT_EQ(r.stats.evaluations, plain.stats().evaluations) << at;
      EXPECT_EQ(r.stats.memo_hits, plain.stats().memo_hits) << at;
      EXPECT_EQ(r.stats.memo_misses, plain.stats().memo_misses) << at;
      if (!runs.empty()) {
        const Run& ref = runs.front();
        EXPECT_EQ(r.measurement.kernel_runs, ref.measurement.kernel_runs)
            << at;
        EXPECT_EQ(r.measurement.sim_hits, ref.measurement.sim_hits) << at;
        EXPECT_EQ(r.measurement.sim_misses, ref.measurement.sim_misses)
            << at;
        EXPECT_EQ(r.measurement.sim_stream_replays,
                  ref.measurement.sim_stream_replays)
            << at;
        EXPECT_EQ(r.measured.hits, ref.measured.hits) << at;
        EXPECT_EQ(r.measured.stream_bytes, ref.measured.stream_bytes) << at;
      }
      runs.push_back(r);
    }
  }
}

TEST(VariantEvaluator, LastLevelAndBandwidthVariantsAddNoMeasurementReplays) {
  // A last-level-only or bandwidth-only machine would only wait on the
  // base's replay in the measurement phase; it stays with evaluate_batch.
  const arch::CpuSpec base = arch::knl();
  const VariantEvaluator plain(base, first_batch_config());
  const VariantEvaluator primed(
      base, first_batch_config(),
      derive_all(base, {"mcdram-cap=2", "mcdram-bw=1.5", "dram-bw=1.5",
                        "mcdram-cap=2+tdp=0.9"}));
  EXPECT_EQ(primed.sim_stats().misses, plain.sim_stats().misses);
  EXPECT_EQ(primed.sim_stats().hits, plain.sim_stats().hits);
  EXPECT_EQ(primed.sim_stats().stream_bytes, plain.sim_stats().stream_bytes);
}

TEST(ParetoJson, RoundTripIsLossless) {
  const auto r = run_small();
  const auto doc = io::to_json(r);
  const std::string text = io::dump(doc);
  const auto back = io::pareto_from_json(io::parse(text));
  EXPECT_EQ(io::dump(io::to_json(back)), text);
  ASSERT_EQ(back.frontier.size(), r.frontier.size());
  EXPECT_EQ(back.objectives, r.objectives);
}

TEST(ParetoJson, RejectsForeignAndInconsistentDocuments) {
  EXPECT_THROW(io::pareto_from_json(io::parse("{\"format\":\"x\"}")),
               io::JsonError);
  auto doc = io::to_json(run_small());
  auto stale = doc;
  stale.set("version", io::kParetoVersion + 1);
  EXPECT_THROW(io::pareto_from_json(stale), io::JsonError);
  auto bad_objective = doc;
  io::Json unknown = io::Json::array();
  unknown.push(io::Json("throughput"));
  bad_objective.set("objectives", std::move(unknown));
  EXPECT_THROW(io::pareto_from_json(bad_objective), io::JsonError);
  // Valid names, wrong arity: frontier points carry three values.
  auto short_vector = doc;
  io::Json only_time = io::Json::array();
  only_time.push(io::Json("time"));
  short_vector.set("objectives", std::move(only_time));
  EXPECT_THROW(io::pareto_from_json(short_vector), io::JsonError);
}

TEST(ParetoJson, DetectsParetoDocuments) {
  EXPECT_TRUE(io::is_pareto_document(io::to_json(run_small())));
  EXPECT_FALSE(io::is_pareto_document(io::parse("{\"format\":\"other\"}")));
  EXPECT_FALSE(io::is_pareto_document(io::parse("[1,2]")));
}

}  // namespace
}  // namespace fpr::study
