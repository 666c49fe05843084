#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "arch/machines.hpp"
#include "arch/variant.hpp"
#include "common/execution_context.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "io/json.hpp"
#include "io/pareto_json.hpp"
#include "io/study_json.hpp"
#include "io/trace_format.hpp"
#include "io/trace_replay.hpp"
#include "kernels/kernel.hpp"
#include "memsim/hierarchy.hpp"
#include "memsim/sim_cache.hpp"
#include "memsim/trace_source.hpp"
#include "model/exec_model.hpp"
#include "model/memprofile.hpp"
#include "study/domain_util.hpp"
#include "study/pareto.hpp"
#include "study/study_engine.hpp"
#include "study/variant_eval.hpp"

namespace e2e {
namespace {

using namespace fpr;
using Kernels = std::vector<std::unique_ptr<kernels::ProxyKernel>>;

const std::vector<std::string> kTinyKernels = {"AMG", "BABL2", "XSBn"};
const std::vector<std::string> kGoldenKernels = {"AMG",   "HPL",  "XSBn",
                                                 "BABL2", "MxIO", "NGSA"};
constexpr std::uint64_t kTinyRefs = 20'000;

/// Kernels in paper order, filtered to `abbrevs` (empty = all), exactly as
/// StudyEngine selects them.
Kernels select_kernels(const std::vector<std::string>& abbrevs) {
  Kernels out;
  for (auto& k : kernels::make_all()) {
    if (abbrevs.empty() || std::find(abbrevs.begin(), abbrevs.end(),
                                     k->info().abbrev) != abbrevs.end()) {
      out.push_back(std::move(k));
    }
  }
  return out;
}

arch::CpuSpec machine(const std::string& short_name) {
  for (auto& cpu : arch::all_machines()) {
    if (cpu.short_name == short_name) return cpu;
  }
  throw std::invalid_argument("unknown machine " + short_name);
}

void warn(const std::string& what) {
  std::cerr << ("[e2ebench] " + what + "\n") << std::flush;
}

/// Items whose serialized form differs from the reference's. A document
/// that differs while every item matches (order, header) fails them all.
std::uint64_t mismatches(const std::vector<std::string>& ref,
                         const std::vector<std::string>& got) {
  if (got.size() != ref.size()) return std::max(ref.size(), got.size());
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) n += got[i] != ref[i];
  return n != 0 ? n : ref.size();
}

/// Value computed once per key however many threads ask, so hit and miss
/// counts are exact for any thread count.
template <typename V>
class SingleFlight {
 public:
  template <typename Make>
  V get(const std::string& key, Make&& make) {
    std::promise<V> promise;
    std::shared_future<V> value;
    bool owner = false;
    {
      std::lock_guard lock(mu_);
      if (const auto it = entries_.find(key); it != entries_.end()) {
        ++hits_;
        value = it->second;
      } else {
        ++misses_;
        value = promise.get_future().share();
        entries_.emplace(key, value);
        owner = true;
      }
    }
    if (owner) {
      try {
        promise.set_value(make());
      } catch (...) {
        promise.set_exception(std::current_exception());
      }
    }
    return value.get();
  }
  /// Store without counting (the evaluator primes its memo this way).
  void prime(const std::string& key, V v) {
    std::promise<V> promise;
    promise.set_value(std::move(v));
    std::lock_guard lock(mu_);
    entries_.emplace(key, promise.get_future().share());
  }
  [[nodiscard]] std::uint64_t hits() const {
    std::lock_guard lock(mu_);
    return hits_;
  }
  [[nodiscard]] std::uint64_t misses() const {
    std::lock_guard lock(mu_);
    return misses_;
  }

 private:
  mutable std::mutex mu_;  // guards entries_, hits_, misses_
  std::unordered_map<std::string, std::shared_future<V>> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

std::string level_key(const std::string& level) {
  if (level == "L1") return "l1";
  if (level == "L2") return "l2";
  if (level == "LLC") return "llc";
  return "mcdram";  // "MCDRAM$"
}

void count_replay(Tracer& tr, const memsim::HierarchyResult& res,
                  std::uint64_t refs) {
  tr.count("memsim.refs", refs);
  for (const auto& level : res.levels) {
    const std::string k = "memsim." + level_key(level.name);
    tr.count(k + ".accesses", level.stats.accesses());
    tr.count(k + ".misses", level.stats.misses);
  }
}

bool same_levels(const memsim::HierarchyResult& a,
                 const memsim::HierarchyResult& b) {
  if (a.refs != b.refs || a.levels.size() != b.levels.size()) return false;
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    const auto& x = a.levels[i];
    const auto& y = b.levels[i];
    if (x.name != y.name || x.stats.hits != y.stats.hits ||
        x.stats.misses != y.stats.misses ||
        x.stats.writebacks != y.stats.writebacks) {
      return false;
    }
  }
  return true;
}

/// ProxyKernel::run inside a kernels.run span, counting the ops the run
/// added to its context's sink.
model::WorkloadMeasurement run_kernel(const kernels::ProxyKernel& k,
                                      ExecutionContext& ctx,
                                      const kernels::RunConfig& rc,
                                      Tracer* tr) {
  Scoped span(tr, "kernels.run");
  const auto before = ctx.counters().snapshot();
  auto meas = k.run(ctx, rc);
  if (tr != nullptr) {
    const auto d = ctx.counters().snapshot() - before;
    tr->count("kernels.runs", 1);
    tr->count("kernels.fp64_ops", d.fp64);
    tr->count("kernels.fp32_ops", d.fp32);
    tr->count("kernels.int_ops", d.int_ops);
    tr->count("kernels.bytes", d.bytes_read + d.bytes_written);
  }
  return meas;
}

/// memsim::simulate_pattern's serial replay, with generation timed apart
/// from the cache walk through the TraceSource seam.
memsim::HierarchyResult timed_replay(const arch::CpuSpec& cpu,
                                     const memsim::AccessPatternSpec& sliced,
                                     std::uint64_t refs, Tracer& tr) {
  Scoped span(&tr, "memsim.replay");
  memsim::Hierarchy h(cpu, model::kDefaultScaleShift);
  memsim::SyntheticTraceSource gen(
      memsim::scale_spec(sliced, model::kDefaultScaleShift),
      model::kProfileSeed);
  TimedSource src(gen);
  auto res = h.replay(src, refs, refs);
  span.set_fill(src.fill_ns(), "memsim");
  count_replay(tr, res, src.refs());
  return res;
}

/// model::profile_memory with its replay done (or reused) first and handed
/// in through a SimCache seeded under the same key, so the model.profile
/// span holds the model's own time only.
model::MemoryProfile timed_profile(
    const arch::CpuSpec& cpu, const model::WorkloadMeasurement& meas,
    std::uint64_t refs, SingleFlight<memsim::HierarchyResult>& replays,
    Tracer& tr) {
  const auto sliced = model::per_core_slice(meas.access, cpu.cores);
  const std::string key =
      memsim::SimCache::key(cpu, sliced, refs, model::kProfileSeed,
                            model::kDefaultScaleShift);
  memsim::SimCache seeded;
  seeded.insert(key, replays.get(key, [&] {
    return timed_replay(cpu, sliced, refs, tr);
  }));
  Scoped span(&tr, "model.profile");
  return model::profile_memory(cpu, meas, refs, model::kDefaultScaleShift,
                               &seeded);
}

void count_replay_memo(Tracer& tr,
                       const SingleFlight<memsim::HierarchyResult>& replays) {
  tr.count("memsim.simcache.hits", replays.hits());
  tr.count("memsim.simcache.misses", replays.misses());
}

/// Traced re-drive of StudyEngine::run, which has no seam inside its
/// machine stages: the same public calls in the engine's order and thread
/// layout — one producer running the kernels in order in its own
/// ExecutionContext, `cfg.jobs` stage workers each taking a (kernel,
/// machine) stage as soon as its measurement lands.
study::StudyResults drive_study(
    const study::StudyConfig& cfg, const std::vector<arch::CpuSpec>& machines,
    const Kernels& kernels, SingleFlight<memsim::HierarchyResult>& replays,
    Tracer& tr) {
  study::StudyResults results;
  results.kernels.resize(kernels.size());
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    results.kernels[i].info = kernels[i]->info();
    results.kernels[i].machines.resize(machines.size());
  }
  std::mutex mu;  // guards ready, produced, error
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::size_t>> ready;
  bool produced = false;
  std::exception_ptr error;

  auto stage = [&](std::size_t ki, std::size_t mi) {
    Scoped span(&tr, "study.stage");
    study::KernelResult& kr = results.kernels[ki];
    study::MachineResult& mr = kr.machines[mi];
    const arch::CpuSpec& cpu = machines[mi];
    mr.cpu = cpu;
    mr.mem = timed_profile(cpu, kr.meas, cfg.trace_refs, replays, tr);
    Scoped eval(&tr, "model.eval");
    mr.perf = model::evaluate_at_turbo(cpu, kr.meas, mr.mem);
    std::uint64_t evals = 1;
    if (cfg.freq_sweep) {
      for (const auto& fs : cpu.frequency_sweep()) {
        mr.freq_sweep.emplace_back(
            fs, model::evaluate(cpu, fs.ghz, kr.meas, mr.mem));
        ++evals;
      }
    }
    tr.count("model.evals", evals);
  };
  auto produce = [&] {
    try {
      ExecutionContext ctx(cfg.threads);
      for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
        kernels::RunConfig rc;
        rc.scale = cfg.scale;
        rc.threads = cfg.threads;
        rc.seed = cfg.seed;
        auto meas = run_kernel(*kernels[ki], ctx, rc, &tr);
        if (cfg.canonical_timing) meas.host_seconds = 0.0;
        results.kernels[ki].meas = std::move(meas);
        std::lock_guard lock(mu);
        for (std::size_t mi = 0; mi < machines.size(); ++mi) {
          ready.emplace_back(ki, mi);
        }
        cv.notify_all();
      }
    } catch (...) {
      std::lock_guard lock(mu);
      error = std::current_exception();
    }
    std::lock_guard lock(mu);
    produced = true;
    cv.notify_all();
  };
  auto consume = [&] {
    for (;;) {
      std::pair<std::size_t, std::size_t> task;
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return !ready.empty() || produced || error; });
        if (error || ready.empty()) return;
        task = ready.front();
        ready.pop_front();
      }
      try {
        stage(task.first, task.second);
      } catch (...) {
        std::lock_guard lock(mu);
        if (!error) error = std::current_exception();
        cv.notify_all();
        return;
      }
    }
  };
  {
    std::vector<std::jthread> threads;
    threads.emplace_back(produce);
    for (unsigned j = 0; j < std::max(1u, cfg.jobs); ++j) {
      threads.emplace_back(consume);
    }
  }
  if (error) std::rethrow_exception(error);
  return results;
}

// ---------------------------------------------------------------- study

class StudyWorkload final : public Workload {
 public:
  explicit StudyWorkload(const Settings& s) {
    cfg_.scale = s.tiny ? 0.15 : 0.3;
    cfg_.threads = 1;  // one thread per kernel run
    cfg_.trace_refs = s.tiny ? kTinyRefs : model::kDefaultTraceRefs;
    if (s.tiny) cfg_.kernels = kTinyKernels;
    cfg_.seed = s.seed;
    cfg_.jobs = s.jobs;
    cfg_.kernel_jobs = 1;
    cfg_.canonical_timing = true;
  }

  // The engine builds its pools inside run(), so set-up is the kernel set
  // plus one warm-up pass.
  void setup(Tracer*) override {
    kernels_ = select_kernels(cfg_.kernels);
    study::StudyEngine engine(cfg_);
    (void)engine.run();
  }

  void reference() override {
    auto serial = cfg_;
    serial.jobs = 1;
    study::StudyEngine engine(serial);
    const auto results = engine.run();
    ref_doc_ = io::dump(io::to_json(results));
    ref_items_ = items(results);
  }

  PassOutcome pass(Tracer* tr) override {
    PassOutcome o{ref_items_.size(), 0};
    try {
      study::StudyResults results;
      if (tr != nullptr) {
        SingleFlight<memsim::HierarchyResult> replays;
        results = drive_study(cfg_, arch::all_machines(), kernels_, replays,
                              *tr);
        count_replay_memo(*tr, replays);
      } else {
        study::StudyEngine engine(cfg_);
        results = engine.run();
      }
      std::string doc;
      {
        Scoped span(tr, "io.json");
        doc = io::dump(io::to_json(results));
      }
      if (tr != nullptr) tr->count("io.json_bytes", doc.size());
      if (doc != ref_doc_) o.failed = mismatches(ref_items_, items(results));
    } catch (const std::exception& e) {
      warn(std::string("study pass failed: ") + e.what());
      o.failed = o.items;
    }
    return o;
  }

  [[nodiscard]] const char* producer_span() const override {
    return "kernels.run";
  }

 private:
  /// One string per (kernel, machine) result: the kernel's measurement
  /// and its machine result, serialized.
  static std::vector<std::string> items(const study::StudyResults& r) {
    std::vector<std::string> out;
    for (const auto& k : r.kernels) {
      const std::string meas = io::dump(io::to_json(k.meas));
      for (const auto& m : k.machines) {
        out.push_back(meas + io::dump(io::to_json(m)));
      }
    }
    return out;
  }

  study::StudyConfig cfg_;
  Kernels kernels_;
  std::string ref_doc_;
  std::vector<std::string> ref_items_;
};

// ---------------------------------------------------------------- pareto

using ProfileSet = std::vector<model::MemoryProfile>;

/// Traced re-drive of ParetoEngine::run and VariantEvaluator (neither has
/// a seam around its replays): the measurement phase through drive_study,
/// then the seeded candidate search, dedup, budget filter, scoring and
/// archive merge in the engine's order, scoring on the engine's
/// ExecutionContext layout. The frontier it produces is checked against
/// the engine's reference, so a drift from the engine shows as a failure.
study::ParetoResults drive_pareto(const study::ParetoConfig& cfg,
                                  const Kernels& kernels, Tracer& tr,
                                  study::ParetoStats& st) {
  const arch::CpuSpec base = machine(cfg.base);
  std::vector<std::string> moves = {
      "halve-fp64", "drop-fp64-vec", "widen-fp32=2",
      "dram-bw=1.25", "dram-bw=1.5",
      "cores=0.9", "cores=1.25",
      "tdp=0.85", "tdp=0.9",
  };
  if (base.has_mcdram()) {
    moves.insert(moves.end(),
                 {"mcdram-bw=1.25", "mcdram-bw=1.5", "mcdram-cap=2"});
  }
  SingleFlight<memsim::HierarchyResult> replays;

  study::StudyConfig sc;
  sc.scale = cfg.scale;
  sc.threads = cfg.threads;
  sc.freq_sweep = false;
  sc.trace_refs = cfg.trace_refs;
  sc.seed = cfg.seed;
  sc.jobs = cfg.jobs;
  sc.kernel_jobs = cfg.kernel_jobs;
  sc.canonical_timing = true;
  auto measured = drive_study(sc, {base}, kernels, replays, tr);

  struct KernelBase {
    kernels::KernelInfo info;
    model::WorkloadMeasurement meas;
    model::EvalResult perf;
  };
  std::vector<KernelBase> bases;
  auto base_profiles = std::make_shared<ProfileSet>();
  for (auto& k : measured.kernels) {
    base_profiles->push_back(k.machines[0].mem);
    bases.push_back({std::move(k.info), std::move(k.meas),
                     k.machines[0].perf});
  }
  SingleFlight<std::shared_ptr<const ProfileSet>> memo;
  memo.prime(arch::memory_model_digest(base), std::move(base_profiles));

  const auto evaluate = [&](const arch::MachineVariant& variant) {
    Scoped span(&tr, "study.score");
    study::VariantScore score;
    score.variant = variant;
    const arch::CpuSpec& cpu = score.variant.cpu;
    const auto profiles =
        memo.get(arch::memory_model_digest(cpu), [&] {
          auto set = std::make_shared<ProfileSet>();
          for (const auto& kb : bases) {
            set->push_back(
                timed_profile(cpu, kb.meas, cfg.trace_refs, replays, tr));
          }
          return std::shared_ptr<const ProfileSet>(std::move(set));
        });
    std::vector<double> time_ratios, energy_ratios, fp64_pcts;
    {
      Scoped eval(&tr, "model.eval");
      for (std::size_t i = 0; i < bases.size(); ++i) {
        const KernelBase& kb = bases[i];
        study::KernelProjection p;
        p.abbrev = kb.info.abbrev;
        p.mem = (*profiles)[i];
        p.perf = model::evaluate_at_turbo(cpu, kb.meas, p.mem);
        p.time_ratio = p.perf.seconds / kb.perf.seconds;
        p.energy_ratio = (p.perf.power_w * p.perf.seconds) /
                         (kb.perf.power_w * kb.perf.seconds);
        const auto ops = kb.meas.ops_on(cpu.has_mcdram());
        if (ops.fp64 > 0) {
          const double achieved_gflops =
              static_cast<double>(ops.fp64) / p.perf.seconds / kGiga;
          p.fp64_pct_peak = 100.0 * achieved_gflops /
                            cpu.peak_gflops(arch::Precision::fp64);
          fp64_pcts.push_back(p.fp64_pct_peak);
        }
        time_ratios.push_back(p.time_ratio);
        energy_ratios.push_back(p.energy_ratio);
        score.kernels.push_back(std::move(p));
      }
      tr.count("model.evals", bases.size());
    }
    score.geomean_time_ratio = study::geomean_ratio(time_ratios);
    score.geomean_energy_ratio = study::geomean_ratio(energy_ratios);
    if (!fp64_pcts.empty()) {
      double sum = 0.0;
      for (const double v : fp64_pcts) sum += v;
      score.mean_fp64_pct_peak = sum / static_cast<double>(fp64_pcts.size());
    }
    std::vector<study::ProjectionPoint> points;
    for (std::size_t i = 0; i < bases.size(); ++i) {
      points.push_back({bases[i].info.domain,
                        bases[i].meas.ops.fp_total() != 0,
                        score.kernels[i].perf.pct_of_peak});
    }
    const auto& sites = study::site_utilization();
    double site_sum = 0.0;
    for (const auto& site : sites) {
      site_sum += study::project_site_pct_peak(site, points);
    }
    score.site_pct_peak =
        sites.empty() ? 0.0 : site_sum / static_cast<double>(sites.size());
    return score;
  };

  const unsigned jobs = std::max(1u, cfg.jobs);
  std::optional<ExecutionContext> ctx;
  if (jobs > 1) ctx.emplace(std::make_shared<ThreadPool>(jobs - 1));
  const auto objective_vector = [&](const study::VariantScore& s) {
    std::vector<double> o;
    for (const study::Objective obj : cfg.objectives) {
      switch (obj) {
        case study::Objective::time:
          o.push_back(s.geomean_time_ratio);
          break;
        case study::Objective::energy:
          o.push_back(s.geomean_energy_ratio);
          break;
        case study::Objective::site:
          o.push_back(-s.site_pct_peak);
          break;
      }
    }
    return o;
  };
  struct Candidate {
    arch::MachineVariant variant;
    arch::ResourceBudget budget;
  };
  std::set<std::string> seen;
  std::vector<Candidate> batch;
  const auto admit = [&](const std::string& spec) {
    ++st.generated;
    arch::MachineVariant v;
    try {
      v = arch::derive_variant(base, spec);
    } catch (const std::invalid_argument&) {
      ++st.invalid;
      return;
    }
    if (!seen.insert(arch::canonical_cpu_digest(v.cpu)).second) {
      ++st.deduped;
      return;
    }
    const auto budget = arch::variant_budget(v.cpu, base);
    if (!arch::within_budget(budget, cfg.budget)) {
      ++st.over_budget;
      return;
    }
    batch.push_back({std::move(v), budget});
  };
  std::vector<study::ParetoPoint> archive;
  const auto score_batch = [&] {
    std::vector<study::ParetoPoint> points(batch.size());
    const auto score_one = [&](std::size_t i) {
      points[i].score = evaluate(batch[i].variant);
      points[i].budget = batch[i].budget;
      points[i].objectives = objective_vector(points[i].score);
    };
    if (ctx && batch.size() > 1) {
      ctx->parallel_for(batch.size(),
                        [&](std::size_t begin, std::size_t end, unsigned) {
                          for (std::size_t i = begin; i < end; ++i) {
                            score_one(i);
                          }
                        });
    } else {
      for (std::size_t i = 0; i < batch.size(); ++i) score_one(i);
    }
    st.evaluated += batch.size();
    ++st.rounds;
    Scoped span(&tr, "study.merge");
    for (auto& p : points) {
      const bool dominated = std::any_of(
          archive.begin(), archive.end(), [&](const study::ParetoPoint& m) {
            return study::dominates(m.objectives, p.objectives);
          });
      if (dominated) continue;
      std::erase_if(archive, [&](const study::ParetoPoint& m) {
        return study::dominates(p.objectives, m.objectives);
      });
      archive.push_back(std::move(p));
    }
    batch.clear();
  };

  {
    Scoped span(&tr, "study.generate");
    admit("");
    for (const auto& spec : arch::builtin_variant_specs(base)) admit(spec);
    for (const auto& move : moves) admit(move);
  }
  score_batch();
  for (unsigned round = 1; round <= cfg.rounds; ++round) {
    {
      Scoped span(&tr, "study.generate");
      std::vector<std::string> parents;
      for (const auto& member : archive) parents.push_back(member.spec());
      for (const auto& parent : parents) {
        if (arch::spec_transform_count(parent) + 1 > cfg.max_depth) continue;
        for (const auto& move : moves) {
          admit(arch::compose_specs(parent, move));
        }
      }
      Xoshiro256 rng(thread_seed(cfg.search_seed, round));
      for (unsigned e = 0; e < cfg.explorers; ++e) {
        const std::uint64_t depth =
            cfg.max_depth >= 2 ? 2 + rng.below(cfg.max_depth - 1) : 1;
        std::string spec;
        for (std::uint64_t d = 0; d < depth; ++d) {
          spec = arch::compose_specs(spec, moves[rng.below(moves.size())]);
        }
        admit(spec);
      }
    }
    if (batch.empty()) break;
    score_batch();
  }
  count_replay_memo(tr, replays);

  study::ParetoResults out;
  out.base = base.short_name;
  out.budget = cfg.budget;
  out.objectives = cfg.objectives;
  out.frontier = std::move(archive);
  std::sort(out.frontier.begin(), out.frontier.end(),
            [](const study::ParetoPoint& a, const study::ParetoPoint& b) {
              if (a.objectives != b.objectives) {
                return a.objectives < b.objectives;
              }
              return a.score.variant.spec < b.score.variant.spec;
            });
  return out;
}

bool same_search(const study::ParetoStats& a, const study::ParetoStats& b) {
  return a.generated == b.generated && a.deduped == b.deduped &&
         a.invalid == b.invalid && a.over_budget == b.over_budget &&
         a.evaluated == b.evaluated && a.rounds == b.rounds;
}

class ParetoWorkload final : public Workload {
 public:
  explicit ParetoWorkload(const Settings& s) {
    cfg_.base = "KNL";
    if (s.tiny) cfg_.kernels = kTinyKernels;
    cfg_.scale = s.tiny ? 0.15 : 0.3;
    cfg_.threads = 1;
    cfg_.trace_refs = s.tiny ? kTinyRefs : model::kDefaultTraceRefs;
    cfg_.seed = s.seed;
    cfg_.jobs = s.jobs;
    cfg_.kernel_jobs = 1;
    cfg_.search_seed = s.search_seed;
    cfg_.rounds = s.tiny ? 1 : 3;
    cfg_.explorers = s.tiny ? 4 : 16;
  }

  // Set-up: the kernel set plus one measurement phase (every kernel run
  // and the base machine's replays) as the warm-up. A whole search as
  // warm-up would double the run.
  void setup(Tracer*) override {
    kernels_ = select_kernels(cfg_.kernels);
    study::VariantEvaluator::Config ec;
    ec.kernels = cfg_.kernels;
    ec.scale = cfg_.scale;
    ec.threads = cfg_.threads;
    ec.trace_refs = cfg_.trace_refs;
    ec.seed = cfg_.seed;
    ec.jobs = cfg_.jobs;
    ec.kernel_jobs = cfg_.kernel_jobs;
    const study::VariantEvaluator warm(machine(cfg_.base), ec);
  }

  void reference() override {
    auto serial = cfg_;
    serial.jobs = 1;
    study::ParetoEngine engine(serial);
    const auto results = engine.run();
    ref_doc_ = io::dump(io::to_json(results));
    ref_points_ = points(results);
    ref_stats_ = engine.stats();
    stats_ = ref_stats_;
  }

  PassOutcome pass(Tracer* tr) override {
    PassOutcome o{ref_stats_.evaluated, 0};
    try {
      study::ParetoResults results;
      study::ParetoStats st;
      if (tr != nullptr) {
        results = drive_pareto(cfg_, kernels_, *tr, st);
      } else {
        study::ParetoEngine engine(cfg_);
        results = engine.run();
        st = engine.stats();
        stats_ = st;
      }
      o.items = st.evaluated;
      std::string doc;
      {
        Scoped span(tr, "io.json");
        doc = io::dump(io::to_json(results));
      }
      if (tr != nullptr) tr->count("io.json_bytes", doc.size());
      if (doc != ref_doc_) o.failed = frontier_mismatches(points(results));
      if (!same_search(st, ref_stats_)) {
        warn("pareto candidate counters differ from the reference");
        o.failed = std::max<std::uint64_t>(o.failed, 1);
      }
    } catch (const std::exception& e) {
      warn(std::string("pareto pass failed: ") + e.what());
      o.failed = o.items;
    }
    return o;
  }

  void observed(std::map<std::string, double>& m) const override {
    m["study.pareto.generated"] = static_cast<double>(stats_.generated);
    m["study.pareto.deduped"] = static_cast<double>(stats_.deduped);
    m["study.pareto.over_budget"] = static_cast<double>(stats_.over_budget);
    m["study.pareto.evaluated"] = static_cast<double>(stats_.evaluated);
    m["study.pareto.rounds"] = static_cast<double>(stats_.rounds);
    m["study.memo.hits"] = static_cast<double>(stats_.evaluator.memo_hits);
    m["study.memo.misses"] = static_cast<double>(stats_.evaluator.memo_misses);
  }
  [[nodiscard]] const char* producer_span() const override {
    return "kernels.run";
  }

 private:
  static std::vector<std::string> points(const study::ParetoResults& r) {
    std::vector<std::string> out;
    for (const auto& p : r.frontier) out.push_back(io::dump(io::to_json(p)));
    return out;
  }
  /// Frontier points present on one side only (at least 1: the documents
  /// differ).
  [[nodiscard]] std::uint64_t frontier_mismatches(
      const std::vector<std::string>& got) const {
    const std::set<std::string> a(ref_points_.begin(), ref_points_.end());
    const std::set<std::string> b(got.begin(), got.end());
    std::uint64_t n = 0;
    for (const auto& p : a) n += b.count(p) == 0;
    for (const auto& p : b) n += a.count(p) == 0;
    return std::max<std::uint64_t>(n, 1);
  }

  study::ParetoConfig cfg_;
  Kernels kernels_;
  std::string ref_doc_;
  std::vector<std::string> ref_points_;
  study::ParetoStats ref_stats_;
  study::ParetoStats stats_;  ///< last untraced pass (observed)
};

// ---------------------------------------------------------- trace-replay

class TraceReplayWorkload final : public Workload {
 public:
  explicit TraceReplayWorkload(const Settings& s)
      : settings_(s),
        refs_(s.tiny ? kTinyRefs : model::kDefaultTraceRefs),
        scale_(s.tiny ? 0.15 : 0.3) {}

  // Set-up records one fpr-trace v1 file per (golden kernel, machine):
  // the per-core stream `fpr memsim` replays, warm-up prefix first.
  void setup(Tracer* tr) override {
    std::filesystem::create_directories(settings_.work_dir);
    pool_ = std::make_unique<ThreadPool>(settings_.jobs);
    files_.clear();
    write_s_ = 0.0;
    const auto machines = arch::all_machines();
    const std::uint64_t total = 2 * refs_;  // warm-up + measured
    std::vector<memsim::MemRef> block(io::kTraceChunkRecords);
    ExecutionContext ctx(1);
    for (const auto& k : select_kernels(settings_.tiny
                                            ? std::vector<std::string>{"AMG",
                                                                       "BABL2"}
                                            : kGoldenKernels)) {
      kernels::RunConfig rc;
      rc.scale = scale_;
      rc.threads = 1;
      rc.seed = settings_.seed;
      // Untraced: kernel work is set-up here, not the workload's layer.
      const auto meas = run_kernel(*k, ctx, rc, nullptr);
      for (const auto& cpu : machines) {
        Recording rec;
        rec.cpu = cpu;
        rec.sliced = model::per_core_slice(meas.access, cpu.cores);
        rec.path = settings_.work_dir + "/" + k->info().abbrev + "-" +
                   cpu.short_name + ".fpt";
        Scoped span(tr, "io.trace_write");
        memsim::TraceGenerator gen(
            memsim::scale_spec(rec.sliced, model::kDefaultScaleShift),
            model::kProfileSeed);
        io::TraceWriter writer(rec.path);
        std::int64_t gen_ns = 0;
        const auto t0 = Clock::now();
        for (std::uint64_t done = 0; done < total;) {
          const std::size_t n = static_cast<std::size_t>(
              std::min<std::uint64_t>(block.size(), total - done));
          const auto g0 = Clock::now();
          gen.fill(block.data(), n);
          gen_ns += (Clock::now() - g0).count();
          writer.append(block.data(), n);
          done += n;
        }
        writer.finish();
        write_s_ += std::chrono::duration<double>(Clock::now() - t0).count() -
                    static_cast<double>(gen_ns) * 1e-9;
        span.set_fill(gen_ns, "memsim");
        rec.bytes = std::filesystem::file_size(rec.path);
        files_.push_back(std::move(rec));
      }
    }
    if (settings_.corrupt_trace) corrupt(files_.front().path, refs_);
  }

  // Reference: the synthetic replay of the same inputs.
  void reference() override {
    for (auto& rec : files_) {
      rec.expect = memsim::simulate_pattern(rec.cpu, rec.sliced, refs_,
                                            model::kProfileSeed,
                                            model::kDefaultScaleShift);
    }
  }

  // The files are claimed one at a time by the pool's workers and the
  // calling thread (nproc participants).
  PassOutcome pass(Tracer* tr) override {
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> failed{0};
    pool_->parallel_for(pool_->size() + 1,
                        [&](std::size_t, std::size_t, unsigned) {
                          for (std::size_t i = next++; i < files_.size();
                               i = next++) {
                            if (!replay(files_[i], tr)) ++failed;
                          }
                        });
    return {files_.size(), failed.load()};
  }

  void observed(std::map<std::string, double>& m) const override {
    m["io.trace_write_s"] = write_s_;
  }

 private:
  struct Recording {
    std::string path;
    arch::CpuSpec cpu;
    memsim::AccessPatternSpec sliced;
    std::uintmax_t bytes = 0;
    memsim::HierarchyResult expect;
  };

  /// Replays one file and checks it against its synthetic replay.
  [[nodiscard]] bool replay(const Recording& rec, Tracer* tr) const {
    try {
      memsim::HierarchyResult res;
      Scoped span(tr, "memsim.replay");
      std::optional<io::FileTraceSource> file;
      {
        Scoped open(tr, "io.trace_open");
        file.emplace(rec.path);
      }
      if (tr != nullptr) {
        TimedSource src(*file);
        res = memsim::simulate_trace(rec.cpu, src, refs_, refs_,
                                     model::kDefaultScaleShift);
        span.set_fill(src.fill_ns(), "io");
        count_replay(*tr, res, src.refs());
        tr->count("io.trace_bytes", rec.bytes);
      } else {
        res = memsim::simulate_trace(rec.cpu, *file, refs_, refs_,
                                     model::kDefaultScaleShift);
      }
      if (same_levels(res, rec.expect)) return true;
      warn("trace-replay: " + rec.path +
           " disagrees with its synthetic replay");
    } catch (const std::exception& e) {
      warn("trace-replay: " + rec.path + ": " + e.what());
    }
    return false;
  }

  /// Flip the seven value bits of one varint byte in the middle of the
  /// first chunk past the warm-up prefix (a flip inside the warm-up can
  /// wash out of the measured stats). The continuation bit stays, so the
  /// decoder still accepts the file; every later address in the chunk
  /// shifts.
  static void corrupt(const std::string& path, std::uint64_t warmup) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    auto read_le = [&](std::streamoff at, int bytes) {
      unsigned char b[8] = {};
      f.seekg(at);
      f.read(reinterpret_cast<char*>(b), bytes);
      std::uint64_t v = 0;
      for (int i = bytes - 1; i >= 0; --i) v = (v << 8) | b[i];
      return v;
    };
    auto chunk = static_cast<std::streamoff>(io::kTraceHeaderBytes);
    for (std::uint64_t before = 0; f && before < warmup;) {
      before += read_le(chunk + 4, 4);
      chunk += static_cast<std::streamoff>(16 + read_le(chunk + 8, 8));
    }
    const auto offset = chunk + 16 +
                        static_cast<std::streamoff>(read_le(chunk + 8, 8) / 2);
    char byte = 0;
    f.seekg(offset);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x7f);
    f.seekp(offset);
    f.write(&byte, 1);
    if (!f) throw std::runtime_error("cannot corrupt " + path);
  }

  Settings settings_;
  std::uint64_t refs_;
  double scale_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<Recording> files_;
  double write_s_ = 0.0;  ///< last set-up's encode + write time
};

// ----------------------------------------------------------------- assay

class AssayWorkload final : public Workload {
 public:
  explicit AssayWorkload(const Settings& s) : settings_(s) {
    rc_.scale = s.tiny ? 0.15 : 0.3;
    rc_.threads = 1;
    rc_.seed = s.seed;
  }

  // Set-up: the context, the kernel set, and one warm-up run of every
  // kernel. Kernel runs are serial, one thread per run as in `study`:
  // every kernel parallel region ends in a barrier on all participants,
  // and on a 4-thread VM under host CPU steal a pass with 3 participants
  // took 0.71-0.80 s against 0.40-0.41 s serially.
  void setup(Tracer*) override {
    ctx_ = std::make_unique<ExecutionContext>(1);
    kernels_ = select_kernels(settings_.tiny ? kTinyKernels
                                             : std::vector<std::string>{});
    for (const auto& k : kernels_) {
      try {
        (void)k->run(*ctx_, rc_);
      } catch (const std::exception&) {  // counted by the timed passes
      }
    }
  }

  // Reference: the op counts of a first, untimed pass.
  void reference() override {
    ref_ops_.clear();
    for (const auto& k : kernels_) {
      try {
        ref_ops_.push_back(k->run(*ctx_, rc_).ops);
      } catch (const std::exception&) {
        ref_ops_.emplace_back(std::nullopt);
      }
    }
  }

  PassOutcome pass(Tracer* tr) override {
    PassOutcome o{kernels_.size(), 0};
    for (std::size_t i = 0; i < kernels_.size(); ++i) {
      try {
        const auto meas = run_kernel(*kernels_[i], *ctx_, rc_, tr);
        if (!meas.verified || !ref_ops_[i] || meas.ops != *ref_ops_[i]) {
          warn("assay: " + kernels_[i]->info().abbrev +
               " unverified or op counts differ from the first pass");
          ++o.failed;
        }
      } catch (const std::exception& e) {
        warn("assay: " + kernels_[i]->info().abbrev + ": " + e.what());
        ++o.failed;
      }
    }
    return o;
  }


 private:
  Settings settings_;
  kernels::RunConfig rc_;
  std::unique_ptr<ExecutionContext> ctx_;
  Kernels kernels_;
  std::vector<std::optional<counters::OpTally>> ref_ops_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Settings& s) {
  if (name == "study") return std::make_unique<StudyWorkload>(s);
  if (name == "pareto") return std::make_unique<ParetoWorkload>(s);
  if (name == "trace-replay") return std::make_unique<TraceReplayWorkload>(s);
  if (name == "assay") return std::make_unique<AssayWorkload>(s);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (study, pareto, trace-replay, assay)");
}

}  // namespace e2e
