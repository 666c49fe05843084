// e2ebench: one end-to-end benchmark run of one workload.
//
//   e2ebench --workload W --seed N --seconds S --trace 0|1
//            [--work-dir DIR] [--trace-out FILE] [--search-seed N]
//            [--tiny] [--corrupt-trace]
//
// Sets up several times (timed), computes the workload's reference
// (untimed), then runs checked untraced passes for S seconds (at least
// three). With --trace 1 it adds one traced pass, writes its spans as
// Chrome Trace Event JSON to --trace-out, and reports per-layer metrics
// instead of end-to-end ones. The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tracer.hpp"
#include "workloads.hpp"

namespace {

struct Args {
  std::string workload;
  e2e::Settings settings;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload study|pareto|trace-replay|assay"
               " --seed N --seconds S --trace 0|1 [--work-dir DIR]"
               " [--trace-out FILE] [--search-seed N] [--tiny]"
               " [--corrupt-trace]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  a.settings.work_dir = "e2ebench-work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        a.workload = value();
      } else if (arg == "--seed") {
        a.settings.seed = std::stoull(value());
      } else if (arg == "--search-seed") {
        a.settings.search_seed = std::stoull(value());
      } else if (arg == "--seconds") {
        a.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (arg == "--work-dir") {
        a.settings.work_dir = value();
      } else if (arg == "--trace-out") {
        a.trace_out = value();
      } else if (arg == "--tiny") {
        a.settings.tiny = true;
      } else if (arg == "--corrupt-trace") {
        a.settings.corrupt_trace = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {  // stoull/stod parse errors
      usage("bad value for " + arg);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double seconds_since(e2e::Clock::time_point t0) {
  return std::chrono::duration<double>(e2e::Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  double value;
  const char* unit;
};

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::map<std::string, Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[128];
  for (const auto& [name, m] : metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse(argc, argv);
  // Total threads stay within the host: one producer or orchestrating
  // thread plus nproc - 1 workers.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  args.settings.jobs = std::max(1u, hw - 1);

  std::unique_ptr<e2e::Workload> w;
  try {
    w = e2e::make_workload(args.workload, args.settings);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }

  e2e::Tracer tracer;
  e2e::Tracer* tr = args.trace ? &tracer : nullptr;
  std::vector<double> setups;
  std::vector<double> walls;
  std::vector<double> cpus;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t items_per_pass = 0;
  try {
    const int setup_runs = args.settings.tiny ? 1 : 3;
    for (int i = 0; i < setup_runs; ++i) {
      const auto t0 = e2e::Clock::now();
      w->setup(i + 1 == setup_runs ? tr : nullptr);
      setups.push_back(seconds_since(t0));
    }
    w->reference();

    const auto start = e2e::Clock::now();
    const std::size_t min_passes = args.settings.tiny ? 1 : 3;
    while (walls.size() < min_passes || seconds_since(start) < args.seconds) {
      const double c0 = cpu_seconds();
      const auto t0 = e2e::Clock::now();
      const auto o = w->pass(nullptr);
      walls.push_back(seconds_since(t0));
      cpus.push_back(cpu_seconds() - c0);
      attempted += o.items;
      failed += o.failed;
      items_per_pass = o.items;
    }
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << args.workload << ": " << e.what() << "\n";
    return 1;
  }
  const double wall = median(walls);
  {
    // The highest percentile with at least ten samples beyond it, when
    // there are enough passes for one.
    auto sorted = walls;
    std::sort(sorted.begin(), sorted.end());
    std::cerr << "[e2ebench] " << args.workload << ": wall_s median " << wall
              << " over " << walls.size() << " passes (min " << sorted.front()
              << ", max " << sorted.back();
    if (sorted.size() > 10) {
      const std::size_t i = sorted.size() - 11;
      std::cerr << ", p" << 100 * (i + 1) / sorted.size() << " " << sorted[i];
    }
    std::cerr << "), " << setups.size() << " set-ups, " << items_per_pass
              << " items per pass; passes:";
    for (const double t : walls) std::cerr << " " << t;
    std::cerr << "\n";
  }

  std::map<std::string, Metric> m;
  if (!args.trace) {
    m["setup_s"] = {median(setups), "s"};
    m["wall_s"] = {wall, "s"};
    m["items_per_s"] = {ratio(static_cast<double>(items_per_pass), wall),
                        "items/s"};
    m["cpu_s"] = {median(cpus), "s"};
    m["pass_frac"] = {1.0 - ratio(static_cast<double>(failed),
                                  static_cast<double>(attempted)),
                      "ratio"};
  } else {
    int root = -1;
    {
      e2e::Scoped span(&tracer, "pass");
      root = span.id();
      tracer.set_root(root);
      const auto o = w->pass(&tracer);
      attempted += o.items;
      failed += o.failed;
    }
    tracer.set_root(-1);
    const auto lt = tracer.analyze(root, w->producer_span());
    if (!args.trace_out.empty()) {
      std::ofstream(args.trace_out) << tracer.chrome_json();
    }
    auto busy = [&](const char* name) {
      const auto it = lt.busy_s.find(name);
      return it != lt.busy_s.end() ? it->second : 0.0;
    };
    auto self = [&](const char* layer) {
      const auto it = lt.self_s.find(layer);
      return it != lt.self_s.end() ? it->second : 0.0;
    };
    auto count = [&](const std::string& name) {
      return static_cast<double>(tracer.counter(name));
    };

    const double run_s = busy("kernels.run");
    const double ops = count("kernels.fp64_ops") + count("kernels.fp32_ops") +
                       count("kernels.int_ops");
    m["kernels.run_s"] = {run_s, "s"};
    m["kernels.runs"] = {count("kernels.runs"), "count"};
    m["kernels.fp64_ops"] = {count("kernels.fp64_ops"), "count"};
    m["kernels.fp32_ops"] = {count("kernels.fp32_ops"), "count"};
    m["kernels.int_ops"] = {count("kernels.int_ops"), "count"};
    m["kernels.bytes"] = {count("kernels.bytes"), "B"};
    m["kernels.ops_per_byte"] = {ratio(ops, count("kernels.bytes")), "op/B"};
    m["kernels.gops_per_s"] = {ratio(ops, run_s) * 1e-9, "Gop/s"};
    m["kernels.self_s"] = {self("kernels"), "s"};

    const double gen_s = busy("memsim.fill");
    const double decode_s = busy("io.fill");
    const double walk_s = busy("memsim.replay") - gen_s - decode_s;
    const double refs = count("memsim.refs");
    m["memsim.gen_s"] = {gen_s, "s"};
    m["memsim.walk_s"] = {walk_s, "s"};
    m["memsim.refs"] = {refs, "count"};
    m["memsim.gen_mrefs_per_s"] = {ratio(refs, gen_s) * 1e-6, "Mref/s"};
    m["memsim.walk_mrefs_per_s"] = {ratio(refs, walk_s) * 1e-6, "Mref/s"};
    for (const char* level : {"l1", "l2", "llc", "mcdram"}) {
      const std::string k = std::string("memsim.") + level;
      m[k + ".accesses"] = {count(k + ".accesses"), "count"};
      m[k + ".misses"] = {count(k + ".misses"), "count"};
    }
    const double hits = count("memsim.simcache.hits");
    const double misses = count("memsim.simcache.misses");
    m["memsim.simcache.hits"] = {hits, "count"};
    m["memsim.simcache.misses"] = {misses, "count"};
    m["memsim.simcache.hit_ratio"] = {ratio(hits, hits + misses), "ratio"};
    m["memsim.self_s"] = {self("memsim"), "s"};
    m["sim_mrefs_per_s"] = {ratio(refs, wall) * 1e-6, "Mref/s"};

    m["model.profile_s"] = {busy("model.profile"), "s"};
    m["model.eval_s"] = {busy("model.eval"), "s"};
    m["model.evals"] = {count("model.evals"), "count"};
    m["model.self_s"] = {self("model"), "s"};

    std::map<std::string, double> seen;
    w->observed(seen);
    auto observed = [&](const char* name) {
      const auto it = seen.find(name);
      return it != seen.end() ? it->second : 0.0;
    };
    m["study.producer_done_s"] = {lt.last_end_s, "s"};
    m["study.score_s"] = {busy("study.score"), "s"};
    for (const char* k : {"generated", "deduped", "over_budget", "evaluated",
                          "rounds"}) {
      const std::string name = std::string("study.pareto.") + k;
      m[name] = {observed(name.c_str()), "count"};
    }
    const double memo_hits = observed("study.memo.hits");
    const double memo_misses = observed("study.memo.misses");
    m["study.memo.hits"] = {memo_hits, "count"};
    m["study.memo.misses"] = {memo_misses, "count"};
    m["study.memo.hit_ratio"] = {ratio(memo_hits, memo_hits + memo_misses),
                                 "ratio"};
    m["study.self_s"] = {self("study"), "s"};

    m["io.json_s"] = {busy("io.json"), "s"};
    m["io.json_bytes"] = {count("io.json_bytes"), "B"};
    m["io.trace_decode_s"] = {decode_s, "s"};
    m["io.trace_bytes"] = {count("io.trace_bytes"), "B"};
    m["io.decode_mb_per_s"] = {ratio(count("io.trace_bytes"), decode_s) * 1e-6,
                               "MB/s"};
    m["io.trace_write_s"] = {observed("io.trace_write_s"), "s"};
    m["io.self_s"] = {self("io"), "s"};

    m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    m["trace.wall_s"] = {lt.wall_s, "s"};
    m["trace.overhead_s"] = {lt.wall_s - wall, "s"};
    m["trace.unattributed_s"] = {lt.unattributed_s, "s"};

    double accounted = lt.unattributed_s;
    for (const auto& [layer, s] : lt.self_s) accounted += s;
    std::cerr << "[e2ebench] traced pass " << lt.wall_s
              << " s; layer self times + unattributed = " << accounted
              << " s\n";
  }

  const bool correct = failed == 0;
  std::cout << result_json(correct, attempted, failed, m) << std::endl;
  return 0;
}
