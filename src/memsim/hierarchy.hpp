// Multi-level hierarchy simulation: a single core's view of L1 -> L2 ->
// (LLC | MCDRAM-as-cache) -> DRAM, built from a CpuSpec. Because a full
// 16 GiB MCDRAM cache cannot be simulated line-by-line in reasonable
// memory, the hierarchy is *scaled*: capacities and working sets shrink
// by the same power-of-two factor, which preserves hit rates for the
// self-similar access patterns we replay (stream, stencil, gather, chase,
// blocked reuse are all scale-free in the capacity/footprint ratio).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/cpu_spec.hpp"
#include "memsim/cache.hpp"
#include "memsim/trace_gen.hpp"

namespace fpr::memsim {

class TraceSource;  // memsim/trace_source.hpp

struct LevelResult {
  std::string name;   ///< "L1", "L2", "LLC", "MCDRAM$"
  CacheStats stats;
};

/// Result of replaying a trace through the hierarchy.
struct HierarchyResult {
  std::vector<LevelResult> levels;
  std::uint64_t refs = 0;

  /// Hit rate of the level with the given name. Throws std::out_of_range
  /// for a name this hierarchy has no level of (e.g. asking a Phi result
  /// for "LLC"): a mix-up must never silently read as a 0% hit rate.
  [[nodiscard]] double hit_rate(const std::string& name) const;

  /// Fraction of references served at or above the named level, i.e.
  /// without going past it toward memory. Throws std::out_of_range for
  /// an unknown level name (it would otherwise silently report the
  /// bottom level's value).
  [[nodiscard]] double served_at_or_above(const std::string& name) const;

  /// Fraction of all references that went all the way to DRAM.
  [[nodiscard]] double dram_fraction() const;
};

/// One level of a scaled hierarchy: its name and its geometry.
struct LevelGeometry {
  std::string name;
  CacheConfig config;
};

/// The levels Hierarchy(cpu, scale_shift) builds, nearest the core first.
/// Computing them allocates no cache state, so cache keys can use them.
std::vector<LevelGeometry> hierarchy_levels(const arch::CpuSpec& cpu,
                                            unsigned scale_shift);

/// The reference stream one replay fed its hierarchy's last level, in
/// order. Each reference is stored as `line << 1 | write`, encoded as the
/// zigzag varint of its difference from the previous reference: about 2
/// bytes a reference on the study's patterns. The last level's stats
/// depend on nothing else, so replaying the stream through any
/// last-level Cache gives that cache's stats for the whole replay,
/// writebacks included.
class LastLevelStream {
 public:
  /// Encode refs[0..n) as the next references of the stream.
  void append(const MemRef* refs, std::size_t n);
  /// The references appended so far form the warm-up prefix.
  void mark_warmup() { warmup_ = count_; }
  /// Release the growth slack once the stream is complete.
  void shrink_to_fit() { bytes_.shrink_to_fit(); }

  /// Feed the stream to `cache`: the warm-up prefix, then reset_stats(),
  /// then the rest — what the recording replay did to its last level.
  void replay(Cache& cache) const;

  [[nodiscard]] std::size_t bytes() const { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t last_ = 0;  ///< previous `line << 1 | write`
  std::uint64_t count_ = 0;
  std::uint64_t warmup_ = 0;
};

class Hierarchy {
 public:
  /// Build a scaled single-core hierarchy for `cpu`. `scale_shift` halves
  /// all capacities that many times (the pipeline uses
  /// model::kDefaultScaleShift = 8, a 256x reduction; pass 0 for exact
  /// geometry in unit tests).
  explicit Hierarchy(const arch::CpuSpec& cpu, unsigned scale_shift);

  /// Replay up to `refs` references from a source. Working-set
  /// footprints behind the source must be scaled by the same shift as
  /// the hierarchy (scale_spec()).
  /// The first `warmup` references fill the caches without being
  /// counted, so the result reflects steady-state hit rates. A finite
  /// source (FileTraceSource) may run dry early; the result's `refs`
  /// reports the count actually measured.
  ///
  /// The replay is batched: references are pulled in blocks
  /// (TraceSource::fill) and each level filters a whole block to the
  /// miss stream the next level consumes (Cache::access_many), hoisting
  /// source dispatch and the level loop out of the per-reference path.
  /// Results are bit-identical to walking each reference through every
  /// level with Cache::access, which BatchedIdentity/* checks against a
  /// test-only reference walk.
  ///
  /// When `record` is non-null, the stream entering the last level is
  /// appended to it as the replay walks, warm-up boundary included.
  HierarchyResult replay(TraceSource& src, std::uint64_t refs,
                         std::uint64_t warmup = 0,
                         LastLevelStream* record = nullptr);

  [[nodiscard]] std::size_t num_levels() const { return levels_.size(); }
  [[nodiscard]] const std::string& level_name(std::size_t i) const {
    return names_[i];
  }
  /// Direct level access for drivers that stage the replay themselves
  /// (bench/memsim_replay's per-stage roofline keeps its timers outside
  /// src/memsim, where wall clocks are barred by the determinism lint).
  [[nodiscard]] Cache& level_cache(std::size_t i) { return levels_[i]; }

 private:
  std::vector<Cache> levels_;
  std::vector<std::string> names_;
};

/// Convenience: replay a pattern spec with full-size footprints through a
/// scaled hierarchy for `cpu`, auto-scaling every pattern footprint. An
/// equal-length warm-up precedes the `refs` measured references; `record`
/// as for Hierarchy::replay.
HierarchyResult simulate_pattern(const arch::CpuSpec& cpu,
                                 const AccessPatternSpec& spec,
                                 std::uint64_t refs, std::uint64_t seed,
                                 unsigned scale_shift,
                                 LastLevelStream* record = nullptr);

/// Scale all footprint fields of a pattern spec by 2^-shift (helper used
/// by simulate_pattern; exposed for tests).
AccessPatternSpec scale_spec(const AccessPatternSpec& spec, unsigned shift);

}  // namespace fpr::memsim
