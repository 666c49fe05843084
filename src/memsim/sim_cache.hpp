// Memoization for hierarchy simulations. A replay is a pure function of
// (machine geometry, pattern spec, trace length, seed, scale shift), and
// the study pipeline re-runs identical replays across repeats, job
// ladders, and CLI invocations that share a process. SimCache keys each
// replay by a canonical textual digest of those inputs and returns the
// stored HierarchyResult on repeat — byte-identical by construction,
// because the cached value IS the value a fresh simulation produces.
//
// Pattern replays are also reusable below their last level. Every
// simulated replay stores the stream it fed its last level
// (LastLevelStream) under an *upper key*: the scaled spec the generator
// consumes, the seed, the refs and every level's geometry but the last.
// A replay that differs from a stored one only in its last level — an
// `mcdram-cap` respin, or a `cores` change whose per-core slice scales
// to the same spec — walks only its own last level over that stream.
// The last level sees the same access sequence either way, so the result
// is bit-identical, writebacks included. Streams cost ~2 bytes per
// last-level reference, so the memory they hold grows linearly with
// `refs`.
//
// Thread safety: every lookup is single-flight. The first caller of a
// key computes the value outside the lock; concurrent callers of the
// same key wait for that one computation instead of repeating it. Each
// distinct key is therefore computed exactly once, and the hit, miss and
// stream-replay counts are a pure function of the lookups made, not of
// their interleaving — sharing one SimCache across StudyEngine's machine
// stages and --kernel-jobs producers perturbs neither results nor stats.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "arch/cpu_spec.hpp"
#include "memsim/hierarchy.hpp"

namespace fpr::memsim {

class SimCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;    ///< lookups served from the cache
    std::uint64_t misses = 0;  ///< lookups that had to simulate
    /// Misses served by walking only the last level over a stored
    /// stream (the rest of the misses replayed the whole hierarchy).
    std::uint64_t stream_replays = 0;
    std::uint64_t stream_bytes = 0;  ///< size of the stored streams
  };

  /// Canonical digest of one simulation's full input tuple. Two keys are
  /// equal iff the simulations are replays of each other.
  static std::string key(const arch::CpuSpec& cpu,
                         const AccessPatternSpec& spec, std::uint64_t refs,
                         std::uint64_t seed, unsigned scale_shift);

  /// Digest of what a pattern replay's last-level input stream depends
  /// on: the scaled spec, the seed, the refs and the geometry of every
  /// level but the last. Replays with equal upper keys feed their last
  /// levels the same stream.
  static std::string upper_key(const arch::CpuSpec& cpu,
                               const AccessPatternSpec& spec,
                               std::uint64_t refs, std::uint64_t seed,
                               unsigned scale_shift);

  /// Digest of a file-backed replay: the same geometry prefix as key(),
  /// then the trace's content digest (io::TraceInfo::digest — a pure
  /// function of the record stream, independent of chunking or file
  /// path) plus the measured/warmup lengths and the capacity scale.
  /// Disjoint from every pattern key by construction (the section after
  /// the geometry starts with a "trace-digest" tag no pattern spelling
  /// produces), so file and synthetic replays share one SimCache safely.
  static std::string trace_key(const arch::CpuSpec& cpu, std::uint64_t digest,
                               std::uint64_t refs, std::uint64_t warmup,
                               unsigned scale_shift);

  /// The result stored under `key`, or `compute()`'s result, stored on
  /// return; counts a hit or a miss. Single-flight: callers of a key that
  /// is being computed wait for that computation and count a hit. If
  /// `compute` throws, every waiting caller gets the exception and
  /// nothing is stored.
  std::shared_ptr<const HierarchyResult> get_or_compute(
      const std::string& key, const std::function<HierarchyResult()>& compute);

  /// Store a result computed elsewhere without counting. When the key is
  /// already present, the stored value is kept and returned.
  std::shared_ptr<const HierarchyResult> insert(const std::string& key,
                                                HierarchyResult result);

  [[nodiscard]] Stats stats() const;
  /// Number of full-key entries (one per distinct simulation).
  [[nodiscard]] std::size_t size() const;

 private:
  /// A recorded replay: its result and the stream its last level saw.
  struct Upper {
    HierarchyResult result;
    LastLevelStream stream;
  };
  template <typename V>
  using Entries =
      std::unordered_map<std::string,
                         std::shared_future<std::shared_ptr<const V>>>;

  /// get_or_compute over either map, counting into `hits`/`misses`
  /// (either may be null).
  template <typename V, typename Compute>
  std::shared_ptr<const V> single_flight(Entries<V>& entries,
                                         const std::string& key,
                                         const Compute& compute,
                                         std::uint64_t* hits,
                                         std::uint64_t* misses);

  friend HierarchyResult simulate_pattern_cached(SimCache*,
                                                 const arch::CpuSpec&,
                                                 const AccessPatternSpec&,
                                                 std::uint64_t, std::uint64_t,
                                                 unsigned);

  mutable std::mutex mu_;  // guards entries_, uppers_, stats_
  Entries<HierarchyResult> entries_;
  Entries<Upper> uppers_;
  Stats stats_;
};

/// simulate_pattern with memoization: consults `cache` (when non-null)
/// before simulating and stores what it simulates. On a full-key miss
/// whose upper key is stored it walks only the last level. Bit-identical
/// to the uncached call either way.
HierarchyResult simulate_pattern_cached(SimCache* cache,
                                        const arch::CpuSpec& cpu,
                                        const AccessPatternSpec& spec,
                                        std::uint64_t refs, std::uint64_t seed,
                                        unsigned scale_shift);

}  // namespace fpr::memsim
