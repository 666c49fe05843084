// Set-associative, write-back/write-allocate cache with true-LRU
// replacement. One instance models one level of one core's view of the
// hierarchy; Hierarchy stacks them (memsim/hierarchy.hpp).
//
// Each set is a row of `associativity` entries kept in recency order —
// the LRU stack of Mattson et al. ("Evaluation techniques for storage
// hierarchies", IBM Sys. J. 1970): index 0 is the most recently used
// line and the last index is the LRU victim, so the rank of a hit is
// its stack distance within the set. An entry is `tag << 1 | dirty`;
// an empty way holds kEmpty (all-ones tag, clean bit), which no real
// tag reaches because 64-byte lines keep tags below 2^58. Lines only
// ever enter at index 0, so empty ways stay at the tail of the row
// until the set fills.
//
//  - a hit at rank r rotates entries [0, r] by one (a repeat of the
//    MRU entry needs no reorder);
//  - a miss counts a writeback if the last entry is dirty, then rotates
//    the whole row and inserts the new line at index 0;
//  - set indexing is shift/mask for power-of-two set counts and an
//    exact multiply-shift reciprocal (common/magic_div.hpp) otherwise —
//    never a hardware divide per reference.
//
// One block loop, run<A>(), serves access_many() and access(): A is a
// Table I associativity (8, 16 or 20) fixed at compile time, or 0 to
// read the associativity at run time for any other geometry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/magic_div.hpp"

namespace fpr::memsim {

struct MemRef;  // memsim/trace_gen.hpp

/// Every simulated level uses 64-byte lines, as all Table I machines do.
inline constexpr unsigned kLineShift = 6;
inline constexpr std::uint64_t kLineBytes = std::uint64_t{1} << kLineShift;

struct CacheConfig {
  std::uint64_t size_bytes = 0;
  std::uint32_t associativity = 8;

  [[nodiscard]] std::uint64_t num_lines() const {
    return size_bytes / kLineBytes;
  }
  [[nodiscard]] std::uint64_t num_sets() const {
    return num_lines() / associativity;
  }
  void validate() const;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;  ///< dirty lines evicted

  [[nodiscard]] std::uint64_t accesses() const { return hits + misses; }
  [[nodiscard]] double hit_rate() const {
    const auto a = accesses();
    return a != 0 ? static_cast<double>(hits) / static_cast<double>(a) : 0.0;
  }
};

class Cache {
 public:
  explicit Cache(CacheConfig cfg);

  /// Access one address. Returns true on hit. On miss the line is
  /// allocated (write-allocate) and the LRU victim evicted.
  bool access(std::uint64_t addr, bool write);

  /// Access refs[0..n): misses are compacted to the front of `refs` in
  /// order (they are the reference stream the next-lower level sees)
  /// and their count returned. State and stats evolve exactly as n
  /// access() calls would.
  std::size_t access_many(MemRef* refs, std::size_t n);

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const CacheConfig& config() const { return cfg_; }

  /// Drop all contents and statistics.
  void clear();

  /// Zero the statistics but keep the cached contents (used to exclude
  /// the cold-fill phase from measurements).
  void reset_stats() { stats_ = CacheStats{}; }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0} << 1;
  static constexpr std::uint32_t kNoShift = ~0u;

  template <std::uint32_t A>
  std::size_t run(MemRef* refs, std::size_t n);

  CacheConfig cfg_;
  std::uint64_t num_sets_ = 0;
  std::uint32_t set_shift_ = kNoShift;  ///< valid when num_sets is pow2
  MagicDiv set_div_;                    ///< used when num_sets is not pow2
  /// num_sets rows of `associativity` entries, each row MRU-first.
  std::vector<std::uint64_t> ways_;
  CacheStats stats_;
};

}  // namespace fpr::memsim
