#include "memsim/cache.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "memsim/trace_gen.hpp"

namespace fpr::memsim {

void CacheConfig::validate() const {
  if (size_bytes == 0 || size_bytes % kLineBytes != 0) {
    throw std::invalid_argument("cache size must be a multiple of the line");
  }
  if (associativity == 0 || num_lines() % associativity != 0) {
    throw std::invalid_argument("cache lines must split evenly into ways");
  }
  // Any positive set count is allowed (modulo indexing); scaled-down
  // shared-cache shares are rarely power-of-two capacities.
}

Cache::Cache(CacheConfig cfg) : cfg_(cfg) {
  cfg_.validate();
  num_sets_ = cfg_.num_sets();
  if (std::has_single_bit(num_sets_)) {
    set_shift_ = static_cast<std::uint32_t>(std::countr_zero(num_sets_));
  } else {
    set_div_ = MagicDiv(num_sets_);
  }
  ways_.assign(cfg_.num_lines(), kEmpty);
}

bool Cache::access(std::uint64_t addr, bool write) {
  MemRef ref{.addr = addr, .write = write};
  return access_many(&ref, 1) == 0;
}

template <std::uint32_t A>
std::size_t Cache::run(MemRef* refs, std::size_t n) {
  // Members in locals: the compacting store to refs[] could otherwise
  // alias them and force a reload per reference.
  const std::uint32_t assoc = A != 0 ? A : cfg_.associativity;
  const std::uint64_t num_sets = num_sets_;
  const std::uint32_t set_shift = set_shift_;
  const MagicDiv set_div = set_div_;
  std::uint64_t* const ways = ways_.data();
  std::uint64_t hits = 0, misses = 0, writebacks = 0;
  std::size_t out = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const MemRef ref = refs[i];
    const std::uint64_t line = ref.addr >> kLineShift;
    std::uint64_t set, tag;
    if (set_shift != kNoShift) {
      set = line & (num_sets - 1);
      tag = line >> set_shift;
    } else {
      tag = set_div.div(line);
      set = line - tag * num_sets;
    }
    std::uint64_t* const row = ways + set * assoc;
    const std::uint64_t dirty = ref.write ? 1 : 0;

    // Move-to-front in one pass: walk the row MRU-first, shifting each
    // entry down one place, until the tag turns up at rank r (entries
    // after r keep their place) or, on a miss, the whole row has shifted
    // and `carry` holds the evicted LRU entry.
    std::uint64_t carry = row[0];
    std::uint32_t rank = 0;
    while ((carry >> 1) != tag && ++rank < assoc) {
      std::swap(carry, row[rank]);
    }
    if (rank < assoc) {
      row[0] = carry | dirty;
      ++hits;
    } else {
      writebacks += carry & 1;
      row[0] = tag << 1 | dirty;
      ++misses;
      refs[out++] = ref;
    }
  }
  stats_.hits += hits;
  stats_.misses += misses;
  stats_.writebacks += writebacks;
  return out;
}

std::size_t Cache::access_many(MemRef* refs, std::size_t n) {
  switch (cfg_.associativity) {
    case 8:
      return run<8>(refs, n);
    case 16:
      return run<16>(refs, n);
    case 20:
      return run<20>(refs, n);
    default:
      return run<0>(refs, n);
  }
}

void Cache::clear() {
  std::fill(ways_.begin(), ways_.end(), kEmpty);
  stats_ = CacheStats{};
}

}  // namespace fpr::memsim
