// Test-only reference model of the synthetic trace and its hierarchy
// replay, shared by memsim_test and trace_test.
//
// ReferenceGenerator writes every access pattern out one reference at a
// time with plain `%` and `/`: no hoisted reciprocals, no stencil offset
// table, no running cursors. It copies only TraceGenerator's documented
// mixture contract: the `seed ^ 0x5851f42d4c957f2d` selection RNG, drawn
// once per reference and only when there is more than one component;
// per-component SplitMix64 seeds; `(idx + 1) << 40` component bases; and
// a normalised CDF whose last entry is forced to 1.0.
//
// reference_replay walks each reference through every level with
// Cache::access until one hits. Production code uses neither; they exist
// so TraceGenerator::fill and Hierarchy::replay are checked against a
// model that does not share their block loops.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <variant>
#include <vector>

#include "arch/cpu_spec.hpp"
#include "common/rng.hpp"
#include "memsim/cache.hpp"
#include "memsim/hierarchy.hpp"
#include "memsim/trace_gen.hpp"

namespace fpr::memsim::reference {

class ReferenceGenerator {
 public:
  ReferenceGenerator(const AccessPatternSpec& spec, std::uint64_t seed)
      : select_(seed ^ 0x5851f42d4c957f2dull) {
    double total = 0.0;
    for (const auto& c : spec.components) total += c.weight;
    SplitMix64 seeds(seed);
    double run = 0.0;
    for (std::size_t i = 0; i < spec.components.size(); ++i) {
      run += spec.components[i].weight / total;
      cdf_.push_back(run);
      comps_.emplace_back(spec.components[i].pattern,
                          (std::uint64_t{i} + 1) << 40, seeds.next());
    }
    cdf_.back() = 1.0;
  }

  MemRef next() {
    std::size_t c = 0;
    if (comps_.size() > 1) {
      const double u = select_.uniform();
      c = static_cast<std::size_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    }
    Component& comp = comps_[c];
    return std::visit([&](const auto& p) { return comp.gen(p); },
                      comp.pattern);
  }

 private:
  struct Component {
    Pattern pattern;
    std::uint64_t base;
    Xoshiro256 rng;
    std::uint64_t pos = 0;  ///< references (or stream steps) emitted
    std::uint64_t aux = 0;  ///< blocked: matrix stream steps taken
    std::vector<std::uint64_t> ring;  ///< chase: successor of each node

    Component(Pattern p, std::uint64_t b, std::uint64_t seed)
        : pattern(std::move(p)), base(b), rng(seed) {}

    MemRef gen(const StreamPattern& p) {
      const std::uint64_t len =
          std::max<std::uint64_t>(p.bytes_per_array, 64) / 8 * 8;
      const auto arrays = static_cast<std::uint64_t>(std::max(1, p.arrays));
      const std::uint64_t array = pos % arrays;
      const std::uint64_t elem = pos / arrays;
      ++pos;
      const std::uint64_t array_stride = (len + 4095) / 4096 * 4096;
      return {base + array * array_stride + elem * 8 % len,
              static_cast<int>(array) < p.writes_per_iter};
    }

    MemRef gen(const StridedPattern& p) {
      const std::uint64_t fp =
          std::max<std::uint64_t>(p.footprint_bytes, 512);
      return {base + pos++ * p.stride_bytes % fp, false};
    }

    MemRef gen(const StencilPattern& p) {
      const std::uint64_t nx = std::max<std::uint64_t>(p.nx, 4);
      const std::uint64_t ny = std::max<std::uint64_t>(p.ny, 4);
      const std::uint64_t nz = std::max<std::uint64_t>(p.nz, 4);
      const std::uint64_t cells = nx * ny * nz;
      const std::int64_t r = std::max(1, p.radius);
      const std::int64_t side = 2 * r + 1;
      const auto pts = static_cast<std::uint64_t>(
          p.full_box ? side * side * side : 6 * r + 1);
      // Each cell reads its pts neighbours, then writes its own element
      // of a second grid placed after the first.
      const std::uint64_t cell = pos / (pts + 1) % cells;
      const std::uint64_t k = pos % (pts + 1);
      ++pos;
      if (k == pts) {
        return {base + (cells + cell) * p.elem_bytes, true};
      }
      std::int64_t d[3] = {0, 0, 0};
      const auto ki = static_cast<std::int64_t>(k);
      if (p.full_box) {
        d[0] = ki % side - r;
        d[1] = ki / side % side - r;
        d[2] = ki / (side * side) - r;
      } else if (k > 0) {
        // Star: -r..-1 then +1..+r along x, then y, then z.
        const std::int64_t j = (ki - 1) % (2 * r);
        d[(ki - 1) / (2 * r)] = j < r ? j - r : j - r + 1;
      }
      const std::uint64_t dims[3] = {nx, ny, nz};
      const std::uint64_t at[3] = {cell % nx, cell / nx % ny,
                                   cell / (nx * ny)};
      std::uint64_t c[3];
      for (int a = 0; a < 3; ++a) {
        const std::int64_t v = static_cast<std::int64_t>(at[a]) + d[a];
        const auto hi = static_cast<std::int64_t>(dims[a]) - 1;
        c[a] = static_cast<std::uint64_t>(v < 0 ? 0 : v > hi ? hi : v);
      }
      return {base + (c[0] + nx * (c[1] + ny * c[2])) * p.elem_bytes, false};
    }

    MemRef gen(const GatherPattern& p) {
      const std::uint64_t table = std::max<std::uint64_t>(p.table_bytes, 512);
      if (rng.uniform() < p.sequential_fraction) {
        return {base + pos++ * 8 % table, false};
      }
      return {base + rng.next() % (table / p.elem_bytes) * p.elem_bytes,
              false};
    }

    MemRef gen(const ChasePattern& p) {
      const std::uint64_t node = std::max<std::uint32_t>(p.node_bytes, 8);
      const std::uint64_t nodes =
          std::max<std::uint64_t>(p.footprint_bytes / node, 16);
      if (ring.empty()) {
        // Sattolo's shuffle: a single cycle through every node.
        ring.resize(nodes);
        std::iota(ring.begin(), ring.end(), std::uint64_t{0});
        for (std::uint64_t i = nodes - 1; i > 0; --i) {
          std::swap(ring[i], ring[rng.next() % i]);
        }
      }
      pos = ring[pos % nodes];
      return {base + pos * node, false};
    }

    MemRef gen(const BlockedPattern& p) {
      const std::uint64_t tile = std::max<std::uint64_t>(p.tile_bytes, 256);
      const std::uint64_t matrix =
          std::max<std::uint64_t>(p.matrix_bytes, tile);
      const auto phase =
          static_cast<std::uint64_t>(std::max(1.0, p.tile_reuse)) + 1;
      const std::uint64_t step = pos++ % phase;
      if (step == 0) return {base + aux++ * 8 % matrix, false};
      const std::uint64_t tile_base = aux * 8 / tile * tile;
      const std::uint64_t slot = rng.next() % (tile / 8);
      return {base + (tile_base + slot * 8) % matrix, step == phase - 1};
    }
  };

  Xoshiro256 select_;
  std::vector<double> cdf_;
  std::vector<Component> comps_;
};

/// Replay `warmup` uncounted then `refs` counted references of `gen`
/// through the hierarchy Hierarchy(cpu, shift) builds, one reference and
/// one level at a time.
inline HierarchyResult reference_replay(const arch::CpuSpec& cpu,
                                        unsigned shift,
                                        ReferenceGenerator& gen,
                                        std::uint64_t refs,
                                        std::uint64_t warmup) {
  std::vector<Cache> levels;
  HierarchyResult result;
  for (const auto& level : hierarchy_levels(cpu, shift)) {
    levels.emplace_back(level.config);
    result.levels.push_back({level.name, {}});
  }
  auto walk = [&](std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const MemRef ref = gen.next();
      for (auto& level : levels) {
        if (level.access(ref.addr, ref.write)) break;
      }
    }
  };
  walk(warmup);
  for (auto& level : levels) level.reset_stats();
  walk(refs);
  result.refs = refs;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    result.levels[i].stats = levels[i].stats();
  }
  return result;
}

}  // namespace fpr::memsim::reference
