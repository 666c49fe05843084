#include "memsim/trace_gen.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/magic_div.hpp"

namespace fpr::memsim {

namespace {

// Distinct base addresses per component so mixtures do not alias.
constexpr std::uint64_t kComponentSpacing = 1ull << 40;

std::uint64_t align_up(std::uint64_t v, std::uint64_t a) {
  return (v + a - 1) / a * a;
}

/// Component index for a selection uniform u. The first c with
/// cdf[c] >= u, as lower_bound finds it, is the number of entries below
/// u (the CDF does not decrease), capped at the last component; counting
/// keeps the loop free of data-dependent branches.
std::uint32_t pick(const std::vector<double>& cdf, double u) {
  const auto last = static_cast<std::uint32_t>(cdf.size()) - 1;
  std::uint32_t c = 0;
  for (std::uint32_t j = 0; j < last; ++j) c += cdf[j] < u;
  return c;
}

}  // namespace

struct TraceGenerator::ComponentState {
  Pattern pattern;
  std::uint64_t base = 0;
  Xoshiro256 rng;
  // Cursor state, interpretation depends on the pattern alternative.
  std::uint64_t pos = 0;
  std::uint64_t aux = 0;
  std::vector<std::uint32_t> chase_order;  // for ChasePattern
  // Lazily built lookup tables; only build_chase_order touches the RNG.
  std::vector<std::array<std::int64_t, 3>> stencil_offsets;
  MagicDiv slot_div;  // gather/blocked slot modulo, hoisted per block

  ComponentState(Pattern p, std::uint64_t b, std::uint64_t seed)
      : pattern(std::move(p)), base(b), rng(seed) {}

  /// Lazily build the chase ring (Sattolo shuffle => one full cycle).
  void build_chase_order(std::uint64_t nodes) {
    if (!chase_order.empty()) return;
    chase_order.resize(nodes);
    std::iota(chase_order.begin(), chase_order.end(), 0u);
    for (std::uint64_t i = nodes - 1; i > 0; --i) {
      const std::uint64_t j = rng.below(i);
      std::swap(chase_order[i], chase_order[j]);
    }
  }

  /// Precompute the (dx, dy, dz) neighbour offsets for stencil point k
  /// (pure function of radius/box shape). A box enumerates the
  /// (2r+1)^3 cube; a star is the centre plus +-1..r along each axis.
  void build_stencil_offsets(const StencilPattern& p, int r,
                             std::uint64_t pts) {
    if (stencil_offsets.size() == pts) return;
    stencil_offsets.assign(pts, {0, 0, 0});
    for (std::uint64_t k = 0; k < pts; ++k) {
      auto& d = stencil_offsets[k];
      if (p.full_box) {
        const std::uint64_t side = 2 * static_cast<std::uint64_t>(r) + 1;
        d[0] = static_cast<std::int64_t>(k % side) - r;
        d[1] = static_cast<std::int64_t>((k / side) % side) - r;
        d[2] = static_cast<std::int64_t>(k / (side * side)) - r;
      } else if (k > 0) {
        const std::uint64_t axis = (k - 1) / (2 * r);
        const std::int64_t step =
            static_cast<std::int64_t>((k - 1) % (2 * r)) -
            static_cast<std::int64_t>(r) +
            (((k - 1) % (2 * r)) >= static_cast<std::uint64_t>(r) ? 1 : 0);
        if (axis == 0) d[0] = step;
        if (axis == 1) d[1] = step;
        if (axis == 2) d[2] = step;
      }
    }
  }

  /// Emit the next `n` references with one variant dispatch. These block
  /// loops are each pattern's only definition: each derives its running
  /// offsets from (pos, aux) once per call and advances them with a
  /// conditional wrap instead of a div/mod per reference. BatchedIdentity/*
  /// checks them against tests/memsim_reference.hpp.
  void generate_n(MemRef* out, std::size_t n) {
    std::visit([&](const auto& pat) { gen_n(pat, out, n); }, pattern);
  }

  void gen_n(const StreamPattern& p, MemRef* out, std::size_t n) {
    // Round-robin across the arrays at one 8 B element offset. The length
    // rounds down to the element size so wrapped offsets stay aligned.
    const std::uint64_t len =
        std::max<std::uint64_t>(p.bytes_per_array, 64) & ~std::uint64_t{7};
    const auto arrays = static_cast<std::uint64_t>(std::max(1, p.arrays));
    const std::uint64_t arr_stride = align_up(len, 4096);
    // Running (array, offset) cursor; the element offset advances by one
    // 8 B element per full array round, wrapping at len (a multiple of 8,
    // so the wrap lands exactly where (elem * 8) % len does).
    std::uint64_t array = pos % arrays;
    std::uint64_t off = ((pos / arrays) * 8) % len;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = {base + array * arr_stride + off,
                static_cast<int>(array) < p.writes_per_iter};
      if (++array == arrays) {
        array = 0;
        off += 8;
        if (off >= len) off -= len;
      }
    }
    pos += n;
  }

  void gen_n(const StridedPattern& p, MemRef* out, std::size_t n) {
    const std::uint64_t fp = std::max<std::uint64_t>(p.footprint_bytes, 512);
    const std::uint64_t step = p.stride_bytes % fp;
    std::uint64_t off = (pos * p.stride_bytes) % fp;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = {base + off, false};
      off += step;
      if (off >= fp) off -= fp;
    }
    pos += n;
  }

  void gen_n(const StencilPattern& p, MemRef* out, std::size_t n) {
    const std::uint64_t nx = std::max<std::uint64_t>(p.nx, 4);
    const std::uint64_t ny = std::max<std::uint64_t>(p.ny, 4);
    const std::uint64_t nz = std::max<std::uint64_t>(p.nz, 4);
    const std::uint64_t cells = nx * ny * nz;
    const int r = std::max(1, p.radius);
    const std::uint64_t pts =
        p.full_box ? static_cast<std::uint64_t>((2 * r + 1)) * (2 * r + 1) *
                         (2 * r + 1)
                   : static_cast<std::uint64_t>(6 * r + 1);
    build_stencil_offsets(p, r, pts);
    // Cursor: (cell, k) with k in [0, pts] — k == pts is the destination
    // write; cell advances by one (wrapping at cells) after the write.
    std::uint64_t cell = (pos / (pts + 1)) % cells;
    std::uint64_t k = pos % (pts + 1);
    std::uint64_t x = cell % nx;
    std::uint64_t y = (cell / nx) % ny;
    std::uint64_t z = cell / (nx * ny);
    const std::uint64_t out_base = cells * p.elem_bytes;
    auto clampc = [](std::uint64_t v, std::int64_t d, std::uint64_t hi) {
      const auto s = static_cast<std::int64_t>(v) + d;
      return static_cast<std::uint64_t>(
          std::clamp<std::int64_t>(s, 0, static_cast<std::int64_t>(hi) - 1));
    };
    for (std::size_t i = 0; i < n; ++i) {
      if (k == pts) {
        out[i] = {base + out_base + cell * p.elem_bytes, true};
        k = 0;
        ++cell;
        ++x;
        if (x == nx) {
          x = 0;
          ++y;
          if (y == ny) {
            y = 0;
            ++z;
          }
        }
        if (cell == cells) {
          cell = 0;
          x = y = z = 0;
        }
      } else {
        const auto& d = stencil_offsets[k];
        const std::uint64_t idx =
            clampc(x, d[0], nx) +
            nx * (clampc(y, d[1], ny) + ny * clampc(z, d[2], nz));
        out[i] = {base + idx * p.elem_bytes, false};
        ++k;
      }
    }
    pos += n;
  }

  void gen_n(const GatherPattern& p, MemRef* out, std::size_t n) {
    const std::uint64_t table = std::max<std::uint64_t>(p.table_bytes, 512);
    const std::uint64_t slots = table / p.elem_bytes;
    if (slot_div.divisor() != slots) slot_div = MagicDiv(slots);
    // The driver stream cycles inside the table: a window of its own
    // would double the footprint that capacity scaling accounts for.
    std::uint64_t off = (pos * 8) % table;
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.uniform() < p.sequential_fraction) {
        out[i] = {base + off, false};
        off += 8;
        if (off >= table) off -= table;
        ++seq;
      } else {
        const std::uint64_t slot = slot_div.mod(rng.next());
        out[i] = {base + slot * p.elem_bytes, false};
      }
    }
    pos += seq;
  }

  void gen_n(const ChasePattern& p, MemRef* out, std::size_t n) {
    const std::uint32_t node = std::max<std::uint32_t>(p.node_bytes, 8);
    const std::uint64_t nodes =
        std::max<std::uint64_t>(p.footprint_bytes / node, 16);
    build_chase_order(nodes);
    // After the first hop the cursor is itself a node index, so only the
    // start needs the modulo; one table load per reference remains, as a
    // real chase would have.
    std::uint64_t cur = pos % nodes;
    for (std::size_t i = 0; i < n; ++i) {
      cur = chase_order[cur];
      out[i] = {base + cur * node, false};
    }
    pos = cur;
  }

  void gen_n(const BlockedPattern& p, MemRef* out, std::size_t n) {
    // Per phase: one 8 B step of the matrix stream, then `tile_reuse`
    // random hits into the tile holding the stream position, the last a
    // write. The small tile floor keeps scaled-down tiles cache-sized.
    const std::uint64_t tile = std::max<std::uint64_t>(p.tile_bytes, 256);
    const std::uint64_t matrix =
        std::max<std::uint64_t>(p.matrix_bytes, tile);
    const double reuse = std::max(1.0, p.tile_reuse);
    const auto phase = static_cast<std::uint64_t>(reuse) + 1;
    const std::uint64_t slots = tile / 8;
    if (slot_div.divisor() != slots) slot_div = MagicDiv(slots);
    std::uint64_t step = pos % phase;
    std::uint64_t stream_off = (aux * 8) % matrix;
    std::uint64_t tile_base = ((aux * 8) / tile) * tile % matrix;
    for (std::size_t i = 0; i < n; ++i) {
      if (step == 0) {
        out[i] = {base + stream_off, false};
        ++aux;
        stream_off += 8;
        if (stream_off >= matrix) stream_off -= matrix;
        tile_base = ((aux * 8) / tile) * tile % matrix;
      } else {
        std::uint64_t addr = tile_base + slot_div.mod(rng.next()) * 8;
        if (addr >= matrix) addr -= matrix;
        out[i] = {base + addr, step == phase - 1};
      }
      if (++step == phase) step = 0;
    }
    pos += n;
  }
};

TraceGenerator::~TraceGenerator() = default;
TraceGenerator::TraceGenerator(TraceGenerator&&) noexcept = default;
TraceGenerator& TraceGenerator::operator=(TraceGenerator&&) noexcept =
    default;

TraceGenerator::TraceGenerator(const AccessPatternSpec& spec,
                               std::uint64_t seed)
    : rng_(seed ^ 0x5851f42d4c957f2dull) {
  if (spec.components.empty()) {
    throw std::invalid_argument("AccessPatternSpec has no components");
  }
  double total = 0.0;
  for (const auto& c : spec.components) {
    // Negated so NaN fails too: NaN <= 0 is false.
    if (!(std::isfinite(c.weight) && c.weight > 0.0)) {
      throw std::invalid_argument(
          "pattern component weight must be finite and > 0");
    }
    total += c.weight;
  }
  if (!std::isfinite(total)) {
    throw std::invalid_argument("pattern component weights overflow");
  }
  double run = 0.0;
  std::uint64_t idx = 0;
  SplitMix64 sm(seed);
  for (const auto& c : spec.components) {
    run += c.weight / total;
    cumulative_.push_back(run);
    comps_.push_back(std::make_unique<ComponentState>(
        c.pattern, (idx + 1) * kComponentSpacing, sm.next()));
    ++idx;
  }
  cumulative_.back() = 1.0;  // guard against rounding
  cursor_.resize(comps_.size());
}

void TraceGenerator::fill(MemRef* out, std::size_t n) {
  // rng_ only ever chooses a component, so a single-component spec never
  // draws it.
  if (comps_.size() == 1) {
    comps_[0]->generate_n(out, n);
    return;
  }

  // Block size bounds the selection and scratch buffers and keeps them
  // cache-resident.
  constexpr std::size_t kBlock = 4096;
  select_.resize(std::min(n, kBlock));
  scratch_.resize(select_.size());
  const auto last = static_cast<std::uint32_t>(comps_.size()) - 1;
  for (std::size_t done = 0; done < n;) {
    const auto block = static_cast<std::uint32_t>(std::min(n - done, kBlock));
    // 1. Sample the whole block's components first.
    for (std::uint32_t k = 0; k < block; ++k) {
      select_[k] = pick(cumulative_, rng_.uniform());
    }
    // 2-3. Count each component's refs (a vectorizable pass; the last
    // component takes the rest), then call its generate_n once into its
    // own segment of scratch_. A component owns its RNG and cursor, so
    // its sequence does not depend on how the selection interleaves it
    // with the others.
    const auto sel_end = select_.begin() + block;
    std::uint32_t at = 0;
    for (std::uint32_t c = 0; c <= last; ++c) {
      const auto count =
          c < last ? static_cast<std::uint32_t>(
                         std::count(select_.begin(), sel_end, c))
                   : block - at;
      cursor_[c] = at;
      if (count != 0) comps_[c]->generate_n(scratch_.data() + at, count);
      at += count;
    }
    // 4. Merge back into selection order, one read cursor per component.
    MemRef* dst = out + done;
    for (std::uint32_t k = 0; k < block; ++k) {
      dst[k] = scratch_[cursor_[select_[k]]++];
    }
    done += block;
  }
}

std::string pattern_name(const Pattern& p) {
  struct Visitor {
    std::string operator()(const StreamPattern&) const { return "stream"; }
    std::string operator()(const StridedPattern&) const { return "strided"; }
    std::string operator()(const StencilPattern&) const { return "stencil"; }
    std::string operator()(const GatherPattern&) const { return "gather"; }
    std::string operator()(const ChasePattern&) const { return "chase"; }
    std::string operator()(const BlockedPattern&) const { return "blocked"; }
  };
  return std::visit(Visitor{}, p);
}

}  // namespace fpr::memsim
