// Unit tests for the cache/memory simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "arch/machines.hpp"
#include "arch/variant.hpp"
#include "common/magic_div.hpp"
#include "common/rng.hpp"
#include "memsim/bandwidth.hpp"
#include "memsim/cache.hpp"
#include "memsim/hierarchy.hpp"
#include "memsim/sim_cache.hpp"
#include "memsim/trace_gen.hpp"
#include "memsim/trace_source.hpp"
#include "memsim_reference.hpp"

namespace fpr::memsim {
namespace {

TEST(CacheConfig, GeometryMath) {
  CacheConfig cfg{.size_bytes = 32 * 1024, .associativity = 8};
  cfg.validate();
  EXPECT_EQ(cfg.num_lines(), 512u);
  EXPECT_EQ(cfg.num_sets(), 64u);
}

TEST(CacheConfig, RejectsBadGeometry) {
  CacheConfig cfg{.size_bytes = 1000, .associativity = 8};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {.size_bytes = 32 * 1024, .associativity = 0};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {.size_bytes = 3 * 64, .associativity = 2};  // 3 lines, 2 ways
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // Non-power-of-two set counts are allowed (modulo indexing).
  cfg = {.size_bytes = 3 * 64 * 8, .associativity = 8};
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Cache, HitsAfterMiss) {
  Cache c({.size_bytes = 4096, .associativity = 4});
  EXPECT_FALSE(c.access(0x1000, false));
  EXPECT_TRUE(c.access(0x1000, false));
  EXPECT_TRUE(c.access(0x1010, false));  // same line
  EXPECT_FALSE(c.access(0x2000, false));
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEviction) {
  // 1 set x 2 ways: lines 0 and 1 fit, line 2 evicts the LRU (line 0).
  Cache c({.size_bytes = 128, .associativity = 2});
  c.access(0 * 64, false);
  c.access(1 * 64 * 1, false);  // same set? with 1 set, every line maps there
  c.access(2 * 64, false);      // evicts line 0
  EXPECT_FALSE(c.access(0 * 64, false));  // line 0 gone
  EXPECT_TRUE(c.access(2 * 64, false));   // line 2 still resident
}

TEST(Cache, LruTouchPreventsEviction) {
  Cache c({.size_bytes = 128, .associativity = 2});
  c.access(0, false);
  c.access(64, false);
  c.access(0, false);    // touch line 0: line 64 becomes LRU
  c.access(128, false);  // evicts line 64
  EXPECT_TRUE(c.access(0, false));
  EXPECT_FALSE(c.access(64, false));
}

TEST(Cache, WritebackOnDirtyEviction) {
  Cache c({.size_bytes = 128, .associativity = 2});
  c.access(0, true);     // dirty
  c.access(64, false);
  c.access(128, false);  // evicts dirty line 0
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, ClearResets) {
  Cache c({.size_bytes = 4096, .associativity = 4});
  c.access(0, true);
  c.clear();
  EXPECT_EQ(c.stats().accesses(), 0u);
  EXPECT_FALSE(c.access(0, false));  // cold again
}

TEST(Cache, StreamingHitRateIsSevenEighths) {
  // Sequential 8B accesses: 1 miss per 64B line = 7/8 hit rate.
  Cache c({.size_bytes = 64 * 1024, .associativity = 8});
  for (std::uint64_t a = 0; a < 32 * 1024; a += 8) c.access(a, false);
  EXPECT_NEAR(c.stats().hit_rate(), 7.0 / 8.0, 0.01);
}

/// The first `n` references of the trace of `spec` at `seed`.
std::vector<MemRef> take(const AccessPatternSpec& spec, std::uint64_t seed,
                         std::size_t n) {
  std::vector<MemRef> refs(n);
  TraceGenerator(spec, seed).fill(refs.data(), n);
  return refs;
}

TEST(TraceGen, StreamPatternIsSequentialPerArray) {
  AccessPatternSpec spec = AccessPatternSpec::single(
      StreamPattern{.bytes_per_array = 1 << 20, .arrays = 1,
                    .writes_per_iter = 0});
  const auto refs = take(spec, 1, 101);
  for (std::size_t i = 1; i < refs.size(); ++i) {
    EXPECT_EQ(refs[i].addr, refs[i - 1].addr + 8);
  }
}

TEST(TraceGen, ChaseVisitsAllNodes) {
  AccessPatternSpec spec = AccessPatternSpec::single(
      ChasePattern{.footprint_bytes = 64 * 64, .node_bytes = 64});
  std::set<std::uint64_t> seen;
  for (const MemRef& r : take(spec, 2, 64)) seen.insert(r.addr);
  // Sattolo cycle: all 64 nodes visited exactly once per period.
  EXPECT_EQ(seen.size(), 64u);
}

TEST(TraceGen, MixtureUsesDistinctRanges) {
  AccessPatternSpec spec;
  spec.components.push_back(
      {StreamPattern{.bytes_per_array = 4096, .arrays = 1}, 1.0});
  spec.components.push_back(
      {GatherPattern{.table_bytes = 4096, .elem_bytes = 8}, 1.0});
  std::set<std::uint64_t> bases;
  for (const MemRef& r : take(spec, 3, 1000)) bases.insert(r.addr >> 40);
  EXPECT_GE(bases.size(), 2u);  // distinct 2^40 component windows
}

TEST(TraceGen, RejectsEmptyAndBadWeights) {
  EXPECT_THROW(TraceGenerator(AccessPatternSpec{}, 1), std::invalid_argument);
  AccessPatternSpec bad;
  bad.components.push_back({StreamPattern{}, -1.0});
  EXPECT_THROW(TraceGenerator(bad, 1), std::invalid_argument);
  // NaN <= 0 and inf <= 0 are both false; neither may slip through.
  for (const double w : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    AccessPatternSpec mix;
    mix.components.push_back({StreamPattern{}, 1.0});
    mix.components.push_back({GatherPattern{}, w});
    EXPECT_THROW(TraceGenerator(mix, 1), std::invalid_argument) << w;
  }
  // Finite weights whose sum overflows would send every ref to the last
  // component (w / inf == 0).
  AccessPatternSpec huge;
  huge.components.push_back({StreamPattern{}, 1.0e308});
  huge.components.push_back({GatherPattern{}, 1.0e308});
  EXPECT_THROW(TraceGenerator(huge, 1), std::invalid_argument);
}

TEST(TraceGen, PatternNames) {
  EXPECT_EQ(pattern_name(StreamPattern{}), "stream");
  EXPECT_EQ(pattern_name(StencilPattern{}), "stencil");
  EXPECT_EQ(pattern_name(GatherPattern{}), "gather");
  EXPECT_EQ(pattern_name(ChasePattern{}), "chase");
  EXPECT_EQ(pattern_name(BlockedPattern{}), "blocked");
  EXPECT_EQ(pattern_name(StridedPattern{}), "strided");
}

TEST(Hierarchy, LevelsForPhiAndBdw) {
  Hierarchy phi(arch::knl(), 6);
  EXPECT_EQ(phi.num_levels(), 3u);
  EXPECT_EQ(phi.level_name(2), "MCDRAM$");
  Hierarchy xeon(arch::bdw(), 6);
  EXPECT_EQ(xeon.num_levels(), 3u);
  EXPECT_EQ(xeon.level_name(2), "LLC");
}

TEST(Hierarchy, SmallWorkingSetHitsHigh) {
  // A stream fitting easily in the (scaled) caches: high combined hit.
  AccessPatternSpec spec = AccessPatternSpec::single(
      StreamPattern{.bytes_per_array = 32 * 1024, .arrays = 1});
  const auto res = simulate_pattern(arch::knl(), spec, 200000, 7, 6);
  EXPECT_GT(res.served_at_or_above("L2"), 0.95);
}

TEST(Hierarchy, HugeGatherMissesMcdram) {
  // Random gather over a table far beyond MCDRAM: most refs go to DRAM.
  AccessPatternSpec spec = AccessPatternSpec::single(
      GatherPattern{.table_bytes = 200ull << 30, .elem_bytes = 8,
                    .sequential_fraction = 0.0});
  const auto res = simulate_pattern(arch::knl(), spec, 150000, 0x0fbeef, 6);
  EXPECT_GT(res.dram_fraction(), 0.5);
}

TEST(Bandwidth, BdwIsJustDram) {
  const auto bw = effective_bandwidth(arch::bdw(), 1 << 30, 0.0);
  EXPECT_DOUBLE_EQ(bw.effective_gbs, arch::bdw().dram_bw_gbs);
}

TEST(Bandwidth, FullCaptureGivesCacheModeCeiling) {
  // Paper Sec. IV-C: 86% of flat-mode Triad on KNL when vectors fit.
  const auto bw = effective_bandwidth(arch::knl(), 6ull << 30, 1.0);
  EXPECT_NEAR(bw.effective_gbs, 439.0 * 0.86, 1.0);
  const auto knm = effective_bandwidth(arch::knm(), 6ull << 30, 1.0);
  EXPECT_NEAR(knm.effective_gbs, 430.0 * 0.75, 1.0);
}

TEST(Bandwidth, OversizeWorkingSetDropsTowardDram) {
  // 42 GiB of stream against 16 GiB MCDRAM: the capacity guard clamps
  // the capture to 16/42, and the prefetched misses stream at the flat
  // DDR rate — near-DRAM throughput ("slightly higher than DRAM", paper
  // Fig. 4 BABL14).
  const auto bw = effective_bandwidth(arch::knl(), 42ull << 30, 1.0);
  EXPECT_NEAR(bw.mcdram_fraction, 16.0 / 42.0, 1e-9);
  EXPECT_GE(bw.effective_gbs, arch::knl().dram_bw_gbs);
  EXPECT_LT(bw.effective_gbs, 200.0);
}

TEST(Bandwidth, LowCaptureNonStreamingDropsBelowDram) {
  // The regression behind the old never-below-DRAM floor: a spilled
  // *gather* working set pays the cache-mode miss_overhead and must
  // model below flat DRAM speed (the Fig. 4 cache-mode ladder), which
  // the blanket prefetcher floor used to cancel.
  const CacheModeParams params;
  const auto bw =
      effective_bandwidth(arch::knl(), 32ull << 30, 0.1, /*streaming=*/0.0);
  EXPECT_LT(bw.effective_gbs, arch::knl().dram_bw_gbs);
  // Capture 0 with no prefetchable misses is the worst case:
  // dram_bw / miss_overhead exactly.
  const auto worst =
      effective_bandwidth(arch::knl(), 32ull << 30, 0.0, /*streaming=*/0.0);
  EXPECT_NEAR(worst.effective_gbs,
              arch::knl().dram_bw_gbs / params.miss_overhead, 1e-9);
}

TEST(Bandwidth, StreamingShareInterpolatesMissCost) {
  // At capture 0 the miss cost interpolates linearly (in time-per-byte)
  // between the prefetched flat-DDR rate (s=1) and the full
  // read-for-ownership overhead (s=0).
  const CacheModeParams params;
  const auto half =
      effective_bandwidth(arch::knl(), 32ull << 30, 0.0, /*streaming=*/0.5);
  const double expect =
      arch::knl().dram_bw_gbs / (0.5 + 0.5 * params.miss_overhead);
  EXPECT_NEAR(half.effective_gbs, expect, 1e-9);
  const auto full =
      effective_bandwidth(arch::knl(), 32ull << 30, 0.0, /*streaming=*/1.0);
  EXPECT_NEAR(full.effective_gbs, arch::knl().dram_bw_gbs, 1e-9);
}

TEST(Bandwidth, CaptureLimitsAndClamping) {
  // capture=1 with a fitting set: the cache-mode ceiling (hit efficiency
  // times flat-mode Triad); KNM selects its own, lower hit efficiency.
  const CacheModeParams params;
  const auto knl1 = effective_bandwidth(arch::knl(), 6ull << 30, 1.0);
  EXPECT_NEAR(knl1.effective_gbs, 439.0 * params.hit_efficiency_knl, 1e-9);
  EXPECT_NEAR(knl1.mcdram_fraction, 1.0, 1e-12);
  const auto knm1 = effective_bandwidth(arch::knm(), 6ull << 30, 1.0);
  EXPECT_NEAR(knm1.effective_gbs, 430.0 * params.hit_efficiency_knm, 1e-9);
  // Out-of-range captures clamp instead of extrapolating.
  const auto over = effective_bandwidth(arch::knl(), 6ull << 30, 1.5);
  EXPECT_NEAR(over.effective_gbs, knl1.effective_gbs, 1e-12);
  const auto under = effective_bandwidth(arch::knl(), 6ull << 30, -0.5);
  EXPECT_NEAR(under.mcdram_fraction, 0.0, 1e-12);
  EXPECT_NEAR(under.effective_gbs, arch::knl().dram_bw_gbs, 1e-9);
}

TEST(Bandwidth, DerivedVariantsInheritHitEfficiency) {
  // The hit efficiency rides on the CpuSpec, not on a name match: a
  // derived KNM variant (short name "KNM+...") must keep KNM's 75%
  // cache-mode efficiency instead of silently picking up KNL's 86% —
  // a time-neutral transform like tdp= must leave the bandwidth model
  // bit-identical.
  const auto v = arch::derive_variant(arch::knm(), "tdp=0.85");
  const auto base = effective_bandwidth(arch::knm(), 6ull << 30, 0.7);
  const auto var = effective_bandwidth(v.cpu, 6ull << 30, 0.7);
  EXPECT_DOUBLE_EQ(var.effective_gbs, base.effective_gbs);
  EXPECT_DOUBLE_EQ(var.mcdram_gbs, base.mcdram_gbs);
}

TEST(Bandwidth, NonMcdramMachinePassesThrough) {
  // BDW has no MCDRAM: capture and streaming shares are irrelevant.
  for (const double c : {0.0, 0.5, 1.0}) {
    const auto bw = effective_bandwidth(arch::bdw(), 1ull << 30, c, 0.0);
    EXPECT_DOUBLE_EQ(bw.effective_gbs, arch::bdw().dram_bw_gbs);
    EXPECT_DOUBLE_EQ(bw.mcdram_fraction, 0.0);
    EXPECT_DOUBLE_EQ(bw.mcdram_gbs, 0.0);
  }
}

TEST(Bandwidth, MonotonicInCapture) {
  double prev = 0.0;
  for (double c = 0.0; c <= 1.0; c += 0.1) {
    const auto bw = effective_bandwidth(arch::knl(), 4ull << 30, c);
    EXPECT_GE(bw.effective_gbs, prev - 1e-9);
    prev = bw.effective_gbs;
  }
}

TEST(Bandwidth, MissStreamingFractionOfMixes) {
  AccessPatternSpec stream = AccessPatternSpec::single(
      StreamPattern{.bytes_per_array = 1 << 20, .arrays = 3});
  EXPECT_DOUBLE_EQ(miss_streaming_fraction(stream), 1.0);
  AccessPatternSpec chase = AccessPatternSpec::single(
      ChasePattern{.footprint_bytes = 1 << 20, .node_bytes = 64});
  EXPECT_DOUBLE_EQ(miss_streaming_fraction(chase), 0.0);
  AccessPatternSpec gather = AccessPatternSpec::single(
      GatherPattern{.table_bytes = 1 << 20, .elem_bytes = 8,
                    .sequential_fraction = 0.3});
  EXPECT_DOUBLE_EQ(miss_streaming_fraction(gather), 0.3);
  AccessPatternSpec mix;
  mix.components.push_back(
      {StreamPattern{.bytes_per_array = 1 << 20}, 1.0});
  mix.components.push_back(
      {ChasePattern{.footprint_bytes = 1 << 20, .node_bytes = 64}, 3.0});
  EXPECT_NEAR(miss_streaming_fraction(mix), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(miss_streaming_fraction(AccessPatternSpec{}), 1.0);
}

TEST(Latency, CacheModeMissCostsMore) {
  // 2 GiB working set: fits the 16 GiB MCDRAM, capacity guard inactive.
  const std::uint64_t ws = 2ull << 30;
  const double hit = effective_latency_ns(arch::knl(), ws, 1.0);
  const double miss = effective_latency_ns(arch::knl(), ws, 0.0);
  EXPECT_GT(miss, hit);
  EXPECT_DOUBLE_EQ(effective_latency_ns(arch::bdw(), ws, 0.5),
                   arch::bdw().dram_latency_ns);
}

TEST(Latency, CaptureLimitsAndClamping) {
  const auto knl = arch::knl();
  const std::uint64_t ws = 2ull << 30;  // fits MCDRAM
  const double probe = CacheModeParams{}.miss_latency_probe;
  // capture=1: pure MCDRAM latency. capture=0: tag probe + DDR access.
  EXPECT_DOUBLE_EQ(effective_latency_ns(knl, ws, 1.0),
                   knl.mcdram_latency_ns);
  EXPECT_DOUBLE_EQ(effective_latency_ns(knl, ws, 0.0),
                   knl.mcdram_latency_ns * probe + knl.dram_latency_ns);
  // Out-of-range captures clamp to the limits.
  EXPECT_DOUBLE_EQ(effective_latency_ns(knl, ws, 2.0),
                   effective_latency_ns(knl, ws, 1.0));
  EXPECT_DOUBLE_EQ(effective_latency_ns(knl, ws, -1.0),
                   effective_latency_ns(knl, ws, 0.0));
}

TEST(Latency, OverCapacityWorkingSetRaisesLatency) {
  // Regression (PR 7): effective_latency_ns used to skip the MCDRAM
  // capacity guard effective_bandwidth applies, so a working set that
  // spilled the MCDRAM got clamped bandwidth but full-capture latency.
  const auto knl = arch::knl();
  const std::uint64_t fits = 2ull << 30;
  const std::uint64_t spills = 42ull << 30;  // 42 GiB vs 16 GiB MCDRAM
  const double l_fits = effective_latency_ns(knl, fits, 1.0);
  const double l_spills = effective_latency_ns(knl, spills, 1.0);
  EXPECT_DOUBLE_EQ(l_fits, knl.mcdram_latency_ns);
  EXPECT_GT(l_spills, l_fits);
  // The clamp is exactly effective_bandwidth's: capture <= capacity/ws.
  const double c =
      knl.mcdram_gib * 1024.0 * 1024.0 * 1024.0 / static_cast<double>(spills);
  const double probe = CacheModeParams{}.miss_latency_probe;
  EXPECT_DOUBLE_EQ(l_spills,
                   c * knl.mcdram_latency_ns +
                       (1.0 - c) * (knl.mcdram_latency_ns * probe +
                                    knl.dram_latency_ns));
  // A working set at exactly capacity is not penalized.
  const auto cap = static_cast<std::uint64_t>(knl.mcdram_gib) << 30;
  EXPECT_DOUBLE_EQ(effective_latency_ns(knl, cap, 1.0),
                   knl.mcdram_latency_ns);
  // No MCDRAM: DRAM latency regardless of working set.
  EXPECT_DOUBLE_EQ(effective_latency_ns(arch::bdw(), spills, 1.0),
                   arch::bdw().dram_latency_ns);
}

// ---------------------------------------------------------------------
// Satellite fixes: unknown-level lookups throw, stream wraps stay
// element-aligned, gather footprints stay inside the declared table.

TEST(Hierarchy, UnknownLevelNameThrows) {
  AccessPatternSpec spec = AccessPatternSpec::single(
      StreamPattern{.bytes_per_array = 32 * 1024, .arrays = 1});
  const auto phi = simulate_pattern(arch::knl(), spec, 20000, 7, 6);
  EXPECT_THROW((void)phi.hit_rate("LLC"), std::out_of_range);
  EXPECT_THROW((void)phi.served_at_or_above("L3"), std::out_of_range);
  EXPECT_NO_THROW((void)phi.hit_rate("MCDRAM$"));
  const auto bdw = simulate_pattern(arch::bdw(), spec, 20000, 7, 6);
  EXPECT_THROW((void)bdw.hit_rate("MCDRAM$"), std::out_of_range);
  EXPECT_NO_THROW((void)bdw.served_at_or_above("LLC"));
}

TEST(TraceGen, StreamWrapStaysElementAligned) {
  // 1001-byte arrays: the effective length must round down to 1000 so
  // every offset is a whole 8 B element, even after many wraps.
  AccessPatternSpec spec = AccessPatternSpec::single(
      StreamPattern{.bytes_per_array = 1001, .arrays = 1,
                    .writes_per_iter = 0});
  const auto refs = take(spec, 11, 2000);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const std::uint64_t off = refs[i].addr - refs[0].addr;
    EXPECT_EQ(off % 8, 0u) << "misaligned after wrap at ref " << i;
    EXPECT_LT(off, 1001u);
  }
}

TEST(TraceGen, GatherStaysInsideDeclaredFootprint) {
  constexpr std::uint64_t kTable = 4096;
  AccessPatternSpec spec = AccessPatternSpec::single(
      GatherPattern{.table_bytes = kTable, .elem_bytes = 8,
                    .sequential_fraction = 0.5});
  std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
  for (const MemRef& r : take(spec, 13, 20000)) {
    lo = std::min(lo, r.addr);
    hi = std::max(hi, r.addr);
  }
  // Driver stream and random gather together span at most table_bytes —
  // the range capacity scaling accounts for.
  EXPECT_LT(hi - lo, kTable);
}

// ---------------------------------------------------------------------
// Generation and replay: bit-identical to the test-only reference model
// (memsim_reference.hpp).

std::vector<AccessPatternSpec> all_pattern_specs() {
  std::vector<AccessPatternSpec> specs;
  specs.push_back(AccessPatternSpec::single(StreamPattern{
      .bytes_per_array = 100'000, .arrays = 3, .writes_per_iter = 1}));
  specs.push_back(AccessPatternSpec::single(
      StridedPattern{.footprint_bytes = 77'777, .stride_bytes = 192}));
  specs.push_back(AccessPatternSpec::single(
      StencilPattern{.nx = 17, .ny = 13, .nz = 9, .elem_bytes = 8,
                     .radius = 1, .full_box = true}));
  specs.push_back(AccessPatternSpec::single(
      StencilPattern{.nx = 12, .ny = 20, .nz = 7, .elem_bytes = 4,
                     .radius = 2, .full_box = false}));
  // Small enough that a 30k-reference fill wraps the driver stream.
  specs.push_back(AccessPatternSpec::single(
      GatherPattern{.table_bytes = 20'000, .elem_bytes = 8,
                    .sequential_fraction = 0.2}));
  specs.push_back(AccessPatternSpec::single(
      ChasePattern{.footprint_bytes = 40'000, .node_bytes = 64}));
  specs.push_back(AccessPatternSpec::single(
      BlockedPattern{.matrix_bytes = 90'000, .tile_bytes = 4'000,
                     .tile_reuse = 7.5}));
  AccessPatternSpec mix;
  mix.components.push_back({StreamPattern{.bytes_per_array = 50'000}, 2.0});
  mix.components.push_back(
      {GatherPattern{.table_bytes = 30'000, .elem_bytes = 8}, 1.0});
  mix.components.push_back(
      {ChasePattern{.footprint_bytes = 20'000, .node_bytes = 64}, 0.5});
  mix.components.push_back(
      {BlockedPattern{.matrix_bytes = 40'000, .tile_bytes = 2'048}, 1.5});
  specs.push_back(mix);
  // The two-component shape the stencil kernels publish (a 27-point sweep
  // at ~1/3 weight, as in AMG/HPCG), paired with a gather whose own RNG
  // draws interleave with the selection draws.
  AccessPatternSpec stencil_gather;
  stencil_gather.components.push_back(
      {StencilPattern{.nx = 15, .ny = 11, .nz = 8, .elem_bytes = 8,
                      .radius = 1, .full_box = true},
       0.35});
  stencil_gather.components.push_back(
      {GatherPattern{.table_bytes = 70'000, .elem_bytes = 8,
                     .sequential_fraction = 0.1},
       0.65});
  specs.push_back(stencil_gather);
  // 1000:1, so most short fill blocks give the rare component zero
  // references.
  AccessPatternSpec lopsided;
  lopsided.components.push_back(
      {StreamPattern{.bytes_per_array = 80'000, .arrays = 2}, 1000.0});
  lopsided.components.push_back(
      {BlockedPattern{.matrix_bytes = 50'000, .tile_bytes = 3'000}, 1.0});
  specs.push_back(lopsided);
  return specs;
}

class BatchedIdentity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchedIdentity, FillMatchesScalarNext) {
  // One whole fill against the per-reference ReferenceGenerator.
  const auto spec = all_pattern_specs()[GetParam()];
  constexpr std::size_t kRefs = 30'000;
  const auto got = take(spec, 99, kRefs);
  reference::ReferenceGenerator ref(spec, 99);
  for (std::size_t i = 0; i < kRefs; ++i) {
    const MemRef want = ref.next();
    ASSERT_EQ(got[i].addr, want.addr) << "ref " << i;
    ASSERT_EQ(got[i].write, want.write) << "ref " << i;
  }
}

TEST_P(BatchedIdentity, FillAndNextInterleaveCleanly) {
  // Fills of odd sizes, each followed by five one-reference fills, must
  // give exactly the trace one whole fill gives: the trace is invariant
  // under chunking, which recording (4096-reference blocks) and replay
  // (kReplayBlock blocks) rely on. 5000 spans a 4096-ref fill block.
  const auto spec = all_pattern_specs()[GetParam()];
  const std::size_t chunks[] = {1, 7, 501, 3, 64, 997, 2, 5000, 130};
  constexpr std::size_t kSingles = 5;
  std::size_t total = 0;
  for (const std::size_t c : chunks) total += c + kSingles;
  TraceGenerator chunked(spec, 7);
  std::vector<MemRef> got(total);
  std::size_t at = 0;
  for (const std::size_t c : chunks) {
    chunked.fill(got.data() + at, c);
    at += c;
    for (std::size_t i = 0; i < kSingles; ++i) chunked.fill(&got[at++], 1);
  }
  const auto want = take(spec, 7, total);
  for (std::size_t i = 0; i < total; ++i) {
    ASSERT_EQ(got[i].addr, want[i].addr) << "ref " << i;
    ASSERT_EQ(got[i].write, want[i].write) << "ref " << i;
  }
}

TEST_P(BatchedIdentity, ReplayMatchesScalarReplay) {
  // Hierarchy::replay against reference_replay: the ReferenceGenerator
  // walked one reference and one level at a time.
  const auto spec = all_pattern_specs()[GetParam()];
  for (const auto& cpu : arch::all_machines()) {
    Hierarchy hb(cpu, 6);
    SyntheticTraceSource src(spec, 3);
    const auto rb = hb.replay(src, 40'000, 10'000);
    reference::ReferenceGenerator ref(spec, 3);
    const auto rs = reference::reference_replay(cpu, 6, ref, 40'000, 10'000);
    EXPECT_EQ(rb.refs, rs.refs);
    ASSERT_EQ(rb.levels.size(), rs.levels.size());
    for (std::size_t i = 0; i < rb.levels.size(); ++i) {
      EXPECT_EQ(rb.levels[i].name, rs.levels[i].name);
      EXPECT_EQ(rb.levels[i].stats.hits, rs.levels[i].stats.hits)
          << cpu.short_name << " level " << rb.levels[i].name;
      EXPECT_EQ(rb.levels[i].stats.misses, rs.levels[i].stats.misses);
      EXPECT_EQ(rb.levels[i].stats.writebacks,
                rs.levels[i].stats.writebacks);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, BatchedIdentity,
                         ::testing::Range<std::size_t>(0, 10));

TEST(BatchedIdentitySuite, CoversEverySpec) {
  // Guard the Range() above against spec-list growth.
  EXPECT_EQ(all_pattern_specs().size(), 10u);
}

/// Independent LRU oracle for Cache: the classic access-stamp
/// formulation (one valid/tag/dirty/stamp record per way; the victim is
/// an invalid way, else the oldest stamp), with plain divide/modulo set
/// indexing.
class ReferenceLru {
 public:
  ReferenceLru(std::uint64_t sets, std::uint32_t assoc)
      : sets_(sets), assoc_(assoc), ways_(sets * assoc) {}

  bool access(std::uint64_t addr, bool write) {
    const std::uint64_t line = addr / 64;
    const std::uint64_t tag = line / sets_;
    Way* const row = &ways_[(line % sets_) * assoc_];
    ++now_;
    Way* victim = row;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      Way& way = row[w];
      if (way.valid && way.tag == tag) {
        way.stamp = now_;
        way.dirty = way.dirty || write;
        ++stats.hits;
        return true;
      }
      if (!way.valid || (victim->valid && way.stamp < victim->stamp)) {
        victim = &way;
      }
    }
    ++stats.misses;
    if (victim->valid && victim->dirty) ++stats.writebacks;
    *victim = {.tag = tag, .stamp = now_, .valid = true, .dirty = write};
    return false;
  }

  CacheStats stats;

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t stamp = 0;
    bool valid = false;
    bool dirty = false;
  };
  std::uint64_t sets_;
  std::uint32_t assoc_;
  std::uint64_t now_ = 0;
  std::vector<Way> ways_;
};

TEST(Cache, MatchesReferenceLru) {
  // Random read/write traffic over ~3x the capacity, a quarter of it at
  // the very top of the address space (the largest tags a 64-bit
  // address can produce), through access_many in odd-sized blocks and
  // through access, against the stamp oracle. Geometries: every Table I
  // associativity (8, 16, 20) and run-time ones around them, each with
  // a single set, a power-of-two and two non-power-of-two set counts.
  const std::uint32_t assocs[] = {1, 2, 4, 8, 12, 16, 20, 24};
  const std::uint64_t set_counts[] = {1, 4, 5, 6};
  const std::size_t block_sizes[] = {1, 7, 61, 333, 1021};
  for (const std::uint32_t assoc : assocs) {
    for (const std::uint64_t sets : set_counts) {
      SCOPED_TRACE(::testing::Message() << assoc << "-way x " << sets
                                        << " set(s)");
      const CacheConfig cfg{.size_bytes = sets * assoc * 64,
                            .associativity = assoc};
      ReferenceLru oracle(sets, assoc);
      Cache batched(cfg);
      Cache scalar(cfg);
      Xoshiro256 rng(131 * assoc + sets);
      const std::uint64_t span = 3 * cfg.size_bytes;
      const std::uint64_t top = ~std::uint64_t{0} - span + 1;
      for (std::size_t round = 0; round < 40; ++round) {
        std::vector<MemRef> refs(block_sizes[round % 5]);
        for (auto& r : refs) {
          r.addr = (rng.below(4) == 0 ? top : 0) + rng.below(span);
          r.write = rng.uniform() < 0.3;
        }
        std::vector<MemRef> expect;
        for (const auto& r : refs) {
          const bool hit = oracle.access(r.addr, r.write);
          ASSERT_EQ(scalar.access(r.addr, r.write), hit) << "addr " << r.addr;
          if (!hit) expect.push_back(r);
        }
        const std::size_t live = batched.access_many(refs.data(), refs.size());
        ASSERT_EQ(live, expect.size());
        for (std::size_t i = 0; i < live; ++i) {
          ASSERT_EQ(refs[i].addr, expect[i].addr);
          ASSERT_EQ(refs[i].write, expect[i].write);
        }
      }
      for (const Cache* c : {&batched, &scalar}) {
        EXPECT_EQ(c->stats().hits, oracle.stats.hits);
        EXPECT_EQ(c->stats().misses, oracle.stats.misses);
        EXPECT_EQ(c->stats().writebacks, oracle.stats.writebacks);
      }
      EXPECT_GT(oracle.stats.hits, 0u);
      EXPECT_GT(oracle.stats.writebacks, 0u);
    }
  }
}

TEST(MagicDivTest, ExactForAwkwardDivisors) {
  const std::uint64_t divisors[] = {1,  2,   3,    5,    7,   12,
                                    24, 255, 1000, 4095, 12345};
  Xoshiro256 rng(17);
  for (const std::uint64_t d : divisors) {
    const MagicDiv m(d);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t x = rng.next();
      ASSERT_EQ(m.div(x), x / d) << "x=" << x << " d=" << d;
      ASSERT_EQ(m.mod(x), x % d);
    }
    for (std::uint64_t x = 0; x < 100; ++x) {
      ASSERT_EQ(m.div(x), x / d);
    }
    ASSERT_EQ(m.div(~std::uint64_t{0}), ~std::uint64_t{0} / d);
  }
  EXPECT_THROW(MagicDiv(0), std::invalid_argument);
}

// ---------------------------------------------------------------------
// SimCache: memoization must be invisible except in speed.

TEST(SimCacheTest, CachedResultIsIdenticalAndCounted) {
  SimCache cache;
  const auto spec = AccessPatternSpec::single(
      GatherPattern{.table_bytes = 1u << 20, .elem_bytes = 8});
  const auto fresh = simulate_pattern(arch::knl(), spec, 30'000, 42, 6);
  const auto first =
      simulate_pattern_cached(&cache, arch::knl(), spec, 30'000, 42, 6);
  const auto second =
      simulate_pattern_cached(&cache, arch::knl(), spec, 30'000, 42, 6);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
  for (const auto* r : {&first, &second}) {
    ASSERT_EQ(r->levels.size(), fresh.levels.size());
    for (std::size_t i = 0; i < fresh.levels.size(); ++i) {
      EXPECT_EQ(r->levels[i].stats.hits, fresh.levels[i].stats.hits);
      EXPECT_EQ(r->levels[i].stats.misses, fresh.levels[i].stats.misses);
    }
  }
}

TEST(SimCacheTest, KeyDiscriminatesEveryInput) {
  const auto spec = AccessPatternSpec::single(
      GatherPattern{.table_bytes = 1u << 20, .elem_bytes = 8});
  auto spec2 = spec;
  std::get<GatherPattern>(spec2.components[0].pattern).table_bytes += 1;
  auto spec3 = spec;
  spec3.components[0].weight = 2.0;
  const std::string base = SimCache::key(arch::knl(), spec, 1000, 42, 6);
  EXPECT_NE(base, SimCache::key(arch::knm(), spec, 1000, 42, 6));
  EXPECT_NE(base, SimCache::key(arch::knl(), spec2, 1000, 42, 6));
  EXPECT_NE(base, SimCache::key(arch::knl(), spec3, 1000, 42, 6));
  EXPECT_NE(base, SimCache::key(arch::knl(), spec, 1001, 42, 6));
  EXPECT_NE(base, SimCache::key(arch::knl(), spec, 1000, 43, 6));
  EXPECT_NE(base, SimCache::key(arch::knl(), spec, 1000, 42, 7));
  EXPECT_EQ(base, SimCache::key(arch::knl(), spec, 1000, 42, 6));
}

TEST(SimCacheTest, KeyIsPureGeometry) {
  // A replay is a pure function of the cache geometry: machine variants
  // that only respin bandwidth/TDP/FPUs share their base's simulations
  // (the explore grid's memoization), while any geometry edit — cores,
  // capacities — must not alias.
  const auto spec = AccessPatternSpec::single(
      GatherPattern{.table_bytes = 1u << 20, .elem_bytes = 8});
  const std::string base = SimCache::key(arch::knl(), spec, 1000, 42, 6);
  const auto bw = arch::derive_variant(arch::knl(), "dram-bw=1.5+tdp=0.85");
  EXPECT_EQ(base, SimCache::key(bw.cpu, spec, 1000, 42, 6));
  const auto fpu = arch::derive_variant(arch::knl(), "drop-fp64-vec");
  EXPECT_EQ(base, SimCache::key(fpu.cpu, spec, 1000, 42, 6));
  const auto cap = arch::derive_variant(arch::knl(), "mcdram-cap=2");
  EXPECT_NE(base, SimCache::key(cap.cpu, spec, 1000, 42, 6));
  const auto cores = arch::derive_variant(arch::knl(), "cores=1.25");
  EXPECT_NE(base, SimCache::key(cores.cpu, spec, 1000, 42, 6));
}

TEST(SimCacheTest, ConcurrentLookupsAreDeterministic) {
  // Many threads race the same small key set; every thread must see the
  // exact stats a serial simulation produces, and the cache must end up
  // with one entry per distinct key.
  SimCache cache;
  const auto specs = all_pattern_specs();
  std::vector<HierarchyResult> serial;
  serial.reserve(specs.size());
  for (const auto& s : specs) {
    serial.push_back(simulate_pattern(arch::knl(), s, 10'000, 9, 6));
  }
  std::vector<std::thread> threads;
  std::vector<int> bad(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
          const auto r = simulate_pattern_cached(&cache, arch::knl(),
                                                 specs[i], 10'000, 9, 6);
          for (std::size_t l = 0; l < r.levels.size(); ++l) {
            if (r.levels[l].stats.hits != serial[i].levels[l].stats.hits ||
                r.levels[l].stats.misses !=
                    serial[i].levels[l].stats.misses) {
              bad[static_cast<std::size_t>(t)] = 1;
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const int b : bad) EXPECT_EQ(b, 0);
  EXPECT_EQ(cache.size(), specs.size());
  // Single-flight: each distinct key is simulated exactly once, however
  // the threads interleave.
  const auto cs = cache.stats();
  EXPECT_EQ(cs.misses, specs.size());
  EXPECT_EQ(cs.hits, 8u * 3u * specs.size() - specs.size());
}

TEST(SimCacheTest, FailedComputeIsNotStored) {
  SimCache cache;
  const auto fail = []() -> HierarchyResult {
    throw std::runtime_error("bad trace");
  };
  EXPECT_THROW((void)cache.get_or_compute("k", fail), std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);
  const auto r = cache.get_or_compute("k", [] {
    HierarchyResult res;
    res.refs = 3;
    return res;
  });
  EXPECT_EQ(r->refs, 3u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SimCacheTest, UpperKeyIgnoresOnlyTheLastLevel) {
  const auto spec = AccessPatternSpec::single(
      GatherPattern{.table_bytes = 1u << 20, .elem_bytes = 8});
  const std::string base = SimCache::upper_key(arch::knl(), spec, 1000, 42, 6);
  const auto cap = arch::derive_variant(arch::knl(), "mcdram-cap=2");
  EXPECT_EQ(base, SimCache::upper_key(cap.cpu, spec, 1000, 42, 6));
  const auto cores = arch::derive_variant(arch::knl(), "cores=1.25");
  EXPECT_EQ(base, SimCache::upper_key(cores.cpu, spec, 1000, 42, 6));
  // Specs that scale to the same footprint feed the same stream.
  auto tiny = spec;
  std::get<GatherPattern>(tiny.components[0].pattern).table_bytes = 1000;
  auto tinier = tiny;
  std::get<GatherPattern>(tinier.components[0].pattern).table_bytes = 999;
  EXPECT_EQ(SimCache::upper_key(arch::knl(), tiny, 1000, 42, 6),
            SimCache::upper_key(arch::knl(), tinier, 1000, 42, 6));
  EXPECT_NE(base, SimCache::upper_key(arch::knl(), tiny, 1000, 42, 6));
  EXPECT_NE(base, SimCache::upper_key(arch::knl(), spec, 1001, 42, 6));
  EXPECT_NE(base, SimCache::upper_key(arch::knl(), spec, 1000, 43, 6));
  EXPECT_NE(base, SimCache::upper_key(arch::knl(), spec, 1000, 42, 7));
  EXPECT_NE(base, SimCache::upper_key(arch::bdw(), spec, 1000, 42, 6));
}

TEST(LastLevelStream, ReplayMatchesDirectAccess) {
  // Far-apart lines exercise every varint length and both delta signs;
  // the warm-up boundary falls inside a replay block.
  Xoshiro256 rng(5);
  std::vector<MemRef> refs(5000);
  for (auto& r : refs) {
    const std::uint64_t line =
        rng.below(4) == 0 ? rng.below(std::uint64_t{1} << 57) : rng.below(900);
    r = {.addr = line << kLineShift | rng.below(64),
         .write = rng.below(3) == 0};
  }
  constexpr std::size_t kWarmup = 1500;
  const CacheConfig cfg{.size_bytes = 48 * 64 * 8, .associativity = 8};
  Cache direct(cfg);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (i == kWarmup) direct.reset_stats();
    (void)direct.access(refs[i].addr, refs[i].write);
  }
  LastLevelStream stream;
  stream.append(refs.data(), 700);
  stream.append(refs.data() + 700, kWarmup - 700);
  stream.mark_warmup();
  stream.append(refs.data() + kWarmup, refs.size() - kWarmup);
  stream.shrink_to_fit();
  Cache replayed(cfg);
  stream.replay(replayed);
  EXPECT_EQ(replayed.stats().hits, direct.stats().hits);
  EXPECT_EQ(replayed.stats().misses, direct.stats().misses);
  EXPECT_EQ(replayed.stats().writebacks, direct.stats().writebacks);
  EXPECT_GT(direct.stats().writebacks, 0u);
}

/// `spec` with every footprint grown by 2^shift, so that
/// scale_spec(grown(spec, shift), shift) is `spec` again (above the
/// floors): the property suite replays footprints that overflow L2 and
/// straddle the last level's capacity.
AccessPatternSpec grown(const AccessPatternSpec& spec, unsigned shift) {
  AccessPatternSpec out = spec;
  for (auto& c : out.components) {
    std::visit(
        [&](auto& pat) {
          using T = std::decay_t<decltype(pat)>;
          if constexpr (std::is_same_v<T, StreamPattern>) {
            pat.bytes_per_array <<= shift;
          } else if constexpr (std::is_same_v<T, StridedPattern> ||
                               std::is_same_v<T, ChasePattern>) {
            pat.footprint_bytes <<= shift;
          } else if constexpr (std::is_same_v<T, StencilPattern>) {
            const unsigned per_dim = shift / 3;
            pat.nx <<= per_dim;
            pat.ny <<= per_dim;
            pat.nz <<= shift - 2 * per_dim;
          } else if constexpr (std::is_same_v<T, GatherPattern>) {
            pat.table_bytes <<= shift;
          } else if constexpr (std::is_same_v<T, BlockedPattern>) {
            pat.matrix_bytes <<= shift;
            pat.tile_bytes <<= shift;
          }
        },
        c.pattern);
  }
  return out;
}

// Property: a replay served from a stored last-level stream equals a
// direct replay in every level's hits, misses and writebacks, on every
// Table I machine and on the last-level variants the Pareto search
// makes. Each machine's rows share one cache in order, so the base row
// records the streams and every later row (same L1/L2, another last
// level) is served from them.
TEST(SimCacheTest, StreamReplayMatchesDirectReplay) {
  constexpr unsigned kShift = 12;
  // Not a multiple of the 1024-reference replay block: the warm-up
  // boundary falls mid-block.
  constexpr std::uint64_t kRefs = 12'345;
  const std::vector<std::string> variants = {
      "",          "mcdram-cap=2",           "mcdram-cap=2+mcdram-cap=2",
      "cores=0.9", "cores=0.9+mcdram-cap=2", "cores=1.25+mcdram-cap=2"};
  std::vector<AccessPatternSpec> specs;
  for (const auto& s : all_pattern_specs()) specs.push_back(grown(s, kShift));
  for (const auto& base : arch::all_machines()) {
    SimCache cache;
    for (const auto& spec_text : variants) {
      if (!base.has_mcdram() &&
          spec_text.find("mcdram") != std::string::npos) {
        continue;  // Phi-only transform
      }
      const arch::CpuSpec cpu = arch::derive_variant(base, spec_text).cpu;
      const std::string row = base.short_name + " '" + spec_text + "'";
      const auto before = cache.stats();
      std::uint64_t last_accesses = 0;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto want = simulate_pattern(cpu, specs[i], kRefs, 11, kShift);
        const auto got =
            simulate_pattern_cached(&cache, cpu, specs[i], kRefs, 11, kShift);
        ASSERT_EQ(got.refs, want.refs) << row;
        ASSERT_EQ(got.levels.size(), want.levels.size()) << row;
        for (std::size_t l = 0; l < want.levels.size(); ++l) {
          const auto& g = got.levels[l];
          const auto& w = want.levels[l];
          EXPECT_EQ(g.name, w.name) << row;
          EXPECT_EQ(g.stats.hits, w.stats.hits) << row << " spec " << i
                                                << " " << w.name;
          EXPECT_EQ(g.stats.misses, w.stats.misses) << row << " spec " << i
                                                    << " " << w.name;
          EXPECT_EQ(g.stats.writebacks, w.stats.writebacks)
              << row << " spec " << i << " " << w.name;
        }
        last_accesses += want.levels.back().stats.accesses();
      }
      EXPECT_GT(last_accesses, 0u) << row;  // the last level did work
      const auto after = cache.stats();
      EXPECT_EQ(after.misses - before.misses, specs.size()) << row;
      if (spec_text.empty()) {
        EXPECT_EQ(after.stream_replays, 0u) << row;
      } else {
        EXPECT_EQ(after.stream_replays - before.stream_replays, specs.size())
            << row;
      }
    }
  }
}

}  // namespace
}  // namespace fpr::memsim
