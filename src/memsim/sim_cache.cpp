#include "memsim/sim_cache.hpp"

#include <cstdio>
#include <type_traits>
#include <vector>

namespace fpr::memsim {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
  out += ';';
}

void append_f(std::string& out, double v) {
  // Shortest exact round-trip is overkill for a digest; 17 significant
  // digits distinguish any two distinct doubles.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g;", v);
  out += buf;
}

void append_pattern(std::string& out, const Pattern& p) {
  out += pattern_name(p);
  out += '{';
  std::visit(
      [&](const auto& pat) {
        using T = std::decay_t<decltype(pat)>;
        if constexpr (std::is_same_v<T, StreamPattern>) {
          append_u64(out, pat.bytes_per_array);
          append_u64(out, static_cast<std::uint64_t>(pat.arrays));
          append_u64(out, static_cast<std::uint64_t>(pat.writes_per_iter));
        } else if constexpr (std::is_same_v<T, StridedPattern>) {
          append_u64(out, pat.footprint_bytes);
          append_u64(out, pat.stride_bytes);
        } else if constexpr (std::is_same_v<T, StencilPattern>) {
          append_u64(out, pat.nx);
          append_u64(out, pat.ny);
          append_u64(out, pat.nz);
          append_u64(out, pat.elem_bytes);
          append_u64(out, static_cast<std::uint64_t>(pat.radius));
          append_u64(out, pat.full_box ? 1 : 0);
        } else if constexpr (std::is_same_v<T, GatherPattern>) {
          append_u64(out, pat.table_bytes);
          append_u64(out, pat.elem_bytes);
          append_f(out, pat.sequential_fraction);
          append_u64(out, pat.shared_table ? 1 : 0);
        } else if constexpr (std::is_same_v<T, ChasePattern>) {
          append_u64(out, pat.footprint_bytes);
          append_u64(out, pat.node_bytes);
        } else if constexpr (std::is_same_v<T, BlockedPattern>) {
          append_u64(out, pat.matrix_bytes);
          append_u64(out, pat.tile_bytes);
          append_f(out, pat.tile_reuse);
        }
      },
      p);
  out += '}';
}

/// Machine part shared by key() and trace_key(): exactly the fields
/// Hierarchy's geometry derives from, and nothing else. The short name
/// is deliberately absent: a replay is a pure function of the geometry,
/// so derived machine variants (arch::derive_variant) that leave the
/// cache hierarchy untouched — bandwidth, TDP, or FPU respins — share
/// their base machine's simulations, while any geometry edit (cores,
/// capacities, associativities) changes the key and cannot alias old
/// results.
void append_geometry(std::string& k, const arch::CpuSpec& cpu) {
  append_u64(k, static_cast<std::uint64_t>(cpu.cores));
  append_u64(k, static_cast<std::uint64_t>(cpu.l1_kib));
  append_u64(k, static_cast<std::uint64_t>(cpu.l1_assoc));
  append_u64(k, static_cast<std::uint64_t>(cpu.l2_kib_per_core));
  append_u64(k, static_cast<std::uint64_t>(cpu.l2_assoc));
  append_u64(k, static_cast<std::uint64_t>(cpu.llc_assoc));
  append_f(k, cpu.llc_mib);
  append_f(k, cpu.mcdram_gib);
}

/// SimCache::upper_key over an already derived geometry and scaled
/// spec. The scale shift needs no field of its own: it reaches the
/// replay only through the levels and the scaled spec.
std::string upper_key_of(const std::vector<LevelGeometry>& levels,
                         const AccessPatternSpec& scaled, std::uint64_t refs,
                         std::uint64_t seed) {
  std::string k;
  k.reserve(160);
  for (std::size_t i = 0; i + 1 < levels.size(); ++i) {
    append_u64(k, levels[i].config.size_bytes);
    append_u64(k, levels[i].config.associativity);
  }
  k += '|';
  append_u64(k, refs);
  append_u64(k, seed);
  k += '|';
  for (const auto& c : scaled.components) {
    append_pattern(k, c.pattern);
    append_f(k, c.weight);
  }
  return k;
}

}  // namespace

std::string SimCache::key(const arch::CpuSpec& cpu,
                          const AccessPatternSpec& spec, std::uint64_t refs,
                          std::uint64_t seed, unsigned scale_shift) {
  std::string k;
  k.reserve(160);
  append_geometry(k, cpu);
  // Simulation part.
  k += '|';
  append_u64(k, refs);
  append_u64(k, seed);
  append_u64(k, scale_shift);
  k += '|';
  for (const auto& c : spec.components) {
    append_pattern(k, c.pattern);
    append_f(k, c.weight);
  }
  return k;
}

std::string SimCache::upper_key(const arch::CpuSpec& cpu,
                                const AccessPatternSpec& spec,
                                std::uint64_t refs, std::uint64_t seed,
                                unsigned scale_shift) {
  return upper_key_of(hierarchy_levels(cpu, scale_shift),
                      scale_spec(spec, scale_shift), refs, seed);
}

std::string SimCache::trace_key(const arch::CpuSpec& cpu,
                                std::uint64_t digest, std::uint64_t refs,
                                std::uint64_t warmup, unsigned scale_shift) {
  std::string k;
  k.reserve(120);
  append_geometry(k, cpu);
  // Trace part. The leading tag keeps this section disjoint from key()'s
  // (whose post-geometry section starts with a digit), so a file replay
  // can never alias a synthetic one.
  k += "|trace-digest;";
  append_u64(k, digest);
  append_u64(k, refs);
  append_u64(k, warmup);
  append_u64(k, scale_shift);
  return k;
}

template <typename V, typename Compute>
std::shared_ptr<const V> SimCache::single_flight(Entries<V>& entries,
                                                 const std::string& key,
                                                 const Compute& compute,
                                                 std::uint64_t* hits,
                                                 std::uint64_t* misses) {
  std::promise<std::shared_ptr<const V>> promise;
  std::unique_lock lock(mu_);
  if (const auto it = entries.find(key); it != entries.end()) {
    if (hits != nullptr) ++*hits;
    const auto value = it->second;
    lock.unlock();  // the owner takes the lock to publish or erase
    return value.get();
  }
  if (misses != nullptr) ++*misses;
  entries.emplace(key, promise.get_future().share());
  lock.unlock();
  try {
    auto value = std::make_shared<const V>(compute());
    promise.set_value(value);
    return value;
  } catch (...) {
    // Waiters see the exception; later callers compute afresh.
    promise.set_exception(std::current_exception());
    lock.lock();
    entries.erase(key);
    throw;
  }
}

std::shared_ptr<const HierarchyResult> SimCache::get_or_compute(
    const std::string& key, const std::function<HierarchyResult()>& compute) {
  return single_flight(entries_, key, compute, &stats_.hits, &stats_.misses);
}

std::shared_ptr<const HierarchyResult> SimCache::insert(
    const std::string& key, HierarchyResult result) {
  std::promise<std::shared_ptr<const HierarchyResult>> promise;
  promise.set_value(std::make_shared<const HierarchyResult>(std::move(result)));
  std::shared_future<std::shared_ptr<const HierarchyResult>> value;
  {
    std::lock_guard lock(mu_);
    value = entries_.try_emplace(key, promise.get_future().share())
                .first->second;
  }
  return value.get();
}

SimCache::Stats SimCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::size_t SimCache::size() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

HierarchyResult simulate_pattern_cached(SimCache* cache,
                                        const arch::CpuSpec& cpu,
                                        const AccessPatternSpec& spec,
                                        std::uint64_t refs, std::uint64_t seed,
                                        unsigned scale_shift) {
  if (cache == nullptr) {
    return simulate_pattern(cpu, spec, refs, seed, scale_shift);
  }
  return *cache->get_or_compute(
      SimCache::key(cpu, spec, refs, seed, scale_shift), [&] {
        const auto levels = hierarchy_levels(cpu, scale_shift);
        bool recorded = false;
        const auto upper = cache->single_flight(
            cache->uppers_,
            upper_key_of(levels, scale_spec(spec, scale_shift), refs, seed),
            [&] {
              recorded = true;
              SimCache::Upper u;
              u.result = simulate_pattern(cpu, spec, refs, seed, scale_shift,
                                          &u.stream);
              std::lock_guard lock(cache->mu_);
              cache->stats_.stream_bytes += u.stream.bytes();
              return u;
            },
            &cache->stats_.stream_replays, nullptr);
        if (recorded) return upper->result;
        // Same stream, different last level: walk only that level.
        Cache last(levels.back().config);
        upper->stream.replay(last);
        HierarchyResult r = upper->result;
        r.levels.back() = {levels.back().name, last.stats()};
        return r;
      });
}

}  // namespace fpr::memsim
