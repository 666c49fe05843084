// Context-scoped counter sink: where every observable count lands. An
// ExecutionContext owns one CounterSink
// with a padded tally slot per worker it can field; instrumented code
// routed into the sink (via ScopedCounting) accumulates into its own
// slot with no atomics on the hot path, and a snapshot sums the slots in
// fixed order. Two contexts therefore never share mutable counter state:
// concurrent kernel runs cannot cross-contaminate each other's assays.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "counters/op_tally.hpp"
#include "counters/registry.hpp"

namespace fpr::counters {

class CounterSink {
 public:
  /// One slot per worker that may count into this sink (worker 0 is the
  /// orchestrating thread).
  explicit CounterSink(unsigned slots);

  [[nodiscard]] unsigned slots() const {
    return static_cast<unsigned>(slots_.size());
  }
  [[nodiscard]] OpTally& slot(unsigned i) { return slots_[i].tally; }
  [[nodiscard]] const OpTally& slot(unsigned i) const {
    return slots_[i].tally;
  }

  /// Sum of all slots, in fixed slot order. Only meaningful while the
  /// sink is quiescent (no in-flight parallel region) — AssayRecorder
  /// enforces that before snapshotting.
  [[nodiscard]] OpTally snapshot() const;

  /// Zero every slot. Only call while quiescent.
  void reset();

  // -- Parallel-region bookkeeping -----------------------------------
  // ExecutionContext brackets every parallel region with enter/exit so
  // assays can refuse to snapshot while worker threads may still be
  // counting (the mid-run hazard that used to be only a comment).
  void enter_region() { regions_.fetch_add(1, std::memory_order_relaxed); }
  void exit_region() { regions_.fetch_sub(1, std::memory_order_relaxed); }
  [[nodiscard]] bool quiescent() const {
    return regions_.load(std::memory_order_relaxed) == 0;
  }

 private:
  // Padded to a cache line so concurrent workers never false-share.
  struct alignas(64) Slot {
    OpTally tally;
  };
  std::vector<Slot> slots_;
  std::atomic<int> regions_{0};
};

/// RAII: route the calling thread's counting (add_fp64 & co, counted<T>)
/// into `sink` slot `slot` for the current scope, restoring the previous
/// binding — the unread scratch tally or an outer sink — on exit.
class ScopedCounting {
 public:
  ScopedCounting(CounterSink& sink, unsigned slot)
      : prev_tally_(detail::active_tally) {
    detail::active_tally = &sink.slot(slot);
  }
  ~ScopedCounting() { detail::active_tally = prev_tally_; }
  ScopedCounting(const ScopedCounting&) = delete;
  ScopedCounting& operator=(const ScopedCounting&) = delete;

 private:
  OpTally* prev_tally_;
};

}  // namespace fpr::counters
