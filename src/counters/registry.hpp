// Counting entry points for instrumented kernel code, routed through an
// active-context pointer: while a thread executes inside an
// ExecutionContext (bound via counters::ScopedCounting), every count
// lands in that context's CounterSink slot, giving each kernel run its
// own isolated tallies. Counting on a thread with no bound sink goes to
// a thread-local scratch tally that nothing reads: a count only becomes
// observable through a sink.
#pragma once

#include <cstdint>

#include "counters/op_tally.hpp"

namespace fpr::counters {

namespace detail {
// The calling thread's current routing: a context sink slot when bound,
// null when counting into the scratch tally. Constant-initialized so
// access compiles to a plain TLS load with no guard.
inline constinit thread_local OpTally* active_tally = nullptr;
inline constinit thread_local OpTally scratch_tally{};
}  // namespace detail

/// The tally the calling thread currently accumulates into: its bound
/// context slot, or the unread scratch tally outside any context.
/// Cheap; hot kernel loops should still hoist the reference out.
inline OpTally& current_tally() {
  OpTally* t = detail::active_tally;
  return t != nullptr ? *t : detail::scratch_tally;
}

// -- Inline counting helpers (the instrumentation API kernels use) -------

inline void add_fp64(std::uint64_t n) { current_tally().fp64 += n; }
inline void add_fp32(std::uint64_t n) { current_tally().fp32 += n; }
inline void add_int(std::uint64_t n) { current_tally().int_ops += n; }
inline void add_branch(std::uint64_t n) { current_tally().branches += n; }
inline void add_read_bytes(std::uint64_t n) {
  current_tally().bytes_read += n;
}
inline void add_write_bytes(std::uint64_t n) {
  current_tally().bytes_written += n;
}

/// Count a canonical "stream" loop touching n elements of size elem:
/// r reads + w writes per element plus the given FP ops per element.
inline void add_streamed(std::uint64_t n, std::uint64_t elem_bytes,
                         std::uint64_t reads_per, std::uint64_t writes_per) {
  OpTally& t = current_tally();
  t.bytes_read += n * elem_bytes * reads_per;
  t.bytes_written += n * elem_bytes * writes_per;
}

}  // namespace fpr::counters
