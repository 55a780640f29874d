// Per-thread heap-allocation counters fed by this benchmark's replacement
// global operator new (alloc_count.cpp).  The counters only grow; callers
// difference two snapshots taken on the same thread around the code they
// attribute, so concurrent scenarios never see each other's allocations.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  std::uint64_t count = 0;  ///< Calls to operator new / new[].
  std::uint64_t bytes = 0;  ///< Bytes requested by those calls.

  AllocCounts operator-(const AllocCounts& o) const noexcept {
    return {count - o.count, bytes - o.bytes};
  }
  AllocCounts& operator+=(const AllocCounts& o) noexcept {
    count += o.count;
    bytes += o.bytes;
    return *this;
  }
};

/// Allocations made so far by the calling thread.  Over-aligned
/// allocations (operator new with std::align_val_t) are not counted.
[[nodiscard]] AllocCounts thread_allocs() noexcept;

}  // namespace perfbench
