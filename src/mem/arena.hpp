/// \file arena.hpp
/// \brief Monotonic arena over huge-page-backed mapped regions.
///
/// FLASH's mesh data (`unk` and friends) is allocated once at startup and
/// lives for the whole run — a monotonic arena is the right shape. The
/// arena grows in large chunks (default 64 MiB) carved from a PagePool
/// under the arena's HugePolicy, so one policy switch moves every
/// simulation array between page regimes, exactly like the Fujitsu
/// runtime does for FLASH — and the pool's placement policy and
/// degradation accounting apply to every chunk.
///
/// Thread-safety: allocation takes an internal mutex (cheap; the hot paths
/// of the simulation never allocate).

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "mem/huge_policy.hpp"
#include "mem/mapped_region.hpp"
#include "mem/page_pool.hpp"
#include "support/contracts.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace fhp::mem {

/// Aggregate statistics for an Arena.
struct ArenaStats {
  std::size_t bytes_requested = 0;  ///< sum of allocation sizes
  std::size_t bytes_reserved = 0;   ///< sum of chunk sizes mapped
  std::size_t chunk_count = 0;
  std::size_t allocation_count = 0;
  std::size_t hugetlb_chunks = 0;   ///< chunks that got explicit hugetlb
  std::size_t thp_chunks = 0;       ///< chunks that are THP-eligible
  std::size_t small_chunks = 0;     ///< chunks on base pages
  std::size_t remote_chunks = 0;    ///< chunks placed on a non-local node
};

/// Monotonic allocator with pluggable page policy.
class Arena {
 public:
  /// \param pool the PagePool chunks are carved from (constructing an
  ///        Arena does not force pool initialization; the first chunk
  ///        does). Must outlive the arena.
  /// \param policy page regime for all chunks.
  /// \param chunk_bytes growth quantum; individual allocations larger than
  ///        this get a dedicated chunk of their own size.
  Arena(PagePool& pool, HugePolicy policy,
        std::size_t chunk_bytes = 64ull << 20);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocate \p bytes with \p alignment (power of two, <= chunk size).
  /// Never returns nullptr; throws fhp::SystemError on exhaustion.
  void* allocate(std::size_t bytes, std::size_t alignment = 64);

  /// Typed convenience: allocate a zero-initialized array of \p count T.
  /// Throws fhp::ConfigError if count * sizeof(T) overflows std::size_t
  /// (which would otherwise silently allocate a tiny wrapped-around
  /// buffer). This check is always on, independent of FLASHHP_CONTRACTS.
  template <typename T>
  T* allocate_array(std::size_t count) {
    FHP_REQUIRE(count <= std::numeric_limits<std::size_t>::max() / sizeof(T),
                "allocate_array byte count overflows size_t");
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T) > 64
                                                           ? alignof(T)
                                                           : 64));
  }

  /// Monotonic arenas do not free individual allocations; deallocate is a
  /// no-op provided for allocator-interface compatibility.
  void deallocate(void* /*ptr*/, std::size_t /*bytes*/) noexcept {}

  /// Drop every chunk (invalidates all outstanding allocations).
  void release() noexcept;

  [[nodiscard]] HugePolicy policy() const noexcept { return policy_; }
  [[nodiscard]] ArenaStats stats() const;

  /// Bytes of arena memory currently resident on huge pages (per smaps).
  [[nodiscard]] std::uint64_t resident_huge_bytes() const;

  /// Multi-line report of chunks and backing, for run logs.
  [[nodiscard]] std::string report() const;

 private:
  void add_chunk(std::size_t min_bytes) FHP_REQUIRES(mutex_);

  mutable Mutex mutex_;
  HugePolicy policy_;       // set in the constructor, immutable afterwards
  std::size_t chunk_bytes_; // set in the constructor, immutable afterwards
  PagePool& pool_;
  std::vector<PoolAllocation> chunks_ FHP_GUARDED_BY(mutex_);
  /// next free byte in the last chunk
  std::byte* cursor_ FHP_GUARDED_BY(mutex_) = nullptr;
  std::byte* chunk_end_ FHP_GUARDED_BY(mutex_) = nullptr;
  ArenaStats stats_ FHP_GUARDED_BY(mutex_);
};

}  // namespace fhp::mem
