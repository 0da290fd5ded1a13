/// \file allocator.hpp
/// \brief HugeBuffer: a typed array carved from a PagePool.
///
/// The big arrays (unk, the EOS table) are allocated once at setup and
/// freed together at teardown — the FLASH pattern — so each is one pool
/// allocation rather than a container growing through an allocator.

#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <type_traits>

#include "mem/page_pool.hpp"
#include "support/error.hpp"

namespace fhp::mem {

/// A fixed-size typed buffer carved from a PagePool as a single
/// allocation — used for the really big arrays (unk, the EOS table) where
/// we want to know, per buffer, exactly what page regime backs it and
/// what tier and page size the pool decided for it.
template <typename T>
class HugeBuffer {
 public:
  HugeBuffer() = default;

  /// Allocate room for \p count elements under \p policy (value-initialized)
  /// from \p pool (usually `runtime.page_pool()`).
  HugeBuffer(std::size_t count, HugePolicy policy, PagePool& pool)
      : alloc_([&] {
          FHP_REQUIRE(
              count <= std::numeric_limits<std::size_t>::max() / sizeof(T),
              "HugeBuffer byte count overflows size_t");
          return pool.alloc(count * sizeof(T), policy);
        }()),
        count_(count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "HugeBuffer requires trivially destructible elements");
    // mmap memory is zero-filled; for trivial T that is value-initialized.
  }

  [[nodiscard]] T* data() noexcept { return static_cast<T*>(alloc_.data()); }
  [[nodiscard]] const T* data() const noexcept {
    return static_cast<const T*>(alloc_.data());
  }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  T& operator[](std::size_t i) noexcept { return data()[i]; }
  const T& operator[](std::size_t i) const noexcept { return data()[i]; }

  [[nodiscard]] std::span<T> span() noexcept { return {data(), count_}; }
  [[nodiscard]] std::span<const T> span() const noexcept {
    return {data(), count_};
  }

  /// The region backing this buffer (for verification/reporting).
  [[nodiscard]] const MappedRegion& region() const noexcept {
    return alloc_.region();
  }

  /// The pool allocation (region + pool decision) backing the buffer.
  [[nodiscard]] const PoolAllocation& allocation() const noexcept {
    return alloc_;
  }

 private:
  PoolAllocation alloc_;
  std::size_t count_ = 0;
};

}  // namespace fhp::mem
