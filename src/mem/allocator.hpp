/// \file allocator.hpp
/// \brief STL-compatible allocator over an Arena, plus HugeBuffer.
///
/// HugeAllocator lets standard containers (std::vector, std::map, ...)
/// live on huge-page-backed memory:
///
///   fhp::mem::Arena arena(runtime.page_pool(), fhp::mem::HugePolicy::kThp);
///   std::vector<double, fhp::mem::HugeAllocator<double>> v{
///       fhp::mem::HugeAllocator<double>(arena)};
///
/// Because the arena is monotonic, deallocate() is a no-op: the memory is
/// reclaimed when the arena is released. That is the FLASH pattern —
/// allocate the mesh once, run, tear everything down together.

#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <type_traits>

#include "mem/arena.hpp"
#include "mem/page_pool.hpp"
#include "support/error.hpp"

namespace fhp::mem {

/// C++17/20 allocator over an Arena (non-owning reference).
template <typename T>
class HugeAllocator {
 public:
  using value_type = T;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using propagate_on_container_move_assignment = std::true_type;
  using is_always_equal = std::false_type;

  /// Bind to an arena (non-owning; the arena must outlive the allocator).
  explicit HugeAllocator(Arena& arena) noexcept
      : arena_(&arena) {}

  template <typename U>
  HugeAllocator(const HugeAllocator<U>& other) noexcept
      : arena_(&other.arena()) {}

  [[nodiscard]] T* allocate(size_type n) {
    FHP_REQUIRE(n <= std::numeric_limits<size_type>::max() / sizeof(T),
                "allocator byte count overflows size_t");
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }

  void deallocate(T* p, size_type n) noexcept {
    arena_->deallocate(p, n * sizeof(T));
  }

  [[nodiscard]] Arena& arena() const noexcept { return *arena_; }

  template <typename U>
  [[nodiscard]] bool operator==(const HugeAllocator<U>& other) const noexcept {
    return arena_ == &other.arena();
  }

 private:
  Arena* arena_;
};

/// A fixed-size typed buffer carved from a PagePool as a single
/// allocation — used for the really big arrays (unk, the EOS table) where
/// we want to know, per buffer, exactly what page regime backs it and
/// what the pool decided about its placement.
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

  /// The pool allocation (region + placement decision) backing the buffer.
  [[nodiscard]] const PoolAllocation& allocation() const noexcept {
    return alloc_;
  }

 private:
  PoolAllocation alloc_;
  std::size_t count_ = 0;
};

}  // namespace fhp::mem
