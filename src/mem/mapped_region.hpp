/// \file mapped_region.hpp
/// \brief RAII anonymous memory mappings with a huge-page policy.
///
/// A MappedRegion is the unit of backing storage in flashhp. Depending on
/// the requested HugePolicy it tries, in order:
///
///   kHugetlbfs:  mmap(MAP_ANONYMOUS|MAP_HUGETLB|MAP_HUGE_<size>) at the
///                page size the request names (PagePool::plan() decides
///                it from the kernel's pools); if the kernel refuses, the
///                THP path, then base pages.
///   kThp:        mmap(MAP_ANONYMOUS) aligned to the THP PMD size, then
///                madvise(MADV_HUGEPAGE).
///   kNone:       mmap(MAP_ANONYMOUS) + madvise(MADV_NOHUGEPAGE), so the
///                "without huge pages" experiment arm stays honest even on
///                systems where THP is set to `always`.
///
/// The backing that actually succeeded is recorded and queryable — the
/// paper's core methodological point is that you must *verify* huge pages
/// are in use, not assume it.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "mem/huge_policy.hpp"

namespace fhp::mem {

/// What a MappedRegion ended up being backed by.
enum class Backing {
  kSmallPages,  ///< base 4 KiB pages (THP forbidden)
  kThp,         ///< anonymous pages eligible for THP promotion
  kHugetlbfs,   ///< explicit hugetlb reservation
};

[[nodiscard]] std::string_view to_string(Backing backing) noexcept;

/// Request parameters for a mapping.
struct MapRequest {
  std::size_t bytes = 0;             ///< required capacity (rounded up)
  HugePolicy policy = HugePolicy::kNone;
  /// The hugetlb page size a kHugetlbfs request maps with (a power of
  /// two; the other policies ignore it). MappedRegion does not read the
  /// pools: the caller decides the size, as PagePool::plan() does.
  std::size_t hugetlb_page = 0;
  /// Touch every page after mapping so the experiment measures steady-state
  /// access, not first-touch faults (and so THP promotion has happened —
  /// with MADV_HUGEPAGE the kernel allocates huge pages at fault time).
  bool prefault = true;
};

/// An owning anonymous mapping. Move-only.
class MappedRegion {
 public:
  MappedRegion() = default;

  /// Map per \p request. Throws fhp::SystemError only if even the base-page
  /// path fails; hugetlb/THP failures fall back silently but are recorded.
  explicit MappedRegion(const MapRequest& request);

  ~MappedRegion();
  MappedRegion(MappedRegion&& other) noexcept;
  MappedRegion& operator=(MappedRegion&& other) noexcept;
  MappedRegion(const MappedRegion&) = delete;
  MappedRegion& operator=(const MappedRegion&) = delete;

  [[nodiscard]] void* data() const noexcept { return addr_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool valid() const noexcept { return addr_ != nullptr; }

  /// The page regime that actually backs this region.
  [[nodiscard]] Backing backing() const noexcept { return backing_; }

  /// The page size of the backing (hugetlb pool size, THP PMD size, or the
  /// base page size). For kThp this is the *eligible* promotion size; use
  /// resident_huge_bytes() to see how much was actually promoted.
  [[nodiscard]] std::size_t page_bytes() const noexcept { return page_bytes_; }

  /// The policy that was requested (may differ from what was obtained).
  [[nodiscard]] HugePolicy requested_policy() const noexcept {
    return requested_;
  }

  /// Bytes of this region currently resident on huge pages, per
  /// /proc/self/smaps. Zero for kSmallPages regions (by construction).
  [[nodiscard]] std::uint64_t resident_huge_bytes() const;

  /// True if [ptr, ptr + bytes) lies entirely inside this mapping — the
  /// mapped-range-containment contract checked at the mesh boundaries.
  [[nodiscard]] bool contains(const void* ptr,
                              std::size_t bytes) const noexcept {
    const auto p = reinterpret_cast<std::uintptr_t>(ptr);
    const auto base = reinterpret_cast<std::uintptr_t>(addr_);
    return addr_ != nullptr && p >= base && bytes <= size_ &&
           p - base <= size_ - bytes;
  }

  /// Touch every page (write one byte per page) to force population.
  void prefault() noexcept;

  /// Release the mapping early (idempotent).
  void reset() noexcept;

  /// One-line description: "2.0 MiB hugetlbfs(2.0 MiB pages) @0x...".
  [[nodiscard]] std::string describe() const;

 private:
  void* addr_ = nullptr;
  std::size_t size_ = 0;
  std::size_t page_bytes_ = 0;
  Backing backing_ = Backing::kSmallPages;
  HugePolicy requested_ = HugePolicy::kNone;
};

}  // namespace fhp::mem
