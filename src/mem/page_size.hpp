/// \file page_size.hpp
/// \brief Page-size discovery: base pages, THP PMD size, hugetlb pools.
///
/// The paper's Ookami nodes were booted with `hugepagesz=2M hugepagesz=512M
/// default_hugepagesz=2M`; at run time the available sizes appear under
/// /sys/kernel/mm/hugepages/hugepages-<N>kB. This header exposes that
/// discovery (with injectable sysfs roots so tests can use fixtures).

#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace fhp::mem {

/// Common page sizes, for convenience and for the TLB model configs.
inline constexpr std::size_t kPage4K = 4ull << 10;
inline constexpr std::size_t kPage64K = 64ull << 10;
inline constexpr std::size_t kPage2M = 2ull << 20;
inline constexpr std::size_t kPage512M = 512ull << 20;
inline constexpr std::size_t kPage1G = 1ull << 30;

/// The base (small) page size of the running kernel, from sysconf.
[[nodiscard]] std::size_t base_page_size() noexcept;

/// The THP PMD size (bytes) — what an anonymous THP mapping is promoted
/// to — from /sys/kernel/mm/transparent_hugepage/hpage_pmd_size.
/// Returns nullopt if THP is not built into the kernel.
[[nodiscard]] std::optional<std::size_t> thp_pmd_size(
    const std::string& sysfs_root = "/sys/kernel/mm/transparent_hugepage");

/// State of one hugetlb pool (one page size).
struct HugetlbPool {
  std::size_t page_bytes = 0;       ///< pool page size in bytes
  std::size_t nr_hugepages = 0;     ///< total pages configured
  std::size_t free_hugepages = 0;   ///< currently free
  std::size_t resv_hugepages = 0;   ///< reserved
  std::size_t surplus_hugepages = 0;///< overcommitted
};

/// Enumerate hugetlb pools from /sys/kernel/mm/hugepages (sorted by size).
/// An empty result means no hugetlb support or no pools configured.
[[nodiscard]] std::vector<HugetlbPool> hugetlb_pools(
    const std::string& sysfs_root = "/sys/kernel/mm/hugepages");

/// Parse a "hugepages-2048kB" style directory name to a byte size.
[[nodiscard]] std::optional<std::size_t> parse_hugepages_dirname(
    const std::string& name);

/// The one page-size rule for a hugetlb request of \p bytes: the index in
/// \p pools (sorted by page size, as hugetlb_pools() returns them) of the
/// largest page <= bytes whose pool has enough available pages to cover
/// the request (so a 40 MiB request does not burn a 1 GiB page), else of
/// the smallest pool that can cover it; nullopt when no pool can. A pool's
/// available pages are free_hugepages - resv_hugepages (0 if negative):
/// reserved pages are still free but promised to mappings that have not
/// faulted them in yet, and a new MAP_HUGETLB cannot reserve them.
/// PagePool::plan() decides every hugetlbfs page size with it.
[[nodiscard]] std::optional<std::size_t> pick_hugetlb_pool(
    const std::vector<HugetlbPool>& pools, std::size_t bytes) noexcept;

/// Round \p bytes up to a multiple of \p page (page must be a power of two).
[[nodiscard]] constexpr std::size_t round_up(std::size_t bytes,
                                             std::size_t page) noexcept {
  return (bytes + page - 1) & ~(page - 1);
}

/// Pages of \p page bytes needed to cover \p bytes.
[[nodiscard]] constexpr std::size_t pages_to_cover(std::size_t bytes,
                                                   std::size_t page) noexcept {
  return round_up(bytes, page) / page;
}

/// True if \p v is a nonzero power of two.
[[nodiscard]] constexpr bool is_pow2(std::size_t v) noexcept {
  return v != 0 && (v & (v - 1)) == 0;
}

/// log2 of a power of two (used for MAP_HUGE_SHIFT encoding).
[[nodiscard]] constexpr unsigned log2_pow2(std::size_t v) noexcept {
  unsigned n = 0;
  while (v > 1) {
    v >>= 1;
    ++n;
  }
  return n;
}

}  // namespace fhp::mem
