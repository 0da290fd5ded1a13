#include "mem/page_size.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "support/string_util.hpp"

namespace fhp::mem {

namespace fs = std::filesystem;

namespace {
std::optional<std::size_t> read_size_file(const fs::path& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  long long v = -1;
  in >> v;
  if (!in || v < 0) return std::nullopt;
  return static_cast<std::size_t>(v);
}
}  // namespace

std::size_t base_page_size() noexcept {
  const long v = ::sysconf(_SC_PAGESIZE);
  return v > 0 ? static_cast<std::size_t>(v) : kPage4K;
}

std::optional<std::size_t> thp_pmd_size(const std::string& sysfs_root) {
  return read_size_file(fs::path(sysfs_root) / "hpage_pmd_size");
}

std::optional<std::size_t> parse_hugepages_dirname(const std::string& name) {
  static constexpr std::string_view kPrefix = "hugepages-";
  static constexpr std::string_view kSuffix = "kB";
  if (!starts_with(name, kPrefix)) return std::nullopt;
  std::string_view middle = std::string_view(name).substr(kPrefix.size());
  if (middle.size() <= kSuffix.size() ||
      middle.substr(middle.size() - kSuffix.size()) != kSuffix) {
    return std::nullopt;
  }
  middle.remove_suffix(kSuffix.size());
  const auto kb = parse_int(middle);
  if (!kb || *kb <= 0) return std::nullopt;
  return static_cast<std::size_t>(*kb) << 10;
}

std::vector<HugetlbPool> hugetlb_pools(const std::string& sysfs_root) {
  std::vector<HugetlbPool> pools;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(sysfs_root, ec)) {
    const auto size = parse_hugepages_dirname(entry.path().filename().string());
    if (!size) continue;
    HugetlbPool pool;
    pool.page_bytes = *size;
    pool.nr_hugepages = read_size_file(entry.path() / "nr_hugepages").value_or(0);
    pool.free_hugepages =
        read_size_file(entry.path() / "free_hugepages").value_or(0);
    pool.resv_hugepages =
        read_size_file(entry.path() / "resv_hugepages").value_or(0);
    pool.surplus_hugepages =
        read_size_file(entry.path() / "surplus_hugepages").value_or(0);
    pools.push_back(pool);
  }
  std::sort(pools.begin(), pools.end(),
            [](const HugetlbPool& a, const HugetlbPool& b) {
              return a.page_bytes < b.page_bytes;
            });
  return pools;
}

std::optional<std::size_t> pick_hugetlb_pool(
    const std::vector<HugetlbPool>& pools, std::size_t bytes) noexcept {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < pools.size(); ++i) {
    const HugetlbPool& p = pools[i];
    if (p.free_hugepages < pages_to_cover(bytes, p.page_bytes)) continue;
    if (!best || p.page_bytes <= bytes) best = i;
  }
  return best;
}

}  // namespace fhp::mem
