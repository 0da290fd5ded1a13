#include "mem/thp.hpp"

#include <sys/mman.h>

#include <fstream>

#include "support/string_util.hpp"

namespace fhp::mem {

std::string_view to_string(ThpMode mode) noexcept {
  switch (mode) {
    case ThpMode::kAlways: return "always";
    case ThpMode::kMadvise: return "madvise";
    case ThpMode::kNever: return "never";
    case ThpMode::kUnknown: return "unknown";
  }
  return "?";
}

ThpMode parse_thp_enabled(std::string_view contents) noexcept {
  const size_t open = contents.find('[');
  const size_t close = contents.find(']');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close <= open + 1) {
    return ThpMode::kUnknown;
  }
  const std::string_view active = contents.substr(open + 1, close - open - 1);
  if (active == "always") return ThpMode::kAlways;
  if (active == "madvise") return ThpMode::kMadvise;
  if (active == "never") return ThpMode::kNever;
  return ThpMode::kUnknown;
}

ThpMode system_thp_mode(const std::string& sysfs_root) {
  std::ifstream in(sysfs_root + "/enabled");
  if (!in) return ThpMode::kUnknown;
  std::string line;
  std::getline(in, line);
  return parse_thp_enabled(line);
}

bool thp_available(const std::string& sysfs_root) {
  const ThpMode mode = system_thp_mode(sysfs_root);
  return mode == ThpMode::kAlways || mode == ThpMode::kMadvise;
}

bool advise_huge(void* addr, std::size_t len) noexcept {
  return ::madvise(addr, len, MADV_HUGEPAGE) == 0;
}

bool advise_no_huge(void* addr, std::size_t len) noexcept {
  return ::madvise(addr, len, MADV_NOHUGEPAGE) == 0;
}

}  // namespace fhp::mem
