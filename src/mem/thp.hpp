/// \file thp.hpp
/// \brief Transparent-huge-page introspection and per-mapping control.
///
/// The paper toggles the system policy by writing
/// /sys/kernel/mm/transparent_hugepage/enabled ("[always] madvise never").
/// flashhp reads that policy, and controls THP *per mapping* with
/// madvise(MADV_HUGEPAGE / MADV_NOHUGEPAGE) — which works under both the
/// `always` and `madvise` system settings and needs no privileges.

#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace fhp::mem {

/// System-wide THP mode from the sysfs `enabled` file.
enum class ThpMode { kAlways, kMadvise, kNever, kUnknown };

[[nodiscard]] std::string_view to_string(ThpMode mode) noexcept;

/// Parse the bracketed sysfs format, e.g. "always [madvise] never".
[[nodiscard]] ThpMode parse_thp_enabled(std::string_view contents) noexcept;

/// Read the system THP mode; kUnknown if the file is absent (no THP).
[[nodiscard]] ThpMode system_thp_mode(
    const std::string& sysfs_root = "/sys/kernel/mm/transparent_hugepage");

/// True if anonymous THP can be obtained by this process (mode is
/// `always` or `madvise`).
[[nodiscard]] bool thp_available(
    const std::string& sysfs_root = "/sys/kernel/mm/transparent_hugepage");

/// madvise(MADV_HUGEPAGE) on [addr, addr+len). Returns false (with errno
/// preserved) if the kernel rejects the hint; throws nothing.
bool advise_huge(void* addr, std::size_t len) noexcept;

/// madvise(MADV_NOHUGEPAGE): forbid THP for the range. This is how the
/// "without huge pages" arm of the experiment is made honest even when the
/// system policy is `always`.
bool advise_no_huge(void* addr, std::size_t len) noexcept;

}  // namespace fhp::mem
