/// \file huge_policy.hpp
/// \brief The page-size policy knob: none | thp | hugetlbfs.
///
/// This is the library's analog of the Fujitsu runtime's
/// XOS_MMM_L_HPAGE_TYPE environment variable (values none / hugetlbfs, with
/// thp additionally accepted on Fugaku/FX700 per the paper §III): one
/// setting flips every large allocation in the process between page
/// regimes with no source changes.
///
/// There is exactly ONE resolution order, applied once when an
/// rt::Runtime is constructed, and every entry point (environment,
/// runtime-parameter files, explicit options) feeds into it. First hit
/// wins:
///
///   1. an explicit RuntimeOptions::policy — including the one a
///      parameter file / command line sets with a non-empty
///      "mem.hpage_type" (see policy_from_params),
///   2. the FLASHHP_HPAGE_TYPE environment variable,
///   3. the XOS_MMM_L_HPAGE_TYPE environment variable (drop-in
///      compatibility with the Fujitsu runtime),
///   4. the caller-supplied fallback (kNone for a Runtime).
///
/// The result is Runtime::huge_policy(), and it is what reaches the
/// arrays: the examples, the bench arms and the service's tenants hand
/// their setups the policy of the runtime they are built on, so unk and
/// the EOS table are mapped under it. (The paper's GNU/Cray builds never
/// got huge pages because their request never reached the arrays.)
///
/// An unparsable value at any stage throws fhp::ConfigError rather than
/// silently running on base pages — silent misconfiguration was exactly
/// the failure mode the paper spent a section debugging.

#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace fhp {
class RuntimeParams;
}  // namespace fhp

namespace fhp::mem {

/// How large allocations should be backed.
enum class HugePolicy {
  kNone,       ///< base pages only; THP explicitly disabled via MADV_NOHUGEPAGE
  kThp,        ///< anonymous mmap + madvise(MADV_HUGEPAGE) (transparent HPs)
  kHugetlbfs,  ///< explicit MAP_HUGETLB reservations, fall back to THP
};

/// Canonical lower-case spelling ("none", "thp", "hugetlbfs").
[[nodiscard]] std::string_view to_string(HugePolicy policy) noexcept;

/// Parse a policy string (case-insensitive); nullopt if unrecognized.
[[nodiscard]] std::optional<HugePolicy> parse_huge_policy(std::string_view s);

/// Environment variable names honoured by policy_from_environment().
inline constexpr const char* kPolicyEnvVar = "FLASHHP_HPAGE_TYPE";
inline constexpr const char* kFujitsuPolicyEnvVar = "XOS_MMM_L_HPAGE_TYPE";

/// Steps 2-4 of the resolution order (see file comment): the environment
/// variables in precedence order, then \p fallback. Throws ConfigError on
/// an unparsable value.
[[nodiscard]] HugePolicy policy_from_environment(
    HugePolicy fallback = HugePolicy::kNone);

/// Name of the runtime parameter declared by declare_runtime_params().
inline constexpr const char* kPolicyParamName = "mem.hpage_type";

/// Declare "mem.hpage_type" (default "": defer to the environment) so
/// parameter files and --mem.hpage_type=... share the one resolution
/// order instead of growing a second, subtly different one.
void declare_runtime_params(RuntimeParams& params);

/// Step 1 from a parameter file / command line: the parsed
/// "mem.hpage_type" when set non-empty (ConfigError on junk), else
/// nullopt. The page-pool parameter is read separately, by
/// pool_config_from_params().
[[nodiscard]] std::optional<HugePolicy> policy_from_params(
    const RuntimeParams& params);

}  // namespace fhp::mem
