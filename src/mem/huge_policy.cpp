#include "mem/huge_policy.hpp"

#include <cstdlib>

#include "mem/page_pool.hpp"
#include "support/error.hpp"
#include "support/runtime_params.hpp"
#include "support/string_util.hpp"

namespace fhp::mem {

std::string_view to_string(HugePolicy policy) noexcept {
  switch (policy) {
    case HugePolicy::kNone: return "none";
    case HugePolicy::kThp: return "thp";
    case HugePolicy::kHugetlbfs: return "hugetlbfs";
  }
  return "?";
}

std::optional<HugePolicy> parse_huge_policy(std::string_view s) {
  const std::string v = to_lower(trim(s));
  if (v == "none" || v == "off" || v == "small") return HugePolicy::kNone;
  if (v == "thp" || v == "transparent") return HugePolicy::kThp;
  if (v == "hugetlbfs" || v == "hugetlb" || v == "explicit") {
    return HugePolicy::kHugetlbfs;
  }
  return std::nullopt;
}

HugePolicy policy_from_environment(HugePolicy fallback) {
  for (const char* var : {kPolicyEnvVar, kFujitsuPolicyEnvVar}) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe) -- read once when the page
    // policy is chosen at startup, single-threaded; nothing calls setenv.
    if (const char* raw = std::getenv(var); raw != nullptr && *raw != '\0') {
      const auto parsed = parse_huge_policy(raw);
      if (!parsed) {
        throw ConfigError(std::string(var) + "='" + raw +
                          "' is not a valid page policy "
                          "(expected none|thp|hugetlbfs)");
      }
      return *parsed;
    }
  }
  return fallback;
}

void declare_runtime_params(RuntimeParams& params) {
  params.declare_string(kPolicyParamName, "",
                        "huge-page policy (none|thp|hugetlbfs; empty: "
                        "resolve from " +
                            std::string(kPolicyEnvVar) + " / " +
                            kFujitsuPolicyEnvVar + ")");
  declare_page_pool_params(params);
}

std::optional<HugePolicy> policy_from_params(const RuntimeParams& params) {
  const std::string value = params.get_string(kPolicyParamName);
  if (value.empty()) return std::nullopt;
  const auto parsed = parse_huge_policy(value);
  if (!parsed) {
    throw ConfigError(std::string(kPolicyParamName) + "='" + value +
                      "' is not a valid page policy "
                      "(expected none|thp|hugetlbfs)");
  }
  return parsed;
}

}  // namespace fhp::mem
