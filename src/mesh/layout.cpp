#include "mesh/layout.hpp"

#include <cstdlib>
#include <string>

#include "support/error.hpp"
#include "support/runtime_params.hpp"
#include "support/string_util.hpp"

namespace fhp::mesh {

namespace {
/// Every valid layout, as the errors and the parameter help spell it.
constexpr std::string_view kLayoutChoices = "var_major|zone_major";

[[noreturn]] void throw_bad_layout(std::string_view source,
                                   std::string_view value) {
  throw ConfigError(std::string(source) + "='" + std::string(value) +
                    "' is not a valid block layout (expected " +
                    std::string(kLayoutChoices) + ")");
}
}  // namespace

std::string_view to_string(LayoutKind kind) noexcept {
  switch (kind) {
    case LayoutKind::kVarMajor: return "var_major";
    case LayoutKind::kZoneMajor: return "zone_major";
  }
  return "?";
}

std::optional<LayoutKind> parse_layout(std::string_view s) {
  const std::string v = to_lower(trim(s));
  if (v == "var_major" || v == "varmajor" || v == "fortran" || v == "aos") {
    return LayoutKind::kVarMajor;
  }
  if (v == "zone_major" || v == "zonemajor" || v == "soa") {
    return LayoutKind::kZoneMajor;
  }
  return std::nullopt;
}

LayoutKind layout_from_environment(LayoutKind fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- read once at mesh setup,
  // before any worker threads exist; nothing in-process calls setenv.
  if (const char* raw = std::getenv(kLayoutEnvVar);
      raw != nullptr && *raw != '\0') {
    const auto parsed = parse_layout(raw);
    if (!parsed) throw_bad_layout(kLayoutEnvVar, raw);
    return *parsed;
  }
  return fallback;
}

void declare_runtime_params(RuntimeParams& params) {
  params.declare_string(kLayoutParamName, "",
                        "block-data layout (" + std::string(kLayoutChoices) +
                            "; empty: resolve from " +
                            std::string(kLayoutEnvVar) + ")");
}

std::optional<LayoutKind> layout_from_params(const RuntimeParams& params) {
  const std::string value = params.get_string(kLayoutParamName);
  if (value.empty()) return std::nullopt;
  const auto parsed = parse_layout(value);
  if (!parsed) throw_bad_layout(kLayoutParamName, value);
  return parsed;
}

BlockLayout::BlockLayout(LayoutKind kind, int nvar, int ni, int nj, int nk)
    : kind_(kind),
      nvar_(nvar),
      ni_(ni),
      nj_(nj),
      nk_(nk),
      block_stride_(static_cast<std::size_t>(nvar) *
                    static_cast<std::size_t>(ni) *
                    static_cast<std::size_t>(nj) *
                    static_cast<std::size_t>(nk)) {
  FHP_PRECONDITION(nvar > 0 && ni > 0 && nj > 0 && nk > 0,
                   "layout extents must be positive");
  const auto niz = static_cast<std::size_t>(ni);
  const auto njz = static_cast<std::size_t>(nj);
  const auto nkz = static_cast<std::size_t>(nk);
  switch (kind_) {
    case LayoutKind::kVarMajor:
      // Fortran unk(nvar, i, j, k): variable fastest — bit-for-bit the
      // historical UnkContainer::offset math.
      sv_ = 1;
      si_ = static_cast<std::size_t>(nvar);
      sj_ = si_ * niz;
      sk_ = sj_ * njz;
      break;
    case LayoutKind::kZoneMajor:
      // Block-local SoA: each variable is one contiguous ni*nj*nk plane,
      // planes stacked per block so block data stays contiguous for AMR.
      si_ = 1;
      sj_ = niz;
      sk_ = niz * njz;
      sv_ = niz * njz * nkz;
      break;
  }
}

}  // namespace fhp::mesh
