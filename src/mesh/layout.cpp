#include "mesh/layout.hpp"

#include <cstdlib>
#include <string>

#include "support/error.hpp"
#include "support/runtime_params.hpp"
#include "support/string_util.hpp"

namespace fhp::mesh {

std::string_view to_string(LayoutKind kind) noexcept {
  switch (kind) {
    case LayoutKind::kVarMajor: return "var_major";
    case LayoutKind::kZoneMajor: return "zone_major";
    case LayoutKind::kTiled: return "tiled";
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
  if (v == "tiled" || v == "tile") return LayoutKind::kTiled;
  return std::nullopt;
}

LayoutKind layout_from_environment(LayoutKind fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- read once at mesh setup,
  // before any worker threads exist; nothing in-process calls setenv.
  if (const char* raw = std::getenv(kLayoutEnvVar);
      raw != nullptr && *raw != '\0') {
    const auto parsed = parse_layout(raw);
    if (!parsed) {
      throw ConfigError(std::string(kLayoutEnvVar) + "='" + raw +
                        "' is not a valid block layout "
                        "(expected var_major|zone_major|tiled)");
    }
    return *parsed;
  }
  return fallback;
}

void declare_runtime_params(RuntimeParams& params) {
  params.declare_string(kLayoutParamName, "",
                        "block-data layout (var_major|zone_major|tiled; "
                        "empty: resolve from " +
                            std::string(kLayoutEnvVar) + ")");
}

std::optional<LayoutKind> layout_from_params(const RuntimeParams& params) {
  const std::string value = params.get_string(kLayoutParamName);
  if (value.empty()) return std::nullopt;
  const auto parsed = parse_layout(value);
  if (!parsed) {
    throw ConfigError(std::string(kLayoutParamName) + "='" + value +
                      "' is not a valid block layout "
                      "(expected var_major|zone_major|tiled)");
  }
  return parsed;
}

namespace {
/// Largest edge from {8, 4, 2, 1} dividing the padded extent \p n, so
/// tiles always partition the block exactly (no padding, no straddling).
int tile_edge(int n) {
  for (int e : {8, 4, 2}) {
    if (n % e == 0) return e;
  }
  return 1;
}
}  // namespace

BlockLayout::BlockLayout(LayoutKind kind, int nvar, int ni, int nj, int nk)
    : kind_(kind),
      nvar_(nvar),
      ni_(ni),
      nj_(nj),
      nk_(nk),
      block_stride_(static_cast<std::size_t>(nvar) * ni * nj * nk) {
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
    case LayoutKind::kTiled:
      ti_ = tile_edge(ni);
      tj_ = tile_edge(nj);
      tk_ = tile_edge(nk);
      ntx_ = ni / ti_;
      nty_ = nj / tj_;
      tile_cells_ = static_cast<std::size_t>(ti_) * tj_ * tk_;
      break;
  }
}

}  // namespace fhp::mesh
