/// \file layout.hpp
/// \brief Block-data layout policy: how (var, i, j, k, block) maps to memory.
///
/// PARAMESH hard-codes the Fortran `unk(nvar, i, j, k, blk)` order —
/// variable fastest — and the paper's whole DTLB story follows from that
/// one decision ("there is a stride in memory for addressing variables in
/// different zones or blocks"). The follow-up studies (arXiv:2309.04652,
/// arXiv:2408.16084) treat data layout as the co-equal knob next to page
/// size. BlockLayout lifts the decision out of UnkContainer into an
/// explicit, runtime-selectable policy so layout x page-size is a
/// first-class experiment axis. The two layouts span that knob:
///
///   | kind       | order (fastest -> slowest)      | per-var plane        |
///   |------------|---------------------------------|----------------------|
///   | var_major  | v, i, j, k, b (Fortran baseline)| strided by nvar      |
///   | zone_major | i, j, k, v, b (block-local SoA) | contiguous           |
///
/// Invariants every layout must satisfy (enforced by test_layout.cpp):
///   * affine: offset = v*sv + i*si + j*sj + k*sk + b*block_stride, with
///     strides fixed at construction — at() is branch-free;
///   * bijection: offset() is a bijection from the (v,i,j,k,b) domain onto
///     [0, nvar*ni*nj*nk*maxblocks) — no holes, no aliasing;
///   * identical footprint: block_stride() == nvar*ni*nj*nk for all kinds,
///     so switching layouts never changes the arena size or page count;
///   * block locality: all data of block b lives in
///     [b*block_stride, (b+1)*block_stride) — AMR block allocation and
///     checkpoint ordering stay layout-independent.
///
/// Physics kernels address zones through UnkContainer::at(), which
/// delegates here, so the end state is bit-identical across layouts; only
/// the *address stream* changes. The tracer consumes layouts through
/// for_each_var_run(): the maximal contiguous runs covering a zone's
/// variable vector. Under var_major that is one nread*8-byte touch —
/// byte-for-byte the seed's trace, keeping golden counters bit-identical —
/// while zone_major decays to per-variable touches, so modeled DTLB
/// misses track the real access pattern of each layout.
///
/// Selection mirrors mem::HugePolicy — one resolution order, first hit
/// wins, applied once when an rt::Runtime is constructed: an explicit
/// RuntimeOptions::layout (which a non-empty "mesh.layout" runtime
/// parameter feeds), then the FLASHHP_LAYOUT environment variable, then
/// kVarMajor.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "support/contracts.hpp"

namespace fhp {
class RuntimeParams;
}  // namespace fhp

namespace fhp::mesh {

/// The memory-order policy for block solution data.
enum class LayoutKind : std::uint8_t {
  kVarMajor,   ///< Fortran unk(nvar,i,j,k,blk): variable fastest (baseline)
  kZoneMajor,  ///< block-local SoA: contiguous per-variable planes
};

/// Canonical lower-case spelling ("var_major", "zone_major").
[[nodiscard]] std::string_view to_string(LayoutKind kind) noexcept;

/// Parse a layout string (case-insensitive); nullopt if unrecognized.
[[nodiscard]] std::optional<LayoutKind> parse_layout(std::string_view s);

/// Environment variable honoured by layout_from_environment().
inline constexpr const char* kLayoutEnvVar = "FLASHHP_LAYOUT";

/// Resolution steps 2-3: FLASHHP_LAYOUT, then \p fallback. Throws
/// ConfigError on an unparsable value.
[[nodiscard]] LayoutKind layout_from_environment(
    LayoutKind fallback = LayoutKind::kVarMajor);

/// Name of the runtime parameter declared by declare_runtime_params().
inline constexpr const char* kLayoutParamName = "mesh.layout";

/// Declare "mesh.layout" (default "": defer to the environment).
void declare_runtime_params(RuntimeParams& params);

/// Resolution step 1 from a parameter file / command line: the parsed
/// "mesh.layout" when set non-empty (ConfigError on junk), else nullopt.
[[nodiscard]] std::optional<LayoutKind> layout_from_params(
    const RuntimeParams& params);

/// One block-data layout, instantiated for a concrete block shape: the
/// affine map offset = v*sv + i*si + j*sj + k*sk + b*block_stride with
/// strides precomputed per kind, so offset() on the at() hot path is one
/// dot product, with no branch and no virtual dispatch.
class BlockLayout {
 public:
  /// Build a layout for nvar variables on padded blocks of ni x nj x nk
  /// zones.
  BlockLayout(LayoutKind kind, int nvar, int ni, int nj, int nk);

  [[nodiscard]] LayoutKind kind() const noexcept { return kind_; }
  [[nodiscard]] int nvar() const noexcept { return nvar_; }
  [[nodiscard]] int ni() const noexcept { return ni_; }
  [[nodiscard]] int nj() const noexcept { return nj_; }
  [[nodiscard]] int nk() const noexcept { return nk_; }

  /// Doubles per block — nvar*ni*nj*nk for every kind (see invariants).
  [[nodiscard]] std::size_t block_stride() const noexcept {
    return block_stride_;
  }

  /// Flat offset of (v, i, j, k, b) in doubles from the arena base.
  [[nodiscard]] std::size_t offset(int v, int i, int j, int k,
                                   int b) const noexcept {
    return static_cast<std::size_t>(v) * sv_ +
           static_cast<std::size_t>(i) * si_ +
           static_cast<std::size_t>(j) * sj_ +
           static_cast<std::size_t>(k) * sk_ +
           static_cast<std::size_t>(b) * block_stride_;
  }

  /// Distance in doubles between a zone and its neighbour along \p axis
  /// (0=i, 1=j, 2=k) at fixed variable.
  [[nodiscard]] std::size_t zone_stride(int axis) const noexcept {
    FHP_PRECONDITION(axis >= 0 && axis <= 2, "axis must be 0, 1 or 2");
    return axis == 0 ? si_ : axis == 1 ? sj_ : sk_;
  }

  /// Distance in doubles between consecutive variables of one zone
  /// (1 for var_major, ni*nj*nk for zone_major).
  [[nodiscard]] std::size_t var_stride() const noexcept { return sv_; }

  /// True when a zone's variable vector [0, nvar) is contiguous in
  /// memory — the Fortran property FLASH kernels and the checkpoint
  /// format historically assumed (var_major).
  [[nodiscard]] bool vars_contiguous() const noexcept { return sv_ == 1; }

  /// Enumerate the maximal contiguous runs that cover variables
  /// [v0, v0+count) of zone (i,j,k,b), calling fn(offset, run_length) for
  /// each. var_major yields one run of `count` (byte-identical to the
  /// seed's contiguous touch); zone_major yields `count` runs of one
  /// double each. This is the tracer's window into the layout.
  template <typename Fn>
  void for_each_var_run(int v0, int count, int i, int j, int k, int b,
                        Fn&& fn) const {
    if (count <= 0) return;
    if (vars_contiguous()) {
      fn(offset(v0, i, j, k, b), count);
      return;
    }
    for (int v = v0; v < v0 + count; ++v) {
      fn(offset(v, i, j, k, b), 1);
    }
  }

  /// Copy variables [v0, v0+count) of zone (i,j,k,b) from \p base into
  /// \p out — the canonical (variable-fastest) zone vector, regardless of
  /// layout. Checkpoints and composition callbacks use this instead of
  /// assuming vars_contiguous().
  void gather_zone(const double* base, int v0, int count, int i, int j,
                   int k, int b, double* out) const noexcept {
    for (int v = 0; v < count; ++v) {
      out[v] = base[offset(v0 + v, i, j, k, b)];
    }
  }

  /// Inverse of gather_zone: scatter a canonical zone vector into place.
  void scatter_zone(double* base, int v0, int count, int i, int j, int k,
                    int b, const double* in) const noexcept {
    for (int v = 0; v < count; ++v) {
      base[offset(v0 + v, i, j, k, b)] = in[v];
    }
  }

 private:
  LayoutKind kind_;
  int nvar_, ni_, nj_, nk_;
  std::size_t block_stride_;
  // Strides (doubles), fixed per kind at construction.
  std::size_t sv_ = 0, si_ = 0, sj_ = 0, sk_ = 0;
};

}  // namespace fhp::mesh
