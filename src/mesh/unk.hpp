/// \file unk.hpp
/// \brief The `unk` container: FLASH's principal mesh data array.
///
/// PARAMESH stores solution data as
///
///   unk(nvar, il_bnd:iu_bnd, jl_bnd:ju_bnd, kl_bnd:ku_bnd, maxblocks)
///
/// in Fortran column-major order: the *variable* index is the fastest
/// axis and the block index the slowest. Reading one variable across a
/// block therefore strides by nvar doubles between zones — the memory
/// pattern the paper identifies as the motivation for huge pages
/// ("there is a stride in memory for addressing variables in different
/// zones or blocks"). UnkContainer is carved from a mem::PagePool under
/// the experiment's HugePolicy; the index -> address map, and the block
/// extents with it, belong to a BlockLayout policy (layout.hpp): an affine
/// map with strides fixed at construction, so at() is branch-free, and the
/// Fortran order (LayoutKind::kVarMajor) as the bit-for-bit default.

#pragma once

#include <cstddef>
#include <cstdint>

#include "mem/allocator.hpp"
#include "mem/huge_policy.hpp"
#include "mem/page_size.hpp"
#include "mesh/config.hpp"
#include "mesh/layout.hpp"
#include "support/contracts.hpp"
#include "tlb/geometry.hpp"
#include "tlb/trace.hpp"

namespace fhp::mesh {

/// The solution array. Indices: (var, i, j, k, block); the memory order
/// is whatever the active BlockLayout says.
class UnkContainer {
 public:
  /// \param layout_kind the block-data layout; runtime callers pass
  ///        `runtime.layout()` (the snapshot of the resolution order).
  /// \param pool the PagePool the solution array is carved from. Both are
  ///        always explicit — the container has no process defaults.
  UnkContainer(const MeshConfig& config, mem::HugePolicy policy,
               LayoutKind layout_kind, mem::PagePool& pool)
      : layout_(layout_kind, config.nvar(), config.ni(), config.nj(),
                config.nk()),
        maxblocks_(config.maxblocks),
        data_(layout_.block_stride() * static_cast<std::size_t>(maxblocks_),
              policy, pool),
        // Until refresh_page_shift() scans smaps, model with the kernel's
        // base page: 4 KiB on x86, but 64 KiB ARM kernels exist and the
        // paper's A64FX platform runs them.
        page_shift_(tlb::page_shift_of(mem::base_page_size())) {}

  /// Flat offset of (v, i, j, k, b) under the active layout.
  [[nodiscard]] std::size_t offset(int v, int i, int j, int k,
                                   int b) const noexcept {
    return layout_.offset(v, i, j, k, b);
  }

  [[nodiscard]] double& at(int v, int i, int j, int k, int b) noexcept {
    return data_[layout_.offset(v, i, j, k, b)];
  }
  [[nodiscard]] double at(int v, int i, int j, int k, int b) const noexcept {
    return data_[layout_.offset(v, i, j, k, b)];
  }
  /// Address of one element. Note: only under a vars_contiguous() layout
  /// may the result be read past element v; use gather_zone()/
  /// zone_span() for whole-zone vectors.
  [[nodiscard]] const double* ptr(int v, int i, int j, int k,
                                  int b) const noexcept {
    return data_.data() + layout_.offset(v, i, j, k, b);
  }

  [[nodiscard]] const BlockLayout& layout() const noexcept { return layout_; }
  [[nodiscard]] LayoutKind layout_kind() const noexcept {
    return layout_.kind();
  }

  [[nodiscard]] int nvar() const noexcept { return layout_.nvar(); }
  [[nodiscard]] int ni() const noexcept { return layout_.ni(); }
  [[nodiscard]] int nj() const noexcept { return layout_.nj(); }
  [[nodiscard]] int nk() const noexcept { return layout_.nk(); }
  [[nodiscard]] int maxblocks() const noexcept { return maxblocks_; }
  [[nodiscard]] std::size_t block_stride() const noexcept {
    return layout_.block_stride();
  }
  [[nodiscard]] std::size_t bytes() const noexcept {
    return data_.size() * sizeof(double);
  }

  /// Canonical (variable-fastest) copy of variables [v0, v0+count) of one
  /// zone — layout-independent; see BlockLayout::gather_zone.
  void gather_zone(int v0, int count, int i, int j, int k, int b,
                   double* out) const noexcept {
    layout_.gather_zone(data_.data(), v0, count, i, j, k, b, out);
  }
  /// Scatter a canonical zone vector back into the active layout.
  void scatter_zone(int v0, int count, int i, int j, int k, int b,
                    const double* in) noexcept {
    layout_.scatter_zone(data_.data(), v0, count, i, j, k, b, in);
  }

  /// A read-only view of variables [v0, v0+count) of one zone as a
  /// contiguous vector: the in-place pointer when the layout already
  /// stores them contiguously (var_major), else a gather into
  /// \p scratch (caller-provided, >= count doubles, typically per-lane).
  [[nodiscard]] const double* zone_span(int v0, int count, int i, int j,
                                        int k, int b,
                                        double* scratch) const noexcept {
    if (layout_.vars_contiguous()) return ptr(v0, i, j, k, b);
    layout_.gather_zone(data_.data(), v0, count, i, j, k, b, scratch);
    return scratch;
  }

  /// Backing region (for huge-page verification and tracing).
  [[nodiscard]] const mem::MappedRegion& region() const noexcept {
    return data_.region();
  }

  /// Cache the effective translation page size (scans smaps once); call
  /// after the container is resident, before tracing.
  void refresh_page_shift() {
    page_shift_ = tlb::effective_page_shift(region());
  }
  [[nodiscard]] std::uint8_t page_shift() const noexcept { return page_shift_; }

  /// Replay the address stream of a kernel sweep over block \p b that
  /// reads \p nread variables and writes \p nwrite variables zone by zone
  /// in the interior range [ilo,ihi) x [jlo,jhi) x [klo,khi). The zone's
  /// variable vector is touched as the maximal contiguous runs the active
  /// layout provides: one nread*8-byte touch under var_major (FLASH
  /// kernels read unk(:, i, j, k) vectors — the canonical strided pattern
  /// of the paper), per-variable touches under zone_major.
  void trace_sweep(tlb::Tracer& tracer, int b, int ilo, int ihi, int jlo,
                   int jhi, int klo, int khi, int nread, int nwrite) const {
    trace_sweep_axis(tracer, b, 0, ilo, ihi, jlo, jhi, klo, khi, nread,
                     nwrite);
  }

  /// Like trace_sweep, but visits zones in *pencil order along \p axis* —
  /// the order the dimensionally split hydro gathers its pencils. For
  /// var_major on axis 1 (y) consecutive zones are nvar*ni doubles apart
  /// and on axis 2 (z) nvar*ni*nj doubles apart: a 3-d pencil touches a
  /// fresh 4 KiB page on nearly every zone, which is the stride pattern
  /// the paper blames for FLASH's DTLB behaviour.
  void trace_sweep_axis(tlb::Tracer& tracer, int b, int axis, int ilo,
                        int ihi, int jlo, int jhi, int klo, int khi,
                        int nread, int nwrite) const {
    trace_sweep_axis(tracer, b, axis, ilo, ihi, jlo, jhi, klo, khi, nread,
                     nwrite, page_shift_);
  }

  /// trace_sweep_axis with an explicit translation page shift — the
  /// what-if hook the page-size ablation uses to model one address stream
  /// under several page regimes without remapping the arena.
  void trace_sweep_axis(tlb::Tracer& tracer, int b, int axis, int ilo,
                        int ihi, int jlo, int jhi, int klo, int khi,
                        int nread, int nwrite,
                        std::uint8_t page_shift) const {
    if (!tracer.enabled()) return;
    check_sweep_range(b, axis, ilo, ihi, jlo, jhi, klo, khi, nread, nwrite);
    const int lo[3] = {ilo, jlo, klo};
    const int hi[3] = {ihi, jhi, khi};
    // outer/mid/inner loop axes; `axis` is innermost (the pencil).
    const int inner = axis;
    const int mid = axis == 0 ? 1 : 0;
    const int outer = axis == 2 ? 1 : 2;
    // Replayed at the fixed synthetic base so the modeled counters do
    // not depend on where the kernel mapped this container's storage
    // (see tlb::synthetic_scratch); offsets are the real layout's.
    const auto* base = static_cast<const double*>(
        tlb::synthetic_scratch(tlb::kUnkTraceSlot));
    int idx[3];
    for (idx[outer] = lo[outer]; idx[outer] < hi[outer]; ++idx[outer]) {
      for (idx[mid] = lo[mid]; idx[mid] < hi[mid]; ++idx[mid]) {
        for (idx[inner] = lo[inner]; idx[inner] < hi[inner]; ++idx[inner]) {
          layout_.for_each_var_run(
              0, nread, idx[0], idx[1], idx[2], b,
              [&](std::size_t off, int run) {
                tracer.touch(base + off,
                             sizeof(double) * static_cast<std::size_t>(run),
                             false, page_shift);
              });
          layout_.for_each_var_run(
              0, nwrite, idx[0], idx[1], idx[2], b,
              [&](std::size_t off, int run) {
                tracer.touch(base + off,
                             sizeof(double) * static_cast<std::size_t>(run),
                             true, page_shift);
              });
        }
      }
    }
  }

  /// Replay a *single-variable* sweep over block \p b: every zone of
  /// variable \p v in i-fastest order, at an explicit page shift. This is
  /// the layout half of the paper's diagnosis in one call: under
  /// var_major the zone-to-zone stride is nvar doubles so the sweep walks
  /// the block's whole nvar-wide footprint, while under zone_major the
  /// plane is contiguous and the 4 KiB page count drops ~nvar-fold.
  void trace_sweep_var(tlb::Tracer& tracer, int b, int v, int ilo, int ihi,
                       int jlo, int jhi, int klo, int khi, bool write,
                       std::uint8_t page_shift) const {
    if (!tracer.enabled()) return;
    check_sweep_range(b, 0, ilo, ihi, jlo, jhi, klo, khi, 1, 0);
    FHP_PRECONDITION(v >= 0 && v < nvar(), "variable index out of range");
    const auto* base = static_cast<const double*>(
        tlb::synthetic_scratch(tlb::kUnkTraceSlot));
    for (int k = klo; k < khi; ++k) {
      for (int j = jlo; j < jhi; ++j) {
        for (int i = ilo; i < ihi; ++i) {
          tracer.touch(base + layout_.offset(v, i, j, k, b), sizeof(double),
                       write, page_shift);
        }
      }
    }
  }

 private:
  void check_sweep_range(int b, int axis, int ilo, int ihi, int jlo, int jhi,
                         int klo, int khi, int nread, int nwrite) const {
    FHP_PRECONDITION(axis >= 0 && axis <= 2, "sweep axis must be 0, 1 or 2");
    FHP_PRECONDITION(b >= 0 && b < maxblocks_, "block index out of range");
    FHP_PRECONDITION(0 <= ilo && ilo <= ihi && ihi <= ni() &&
                         0 <= jlo && jlo <= jhi && jhi <= nj() &&
                         0 <= klo && klo <= khi && khi <= nk(),
                     "sweep range exceeds block extent");
    FHP_PRECONDITION(nread >= 0 && nread <= nvar() && nwrite >= 0 &&
                         nwrite <= nvar(),
                     "cannot touch more variables than the mesh carries");
    // Mapped-range containment: the sweep's last zone — at the layout's
    // highest variable address — must lie inside the backing region
    // (catches stride/layout bugs before they scribble).
    FHP_ASSERT(ihi == ilo || jhi == jlo || khi == klo ||
                   region().contains(
                       ptr(nvar() - 1, ihi - 1, jhi - 1, khi - 1, b),
                       sizeof(double)),
               "sweep extends past the mapped unk region");
  }

  BlockLayout layout_;
  int maxblocks_;
  mem::HugeBuffer<double> data_;
  std::uint8_t page_shift_;
};

}  // namespace fhp::mesh
