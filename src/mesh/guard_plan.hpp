/// \file guard_plan.hpp
/// \brief Guard plans: fill only the guard faces a reader reads.
///
/// A directional sweep reads the two face slabs along its own axis,
/// inside the transverse interior; the flame, the Löhner estimator and
/// prolongation read the ±1 face zones along each axis. Nothing reads an
/// edge or corner guard zone, or the guards of a non-leaf block. A
/// GuardPlan lists exactly what one reader must fill, the cut PARAMESH's
/// `amr_guardcell` makes with its `idir`/`idiag` arguments:
///
///   - **Leaf faces.** Every leaf gets the reader's face mask (the sweep
///     axis's two faces, or every face for the flame stage and
///     fill_guardcells()).
///   - **Closure at fine–coarse faces.** A planned face filled from a
///     coarser block reads that cover's interior plus its *face* guards
///     (fill_from_coarse's stencil offsets one axis at a time, so never an
///     edge or a corner). The cover — always a leaf under 2:1 balance —
///     therefore gets every face planned too, recursively down the levels.
///   - **Restriction.** Only the parents some planned face copies from are
///     restricted, each after its non-leaf descendants. A uniform mesh
///     restricts nothing and fills no parent.
///
/// Every face slab is written by exactly one operation (a same-level
/// copy, a coarse interpolation or a physical boundary) from the same
/// inputs in every plan, so each zone a reader reads holds the same bits
/// whichever plan filled it. Edges, corners and non-leaf guards are left
/// as they were. The all-faces plan is AmrMesh::fill_guardcells(), the
/// fill of remesh and of the bulk per-unit path; the per-stage plans'
/// source lists are the dependency edges of sim::StepGraph.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "mesh/tree.hpp"

namespace fhp::mesh {

/// Guard faces of one block: bit `2 * axis + side` (side 0 = low).
using FaceMask = std::uint8_t;

[[nodiscard]] constexpr FaceMask face_bit(int axis, int side) noexcept {
  return static_cast<FaceMask>(1u << (2 * axis + side));
}
/// Both faces along \p axis (a directional sweep's mask).
[[nodiscard]] constexpr FaceMask axis_faces(int axis) noexcept {
  return static_cast<FaceMask>(3u << (2 * axis));
}
/// Every face of an \p ndim-dimensional block (the flame stage's mask).
[[nodiscard]] constexpr FaceMask all_faces(int ndim) noexcept {
  return static_cast<FaceMask>((1u << (2 * ndim)) - 1u);
}
/// The unit step across face (\p axis, \p side).
[[nodiscard]] constexpr std::array<int, 3> face_step(int axis,
                                                     int side) noexcept {
  std::array<int, 3> step{0, 0, 0};
  step[static_cast<std::size_t>(axis)] = side == 0 ? -1 : 1;
  return step;
}

/// One block's planned fill.
struct GuardFill {
  int block = -1;     ///< a leaf
  FaceMask faces = 0;  ///< the faces fill_block_faces writes
  /// Other leaves whose interiors these faces read: same-level sources
  /// and coarse covers. Their stage tasks overwrite those interiors, so
  /// each one anti-depends on this fill.
  std::vector<int> reads;
  /// The subset of `reads` whose face guards coarse interpolation reads
  /// too: their fills must complete first.
  std::vector<int> covers;
};

/// What one reader fills.
struct GuardPlan {
  /// Parents to restrict, finest first: exactly those some planned face
  /// copies from, closed under their non-leaf descendants, so that each
  /// one ends up holding the restriction of current leaf data.
  std::vector<int> restricts;
  /// Planned fills, coarse to fine (every cover precedes its readers).
  std::vector<GuardFill> fills;
  /// Guard zones the fills write, per variable.
  std::int64_t guard_zones = 0;
};

/// Compile the plan that gives every leaf of \p tree the faces in
/// \p leaf_faces (plus the closure above). Setup-time: allocates.
/// Throws if the tree breaks 2:1 balance at a planned face.
[[nodiscard]] GuardPlan plan_guards(const BlockTree& tree,
                                    FaceMask leaf_faces);

}  // namespace fhp::mesh
