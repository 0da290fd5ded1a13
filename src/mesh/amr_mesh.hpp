/// \file amr_mesh.hpp
/// \brief The adaptive mesh: solution data + tree + mesh operations.
///
/// AmrMesh combines the `unk` container and the block tree and implements
/// the PARAMESH operations FLASH relies on:
///   - guard-cell filling (same-level exchange, coarse-to-fine
///     interpolation, physical boundary conditions) of the leaf faces a
///     GuardPlan (guard_plan.hpp) lists: every face of every leaf for
///     fill_guardcells(), a stage's faces in the step graph. Edge and
///     corner guard zones and non-leaf blocks are never filled, because
///     nothing reads them;
///   - restriction (children -> parents, volume-weighted) of the parents
///     a plan copies from;
///   - prolongation on refinement (minmod-limited linear, conservative);
///   - a Löhner (1987) error estimator and a remesh driver that enforces
///     2:1 balance, as FLASH's Grid_updateRefinement does.
///
/// Geometry: Cartesian (2-d/3-d) and 2-d cylindrical (r, z) — the
/// supernova setup's geometry — via cell-volume and face-area methods the
/// hydro unit uses for its finite-volume update.

#pragma once

#include <array>
#include <span>
#include <vector>

#include "mem/huge_policy.hpp"
#include "mesh/config.hpp"
#include "mesh/guard_plan.hpp"
#include "mesh/tree.hpp"
#include "mesh/unk.hpp"
#include "support/lane.hpp"

namespace fhp::par {
class ExecArena;
}  // namespace fhp::par

namespace fhp::mesh {

/// The mesh. Construction allocates `unk` (maxblocks capacity) on the
/// given huge-page policy and block layout and creates the root blocks.
class AmrMesh {
 public:
  /// \param pool the PagePool `unk` is carved from (runtime callers pass
  ///        `runtime.page_pool()`).
  /// \param arena the execution arena block-parallel mesh operations
  ///        (and the physics kernels iterating this mesh) run on
  ///        (runtime callers pass `runtime.arena()`, so concurrent
  ///        meshes never share a region guard). Must outlive the mesh.
  AmrMesh(const MeshConfig& config, mem::HugePolicy policy,
          LayoutKind layout, mem::PagePool& pool, par::ExecArena& arena);

  /// The arena this mesh's block-parallel sweeps run on.
  [[nodiscard]] par::ExecArena& arena() const noexcept { return arena_; }

  [[nodiscard]] const MeshConfig& config() const noexcept { return config_; }
  [[nodiscard]] UnkContainer& unk() noexcept { return unk_; }
  [[nodiscard]] const UnkContainer& unk() const noexcept { return unk_; }
  [[nodiscard]] BlockTree& tree() noexcept { return tree_; }
  [[nodiscard]] const BlockTree& tree() const noexcept { return tree_; }

  // --- coordinates -------------------------------------------------------
  /// Cell width of block \p b along \p axis.
  [[nodiscard]] double dx(int b, int axis) const {
    return tree_.cell_size(tree_.info(b).level, axis);
  }
  /// Cell-center coordinate (padded index i includes guards).
  [[nodiscard]] double xcenter(int b, int i) const;
  [[nodiscard]] double ycenter(int b, int j) const;
  [[nodiscard]] double zcenter(int b, int k) const;
  /// Coordinate of the *low* face of cell i along x (r in cylindrical).
  [[nodiscard]] double xface(int b, int i) const;

  /// Cell volume (cylindrical: 2-pi-integrated torus volume).
  [[nodiscard]] double cell_volume(int b, int i, int j, int k) const;
  /// Area of the low face of cell (i,j,k) perpendicular to \p axis.
  [[nodiscard]] double face_area(int b, int axis, int i, int j, int k) const;

  // --- mesh operations ---------------------------------------------------
  /// Fill every guard face of every leaf: run the all-faces GuardPlan
  /// (restrict the parents it lists, then its fills level by level, each
  /// level block-parallel on this mesh's arena). Remesh and the bulk
  /// per-unit path (HydroSolver::step) call it before they read guard
  /// zones; the driver's step graph runs each stage's own plan instead.
  /// Setup-time: compiling the plan allocates.
  void fill_guardcells();

  /// Fill the guard faces in \p faces of leaf \p b. Same-level copies
  /// read the neighbor's interior, coarse interpolation reads the cover's
  /// interior and face guards, and the physical boundary of each planned
  /// axis reads b's own zones (it also rewrites that axis's edge and
  /// corner zones, which nothing reads). A face slab's bits depend only
  /// on its sources, so every plan that fills it writes the same bits
  /// once they are current — a GuardPlan orders the fills and
  /// restrictions that make them so.
  /// Runs as a task body on a pool lane, hence FHP_REQUIRES_REGION.
  void fill_block_faces(int b, FaceMask faces) FHP_REQUIRES_REGION;

  /// Restrict into each of \p parents from its children, in list order
  /// (a GuardPlan lists them finest first, so a parent's non-leaf
  /// children are current before it is).
  void restrict_parents(std::span<const int> parents);

  /// Refine one leaf: allocate children and prolong data into them.
  /// The face guards of \p id must be current (call fill_guardcells
  /// first); its children's guards are left unfilled.
  std::array<int, 8> refine_block(int id);

  /// Derefine: restrict children into \p id and free them.
  void derefine_block(int id);

  /// Löhner error estimator for variable \p v on block \p b (max over
  /// interior zones of the normalized second-derivative ratio).
  [[nodiscard]] double loehner_error(int b, int v) const;

  /// One full refinement pass: estimate on \p est_vars (max over vars),
  /// refine leaves above \p refine_cut (up to max_level), derefine sibling
  /// groups below \p derefine_cut, enforce 2:1 balance. Fills the guard
  /// faces it reads first and leaves the new mesh's guards unfilled for
  /// the next reader. Returns the number of blocks changed.
  int remesh(std::span<const int> est_vars, double refine_cut,
             double derefine_cut);

  // --- iteration helpers --------------------------------------------------
  /// Apply f(b, i, j, k) to every interior cell of every leaf.
  template <typename F>
  void for_leaf_cells(F&& f) {
    const MeshConfig& c = config_;
    for (int b : tree_.leaves_morton()) {
      for (int k = c.klo(); k < c.khi(); ++k) {
        for (int j = c.jlo(); j < c.jhi(); ++j) {
          for (int i = c.ilo(); i < c.ihi(); ++i) {
            f(b, i, j, k);
          }
        }
      }
    }
  }

  /// Volume integral of variable \p v over all leaves (e.g. kDens -> mass).
  [[nodiscard]] double integrate(int v) const;

  /// Volume integral of v1*v2 (e.g. dens*ener -> total internal energy).
  [[nodiscard]] double integrate_product(int v1, int v2) const;

 private:
  /// Fill the guards of one block in one direction from a same-level
  /// source block (handles periodic shifts implicitly via index copy).
  void copy_same_level(int dst, int src, const std::array<int, 3>& step);
  /// Fill the guards of one block in one direction by interpolating from
  /// the underlying coarse block.
  void fill_from_coarse(int dst, const std::array<int, 3>& step);
  /// Apply physical boundary conditions on the domain-facing guard slabs
  /// of the axes in \p axes (bit per axis).
  void apply_boundaries(int b, unsigned axes);
  /// Restrict one child quadrant/octant into its parent.
  void restrict_child(int parent, int child);
  /// Prolong parent data into one child (minmod-limited linear).
  void prolong_child(int parent, int child);

  /// Guard-region index range of block-local axis for a step component.
  struct Range {
    int lo, hi;
  };
  [[nodiscard]] Range guard_range(int axis, int step) const;

  MeshConfig config_;
  BlockTree tree_;
  UnkContainer unk_;
  par::ExecArena& arena_;
};

}  // namespace fhp::mesh
