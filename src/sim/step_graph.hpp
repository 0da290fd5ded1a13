/// \file step_graph.hpp
/// \brief The fused time step as a block-task DAG.
///
/// Builds the par::TaskGraph the driver runs in place of the
/// bulk-synchronous `hydro.step() + flame` sequence: one graph covers
/// every directional sweep plus the flame stage, with per-block tasks
/// and explicit dependency edges, so a block's sweep starts the moment
/// *its own* guard cells are filled instead of after the whole level's
/// guard-fill barrier.
///
/// Stage structure per directional sweep (mirroring the bulk order
/// `fill_guardcells(); sweep(axis); eos_update();`, but filling only the
/// guard faces the stage reads — mesh::GuardPlan, compiled per stage in
/// rebuild()):
///
///   restrict ──► guard(b)  one root per stage restricting only the
///        parents the plan's faces copy from (none on a uniform mesh),
///        then one face-mask fill per planned leaf: the sweep axis's two
///        faces, plus every face of each coarse cover a fine face
///        interpolates from. Edges guard(cover) ─► guard(fine) come from
///        the plan's cover lists (coarse interpolation reads the cover's
///        face guards, so its fill must complete first; same-level copies
///        read interiors only and need no edge)
///   guard(b) ─► sweep(b)   per leaf, plus the anti-dependency
///        guard(r) ─► sweep(b) for every planned r whose fill reads b's
///        interior (the sweep overwrites it)
///   sweep(b), sweep(fine sources) ─► flux(b)  per coarse leaf abutting
///        finer blocks (HydroSolver::flux_sources)
///   flux(b) (else sweep(b)) ─► eos(b)  per leaf
///
/// Stages are chained by a barrier edge set: the next stage's restrict
/// task depends on every zero-out-degree task of the previous stage.
/// The flame stage (every face of every leaf, since the flame reads ±1
/// zones of φ; per-block ADR update; EOS) attaches the same way; its
/// per-block energy partials are summed serially in leaf order by
/// AdrFlame::finish_advance after the graph run.
///
/// Determinism: every zone a stage reads — the sweep axis's face slabs
/// inside the transverse interior, or every face for the flame — gets
/// fill_guardcells()'s bits from the same sources, and the edges above
/// order every such read after the same writes as in the barrier
/// version.
/// Every task writes only its own block (plus its own flux-register
/// slots), so physics is bit-identical to the bulk sequence at any lane
/// count and steal order. Parents' interiors and the edge and corner
/// guards the graph leaves stale are read by nothing: every other reader
/// of guard zones (remesh, the bulk path) fills first. Modeled counters
/// stay out of the graph entirely (the driver's serial trace_regions
/// pass); the per-task spans time every lane.
///
/// Two graphs are kept — forward (axes 0..ndim-1) and backward — and
/// selected per step by the Strang parity. Graphs are rebuilt only when
/// the tree changes (after remesh): construction allocates, run_step's
/// hot path does not.

#pragma once

#include <cstdint>
#include <vector>

#include "flame/adr.hpp"
#include "hydro/hydro.hpp"
#include "mesh/amr_mesh.hpp"
#include "mesh/guard_plan.hpp"
#include "par/task_graph.hpp"

namespace fhp::sim {

class StepGraph {
 public:
  /// \p flame may be null (pure-hydro setups get sweep stages only).
  StepGraph(mesh::AmrMesh& mesh, hydro::HydroSolver& hydro,
            flame::AdrFlame* flame);

  /// Rebuild both Strang-parity graphs from the current block tree.
  /// Driver-thread, setup-time (allocates). Call once after construction
  /// and again whenever remesh changed the tree.
  void rebuild();

  /// Execute one fused time step: every directional sweep plus the flame
  /// stage, honoring the dependency edges. Allocation-free hot path.
  /// Advances the hydro Strang parity, exactly like HydroSolver::step.
  void run_step(double dt) FHP_EXCLUDES_REGION;

  /// run_step through par::TaskGraph::run_serial: every task on the
  /// calling thread, ready tasks picked in \p schedule's adversarial
  /// order. For tests — a missing dependency edge changes the end state
  /// under some schedule without needing a lucky thread interleaving.
  void run_step_serial(double dt, par::TaskGraph::Schedule schedule,
                       std::uint64_t seed = 0) FHP_EXCLUDES_REGION;

 private:
  void build(par::TaskGraph& graph, bool forward);
  /// Shared by run_step/run_step_serial: publish dt, size the lane
  /// scratch, pick the Strang-parity graph; then finish the step.
  par::TaskGraph& begin_step(double dt);
  void end_step();

  mesh::AmrMesh& mesh_;
  hydro::HydroSolver& hydro_;
  flame::AdrFlame* flame_;

  /// Read by the task bodies during run_step; written on the driver
  /// thread before the graph runs (the pool handshake publishes it).
  double dt_ = 0.0;

  std::vector<int> leaves_;  ///< leaves_morton captured at rebuild
  /// Guard plans per stage, compiled at rebuild: one per sweep axis,
  /// then the flame stage's. The restrict tasks hold spans into them.
  std::vector<mesh::GuardPlan> plans_;
  /// Both graphs schedule on the mesh's arena, so a step claims its own
  /// runtime's region slot.
  par::TaskGraph forward_{mesh_.arena()};   ///< sweep order 0..ndim-1
  par::TaskGraph backward_{mesh_.arena()};  ///< sweep order ndim-1..0
};

}  // namespace fhp::sim
