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
/// `fill_guardcells(); sweep(axis); eos_update();`):
///
///   restrict ──► guard(b)  per allocated block, level-ordered through
///        edges guard(coarse source) ─► guard(fine) from
///        AmrMesh::guard_sources (coarse interpolation reads the coarse
///        block's *guards*, so the coarse fill must complete first;
///        same-level copies read interiors only and need no edge)
///   guard(b) ─► sweep(b)   per leaf, plus the anti-dependency
///        guard(r) ─► sweep(b) for every r whose guard fill reads b's
///        interior (the sweep overwrites it)
///   sweep(b), sweep(fine sources) ─► flux(b)  per coarse leaf abutting
///        finer blocks (HydroSolver::flux_sources)
///   flux(b) (else sweep(b)) ─► eos(b)  per leaf
///
/// Stages are chained by a barrier edge set: the next stage's restrict
/// task depends on every zero-out-degree task of the previous stage.
/// The flame stage (guard fill, per-block ADR update, EOS) attaches the
/// same way; its per-block energy partials are summed serially in leaf
/// order by AdrFlame::finish_advance after the graph run.
///
/// Determinism: the edges above reproduce the bulk data flow exactly —
/// every read happens after the same writes as in the barrier version —
/// and every task writes only its own block (plus its own flux-register
/// slots), so physics is bit-identical at any lane count and steal
/// order. Modeled counters stay out of the graph entirely (the driver's
/// serial trace_regions pass); steal/idle statistics are read from
/// last_stats() and never published as counters.
///
/// Two graphs are kept — forward (axes 0..ndim-1) and backward — and
/// selected per step by the Strang parity. Graphs are rebuilt only when
/// the tree changes (after remesh): construction allocates, run_step's
/// hot path does not.

#pragma once

#include <vector>

#include "flame/adr.hpp"
#include "hydro/hydro.hpp"
#include "mesh/amr_mesh.hpp"
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

  /// Scheduler statistics of the last run_step (timing-dependent; see
  /// par::TaskGraph::Stats — intentionally not PerfContext counters).
  [[nodiscard]] par::TaskGraph::Stats last_stats() const noexcept {
    return stats_;
  }

  /// Tasks per step graph (both parities have the same size).
  [[nodiscard]] std::size_t size() const noexcept { return forward_.size(); }

 private:
  void build(par::TaskGraph& graph, bool forward);

  mesh::AmrMesh& mesh_;
  hydro::HydroSolver& hydro_;
  flame::AdrFlame* flame_;

  /// Read by the task bodies during run_step; written on the driver
  /// thread before the graph runs (the pool handshake publishes it).
  double dt_ = 0.0;

  std::vector<int> leaves_;  ///< leaves_morton captured at rebuild
  /// Both graphs schedule on the mesh's arena, so a step claims its own
  /// runtime's region slot.
  par::TaskGraph forward_{mesh_.arena()};   ///< sweep order 0..ndim-1
  par::TaskGraph backward_{mesh_.arena()};  ///< sweep order ndim-1..0
  par::TaskGraph::Stats stats_;
};

}  // namespace fhp::sim
