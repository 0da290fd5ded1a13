/// \file hydro.hpp
/// \brief Dimensionally split finite-volume hydrodynamics on the AMR mesh.
///
/// This is flashhp's counterpart of FLASH's split hydro unit (the paper's
/// "3-d Hydro" test instruments exactly this code): a MUSCL-Hancock
/// second-order Godunov scheme with MC-limited reconstruction and an HLLC
/// Riemann solver, swept one axis at a time over every leaf block, with
/// flux conservation at fine-coarse block boundaries and an EOS
/// consistency call after each step (FLASH's Eos_wrapped).
///
/// General-EOS coupling uses the frozen-gamma approximation within a
/// sweep: each zone carries game = p/(rho eint) + 1 and gamc = Gamma1 from
/// the last EOS call; the sweep treats them as constants and the post-step
/// EOS call restores full consistency.

#pragma once

#include <functional>
#include <span>
#include <vector>

#include "eos/eos_types.hpp"
#include "mesh/amr_mesh.hpp"
#include "tlb/trace.hpp"

namespace fhp::hydro {

/// Tunables (FLASH runtime parameters of the hydro unit).
struct HydroOptions {
  double cfl = 0.8;          ///< Courant factor
  double small_rho = 1e-30;  ///< density floor
  double small_p = 1e-30;    ///< pressure floor
  bool flux_correct = true;  ///< conserve fluxes at fine-coarse faces
  /// Default composition written into EOS states when no composition
  /// callback is installed.
  double abar = 1.0;
  double zbar = 1.0;
};

/// Per-zone composition hook: fill state.abar / state.zbar from the mass
/// scalars of the zone (species fractions). Used by the supernova setup.
using CompositionFn =
    std::function<void(eos::State& state, const double* scalars, int count)>;

/// The solver. Holds scratch storage sized for the mesh it serves.
class HydroSolver {
 public:
  HydroSolver(mesh::AmrMesh& mesh, const eos::Eos& eos,
              HydroOptions options = {});
  ~HydroSolver();  // out of line: PencilBuffers is incomplete here

  /// CFL-limited time step over all leaves (uses current unk data).
  [[nodiscard]] double compute_dt() const;

  /// Advance one full time step: guard fill + directional sweeps (order
  /// alternates each step, Strang-style) + flux correction + EOS update.
  void step(double dt);

  /// One directional sweep over all leaves (exposed for tests). Blocks
  /// are distributed over the mesh arena's lanes: each block's update
  /// reads only its own (pre-filled) storage and writes only its own
  /// interior and flux-register slots, so the parallel sweep is
  /// bit-identical to the serial one.
  void sweep(int axis, double dt);

  /// Re-establish EOS consistency from (rho, ener, velocities): sets
  /// eint, pres, temp, gamc, game zone by zone (FLASH's Eos_wrapped on
  /// MODE_DENS_EI). Runs block-parallel on the mesh's arena.
  void eos_update();

  // --- task-graph entry points -------------------------------------------
  // The per-unit methods above (tests, setups and the benchmark's traced
  // pass call them) are loops over these per-block kernels; the driver's
  // step graph (sim::StepGraph) submits them as task bodies with
  // guard/sweep/flux dependency edges instead. Determinism: each
  // kernel writes only block b's storage (and b's own flux-register
  // slots), so execution order between distinct blocks cannot change
  // results bit for bit.

  /// One block's directional sweep using lane \p lane's cached scratch.
  void sweep_block_task(int axis, double dt, int b, int lane)
      FHP_REQUIRES_REGION;

  /// One block's Eos_wrapped pass using lane \p lane's cached scratch.
  void eos_update_block_task(int b, int lane) FHP_REQUIRES_REGION;

  /// Fine-coarse flux correction of one coarse leaf \p b (no-op unless b
  /// abuts finer blocks along \p axis). Writes only b's face-adjacent
  /// cells; reads the flux registers of the fine blocks reported by
  /// flux_sources(axis, b) — the task-graph dependency set.
  void apply_flux_correction_block(int axis, double dt, int b)
      FHP_REQUIRES_REGION;

  /// The fine blocks whose flux registers apply_flux_correction_block
  /// (axis, b) reads. Empty when b needs no correction along \p axis
  /// (then sim::StepGraph submits no flux task for b). Setup-time
  /// query: allocates.
  [[nodiscard]] std::vector<int> flux_sources(int axis, int b) const;

  /// Strang sweep-order parity of the *next* step (true: 0..ndim-1).
  [[nodiscard]] bool forward_order() const noexcept {
    return (step_count_ % 2) == 0;
  }
  /// Record one completed step for the Strang alternation —
  /// sim::StepGraph calls this after running a step graph (step() does
  /// its own).
  void advance_step_count() noexcept { ++step_count_; }

  void set_composition_fn(CompositionFn fn) { composition_ = std::move(fn); }

  [[nodiscard]] const HydroOptions& options() const noexcept {
    return options_;
  }

  /// Replay the memory/compute behaviour of one step of block \p b into
  /// the machine model: the unk pencil gathers/scatters for each sweep
  /// plus the per-zone arithmetic. Call once per sampled block per step.
  void trace_step_block(tlb::Tracer& tracer, int b) const;

 private:
  struct PencilBuffers;  // scratch arrays reused across pencils

  /// Block kernels run as region-lambda bodies on pool lanes (each
  /// writes only block-/lane-private data), hence FHP_REQUIRES_REGION.
  void sweep_block(int axis, double dt, int b, PencilBuffers& buf)
      FHP_REQUIRES_REGION;
  /// Serial leaf-order loop over apply_flux_correction_block (bulk path).
  void apply_flux_corrections(int axis, double dt);

  /// CFL-limited dt of one leaf block (exact, order-independent min).
  [[nodiscard]] double block_dt(int b) const FHP_REQUIRES_REGION;

  /// Eos_wrapped pass over one leaf block; \p row and \p scalars are
  /// per-lane scratch (\p scalars holds one zone's gathered scalar vector
  /// under layouts that do not store variables contiguously).
  void eos_update_block(int b, std::vector<eos::State>& row,
                        std::vector<double>& scalars) FHP_REQUIRES_REGION;

  [[nodiscard]] int ncons() const noexcept {
    return 5 + mesh_.config().nscalars;
  }

  // --- boundary-flux register for fine-coarse conservation -------------
  [[nodiscard]] std::size_t flux_slot(int block, int side) const noexcept;
  [[nodiscard]] double* flux_entry(int block, int side, int v, int t1,
                                   int t2) noexcept;

  mesh::AmrMesh& mesh_;
  const eos::Eos& eos_;
  HydroOptions options_;
  CompositionFn composition_;
  int step_count_ = 0;
  int face_slot_ = 0;              ///< register entries per face and variable
  std::vector<double> flux_store_; ///< [block][side][v][t2][t1]

  // Per-lane scratch, sized at construction for the arena's fixed lane
  // count, so sweep/EOS task bodies stay allocation-free.
  std::vector<PencilBuffers> lane_bufs_;
  std::vector<std::vector<eos::State>> lane_rows_;
  std::vector<std::vector<double>> lane_scalars_;
};

}  // namespace fhp::hydro
