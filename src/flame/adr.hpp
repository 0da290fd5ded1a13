/// \file adr.hpp
/// \brief Advection-diffusion-reaction model flame (Vladimirova et al. 2006).
///
/// The physical flame front (< 1 cm wide at WD densities) cannot be
/// resolved on a ~km grid; FLASH propagates a reaction progress variable
/// phi in [0 (fuel), 1 (ash)] instead:
///
///   d phi / dt + u . grad phi = kappa lap(phi) + R(phi) / tau
///
/// Advection is done by the hydro unit (phi is a mass scalar); this class
/// does the diffusion-reaction part with a *bistable* (sharpened-KPP)
/// source R = f phi (1 - phi)(phi - 1/4). The bistable front is pushed,
/// not pulled, so its discrete speed matches the analytic traveling-wave
/// speed v = sqrt(kappa f / 2) (1 - 2a) instead of overshooting it — the
/// same reason Vladimirova et al. replace plain KPP with sKPP in FLASH.
/// Choosing kappa = s b dx / 2 and f = 16 s / (b dx) (with a = 1/4) gives
/// front speed exactly s and width delta = sqrt(2 kappa / f) = b dx / 4,
/// i.e. a front resolved over ~b zones (b = 4 by default).
///
/// Burning releases q_burn erg per gram of fuel consumed; consumed fuel
/// moves from the carbon scalar into the ash scalar.

#pragma once

#include "flame/flame_speed.hpp"
#include "mesh/amr_mesh.hpp"
#include "tlb/trace.hpp"

namespace fhp::flame {

/// Configuration of the ADR flame.
struct AdrOptions {
  int phi_scalar = 0;     ///< scalar slot (relative to kFirstScalar) of phi
  int fuel_scalar = 1;    ///< scalar slot of the carbon (fuel) fraction
  int ash_scalar = 2;     ///< scalar slot of the ash fraction
  double front_zones = 4.0;  ///< front width b in zones
  double q_burn = 4.0e17;    ///< energy release [erg/g of fuel burned]
  double rho_min = 1.0e6;    ///< no burning below this density (quenching)
  double phi_floor = 1e-12;  ///< clamp tolerance
};

/// The flame operator. Advance once per time step after the hydro sweeps.
class AdrFlame {
 public:
  AdrFlame(mesh::AmrMesh& mesh, const FlameSpeedTable& speeds,
           AdrOptions options = {});

  /// One explicit diffusion-reaction step of dt on every leaf. Guard
  /// cells must be current. Deposits nuclear energy into ener/eint and
  /// converts fuel to ash where phi advanced. Runs block-parallel over
  /// the mesh arena's lanes; each block touches only its own storage,
  /// and per-block energy partials are summed serially in leaf order so
  /// the released-energy total is identical for every thread count.
  void advance(double dt);

  // --- task-graph entry points -------------------------------------------
  // advance(dt) is begin_advance + a parallel loop over advance_block_task
  // + finish_advance; the task-graph driver (sim::StepGraph) submits the
  // per-block piece as task bodies instead, calling begin/finish on the
  // driver thread around the graph run.

  /// Zero the per-block energy partials for \p nleaves leaf blocks.
  /// Driver-thread (allocates only when the leaf count grows).
  void begin_advance(std::size_t nleaves);

  /// ADR update of one leaf: \p leaf_index is the block's position in
  /// leaves_morton() (selects its energy-partial slot), \p b the block id.
  void advance_block_task(std::size_t leaf_index, int b, double dt, int lane)
      FHP_REQUIRES_REGION;

  /// Fold the per-block energy partials into energy_released(), serially
  /// in leaf order — bit-identical for every lane count and steal order.
  void finish_advance();

  /// Total nuclear energy released so far [erg].
  [[nodiscard]] double energy_released() const noexcept {
    return energy_released_;
  }

  [[nodiscard]] const AdrOptions& options() const noexcept { return options_; }

  /// Replay the memory/compute behaviour of advance() for one block.
  void trace_advance_block(tlb::Tracer& tracer, int b) const;

 private:
  /// Both passes over one block; \p phi_new is per-lane scratch. Returns
  /// the block's released energy [erg].
  /// One leaf block's ADR update; runs as a region-lambda body on a pool
  /// lane (writes only block b and its own lane scratch).
  double advance_block(int b, double dt, std::vector<double>& phi_new)
      FHP_REQUIRES_REGION;

  mesh::AmrMesh& mesh_;
  const FlameSpeedTable& speeds_;
  AdrOptions options_;
  double energy_released_ = 0.0;

  /// Per-lane phi scratch (one block's zones, guards included), sized at
  /// construction for the arena's fixed lane count, and per-block energy
  /// partials, kept across advance() calls so a timestep costs no
  /// steady-state allocations.
  std::vector<std::vector<double>> lane_scratch_;
  std::vector<double> block_energy_;
};

}  // namespace fhp::flame
