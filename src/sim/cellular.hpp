/// \file cellular.hpp
/// \brief The 2-d cellular-detonation setup — the cheap third job class.
///
/// A planar carbon-burning front in a uniform fuel bed, seeded with a
/// multi-mode sinusoidal perturbation so transverse cells develop as it
/// propagates ("Benchmarking with Supernovae", arXiv 2408.16084 flavor).
/// Unlike the supernova setup it needs no tabulated EOS, no hydrostatic
/// progenitor and no gravity — just the gamma-law EOS and the ADR model
/// flame — so a service job mix can use it as the fast flame-bearing
/// scenario between Sedov (cheapest, no scalars) and the full Type Iax
/// deflagration (heaviest).

#pragma once

#include <memory>

#include "eos/gamma_eos.hpp"
#include "flame/adr.hpp"
#include "flame/flame_speed.hpp"
#include "mem/huge_policy.hpp"
#include "mesh/amr_mesh.hpp"
#include "rt/runtime.hpp"

namespace fhp::sim {

/// Runtime parameters of the cellular-detonation setup. The defaults sit
/// inside the FlameSpeedTable window (rho in [1e6, 1e10], X_C in
/// [0.2, 0.8]) and above the ADR quench density, so the front burns from
/// the first step.
struct CellularParams {
  double gamma = 1.4;
  double rho_fuel = 1.0e7;     ///< uniform fuel density [g/cc]
  double p_fuel = 4.0e23;      ///< upstream pressure [erg/cc]
  double x_fuel = 0.5;         ///< carbon mass fraction of unburned matter
  double domain_x = 2.56e7;    ///< [cm]
  double domain_y = 6.4e6;     ///< [cm]; periodic transverse direction
  double ignition_x = 3.2e6;   ///< mean position of the initial front [cm]
  double perturb_amp = 4.0e5;  ///< front perturbation amplitude [cm]
  int perturb_modes = 3;       ///< sinusoidal modes seeding the cells
  int max_level = 2;
  int nxb = 16, nyb = 16;
  int maxblocks = 128;
  int nguard = 4;
};

/// Scalar slots used by the setup (offsets from var::kFirstScalar).
namespace cvar {
inline constexpr int kPhi = 0;   ///< flame progress variable
inline constexpr int kFuel = 1;  ///< carbon (fuel) mass fraction
inline constexpr int kAsh = 2;   ///< burned material
inline constexpr int kCount = 3;
}  // namespace cvar

/// Assembled cellular-detonation problem: mesh + gamma-law EOS + ADR
/// flame, data initialized.
class CellularSetup {
 public:
  /// \param runtime the execution context the problem lives in: mesh
  ///        storage comes from `runtime.page_pool()`, block loops run on
  ///        `runtime.arena()`, and the mesh is laid out as
  ///        `runtime.layout()`. The runtime must outlive the setup.
  CellularSetup(const CellularParams& params, mem::HugePolicy policy,
                rt::Runtime& runtime);

  [[nodiscard]] mesh::AmrMesh& mesh() noexcept { return *mesh_; }
  [[nodiscard]] const eos::GammaEos& eos() const noexcept { return eos_; }
  [[nodiscard]] flame::AdrFlame& flame() noexcept { return *flame_; }
  [[nodiscard]] const CellularParams& params() const noexcept {
    return params_;
  }

  /// Perturbed front position x_f(y): the deterministic multi-mode seed
  /// applied during initialization (exposed so tests can assert cells
  /// grow from it).
  [[nodiscard]] double front_position(double y) const;

 private:
  void initialize();

  CellularParams params_;
  eos::GammaEos eos_;
  flame::FlameSpeedTable flame_speeds_;
  std::unique_ptr<mesh::AmrMesh> mesh_;
  std::unique_ptr<flame::AdrFlame> flame_;
};

}  // namespace fhp::sim
