/// \file sedov.hpp
/// \brief The Sedov explosion problem — FLASH's standard hydro test.
///
/// A point explosion in a uniform cold medium (Sedov 1959); the paper's
/// "3-d Hydro" experiment runs it for 200 steps with the hydrodynamics
/// routines instrumented. Initialization follows FLASH's Simulation unit:
/// ambient (rho, P) everywhere, the explosion energy deposited as thermal
/// pressure in a small sphere, then a few initial refinement passes so
/// the mesh resolves the spike before evolution starts.

#pragma once

#include <memory>

#include "eos/gamma_eos.hpp"
#include "mem/huge_policy.hpp"
#include "mesh/amr_mesh.hpp"
#include "rt/runtime.hpp"
#include "tlb/trace.hpp"

namespace fhp::sim {

/// Runtime parameters of the Sedov setup (FLASH's sim_* parameters).
struct SedovParams {
  int ndim = 3;
  double gamma = 1.4;
  double rho_ambient = 1.0;
  double p_ambient = 1.0e-5;
  double energy = 1.0;        ///< explosion energy E
  double spike_radius = 0.0;  ///< 0 = 3.5 finest cells (FLASH default)
  std::array<double, 3> center{0.5, 0.5, 0.5};
  int max_level = 3;
  int nxb = 16, nyb = 16, nzb = 16;
  int maxblocks = 600;
  int nguard = 4;
};

/// Assembled Sedov problem: mesh + EOS, data initialized.
class SedovSetup {
 public:
  /// \param runtime the execution context the problem lives in: mesh
  ///        storage comes from `runtime.page_pool()`, block loops run on
  ///        `runtime.arena()`, and the mesh is laid out as
  ///        `runtime.layout()`. The runtime must outlive the setup.
  SedovSetup(const SedovParams& params, mem::HugePolicy policy,
             rt::Runtime& runtime);

  [[nodiscard]] mesh::AmrMesh& mesh() noexcept { return *mesh_; }
  [[nodiscard]] const eos::GammaEos& eos() const noexcept { return eos_; }
  [[nodiscard]] const SedovParams& params() const noexcept { return params_; }

  /// Per-block EOS trace hook for the Driver: one gamma-law Eos_wrapped
  /// pass over block \p b reads 8 variables and writes 6 per zone, plus
  /// 40 operations of arithmetic per zone.
  void trace_eos_block(tlb::Tracer& tracer, int b) const;

  /// Analytic shock radius at time t (self-similar solution):
  /// R = (E t^2 / (alpha rho))^(1/5) with the standard alpha(gamma).
  [[nodiscard]] static double shock_radius(double energy, double rho,
                                           double time, double gamma);

 private:
  void initialize();

  SedovParams params_;
  eos::GammaEos eos_;
  std::unique_ptr<mesh::AmrMesh> mesh_;
};

}  // namespace fhp::sim
