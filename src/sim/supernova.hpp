/// \file supernova.hpp
/// \brief The 2-d Type Iax supernova deflagration setup.
///
/// The paper's "EOS" experiment: a 2-d cylindrical (r, z) simulation of a
/// pure deflagration in a hybrid white dwarf, run for 50 time steps with
/// the EOS routines instrumented. This setup assembles every substrate:
/// the tabulated Helmholtz-style EOS (on the huge-page policy under
/// test), a hydrostatic white-dwarf initial model, monopole self-gravity,
/// and the ADR model flame ignited slightly off-center.

#pragma once

#include <memory>
#include <string>

#include "eos/eos_table.hpp"
#include "flame/adr.hpp"
#include "flame/flame_speed.hpp"
#include "gravity/monopole.hpp"
#include "gravity/white_dwarf.hpp"
#include "hydro/hydro.hpp"
#include "mem/huge_policy.hpp"
#include "mesh/amr_mesh.hpp"
#include "rt/runtime.hpp"

namespace fhp::sim {

/// Runtime parameters of the supernova setup.
struct SupernovaParams {
  double central_density = 2.0e9;   ///< WD rho_c [g/cc]
  double core_temperature = 5.0e7;  ///< isothermal core T [K]
  double x_carbon = 0.4;            ///< hybrid CONe core composition
  double x_oxygen = 0.57;
  double x_ne22 = 0.03;
  double domain_radius = 4.0e8;     ///< [cm]; the WD is ~2e8
  double ignition_radius = 2.0e7;   ///< match-head size [cm]
  double ignition_offset = 4.0e7;   ///< ignition center height on the axis
  double fluff_density = 1.0e-2;    ///< ambient "fluff" outside the star
  double fluff_temperature = 3.0e7;
  int max_level = 4;
  int nxb = 16, nyb = 16;
  int maxblocks = 1200;
  int nguard = 4;
  /// Helm table cache file; empty = eos::HelmTable::cache_path(table_spec),
  /// the build tree's file for this grid.
  std::string table_cache;
  /// Table grid; tests shrink it for speed (defaults are FLASH-sized).
  eos::HelmTableSpec table_spec{};
};

/// Scalar slots used by the setup (offsets from var::kFirstScalar).
namespace snvar {
inline constexpr int kPhi = 0;   ///< flame progress variable
inline constexpr int kC12 = 1;   ///< carbon (fuel) mass fraction
inline constexpr int kO16 = 2;
inline constexpr int kNe22 = 3;
inline constexpr int kAsh = 4;   ///< burned material (Mg24-like)
inline constexpr int kCount = 5;
}  // namespace snvar

/// Assembled supernova problem.
class SupernovaSetup {
 public:
  /// \param runtime the execution context the problem lives in: mesh and
  ///        Helm-table storage come from `runtime.page_pool()`, block
  ///        loops run on `runtime.arena()`, and the mesh is laid out as
  ///        `runtime.layout()`. The runtime must outlive the setup.
  SupernovaSetup(const SupernovaParams& params, mem::HugePolicy policy,
                 rt::Runtime& runtime);

  [[nodiscard]] mesh::AmrMesh& mesh() noexcept { return *mesh_; }
  [[nodiscard]] const eos::HelmTableEos& eos() const noexcept { return *eos_; }
  [[nodiscard]] const eos::HelmTable& table() const noexcept { return *table_; }
  [[nodiscard]] const gravity::WhiteDwarfModel& wd() const noexcept {
    return *wd_;
  }
  [[nodiscard]] flame::AdrFlame& flame() noexcept { return *flame_; }
  [[nodiscard]] gravity::MonopoleGravity& gravity() noexcept {
    return *gravity_;
  }
  [[nodiscard]] const SupernovaParams& params() const noexcept {
    return params_;
  }

  /// The per-zone composition hook for HydroSolver (abar/zbar from the
  /// species mass fractions).
  [[nodiscard]] hydro::CompositionFn composition_fn() const;

  /// Per-block EOS trace hook for the Driver (replays the table gathers
  /// of one Eos_wrapped pass).
  void trace_eos_block(tlb::Tracer& tracer, int b) const;

 private:
  void initialize();

  SupernovaParams params_;
  std::shared_ptr<eos::HelmTable> table_;
  std::unique_ptr<eos::HelmTableEos> eos_;
  std::unique_ptr<gravity::WhiteDwarfModel> wd_;
  std::unique_ptr<mesh::AmrMesh> mesh_;
  flame::FlameSpeedTable flame_speeds_;
  std::unique_ptr<flame::AdrFlame> flame_;
  std::unique_ptr<gravity::MonopoleGravity> gravity_;
};

/// abar/zbar of a (C12, O16, Ne22, ash=Mg24) mixture.
void mixture_composition(double xc, double xo, double xne, double xash,
                         double& abar, double& zbar);

}  // namespace fhp::sim
