/// \file simulation.hpp
/// \brief sim::Simulation — one run of one problem, wired in one place.
///
/// A setting only takes effect if one owner carries it to the code that
/// uses it: FLASH built with GNU or Cray never got the THP its arrays
/// were meant to use (the paper's §IV). Simulation is that owner for a
/// problem's wiring. Service tenants, the table benches, the examples and
/// the tests all build one; none wires a Driver by hand.

#pragma once

#include <optional>
#include <variant>

#include "flame/adr.hpp"
#include "hydro/hydro.hpp"
#include "mesh/amr_mesh.hpp"
#include "rt/runtime.hpp"
#include "sim/cellular.hpp"
#include "sim/driver.hpp"
#include "sim/sedov.hpp"
#include "sim/supernova.hpp"
#include "tlb/machine.hpp"

namespace fhp::sim {

/// One problem's parameters; the alternative picks the setup.
using ProblemParams =
    std::variant<SedovParams, CellularParams, SupernovaParams>;

/// One run: it owns the setup (built under the runtime's page policy and
/// layout), the HydroSolver, the machine model when tracing, and the
/// Driver. Member order is the destruction contract: the Driver
/// goes before the units, solver and setup it borrows.
class Simulation {
 public:
  /// Build \p problem on \p runtime (which must outlive the simulation)
  /// and wire its Driver with \p options. The problem decides, in one
  /// switch: its units (flame for cellular and the supernova; gravity
  /// and composition for the supernova); its EOS replay (the setup's
  /// trace_eos_block for Sedov and the supernova, none for cellular);
  /// empty `options.refine_vars` ({dens, pres} for Sedov, {dens, phi}
  /// otherwise); unset \p hydro (CFL 0.6 for the supernova, else
  /// HydroOptions{}). A machine model sinking into `runtime.perf()`
  /// exists exactly when `options.trace_sample > 0`.
  Simulation(const ProblemParams& problem, rt::Runtime& runtime,
             DriverOptions options,
             std::optional<hydro::HydroOptions> hydro = std::nullopt);
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] Driver& driver() noexcept { return *driver_; }
  [[nodiscard]] mesh::AmrMesh& mesh() noexcept { return *mesh_; }
  [[nodiscard]] hydro::HydroSolver& hydro() noexcept { return *hydro_; }
  /// The FLASH timer table: the runtime's span reduction.
  [[nodiscard]] perf::Timers& timers() noexcept {
    return units_.runtime->timers();
  }
  /// The flame; null for Sedov.
  [[nodiscard]] flame::AdrFlame* flame() const noexcept {
    return units_.flame;
  }
  /// The units the Driver was wired with.
  [[nodiscard]] const DriverUnits& units() const noexcept { return units_; }
  /// The typed setup; throws std::bad_variant_access for another kind.
  template <class Setup>
  [[nodiscard]] Setup& setup() {
    return std::get<Setup>(setup_);
  }

 private:
  std::optional<tlb::Machine> machine_;
  std::variant<std::monostate, SedovSetup, CellularSetup, SupernovaSetup>
      setup_;
  mesh::AmrMesh* mesh_ = nullptr;
  std::optional<hydro::HydroSolver> hydro_;
  DriverUnits units_;
  std::optional<Driver> driver_;
};

}  // namespace fhp::sim
