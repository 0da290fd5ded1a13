/// \file white_dwarf.hpp
/// \brief Hydrostatic white-dwarf initial models.
///
/// The Type Iax progenitor is a (hybrid CONe) white dwarf in hydrostatic
/// equilibrium. WhiteDwarfModel integrates
///
///   dP/dR = -G M(R) rho / R^2,   dM/dR = 4 pi R^2 rho
///
/// outward from a central density with an isothermal core temperature,
/// closing the system with the stellar EOS (rho from (P, T) by Newton
/// iteration on dP/drho). The resulting 1-d profile is interpolated onto
/// the 2-d mesh by the supernova setup.

#pragma once

#include <vector>

#include "eos/eos_types.hpp"

namespace fhp::gravity {

/// Parameters of the progenitor model.
struct WdParams {
  double central_density = 2.0e9;  ///< rho_c [g/cm^3]
  double core_temperature = 5.0e7; ///< isothermal T [K]
  double abar = 13.714;            ///< 50/50 C/O: 1/(0.5/12 + 0.5/16)
  double zbar = 6.857;             ///< same mixture, Ye = 0.5
  double floor_density = 1.0e-2;   ///< integration stops at this rho
  double step_cm = 2.0e6;          ///< radial step (20 km)
  int max_steps = 200000;
};

/// A hydrostatic profile rho(R), P(R), M(R).
class WhiteDwarfModel {
 public:
  /// Integrate with the given EOS (use the tabulated HelmTableEos — the
  /// direct integral EOS works too but is ~1000x slower).
  WhiteDwarfModel(const eos::Eos& eos, const WdParams& params);

  /// Stellar radius (where rho fell to floor_density) [cm].
  [[nodiscard]] double radius() const noexcept { return radius_; }
  /// Total mass [g].
  [[nodiscard]] double mass() const noexcept { return mass_; }
  [[nodiscard]] const WdParams& params() const noexcept { return params_; }

  /// Interpolated profile values at spherical radius R. Beyond the
  /// surface, density returns floor_density and pressure the surface
  /// pressure (the setup overlays an ambient "fluff").
  [[nodiscard]] double density_at(double radius) const;
  [[nodiscard]] double pressure_at(double radius) const;
  [[nodiscard]] double enclosed_mass_at(double radius) const;

  /// Raw profile access for tests.
  [[nodiscard]] const std::vector<double>& densities() const noexcept {
    return rho_;
  }

 private:
  [[nodiscard]] double interp(const std::vector<double>& y,
                              double radius) const;

  WdParams params_;
  std::vector<double> r_, rho_, p_, m_;
  double radius_ = 0.0;
  double mass_ = 0.0;
};

}  // namespace fhp::gravity
