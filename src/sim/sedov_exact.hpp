/// \file sedov_exact.hpp
/// \brief The exact Sedov-Taylor self-similar solution.
///
/// Integrates the similarity ODEs of the point explosion (Sedov 1959;
/// Landau & Lifshitz §106) in spherical (nu = 3), cylindrical (nu = 2) or
/// planar (nu = 1) symmetry, yielding the dimensionless energy integral
/// alpha(gamma, nu) and the interior profiles — replacing hardcoded alpha
/// tables. Used by the Sedov validation tests and the sedov3d example.
///
/// Implementation: the standard change of variables to V = u r / (R' ...)
/// is awkward near the singular center, so we integrate the profile in
/// physical similarity coordinate xi = r/R inward from the shock using
/// the strong-shock Rankine-Hugoniot state at xi = 1 and the Euler
/// equations in self-similar form, then evaluate
/// alpha = (8 pi / 25) \int_0^1 (rho u^2 / 2 + p/(gamma-1)) xi^2 dxi
/// normalized to E = 1, rho_ambient = 1 (for nu = 3; analogous for
/// other nu).

#pragma once

#include <array>
#include <vector>

namespace fhp::sim {

/// The integrated similarity solution for one (gamma, nu).
class SedovExact {
 public:
  /// \param gamma adiabatic index (> 1)
  /// \param nu geometry: 3 spherical, 2 cylindrical, 1 planar
  /// \param npoints resolution of the stored profile
  explicit SedovExact(double gamma, int nu = 3, int npoints = 2000);

  /// The energy-integral constant: R(t) = (E t^2 / (alpha rho))^{1/(nu+2)}.
  [[nodiscard]] double alpha() const noexcept { return alpha_; }

  /// Shock radius at time t for explosion energy E in ambient density rho.
  [[nodiscard]] double shock_radius(double energy, double rho_ambient,
                                    double time) const;

  /// Interior profiles relative to the immediate post-shock values, as a
  /// function of xi = r/R in [0, 1]: returns {rho/rho2, u/u2, p/p2}.
  [[nodiscard]] std::array<double, 3> profile(double xi) const;

 private:
  double gamma_;
  int nu_;
  double alpha_ = 0.0;
  std::vector<double> xi_, rho_, u_, p_;  ///< normalized to post-shock
};

}  // namespace fhp::sim
