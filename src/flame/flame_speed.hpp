/// \file flame_speed.hpp
/// \brief Laminar flame speeds and turbulent/buoyancy enhancement.
///
/// The supernova model propagates a sub-grid flame at a prescribed speed.
/// Laminar speeds come from "the tabulated results of previous
/// calculations" (Timmes & Woosley 1992; Chamulak, Brown & Timmes 2007
/// for the 22Ne speedup): we implement the TW92 power-law fit for C/O
/// matter, tabulate it on a (log rho, X_C) grid exactly the way FLASH
/// consumes such tables, and interpolate bilinearly. Buoyancy/turbulence
/// enhancement follows the max-speed prescription of Townsley et al. 2007:
/// s_eff = max(s_lam, c_b * sqrt(A g L)) with Atwood number A, local
/// gravity g and the resolution scale L.

#pragma once

#include <vector>

namespace fhp::flame {

/// Timmes & Woosley (1992) laminar C/O flame-speed fit [cm/s]:
///   s = 92 km/s * (rho / 2e9)^0.805 * (X_C / 0.5)^0.889
/// with a mild 22Ne enhancement factor per Chamulak et al. (2007).
[[nodiscard]] double laminar_speed_fit(double rho, double x_carbon,
                                       double x_ne22 = 0.0);

/// Tabulated flame speeds on a (log10 rho, X_C) grid with bilinear
/// interpolation — the production representation.
class FlameSpeedTable {
 public:
  /// Build from the analytic fit over rho in [10^lrho_min, 10^lrho_max],
  /// X_C in [xc_min, xc_max].
  FlameSpeedTable(double lrho_min = 6.0, double lrho_max = 10.0,
                  int nrho = 81, double xc_min = 0.2, double xc_max = 0.8,
                  int nxc = 25, double x_ne22 = 0.0);

  /// Interpolated laminar speed [cm/s]; inputs clamped to the table range
  /// (FLASH clamps too — flames only exist in a finite density window).
  [[nodiscard]] double speed(double rho, double x_carbon) const;

  [[nodiscard]] int nrho() const noexcept { return nrho_; }
  [[nodiscard]] int nxc() const noexcept { return nxc_; }

 private:
  double lrho_min_, lrho_max_;
  int nrho_;
  double xc_min_, xc_max_;
  int nxc_;
  std::vector<double> table_;  // [ixc][irho]
};

}  // namespace fhp::flame
