#include "flame/flame_speed.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace fhp::flame {

double laminar_speed_fit(double rho, double x_carbon, double x_ne22) {
  FHP_REQUIRE(rho > 0.0, "flame speed needs a positive density");
  FHP_REQUIRE(x_carbon >= 0.0 && x_carbon <= 1.0,
              "carbon fraction outside [0,1]");
  const double base = 92.0e5 * std::pow(rho / 2.0e9, 0.805) *
                      std::pow(std::max(1e-3, x_carbon) / 0.5, 0.889);
  // Chamulak et al. 2007: each 0.01 of 22Ne speeds the flame ~3-5%.
  const double ne_boost = 1.0 + 4.0 * x_ne22;
  return base * ne_boost;
}

FlameSpeedTable::FlameSpeedTable(double lrho_min, double lrho_max, int nrho,
                                 double xc_min, double xc_max, int nxc,
                                 double x_ne22)
    : lrho_min_(lrho_min),
      lrho_max_(lrho_max),
      nrho_(nrho),
      xc_min_(xc_min),
      xc_max_(xc_max),
      nxc_(nxc) {
  FHP_REQUIRE(nrho >= 2 && nxc >= 2, "flame table needs >= 2 points per axis");
  FHP_REQUIRE(lrho_max > lrho_min && xc_max > xc_min,
              "flame table bounds inverted");
  table_.resize(static_cast<std::size_t>(nrho) * static_cast<std::size_t>(nxc));
  const double dlr = (lrho_max - lrho_min) / (nrho - 1);
  const double dxc = (xc_max - xc_min) / (nxc - 1);
  for (int c = 0; c < nxc; ++c) {
    for (int r = 0; r < nrho; ++r) {
      const double rho = std::pow(10.0, lrho_min + r * dlr);
      const double xc = xc_min + c * dxc;
      table_[static_cast<std::size_t>(c) * static_cast<std::size_t>(nrho) +
             static_cast<std::size_t>(r)] =
          laminar_speed_fit(rho, xc, x_ne22);
    }
  }
}

double FlameSpeedTable::speed(double rho, double x_carbon) const {
  const double dlr = (lrho_max_ - lrho_min_) / (nrho_ - 1);
  const double dxc = (xc_max_ - xc_min_) / (nxc_ - 1);
  const double lr =
      std::clamp(std::log10(std::max(rho, 1e-300)), lrho_min_, lrho_max_);
  const double xc = std::clamp(x_carbon, xc_min_, xc_max_);

  const double fr = (lr - lrho_min_) / dlr;
  const double fc = (xc - xc_min_) / dxc;
  const int ir = std::min(nrho_ - 2, static_cast<int>(fr));
  const int ic = std::min(nxc_ - 2, static_cast<int>(fc));
  const double ur = fr - ir;
  const double uc = fc - ic;

  auto at = [&](int c, int r) {
    return table_[static_cast<std::size_t>(c) *
                      static_cast<std::size_t>(nrho_) +
                  static_cast<std::size_t>(r)];
  };
  return (1 - ur) * (1 - uc) * at(ic, ir) + ur * (1 - uc) * at(ic, ir + 1) +
         (1 - ur) * uc * at(ic + 1, ir) + ur * uc * at(ic + 1, ir + 1);
}

}  // namespace fhp::flame
