/// \file test_flame_gravity.cpp
/// \brief Tests for the ADR flame, flame-speed tables, monopole gravity
/// and the white-dwarf initial model.

#include <gtest/gtest.h>

#include <cmath>

#include "eos/eos_table.hpp"
#include "flame/adr.hpp"
#include "flame/flame_speed.hpp"
#include "gravity/monopole.hpp"
#include "gravity/white_dwarf.hpp"
#include "mesh/amr_mesh.hpp"
#include "rt/runtime.hpp"
#include "support/constants.hpp"
#include "support/error.hpp"

namespace fhp {
namespace {

namespace c = constants;
using mesh::var::kDens;
using mesh::var::kEint;
using mesh::var::kEner;
using mesh::var::kFirstScalar;
using mesh::var::kVelx;
using mesh::var::kVely;
using mesh::var::kVelz;

// ------------------------------------------------------------ flame speed

TEST(FlameSpeed, FitMatchesTimmesWoosleyAnchor) {
  // At rho = 2e9, X_C = 0.5 the TW92 fit is ~92 km/s by construction.
  EXPECT_NEAR(flame::laminar_speed_fit(2.0e9, 0.5), 92.0e5, 1.0);
}

TEST(FlameSpeed, ScalesWithDensityAndCarbon) {
  const double base = flame::laminar_speed_fit(2.0e9, 0.5);
  EXPECT_NEAR(flame::laminar_speed_fit(4.0e9, 0.5) / base,
              std::pow(2.0, 0.805), 1e-6);
  EXPECT_NEAR(flame::laminar_speed_fit(2.0e9, 1.0) / base,
              std::pow(2.0, 0.889), 1e-6);
}

TEST(FlameSpeed, NeonBoostsTheSpeed) {
  EXPECT_GT(flame::laminar_speed_fit(2.0e9, 0.5, 0.06),
            flame::laminar_speed_fit(2.0e9, 0.5, 0.0));
}

TEST(FlameSpeed, TableInterpolatesTheFit) {
  const flame::FlameSpeedTable table;
  for (const double rho : {3.3e6, 4.7e8, 8.0e9}) {
    for (const double xc : {0.25, 0.5, 0.73}) {
      EXPECT_NEAR(table.speed(rho, xc) /
                      flame::laminar_speed_fit(rho, xc),
                  1.0, 5e-3)
          << "rho=" << rho << " xc=" << xc;
    }
  }
}

TEST(FlameSpeed, TableClampsOutOfRangeInputs) {
  const flame::FlameSpeedTable table(6.0, 10.0, 81, 0.2, 0.8, 25);
  // Below/above the density window the speed saturates, never explodes.
  EXPECT_DOUBLE_EQ(table.speed(1.0, 0.5), table.speed(1.0e6, 0.5));
  EXPECT_DOUBLE_EQ(table.speed(1.0e12, 0.5), table.speed(1.0e10, 0.5));
  EXPECT_DOUBLE_EQ(table.speed(2.0e9, 0.05), table.speed(2.0e9, 0.2));
}

TEST(FlameSpeed, RejectsBadInputs) {
  EXPECT_THROW(static_cast<void>(flame::laminar_speed_fit(-1.0, 0.5)),
               ConfigError);
  EXPECT_THROW(static_cast<void>(flame::laminar_speed_fit(1.0e9, 1.5)),
               ConfigError);
}

// -------------------------------------------------------------- ADR flame

mesh::MeshConfig flame_config() {
  mesh::MeshConfig cfg;
  cfg.ndim = 2;
  cfg.nxb = 16;
  cfg.nyb = 16;
  cfg.nguard = 4;
  cfg.nscalars = 3;  // phi, fuel, ash
  cfg.maxblocks = 64;
  cfg.max_level = 1;
  cfg.nroot = {4, 1, 1};
  cfg.lo = {0.0, 0.0, 0.0};
  cfg.hi = {4.0e7, 1.0e7, 1.0};  // 400 km x 100 km
  return cfg;
}

/// Plant a planar flame front at x = x0 in a uniform medium.
void plant_front(mesh::AmrMesh& m, double x0, double rho) {
  const mesh::MeshConfig& cfg = m.config();
  m.for_leaf_cells([&](int b, int i, int j, int k) {
    auto& unk = m.unk();
    const double x = m.xcenter(b, i);
    unk.at(kDens, i, j, k, b) = rho;
    unk.at(kEner, i, j, k, b) = 1.0e17;
    unk.at(kEint, i, j, k, b) = 1.0e17;
    const double width = 2.0 * m.dx(b, 0);
    const double phi = 0.5 * (1.0 - std::tanh((x - x0) / width));
    unk.at(kFirstScalar + 0, i, j, k, b) = phi;
    unk.at(kFirstScalar + 1, i, j, k, b) = 0.5 * (1.0 - phi);
    unk.at(kFirstScalar + 2, i, j, k, b) = 0.5 * phi;
  });
  (void)cfg;
  m.fill_guardcells();
}

/// Locate the phi = 0.5 crossing along the x axis.
double front_position(mesh::AmrMesh& m) {
  const mesh::MeshConfig& cfg = m.config();
  double pos = 0.0;
  for (int b : m.tree().leaves_morton()) {
    for (int i = cfg.ilo(); i < cfg.ihi(); ++i) {
      const double phi = m.unk().at(kFirstScalar, i, cfg.jlo(), 0, b);
      const double phi_next =
          i + 1 < cfg.ihi() ? m.unk().at(kFirstScalar, i + 1, cfg.jlo(), 0, b)
                            : phi;
      if (phi >= 0.5 && phi_next < 0.5) {
        const double frac = (phi - 0.5) / std::max(1e-30, phi - phi_next);
        pos = std::max(pos, m.xcenter(b, i) + frac * m.dx(b, 0));
      }
    }
  }
  return pos;
}

TEST(AdrFlame, FrontPropagatesAtThePrescribedSpeed) {
  rt::Runtime runtime;
  mesh::AmrMesh m(flame_config(), mem::HugePolicy::kNone, runtime.layout(),
                  runtime.page_pool(), runtime.arena());
  const double rho = 1.0e9;
  plant_front(m, 1.0e7, rho);

  const flame::FlameSpeedTable speeds;
  flame::AdrOptions opts;
  opts.q_burn = 0.0;  // isolate the propagation (no feedback channel here)
  flame::AdrFlame flame(m, speeds, opts);

  const double s = speeds.speed(rho, 0.5);
  const double dx = m.dx(0, 0);
  const double dt = 0.02 * dx / s;  // well under the diffusion limit
  // Let the planted profile relax to the traveling-wave shape first.
  for (int n = 0; n < 200; ++n) {
    m.fill_guardcells();
    flame.advance(dt);
  }
  const double x0 = front_position(m);
  const int nsteps = 600;
  for (int n = 0; n < nsteps; ++n) {
    m.fill_guardcells();
    flame.advance(dt);
  }
  const double x1 = front_position(m);
  const double measured = (x1 - x0) / (nsteps * dt);
  // The discrete bistable front at a ~4-zone width runs ~10% fast; model
  // flames are calibrated to this level (Vladimirova et al. 2006).
  EXPECT_NEAR(measured / s, 1.0, 0.15);
}

TEST(AdrFlame, ReleasesEnergyAndConvertsFuel) {
  rt::Runtime runtime;
  mesh::AmrMesh m(flame_config(), mem::HugePolicy::kNone, runtime.layout(),
                  runtime.page_pool(), runtime.arena());
  plant_front(m, 1.0e7, 1.0e9);
  const flame::FlameSpeedTable speeds;
  flame::AdrOptions opts;
  opts.q_burn = 4.0e17;
  flame::AdrFlame flame(m, speeds, opts);

  const double fuel0 = m.integrate_product(kDens, kFirstScalar + 1);
  const double dt = 0.05 * m.dx(0, 0) / speeds.speed(1.0e9, 0.5);
  for (int n = 0; n < 100; ++n) {
    m.fill_guardcells();
    flame.advance(dt);
  }
  const double fuel1 = m.integrate_product(kDens, kFirstScalar + 1);
  EXPECT_LT(fuel1, fuel0);
  EXPECT_GT(flame.energy_released(), 0.0);
  // Energy bookkeeping: q_burn * burned fuel mass == released energy.
  EXPECT_NEAR(flame.energy_released() / (opts.q_burn * (fuel0 - fuel1)),
              1.0, 0.02);
}

TEST(AdrFlame, QuenchesBelowDensityFloor) {
  rt::Runtime runtime;
  mesh::AmrMesh m(flame_config(), mem::HugePolicy::kNone, runtime.layout(),
                  runtime.page_pool(), runtime.arena());
  plant_front(m, 1.0e7, 1.0e4);  // far below rho_min = 1e6
  const flame::FlameSpeedTable speeds;
  flame::AdrFlame flame(m, speeds, {});
  const double x0 = front_position(m);
  for (int n = 0; n < 50; ++n) {
    m.fill_guardcells();
    flame.advance(1e-4);
  }
  EXPECT_DOUBLE_EQ(front_position(m), x0);
  EXPECT_DOUBLE_EQ(flame.energy_released(), 0.0);
}

TEST(AdrFlame, PhiStaysInUnitInterval) {
  rt::Runtime runtime;
  mesh::AmrMesh m(flame_config(), mem::HugePolicy::kNone, runtime.layout(),
                  runtime.page_pool(), runtime.arena());
  plant_front(m, 2.0e7, 1.0e9);
  const flame::FlameSpeedTable speeds;
  flame::AdrFlame flame(m, speeds, {});
  const double dt = 0.2 * m.dx(0, 0) / speeds.speed(1.0e9, 0.5);
  for (int n = 0; n < 200; ++n) {
    m.fill_guardcells();
    flame.advance(dt);
  }
  const mesh::MeshConfig& cfg = m.config();
  m.for_leaf_cells([&](int b, int i, int j, int k) {
    const double phi = m.unk().at(kFirstScalar, i, j, k, b);
    ASSERT_GE(phi, 0.0);
    ASSERT_LE(phi, 1.0);
  });
  (void)cfg;
}

TEST(AdrFlame, ScalarSlotValidation) {
  rt::Runtime runtime;
  mesh::AmrMesh m(flame_config(), mem::HugePolicy::kNone, runtime.layout(),
                  runtime.page_pool(), runtime.arena());
  const flame::FlameSpeedTable speeds;
  flame::AdrOptions bad;
  bad.phi_scalar = 7;  // only 3 scalars configured
  EXPECT_THROW(flame::AdrFlame(m, speeds, bad), ConfigError);
}

// ---------------------------------------------------------------- gravity

mesh::MeshConfig gravity_config() {
  mesh::MeshConfig cfg;
  cfg.ndim = 2;
  cfg.nxb = 16;
  cfg.nyb = 16;
  cfg.nguard = 4;
  cfg.maxblocks = 64;
  cfg.max_level = 2;
  cfg.geometry = mesh::Geometry::kCylindrical;
  cfg.nroot = {1, 2, 1};
  cfg.lo = {0.0, -1.0e9, 0.0};
  cfg.hi = {1.0e9, 1.0e9, 1.0};
  cfg.bc[0][0] = mesh::Bc::kAxis;
  return cfg;
}

TEST(MonopoleGravity, UniformSphereMatchesAnalyticProfile) {
  rt::Runtime runtime;
  mesh::AmrMesh m(gravity_config(), mem::HugePolicy::kNone,
                  runtime.layout(), runtime.page_pool(),
                  runtime.arena());
  const double rho0 = 1.0e7, r_star = 5.0e8;
  m.for_leaf_cells([&](int b, int i, int j, int k) {
    const double r = m.xcenter(b, i);
    const double z = m.ycenter(b, j);
    const double rad = std::sqrt(r * r + z * z);
    m.unk().at(kDens, i, j, k, b) = rad < r_star ? rho0 : 1e-10;
  });

  gravity::MonopoleGravity grav({0.0, 0.0, 0.0}, 1024);
  grav.update(m);

  const double m_star = 4.0 / 3.0 * M_PI * r_star * r_star * r_star * rho0;
  // ~8 cells across the stellar radius: expect a few percent
  // of surface-cell quantization.
  EXPECT_NEAR(grav.total_mass() / m_star, 1.0, 0.08);
  // Inside: g = (4/3) pi G rho r; outside: g = G M / r^2.
  const double r_in = 2.5e8;
  EXPECT_NEAR(grav.g_at(r_in) /
                  (4.0 / 3.0 * M_PI * c::kGravitational * rho0 * r_in),
              1.0, 0.08);
  const double r_out = 8.0e8;
  EXPECT_NEAR(grav.g_at(r_out) /
                  (c::kGravitational * m_star / (r_out * r_out)),
              1.0, 0.08);
}

TEST(MonopoleGravity, AccelPointsAtTheCenter) {
  rt::Runtime runtime;
  gravity::MonopoleGravity grav({0.0, 0.0, 0.0}, 64);
  mesh::AmrMesh m(gravity_config(), mem::HugePolicy::kNone,
                  runtime.layout(), runtime.page_pool(),
                  runtime.arena());
  m.for_leaf_cells([&](int b, int i, int j, int k) {
    m.unk().at(kDens, i, j, k, b) = 1.0e5;
  });
  grav.update(m);
  const auto a = grav.accel(3.0e8, 4.0e8, 0.0);
  EXPECT_LT(a[0], 0.0);
  EXPECT_LT(a[1], 0.0);
  // Direction ratio follows the position vector.
  EXPECT_NEAR(a[0] / a[1], 3.0 / 4.0, 1e-10);
  // At the exact center the force vanishes by symmetry.
  const auto zero = grav.accel(0.0, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(zero[0], 0.0);
}

TEST(MonopoleGravity, ApplySourceUpdatesMomentumAndEnergy) {
  rt::Runtime runtime;
  mesh::AmrMesh m(gravity_config(), mem::HugePolicy::kNone,
                  runtime.layout(), runtime.page_pool(),
                  runtime.arena());
  m.for_leaf_cells([&](int b, int i, int j, int k) {
    m.unk().at(kDens, i, j, k, b) = 1.0e7;
    m.unk().at(kEner, i, j, k, b) = 1.0e15;
  });
  gravity::MonopoleGravity grav({0.0, 0.0, 0.0}, 256);
  grav.update(m);
  const double g_probe = grav.g_at(5.0e8);
  ASSERT_GT(g_probe, 0.0);

  const double dt = 1e-3;
  grav.apply_source(m, dt);
  // Velocities now point inward everywhere (fell from rest).
  const mesh::MeshConfig& cfg = m.config();
  const int b0 = m.tree().leaves_morton().front();
  const int ii = cfg.ihi() - 1;
  EXPECT_LT(m.unk().at(kVelx, ii, cfg.jlo() + 1, 0, b0), 0.0);
}

TEST(MonopoleGravity, RejectsTooFewShells) {
  EXPECT_THROW(gravity::MonopoleGravity({0, 0, 0}, 4), ConfigError);
}

// ------------------------------------------------------------ white dwarf

const eos::HelmTableEos& wd_eos() {
  static mem::PagePool pool;  // constructed first, so it outlives the table
  static auto table = std::make_shared<eos::HelmTable>(
      eos::HelmTable::build_or_load(
          eos::HelmTableSpec{-4.0, 10.0, 141, 5.0, 10.0, 51},
          mem::HugePolicy::kNone, pool));
  static eos::HelmTableEos eos(table);
  return eos;
}

TEST(WhiteDwarf, StandardModelHasChandrasekharScaleMass) {
  gravity::WdParams params;  // rho_c = 2e9, C/O
  const gravity::WhiteDwarfModel wd(wd_eos(), params);
  EXPECT_GT(wd.mass() / c::kSolarMass, 1.25);
  EXPECT_LT(wd.mass() / c::kSolarMass, 1.45);
  EXPECT_GT(wd.radius(), 1.0e8);
  EXPECT_LT(wd.radius(), 5.0e8);
}

TEST(WhiteDwarf, HigherCentralDensityIsMoreCompact) {
  gravity::WdParams lo, hi;
  lo.central_density = 5.0e8;
  hi.central_density = 4.0e9;
  const gravity::WhiteDwarfModel wd_lo(wd_eos(), lo);
  const gravity::WhiteDwarfModel wd_hi(wd_eos(), hi);
  // The floor-density radius is set by the tenuous envelope and barely
  // moves; the physically meaningful radius is a fixed-density contour.
  auto radius_at = [](const gravity::WhiteDwarfModel& wd, double rho) {
    double lo_r = 0.0, hi_r = wd.radius();
    for (int iter = 0; iter < 60; ++iter) {
      const double mid = 0.5 * (lo_r + hi_r);
      (wd.density_at(mid) > rho ? lo_r : hi_r) = mid;
    }
    return 0.5 * (lo_r + hi_r);
  };
  EXPECT_LT(radius_at(wd_hi, 1.0e5), radius_at(wd_lo, 1.0e5));
  EXPECT_GT(wd_hi.mass(), wd_lo.mass());  // Chandrasekhar trend
}

TEST(WhiteDwarf, ProfileIsMonotone) {
  gravity::WdParams params;
  const gravity::WhiteDwarfModel wd(wd_eos(), params);
  const auto& rho = wd.densities();
  for (std::size_t i = 1; i < rho.size(); ++i) {
    ASSERT_LE(rho[i], rho[i - 1] * (1.0 + 1e-12)) << "at index " << i;
  }
  EXPECT_DOUBLE_EQ(wd.density_at(0.0), params.central_density);
  EXPECT_DOUBLE_EQ(wd.density_at(2.0 * wd.radius()), params.floor_density);
}

TEST(WhiteDwarf, HydrostaticResidualIsSmall) {
  // dP/dr + G M rho / r^2 ~ 0 along the profile.
  gravity::WdParams params;
  const gravity::WhiteDwarfModel wd(wd_eos(), params);
  const double r = 0.5 * wd.radius();
  const double h = params.step_cm;
  const double dpdr =
      (wd.pressure_at(r + h) - wd.pressure_at(r - h)) / (2 * h);
  const double expected = -c::kGravitational * wd.enclosed_mass_at(r) *
                          wd.density_at(r) / (r * r);
  EXPECT_NEAR(dpdr / expected, 1.0, 0.02);
}

TEST(WhiteDwarf, RejectsFloorAboveCenter) {
  gravity::WdParams bad;
  bad.central_density = 1.0;
  bad.floor_density = 10.0;
  EXPECT_THROW(gravity::WhiteDwarfModel(wd_eos(), bad), ConfigError);
}

}  // namespace
}  // namespace fhp
