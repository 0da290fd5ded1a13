/// \file test_sim.cpp
/// \brief Integration tests: setups, the Simulation's wiring of each
/// problem, driver, profiles, and the paper's headline reproduction
/// invariants.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "hydro/hydro.hpp"
#include "mem/meminfo.hpp"
#include "perf/perf_context.hpp"
#include "perf/region.hpp"
#include "rt/runtime.hpp"
#include "sim/cellular.hpp"
#include "sim/driver.hpp"
#include "sim/profiles.hpp"
#include "sim/sedov.hpp"
#include "sim/simulation.hpp"
#include "sim/supernova.hpp"
#include "tlb/machine.hpp"

namespace fhp::sim {
namespace {

using mesh::var::kDens;
using mesh::var::kEner;
using mesh::var::kPres;

// ------------------------------------------------------------------ Sedov

TEST(SedovSetupTest, InitialStateIsAmbientPlusSpike) {
  rt::Runtime runtime;
  SedovParams params;
  params.ndim = 2;
  params.nzb = 1;
  params.max_level = 2;
  params.maxblocks = 64;
  SedovSetup setup(params, mem::HugePolicy::kNone, runtime);
  mesh::AmrMesh& m = setup.mesh();

  double p_min = 1e300, p_max = 0.0;
  m.for_leaf_cells([&](int b, int i, int j, int k) {
    const double p = m.unk().at(kPres, i, j, k, b);
    p_min = std::min(p_min, p);
    p_max = std::max(p_max, p);
    EXPECT_DOUBLE_EQ(m.unk().at(kDens, i, j, k, b), params.rho_ambient);
  });
  EXPECT_DOUBLE_EQ(p_min, params.p_ambient);
  EXPECT_GT(p_max, 1e3 * params.p_ambient);  // the spike
}

TEST(SedovSetupTest, MeshRefinedAroundTheSpike) {
  rt::Runtime runtime;
  SedovParams params;
  params.ndim = 2;
  params.nzb = 1;
  params.max_level = 3;
  params.maxblocks = 128;
  SedovSetup setup(params, mem::HugePolicy::kNone, runtime);
  EXPECT_EQ(setup.mesh().tree().finest_level(), 3);
  EXPECT_TRUE(setup.mesh().tree().is_balanced());
}

TEST(SedovSetupTest, ShockRadiusFormula) {
  // R = (E t^2 / (alpha rho))^{1/5}; the exact alpha(1.4, nu=3) = 0.8511.
  const double r = SedovSetup::shock_radius(1.0, 1.0, 0.5, 1.4);
  EXPECT_NEAR(r, std::pow(0.25 / 0.851, 0.2), 2e-4);
  // Doubling the energy at fixed t grows the radius by 2^{1/5}.
  EXPECT_NEAR(SedovSetup::shock_radius(2.0, 1.0, 0.5, 1.4) / r,
              std::pow(2.0, 0.2), 1e-12);
}

/// Driver options for an untraced, quiet run of \p nsteps.
DriverOptions quiet(int nsteps, int trace_sample = 0) {
  DriverOptions opts;
  opts.nsteps = nsteps;
  opts.trace_sample = trace_sample;
  opts.verbose = false;
  return opts;
}

TEST(SedovEvolution, TwoDConservesAndExpands) {
  rt::Runtime runtime;
  SedovParams params;
  params.ndim = 2;
  params.nzb = 1;
  params.max_level = 3;
  params.maxblocks = 300;
  Simulation simulation(params, runtime, quiet(30));
  mesh::AmrMesh& m = simulation.mesh();
  Driver& driver = simulation.driver();

  const double mass0 = m.integrate(kDens);
  const double ener0 = m.integrate_product(kDens, kEner);
  driver.evolve();
  EXPECT_EQ(driver.steps(), 30);
  EXPECT_GT(driver.sim_time(), 0.0);
  EXPECT_NEAR(m.integrate(kDens) / mass0, 1.0, 1e-9);
  EXPECT_NEAR(m.integrate_product(kDens, kEner) / ener0, 1.0, 1e-9);

  RadialProfile profile(m, {0.5, 0.5, 0.0}, 80, {kDens});
  EXPECT_GT(profile.peak_radius(0), 0.05);  // blast moved off the spike
  EXPECT_GT(profile.peak_value(0), 1.5);    // compression at the shell
}

TEST(SedovEvolution, ThreeDShockTracksSimilaritySolution) {
  rt::Runtime runtime;
  SedovParams params;  // 3-d defaults
  params.max_level = 2;
  params.maxblocks = 100;
  Simulation simulation(params, runtime, quiet(60));
  Driver& driver = simulation.driver();
  driver.evolve();

  RadialProfile profile(simulation.mesh(), {0.5, 0.5, 0.5}, 100, {kDens});
  const double r_exact = SedovSetup::shock_radius(
      params.energy, params.rho_ambient, driver.sim_time(), params.gamma);
  // Coarse grid (level 2): expect the shock within ~12% of analytic.
  EXPECT_NEAR(profile.peak_radius(0) / r_exact, 1.0, 0.12);
}

// --------------------------------------------------------------- profiles

TEST(RadialProfileTest, BinsAndAveragesKnownField) {
  rt::Runtime runtime;
  mesh::MeshConfig cfg;
  cfg.ndim = 2;
  cfg.nxb = 32;
  cfg.nyb = 32;
  cfg.nroot = {2, 2, 1};
  cfg.maxblocks = 16;
  mesh::AmrMesh m(cfg, mem::HugePolicy::kNone, runtime.layout(),
                  runtime.page_pool(), runtime.arena());
  // f(r) = r around the domain center.
  m.for_leaf_cells([&](int b, int i, int j, int k) {
    const double x = m.xcenter(b, i) - 0.5;
    const double y = m.ycenter(b, j) - 0.5;
    m.unk().at(kDens, i, j, k, b) = std::sqrt(x * x + y * y);
  });
  RadialProfile profile(m, {0.5, 0.5, 0.0}, 20, {kDens});
  // Mid-radius bins reproduce f(r) = r.
  for (int bin = 4; bin < 10; ++bin) {
    EXPECT_NEAR(profile.value(0, bin) / profile.bin_radius(bin), 1.0, 0.1)
        << "bin " << bin;
  }
}

TEST(RadialProfileTest, SteepestGradientFindsAStep) {
  rt::Runtime runtime;
  mesh::MeshConfig cfg;
  cfg.ndim = 2;
  cfg.nxb = 32;
  cfg.nyb = 32;
  cfg.nroot = {2, 2, 1};
  cfg.maxblocks = 16;
  mesh::AmrMesh m(cfg, mem::HugePolicy::kNone, runtime.layout(),
                  runtime.page_pool(), runtime.arena());
  m.for_leaf_cells([&](int b, int i, int j, int k) {
    const double x = m.xcenter(b, i) - 0.5;
    const double y = m.ycenter(b, j) - 0.5;
    m.unk().at(kDens, i, j, k, b) =
        std::sqrt(x * x + y * y) < 0.25 ? 5.0 : 1.0;
  });
  RadialProfile profile(m, {0.5, 0.5, 0.0}, 25, {kDens});
  EXPECT_NEAR(profile.steepest_gradient_radius(0), 0.25, 0.04);
}

// -------------------------------------------------------------- supernova

SupernovaParams small_supernova() {
  SupernovaParams p;
  p.max_level = 3;
  p.maxblocks = 400;
  p.table_spec = {-4.0, 10.0, 141, 5.0, 10.0, 51};
  return p;
}

TEST(SupernovaSetupTest, BuildsAHydrostaticStarWithIgnition) {
  rt::Runtime runtime;
  SupernovaSetup setup(small_supernova(), mem::HugePolicy::kNone, runtime);
  EXPECT_GT(setup.wd().mass() / 1.98847e33, 1.2);
  mesh::AmrMesh& m = setup.mesh();
  // Central density on the mesh close to the model's rho_c.
  double rho_center = 0.0;
  m.for_leaf_cells([&](int b, int i, int j, int k) {
    const double r = m.xcenter(b, i);
    const double z = m.ycenter(b, j);
    if (std::sqrt(r * r + z * z) < 1.5e7) {
      rho_center = std::max(rho_center, m.unk().at(kDens, i, j, k, b));
    }
  });
  EXPECT_NEAR(rho_center / 2.0e9, 1.0, 0.1);
  // The ignition bubble exists.
  const int vphi = mesh::var::kFirstScalar + snvar::kPhi;
  EXPECT_GT(m.integrate_product(kDens, vphi), 0.0);
}

TEST(SupernovaSetupTest, CompositionFunctionMapsMixtures) {
  double abar = 0, zbar = 0;
  mixture_composition(1.0, 0.0, 0.0, 0.0, abar, zbar);
  EXPECT_NEAR(abar, 12.0, 1e-12);
  EXPECT_NEAR(zbar, 6.0, 1e-12);
  mixture_composition(0.5, 0.5, 0.0, 0.0, abar, zbar);
  EXPECT_NEAR(abar, 1.0 / (0.5 / 12 + 0.5 / 16), 1e-12);
  EXPECT_NEAR(zbar / abar, 0.5, 1e-12);  // Ye = 0.5 for both C and O
}

TEST(SupernovaEvolution, FiftyStepFlameReleasesEnergy) {
  rt::Runtime runtime;
  Simulation simulation(small_supernova(), runtime, quiet(15));
  mesh::AmrMesh& m = simulation.mesh();
  Driver& driver = simulation.driver();

  const double mass0 = m.integrate(kDens);
  driver.evolve();
  EXPECT_EQ(driver.steps(), 15);
  EXPECT_GT(simulation.flame()->energy_released(), 1e45);  // burning happened
  EXPECT_NEAR(m.integrate(kDens) / mass0, 1.0, 1e-6);
  // The star did not explode numerically: central density stays WD-like.
  double rho_max = 0.0;
  m.for_leaf_cells([&](int b, int i, int j, int k) {
    rho_max = std::max(rho_max, m.unk().at(kDens, i, j, k, b));
  });
  EXPECT_GT(rho_max, 1.0e8);
  EXPECT_LT(rho_max, 1.0e10);
}

// ------------------------------------------------- the FLASH timer table

TEST(DriverTimers, FlashTableNeedsNoTelemetry) {
  // Each driver phase is one span, reduced into the runtime's timers with
  // no telemetry installed.
  rt::Runtime runtime({.lanes = 2});
  DriverOptions opts = quiet(8, 4);
  opts.remesh_interval = 4;
  Simulation simulation(small_supernova(), runtime, opts);
  simulation.driver().evolve();
  ASSERT_EQ(runtime.trace_sink(), nullptr);
  const perf::Timers& timers = simulation.timers();
  EXPECT_EQ(timers.calls("driver.step"), 8u);
  EXPECT_EQ(timers.calls("driver.remesh"), 8u / 4u);
  EXPECT_EQ(timers.overflow(), 0u);
  const char* const phases[] = {"driver.step",    "driver.compute_dt",
                                "driver.step_graph", "driver.gravity",
                                "driver.trace",   "driver.remesh"};
  std::ostringstream table;
  timers.summary(table);
  for (const char* phase : phases) {
    EXPECT_GT(timers.calls(phase), 0u) << phase;
    EXPECT_NE(table.str().find(phase), std::string::npos) << phase;
  }
  EXPECT_NE(table.str().find("elapsed:"), std::string::npos);
}

// ------------------------------------------------- cellular detonation

TEST(CellularSetupTest, PerturbedFrontSeparatesAshFromFuel) {
  rt::Runtime runtime;
  CellularParams params;
  params.max_level = 2;
  params.maxblocks = 128;
  CellularSetup setup(params, mem::HugePolicy::kNone, runtime);
  mesh::AmrMesh& m = setup.mesh();

  // The front is a deterministic perturbed plane inside the domain.
  const double f0 = setup.front_position(0.0);
  const double f1 = setup.front_position(params.domain_y / 3.0);
  EXPECT_NE(f0, f1);  // genuinely perturbed
  EXPECT_DOUBLE_EQ(f0, setup.front_position(0.0));  // and reproducible
  EXPECT_GT(f0, 0.0);
  EXPECT_LT(f0, params.domain_x);

  // phi is a clean 0/1 partition straddling the front, on uniform fuel.
  const int vphi = mesh::var::kFirstScalar + cvar::kPhi;
  double burned_cells = 0.0, fuel_cells = 0.0;
  m.for_leaf_cells([&](int b, int i, int j, int k) {
    const double phi = m.unk().at(vphi, i, j, k, b);
    EXPECT_TRUE(phi == 0.0 || phi == 1.0);
    (phi > 0.5 ? burned_cells : fuel_cells) += 1.0;
    EXPECT_DOUBLE_EQ(m.unk().at(kDens, i, j, k, b), params.rho_fuel);
    if (phi > 0.5) {
      EXPECT_LT(m.xcenter(b, i), setup.front_position(m.ycenter(b, j)));
    }
  });
  EXPECT_GT(burned_cells, 0.0);
  EXPECT_GT(fuel_cells, burned_cells);  // ignition strip is thin
}

TEST(CellularSetupTest, MeshRefinedAlongTheFront) {
  rt::Runtime runtime;
  CellularParams params;
  params.max_level = 3;
  params.maxblocks = 256;
  CellularSetup setup(params, mem::HugePolicy::kNone, runtime);
  EXPECT_EQ(setup.mesh().tree().finest_level(), 3);
  EXPECT_TRUE(setup.mesh().tree().is_balanced());
}

TEST(CellularEvolution, FlameAdvancesConservingMass) {
  rt::Runtime runtime;
  CellularParams params;
  params.max_level = 2;
  params.maxblocks = 128;
  Simulation simulation(params, runtime, quiet(10));
  mesh::AmrMesh& m = simulation.mesh();
  Driver& driver = simulation.driver();

  const int vphi = mesh::var::kFirstScalar + cvar::kPhi;
  const double mass0 = m.integrate(kDens);
  const double burned0 = m.integrate_product(kDens, vphi);
  driver.evolve();
  EXPECT_EQ(driver.steps(), 10);
  EXPECT_GT(driver.sim_time(), 0.0);
  EXPECT_NEAR(m.integrate(kDens) / mass0, 1.0, 1e-9);
  // The ADR front advanced into the fuel and released nuclear energy.
  EXPECT_GT(m.integrate_product(kDens, vphi), burned0);
  EXPECT_GT(simulation.flame()->energy_released(), 0.0);
}

// ------------------------------------------------- simulation wiring

/// What a Simulation wired for one problem, read back after one step.
struct Wiring {
  bool has_flame = false;
  bool has_gravity = false;
  bool has_eos_hook = false;
  std::vector<int> refine_vars;
  double cfl = 0.0;
  bool machine_untraced = false;  ///< a machine at trace_sample = 0
  bool machine_traced = false;    ///< a machine at trace_sample = 2
  std::uint64_t eos_entries = 0;  ///< "eos" region entries, traced step
};

Wiring wiring_of(const ProblemParams& problem) {
  Wiring w;
  {
    rt::Runtime runtime;
    Simulation untraced(problem, runtime, quiet(1));
    w.machine_untraced = untraced.units().machine != nullptr;
  }
  rt::Runtime runtime;
  Simulation simulation(problem, runtime, quiet(1, 2));
  const DriverUnits& units = simulation.units();
  w.has_flame = units.flame != nullptr;
  w.has_gravity = units.gravity != nullptr;
  w.has_eos_hook = static_cast<bool>(units.eos_trace);
  w.refine_vars = simulation.driver().options().refine_vars;
  w.cfl = simulation.hydro().options().cfl;
  w.machine_traced = units.machine != nullptr;
  simulation.driver().evolve();
  w.eos_entries = runtime.perf().regions().get("eos").entries;
  return w;
}

TEST(SimulationWiring, SedovIsHydroWithAGammaLawEosReplay) {
  SedovParams params;
  params.ndim = 2;
  params.nzb = 1;
  params.max_level = 2;
  params.maxblocks = 64;
  const Wiring w = wiring_of(params);
  EXPECT_FALSE(w.has_flame);
  EXPECT_FALSE(w.has_gravity);
  EXPECT_TRUE(w.has_eos_hook);
  EXPECT_EQ(w.refine_vars, (std::vector<int>{kDens, kPres}));
  EXPECT_EQ(w.cfl, 0.8);
  EXPECT_FALSE(w.machine_untraced);
  EXPECT_TRUE(w.machine_traced);
  EXPECT_GT(w.eos_entries, 0u);
}

TEST(SimulationWiring, CellularBurnsWithoutGravityOrEosReplay) {
  CellularParams params;
  params.max_level = 2;
  params.maxblocks = 128;
  const Wiring w = wiring_of(params);
  EXPECT_TRUE(w.has_flame);
  EXPECT_FALSE(w.has_gravity);
  EXPECT_FALSE(w.has_eos_hook);
  EXPECT_EQ(w.refine_vars,
            (std::vector<int>{kDens, mesh::var::kFirstScalar + cvar::kPhi}));
  EXPECT_EQ(w.cfl, 0.8);
  EXPECT_FALSE(w.machine_untraced);
  EXPECT_TRUE(w.machine_traced);
  EXPECT_EQ(w.eos_entries, 0u);
}

TEST(SimulationWiring, SupernovaHasEveryUnitAndRunsAtCfl06) {
  const Wiring w = wiring_of(small_supernova());
  EXPECT_TRUE(w.has_flame);
  EXPECT_TRUE(w.has_gravity);
  EXPECT_TRUE(w.has_eos_hook);
  EXPECT_EQ(w.refine_vars,
            (std::vector<int>{kDens, mesh::var::kFirstScalar + snvar::kPhi}));
  EXPECT_EQ(w.cfl, 0.6);
  EXPECT_FALSE(w.machine_untraced);
  EXPECT_TRUE(w.machine_traced);
  EXPECT_GT(w.eos_entries, 0u);
}

TEST(SimulationWiring, CallerOptionsOverrideTheProblemDefaults) {
  rt::Runtime runtime;
  DriverOptions opts = quiet(1);
  opts.refine_vars = {kPres};
  SedovParams params;
  params.ndim = 2;
  params.nzb = 1;
  params.max_level = 2;
  params.maxblocks = 64;
  Simulation simulation(params, runtime, opts,
                        hydro::HydroOptions{.cfl = 0.6});
  EXPECT_EQ(simulation.driver().options().refine_vars,
            (std::vector<int>{kPres}));
  EXPECT_EQ(simulation.hydro().options().cfl, 0.6);
  EXPECT_NO_THROW((void)simulation.setup<SedovSetup>());
  EXPECT_THROW((void)simulation.setup<SupernovaSetup>(),
               std::bad_variant_access);
}

// --------------------------------------------- reproduction invariants

/// The paper's headline shape, in miniature: with huge pages the EOS
/// region's DTLB miss rate collapses while its runtime barely moves.
TEST(ReproductionShape, HugePagesCutEosDtlbMissesButNotTime) {
  auto run_arm = [](mem::HugePolicy policy) {
    rt::Runtime runtime({.policy = policy});
    SupernovaParams p;
    p.max_level = 3;
    p.maxblocks = 400;
    // nrho must stay FLASH-sized (rows > one 4 KiB page) for the gather
    // pattern to be faithful; the T range is trimmed for build speed.
    p.table_spec = {-4.0, 10.0, 541, 5.0, 10.0, 41};
    Simulation simulation(p, runtime, quiet(8, 2));
    simulation.driver().evolve();
    return perf::derive_measures(
        runtime.perf().regions().get("eos").totals, 1.8e9);
  };

  const auto without = run_arm(mem::HugePolicy::kNone);
  const auto with = run_arm(mem::HugePolicy::kHugetlbfs);
  ASSERT_GT(without.dtlb_misses_per_s, 0.0);
  const double dtlb_ratio =
      with.dtlb_misses_per_s / without.dtlb_misses_per_s;
  const double time_ratio = with.time_seconds / without.time_seconds;

  // The reproduction bands (paper: 0.047 and 0.935). If the kernel
  // granted no huge pages the ratios sit at 1 and the test cannot judge
  // the model — skip rather than fail.
  if (dtlb_ratio > 0.95) {
    GTEST_SKIP() << "no huge pages obtainable on this system";
  }
  EXPECT_LT(dtlb_ratio, 0.3);
  EXPECT_GT(time_ratio, 0.8);
  EXPECT_LT(time_ratio, 1.02);
}

/// The paper's negative result, §IV: policy `none` and a THP request on
/// a kernel that refuses promotion both end up on base pages — and the
/// library reports that honestly instead of assuming success.
TEST(ReproductionShape, BackingIsVerifiedNotAssumed) {
  mem::MapRequest req;
  req.bytes = 8u << 20;
  req.policy = mem::HugePolicy::kThp;
  mem::MappedRegion region(req);
  const auto rollup_huge = region.resident_huge_bytes();
  if (rollup_huge == 0) {
    // THP declined (the paper's GNU/Cray mystery, reproduced by this
    // kernel): the effective translation page must be the base page.
    EXPECT_EQ(tlb::effective_page_shift(region), 12);
  } else {
    EXPECT_EQ(tlb::effective_page_shift(region), 21);
  }
}

}  // namespace
}  // namespace fhp::sim
