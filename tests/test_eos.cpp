/// \file test_eos.cpp
/// \brief Unit tests for the EOS library: Fermi-Dirac integrals, the
/// gamma-law and degenerate EOS, and the tabulated production path.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "eos/eos_table.hpp"
#include "eos/fermi_dirac.hpp"
#include "eos/gamma_eos.hpp"
#include "eos/helmholtz_eos.hpp"
#include "rt/runtime.hpp"
#include "support/constants.hpp"
#include "support/error.hpp"
#include "tlb/machine.hpp"

namespace fhp::eos {
namespace {

namespace c = fhp::constants;

// ------------------------------------------------------------ Fermi-Dirac

TEST(FermiDirac, NonDegenerateLimitIsBoltzmann) {
  // F_k(eta << 0, 0) -> e^eta Gamma(k+1).
  for (const double k : {0.5, 1.5, 2.5}) {
    const double f = fd_integral(k, -25.0, 0.0);
    const double expected = std::exp(-25.0) * std::tgamma(k + 1.0);
    EXPECT_NEAR(f / expected, 1.0, 3e-6) << "k=" << k;
  }
}

TEST(FermiDirac, DegenerateLimitIsPowerLaw) {
  // F_k(eta >> 1, 0) -> eta^{k+1}/(k+1) (+ Sommerfeld corrections ~ 1/eta^2).
  for (const double k : {0.5, 1.5, 2.5}) {
    const double eta = 2000.0;
    const double f = fd_integral(k, eta, 0.0);
    const double leading = std::pow(eta, k + 1.0) / (k + 1.0);
    EXPECT_NEAR(f / leading, 1.0, 1e-4) << "k=" << k;
  }
}

TEST(FermiDirac, EtaDerivativeMatchesFiniteDifference) {
  for (const double eta : {-5.0, 0.0, 3.0, 50.0}) {
    const double h = 1e-5 * std::max(1.0, std::fabs(eta));
    const double fd_numeric = (fd_integral(1.5, eta + h, 0.1) -
                               fd_integral(1.5, eta - h, 0.1)) /
                              (2 * h);
    const double fd_analytic = fd_integral_deta(1.5, eta, 0.1);
    EXPECT_NEAR(fd_analytic / fd_numeric, 1.0, 1e-6) << "eta=" << eta;
  }
}

TEST(FermiDirac, BetaDerivativeMatchesFiniteDifference) {
  for (const double beta : {0.01, 0.5, 10.0}) {
    const double h = 1e-6 * beta;
    const double fd_numeric =
        (fd_integral(1.5, 5.0, beta + h) - fd_integral(1.5, 5.0, beta - h)) /
        (2 * h);
    const double fd_analytic = fd_integral_dbeta(1.5, 5.0, beta);
    EXPECT_NEAR(fd_analytic / fd_numeric, 1.0, 1e-5) << "beta=" << beta;
  }
}

TEST(FermiDirac, FusedEvaluationMatchesScalar) {
  for (const double eta : {-10.0, 1.0, 100.0}) {
    for (const double beta : {0.0, 0.02, 2.0}) {
      const FdSet all = fd_all(eta, beta);
      EXPECT_NEAR(all.f12 / fd_integral(0.5, eta, beta), 1.0, 1e-12);
      EXPECT_NEAR(all.f32 / fd_integral(1.5, eta, beta), 1.0, 1e-12);
      EXPECT_NEAR(all.f52 / fd_integral(2.5, eta, beta), 1.0, 1e-12);
      EXPECT_NEAR(all.f32e / fd_integral_deta(1.5, eta, beta), 1.0, 1e-12);
      if (beta > 0.0) {
        EXPECT_NEAR(all.f52b / fd_integral_dbeta(2.5, eta, beta), 1.0,
                    1e-12);
      }
    }
  }
}

TEST(FermiDirac, RejectsBadArguments) {
  EXPECT_THROW(static_cast<void>(fd_integral(-1.5, 0.0, 0.0)), ConfigError);
  EXPECT_THROW(static_cast<void>(fd_integral(0.5, 0.0, -1.0)), ConfigError);
}

// -------------------------------------------------------------- gamma EOS

TEST(GammaEosTest, IdealGasLawInDensTemp) {
  GammaEos eos(1.4);
  State s;
  s.abar = 1.0;
  s.rho = 1.0e-3;
  s.temp = 300.0;
  eos.eval_one(Mode::kDensTemp, s);
  const double expected_p = s.rho * c::kAvogadro * c::kBoltzmann * 300.0;
  EXPECT_NEAR(s.pres / expected_p, 1.0, 1e-12);
  EXPECT_NEAR(s.ener, s.pres / (0.4 * s.rho), 1e-3);
  EXPECT_DOUBLE_EQ(s.gamma1, 1.4);
  EXPECT_NEAR(s.cs, std::sqrt(1.4 * s.pres / s.rho), 1e-6);
}

TEST(GammaEosTest, AllModesAreConsistent) {
  GammaEos eos(5.0 / 3.0);
  State a;
  a.abar = 4.0;
  a.rho = 0.01;
  a.temp = 1.0e6;
  eos.eval_one(Mode::kDensTemp, a);

  State b = a;
  b.temp = 0.0;
  eos.eval_one(Mode::kDensEner, b);
  EXPECT_NEAR(b.temp / a.temp, 1.0, 1e-12);

  State d = a;
  d.temp = 0.0;
  d.ener = 0.0;
  eos.eval_one(Mode::kDensPres, d);
  EXPECT_NEAR(d.ener / a.ener, 1.0, 1e-12);
}

TEST(GammaEosTest, RejectsUnphysicalInputs) {
  GammaEos eos(1.4);
  State s;
  s.rho = -1.0;
  s.temp = 100.0;
  EXPECT_THROW(eos.eval_one(Mode::kDensTemp, s), NumericsError);
  s.rho = 1.0;
  s.temp = -5.0;
  EXPECT_THROW(eos.eval_one(Mode::kDensTemp, s), NumericsError);
  EXPECT_THROW(GammaEos(1.0), ConfigError);
}

// --------------------------------------------------------- Helmholtz (direct)

TEST(HelmholtzEosTest, IdealLimitAtLowDensity) {
  // Hot, dilute hydrogen plasma: electrons behave classically; total
  // pressure ~ ions + electrons (2 n k T) + radiation.
  HelmholtzEos eos;
  State s;
  s.abar = 1.0;
  s.zbar = 1.0;
  s.rho = 1.0e-4;
  s.temp = 1.0e6;
  eos.eval_one(Mode::kDensTemp, s);
  const double n = s.rho * c::kAvogadro;
  const double p_ideal = 2.0 * n * c::kBoltzmann * s.temp;
  const double p_rad = c::kRadiationConstant * std::pow(s.temp, 4) / 3.0;
  EXPECT_NEAR(s.pres / (p_ideal + p_rad), 1.0, 1e-3);
  EXPECT_LT(s.eta, -5.0);  // non-degenerate
}

TEST(HelmholtzEosTest, DegenerateNonRelativisticScaling) {
  // Cold dense gas: P_e ~ K (rho Ye)^{5/3} below the relativistic bend.
  HelmholtzEos eos;
  auto pressure = [&eos](double rho) {
    State s;
    s.abar = 12.0;
    s.zbar = 6.0;
    s.rho = rho;
    s.temp = 1.0e5;  // kT << E_F
    eos.eval_one(Mode::kDensTemp, s);
    return s.pres;
  };
  const double slope = std::log(pressure(2.0e4) / pressure(1.0e4)) /
                       std::log(2.0);
  EXPECT_NEAR(slope, 5.0 / 3.0, 0.03);
}

TEST(HelmholtzEosTest, UltraRelativisticScaling) {
  // At WD-core densities the exponent bends toward 4/3.
  HelmholtzEos eos;
  auto pressure = [&eos](double rho) {
    State s;
    s.abar = 12.0;
    s.zbar = 6.0;
    s.rho = rho;
    s.temp = 1.0e6;
    eos.eval_one(Mode::kDensTemp, s);
    return s.pres;
  };
  const double slope = std::log(pressure(4.0e9) / pressure(2.0e9)) /
                       std::log(2.0);
  EXPECT_NEAR(slope, 4.0 / 3.0, 0.03);
}

TEST(HelmholtzEosTest, DerivativesMatchFiniteDifferences) {
  HelmholtzEos eos;
  State s;
  s.abar = 13.714;
  s.zbar = 6.857;
  s.rho = 2.0e9;
  s.temp = 1.0e8;
  eos.eval_one(Mode::kDensTemp, s);

  State lo = s, hi = s;
  lo.temp = s.temp * 0.999;
  hi.temp = s.temp * 1.001;
  eos.eval_one(Mode::kDensTemp, lo);
  eos.eval_one(Mode::kDensTemp, hi);
  EXPECT_NEAR(s.dpdt / ((hi.pres - lo.pres) / (hi.temp - lo.temp)), 1.0,
              1e-5);
  EXPECT_NEAR(s.cv / ((hi.ener - lo.ener) / (hi.temp - lo.temp)), 1.0, 1e-5);

  lo = s;
  hi = s;
  lo.rho = s.rho * 0.999;
  hi.rho = s.rho * 1.001;
  lo.temp = hi.temp = 1.0e8;
  eos.eval_one(Mode::kDensTemp, lo);
  eos.eval_one(Mode::kDensTemp, hi);
  EXPECT_NEAR(s.dpdr / ((hi.pres - lo.pres) / (hi.rho - lo.rho)), 1.0, 1e-4);
}

TEST(HelmholtzEosTest, EnergyInversionRoundTrip) {
  HelmholtzEos eos;
  for (const double rho : {1.0e2, 1.0e6, 2.0e9}) {
    for (const double temp : {1.0e6, 1.0e8, 3.0e9}) {
      State s;
      s.abar = 13.714;
      s.zbar = 6.857;
      s.rho = rho;
      s.temp = temp;
      eos.eval_one(Mode::kDensTemp, s);
      State inv = s;
      inv.temp = temp * 3.0;  // poor initial guess on purpose
      eos.eval_one(Mode::kDensEner, inv);
      // dE/dT collapses under strong degeneracy, so the recovered T is
      // ill-conditioned there; 1e-5 relative is the honest bound.
      EXPECT_NEAR(inv.temp / temp, 1.0, 1e-5)
          << "rho=" << rho << " T=" << temp;
    }
  }
}

TEST(HelmholtzEosTest, PressureInversionRoundTrip) {
  HelmholtzEos eos;
  State s;
  s.abar = 13.714;
  s.zbar = 6.857;
  s.rho = 1.0e7;
  s.temp = 5.0e8;
  eos.eval_one(Mode::kDensTemp, s);
  State inv = s;
  inv.temp = 1.0e7;
  eos.eval_one(Mode::kDensPres, inv);
  EXPECT_NEAR(inv.temp / 5.0e8, 1.0, 1e-8);
}

TEST(HelmholtzEosTest, EtaSolveSatisfiesChargeNeutrality) {
  HelmholtzEos eos;
  const double rho = 1.0e8, temp = 5.0e9, ye = 0.5;
  const double eta = eos.solve_eta(rho, temp, ye);
  // eta is finite and physically ordered: denser => more degenerate.
  const double eta2 = eos.solve_eta(10.0 * rho, temp, ye);
  EXPECT_GT(eta2, eta);
  const double eta3 = eos.solve_eta(rho, 2.0 * temp, ye);
  EXPECT_LT(eta3, eta);  // hotter => less degenerate
}

TEST(HelmholtzEosTest, PairProductionRaisesEnergyAtHighT) {
  // Above ~6e9 K electron-positron pairs appear: energy grows faster
  // than the ion+radiation-only expectation.
  HelmholtzEos eos;
  State cold, hot;
  cold.abar = hot.abar = 12.0;
  cold.zbar = hot.zbar = 6.0;
  cold.rho = hot.rho = 1.0e4;
  cold.temp = 2.0e9;
  hot.temp = 2.0e10;
  eos.eval_one(Mode::kDensTemp, cold);
  eos.eval_one(Mode::kDensTemp, hot);
  EXPECT_GT(hot.eta, -2.0 / (c::kBoltzmann * hot.temp /
                             c::kElectronRestEnergy));  // pairs regime
  EXPECT_GT(hot.ener, cold.ener);
}

TEST(HelmholtzEosTest, OutOfRangeInputsThrow) {
  HelmholtzEos eos;
  State s;
  s.rho = 1.0e-20;
  s.temp = 1.0e8;
  EXPECT_THROW(eos.eval_one(Mode::kDensTemp, s), NumericsError);
  s.rho = 1.0;
  s.temp = 1.0;
  EXPECT_THROW(eos.eval_one(Mode::kDensTemp, s), NumericsError);
}

TEST(HelmholtzEosTest, Gamma1BetweenLimits) {
  HelmholtzEos eos;
  State s;
  s.abar = 13.714;
  s.zbar = 6.857;
  s.rho = 2.0e9;
  s.temp = 1.0e8;
  eos.eval_one(Mode::kDensTemp, s);
  EXPECT_GT(s.gamma1, 4.0 / 3.0 - 0.01);
  EXPECT_LT(s.gamma1, 5.0 / 3.0 + 0.01);
  EXPECT_GT(s.cp, s.cv);
  EXPECT_GT(s.cs, 0.0);
  EXPECT_LT(s.cs, c::kSpeedOfLight);
}

// ---------------------------------------------------------------- table

/// Small shared table for the table tests (built once).
const HelmTable& test_table() {
  static mem::PagePool pool;  // constructed first, so it outlives the table
  static HelmTable table = HelmTable::build_or_load(
      HelmTableSpec{-4.0, 10.0, 141, 5.0, 10.0, 51}, mem::HugePolicy::kNone,
      pool);
  return table;
}

TEST(HelmTableTest, InterpolationMatchesDirectEvaluation) {
  const HelmholtzEos direct;
  const HelmTable& table = test_table();
  // Off-node points across the WD regime.
  for (const double rho_ye : {3.3e2, 1.7e5, 9.1e8}) {
    for (const double temp : {2.3e6, 7.7e7, 4.1e8}) {
      const auto ref = direct.eval_ep(rho_ye, temp);
      const auto interp = table.interpolate(rho_ye, temp);
      EXPECT_NEAR(interp.p / ref.p, 1.0, 1e-3)
          << "rhoYe=" << rho_ye << " T=" << temp;
      EXPECT_NEAR(interp.e / ref.e, 1.0, 1e-3);
      EXPECT_NEAR(interp.p_d / ref.p_d, 1.0, 2e-2);
      // dP/dT can pass through zero under degeneracy; compare it only
      // where it carries a meaningful fraction of P/T.
      if (std::fabs(ref.p_t) * temp > 0.05 * ref.p) {
        EXPECT_NEAR(interp.p_t / ref.p_t, 1.0, 2e-2)
            << "rhoYe=" << rho_ye << " T=" << temp;
      }
    }
  }
}

TEST(HelmTableTest, ExactOnNodes) {
  const HelmholtzEos direct;
  const HelmTable& table = test_table();
  const auto& spec = test_table().spec();
  // A node point reproduces the stored value to rounding.
  const double rho_ye = std::pow(10.0, spec.log_rho_min +
                                           10 * (spec.log_rho_max -
                                                 spec.log_rho_min) /
                                               (spec.nrho - 1));
  const double temp = std::pow(10.0, spec.log_temp_min +
                                         7 * (spec.log_temp_max -
                                              spec.log_temp_min) /
                                             (spec.ntemp - 1));
  const auto ref = direct.eval_ep(rho_ye, temp);
  const auto interp = table.interpolate(rho_ye, temp);
  EXPECT_NEAR(interp.p / ref.p, 1.0, 1e-10);
  EXPECT_NEAR(interp.e / ref.e, 1.0, 1e-10);
}

TEST(HelmTableTest, OutOfRangeThrows) {
  const HelmTable& table = test_table();
  EXPECT_THROW(static_cast<void>(table.interpolate(1.0e-30, 1.0e8)),
               NumericsError);
  EXPECT_THROW(static_cast<void>(table.interpolate(1.0e5, 1.0e30)),
               NumericsError);
  EXPECT_THROW(static_cast<void>(table.interpolate(-1.0, 1.0e8)),
               NumericsError);
}

TEST(HelmTableTest, SaveLoadRoundTrip) {
  rt::Runtime runtime;
  const HelmTableSpec spec{-2.0, 8.0, 21, 6.0, 9.0, 11};
  HelmTable built =
      HelmTable::build(spec, mem::HugePolicy::kNone, runtime.page_pool());
  built.save("helm_roundtrip.bin");
  auto loaded = HelmTable::load(spec, mem::HugePolicy::kNone,
                                runtime.page_pool(), "helm_roundtrip.bin");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->node(HelmTable::kP, 10, 5),
            built.node(HelmTable::kP, 10, 5));
  // A different spec refuses the file.
  HelmTableSpec other = spec;
  other.nrho = 22;
  EXPECT_FALSE(
      HelmTable::load(other, mem::HugePolicy::kNone, runtime.page_pool(),
                      "helm_roundtrip.bin")
          .has_value());
}

/// The whole content of the file at \p path.
std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// save() replaces the file instead of rewriting it in place: a reader
/// that opened the old file reads it to the end, untorn, and the path
/// then holds the new table.
TEST(HelmTableTest, SaveLeavesAnOpenReaderTheOldFile) {
  rt::Runtime runtime;
  const HelmTableSpec spec_a{-2.0, 8.0, 21, 6.0, 9.0, 11};
  const HelmTableSpec spec_b{-2.0, 8.0, 25, 6.0, 9.0, 13};
  const std::string path = "helm_save_replace.bin";
  HelmTable::build(spec_a, mem::HugePolicy::kNone, runtime.page_pool())
      .save(path);
  const std::string a_bytes = file_bytes(path);
  ASSERT_FALSE(a_bytes.empty());

  std::ifstream reader(path, std::ios::binary);
  ASSERT_TRUE(reader);
  HelmTable::build(spec_b, mem::HugePolicy::kNone, runtime.page_pool())
      .save(path);
  const std::string read{std::istreambuf_iterator<char>(reader),
                         std::istreambuf_iterator<char>()};
  EXPECT_EQ(read, a_bytes);
  EXPECT_TRUE(HelmTable::load(spec_b, mem::HugePolicy::kNone,
                              runtime.page_pool(), path)
                  .has_value());
}

/// A save that cannot complete throws and leaves no temporary file.
TEST(HelmTableTest, FailedSaveLeavesNoTemporaryFile) {
  rt::Runtime runtime;
  const std::filesystem::path dir = "helm_save_failure";
  std::filesystem::remove_all(dir);
  // The target is a directory, so the final rename fails.
  std::filesystem::create_directories(dir / "cache.bin");
  EXPECT_THROW(HelmTable::build(HelmTableSpec{-2.0, 8.0, 21, 6.0, 9.0, 11},
                                mem::HugePolicy::kNone, runtime.page_pool())
                   .save((dir / "cache.bin").string()),
               SystemError);
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            1);
  std::filesystem::remove_all(dir);
}

/// One cache file per grid, at an absolute path in an existing directory
/// (the build tree), so the working directory does not choose it.
TEST(HelmTableTest, CachePathIsPerSpecAndAbsolute) {
  const HelmTableSpec a{-4.0, 10.0, 141, 5.0, 10.0, 51};
  HelmTableSpec b = a;
  b.log_temp_max = 10.5;
  const std::filesystem::path path_a = HelmTable::cache_path(a);
  EXPECT_TRUE(path_a.is_absolute()) << path_a;
  EXPECT_TRUE(std::filesystem::is_directory(path_a.parent_path())) << path_a;
  EXPECT_EQ(HelmTable::cache_path(a), path_a.string());
  EXPECT_NE(HelmTable::cache_path(b), path_a.string());
  EXPECT_NE(HelmTable::cache_path(HelmTableSpec{}), path_a.string());
}

TEST(HelmTableTest, TraceTouchesTableBytes) {
  const HelmTable& table = test_table();
  tlb::Machine machine;
  tlb::Tracer tracer(&machine);
  table.trace_interpolate(tracer, 1.0e6, 1.0e8, true);
  // 16 planes x 2 rows of 16 bytes: 32 touches (single-line each).
  EXPECT_EQ(machine.quantum().accesses, 32u);
  EXPECT_GT(machine.quantum().vector_ops, 0u);
}

TEST(HelmTableEosTest, MatchesDirectEosThroughAssembly) {
  rt::Runtime runtime;
  auto table = std::make_shared<HelmTable>(HelmTable::build_or_load(
      HelmTableSpec{-4.0, 10.0, 141, 5.0, 10.0, 51}, mem::HugePolicy::kNone,
      runtime.page_pool()));
  const HelmTableEos tabulated(table);
  const HelmholtzEos direct;

  State a, b;
  a.abar = b.abar = 13.714;
  a.zbar = b.zbar = 6.857;
  a.rho = b.rho = 3.0e7;
  a.temp = b.temp = 2.0e8;
  direct.eval_dens_temp(a);
  tabulated.eval_dens_temp(b);
  EXPECT_NEAR(b.pres / a.pres, 1.0, 1e-3);
  EXPECT_NEAR(b.ener / a.ener, 1.0, 1e-3);
  EXPECT_NEAR(b.gamma1 / a.gamma1, 1.0, 1e-2);
  EXPECT_NEAR(b.cs / a.cs, 1.0, 1e-2);
}

TEST(HelmTableEosTest, InversionRoundTripThroughTable) {
  rt::Runtime runtime;
  auto table = std::make_shared<HelmTable>(HelmTable::build_or_load(
      HelmTableSpec{-4.0, 10.0, 141, 5.0, 10.0, 51}, mem::HugePolicy::kNone,
      runtime.page_pool()));
  const HelmTableEos eos(table);
  State s;
  s.abar = 13.714;
  s.zbar = 6.857;
  s.rho = 1.0e8;
  s.temp = 7.0e8;
  eos.eval_one(Mode::kDensTemp, s);
  State inv = s;
  inv.temp = 1.0e7;
  eos.eval_one(Mode::kDensEner, inv);
  EXPECT_NEAR(inv.temp / 7.0e8, 1.0, 1e-8);
}

TEST(HelmTableEosTest, TemperatureFloorClampsInsteadOfThrowing) {
  rt::Runtime runtime;
  auto table = std::make_shared<HelmTable>(HelmTable::build_or_load(
      HelmTableSpec{-4.0, 10.0, 141, 5.0, 10.0, 51}, mem::HugePolicy::kNone,
      runtime.page_pool()));
  const HelmTableEos eos(table);
  State s;
  s.abar = 13.714;
  s.zbar = 6.857;
  s.rho = 1.0e2;
  s.ener = 1.0e-10;  // far below e(T_min): must clamp, not diverge
  s.temp = 1.0e8;
  eos.eval_one(Mode::kDensEner, s);
  EXPECT_NEAR(s.temp, 1.0e5, 1.0);  // pinned at the table floor
  EXPECT_GT(s.ener, 1.0e-10);       // boundary-state energy returned
}

TEST(HelmTableTest, SpecValidation) {
  rt::Runtime runtime;
  EXPECT_THROW(HelmTable::build(HelmTableSpec{0, 1, 2, 0, 1, 8},
                                mem::HugePolicy::kNone, runtime.page_pool()),
               ConfigError);
  EXPECT_THROW(HelmTable::build(HelmTableSpec{5, 1, 8, 0, 1, 8},
                                mem::HugePolicy::kNone, runtime.page_pool()),
               ConfigError);
}

}  // namespace
}  // namespace fhp::eos
