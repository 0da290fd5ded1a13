#include "sim/cellular.hpp"

#include <cmath>

#include "support/log.hpp"

namespace fhp::sim {

using mesh::var::kDens;
using mesh::var::kEint;
using mesh::var::kEner;
using mesh::var::kFirstScalar;
using mesh::var::kGamc;
using mesh::var::kGame;
using mesh::var::kPres;
using mesh::var::kTemp;
using mesh::var::kVelx;
using mesh::var::kVely;
using mesh::var::kVelz;

CellularSetup::CellularSetup(const CellularParams& params,
                             mem::HugePolicy policy, rt::Runtime& runtime)
    : params_(params),
      eos_(params.gamma),
      flame_speeds_(6.0, 10.0, 81, 0.2, 0.8, 25, 0.0) {
  mesh::MeshConfig config;
  config.ndim = 2;
  config.nxb = params_.nxb;
  config.nyb = params_.nyb;
  config.nzb = 1;
  config.nguard = params_.nguard;
  config.nscalars = cvar::kCount;
  config.maxblocks = params_.maxblocks;
  config.max_level = params_.max_level;
  config.geometry = mesh::Geometry::kCartesian;
  config.lo = {0.0, 0.0, 0.0};
  config.hi = {params_.domain_x, params_.domain_y, 1.0};
  // Square root blocks along the channel; periodic transverse walls so
  // the transverse cell structure wraps, outflow ahead of and behind the
  // front.
  const int nroot_x = std::max(
      1, static_cast<int>(std::lround(params_.domain_x / params_.domain_y)));
  config.nroot = {nroot_x, 1, 1};
  config.bc[0][0] = mesh::Bc::kOutflow;
  config.bc[0][1] = mesh::Bc::kOutflow;
  config.bc[1][0] = mesh::Bc::kPeriodic;
  config.bc[1][1] = mesh::Bc::kPeriodic;
  mesh_ = std::make_unique<mesh::AmrMesh>(config, policy, runtime.layout(),
                                          runtime.page_pool(),
                                          runtime.arena());

  flame::AdrOptions fopt;
  fopt.phi_scalar = cvar::kPhi;
  fopt.fuel_scalar = cvar::kFuel;
  fopt.ash_scalar = cvar::kAsh;
  flame_ = std::make_unique<flame::AdrFlame>(*mesh_, flame_speeds_, fopt);

  initialize();
}

double CellularSetup::front_position(double y) const {
  // Deterministic multi-mode seed: fixed phases, 1/m amplitude falloff.
  // No RNG — two constructions of the same params are bit-identical,
  // which the service's fair-share determinism contract relies on.
  double x = params_.ignition_x;
  for (int m = 1; m <= params_.perturb_modes; ++m) {
    const double phase = 1.7 * static_cast<double>(m);
    x += params_.perturb_amp / static_cast<double>(m) *
         std::sin(2.0 * M_PI * static_cast<double>(m) * y /
                      params_.domain_y +
                  phase);
  }
  return x;
}

void CellularSetup::initialize() {
  mesh::AmrMesh& m = *mesh_;
  const double q_burn = flame_->options().q_burn;

  auto apply = [&](int b, int i, int j, int k) {
    const double x = m.xcenter(b, i);
    const double y = m.ycenter(b, j);
    const double phi = x < front_position(y) ? 1.0 : 0.0;

    const double rho = params_.rho_fuel;
    // Ash carries the released nuclear energy; pressure follows the
    // gamma law so the burned strip drives the detonation.
    const double eint =
        params_.p_fuel / ((params_.gamma - 1.0) * rho) +
        phi * params_.x_fuel * q_burn;
    const double pres = (params_.gamma - 1.0) * rho * eint;

    mesh::UnkContainer& unk = m.unk();
    unk.at(kDens, i, j, k, b) = rho;
    unk.at(kVelx, i, j, k, b) = 0.0;
    unk.at(kVely, i, j, k, b) = 0.0;
    unk.at(kVelz, i, j, k, b) = 0.0;
    unk.at(kPres, i, j, k, b) = pres;
    unk.at(kEint, i, j, k, b) = eint;
    unk.at(kEner, i, j, k, b) = eint;  // velocities are zero
    unk.at(kGamc, i, j, k, b) = params_.gamma;
    unk.at(kGame, i, j, k, b) = params_.gamma;
    unk.at(kTemp, i, j, k, b) = 0.0;
    unk.at(kFirstScalar + cvar::kPhi, i, j, k, b) = phi;
    unk.at(kFirstScalar + cvar::kFuel, i, j, k, b) =
        params_.x_fuel * (1.0 - phi);
    unk.at(kFirstScalar + cvar::kAsh, i, j, k, b) = params_.x_fuel * phi;
  };

  m.for_leaf_cells(apply);
  const std::array<int, 2> est_vars{kPres, kFirstScalar + cvar::kPhi};
  for (int pass = 0; pass < m.config().max_level; ++pass) {
    const int changes = m.remesh(est_vars, 0.6, 0.1);
    m.for_leaf_cells(apply);
    if (changes == 0) break;
  }
  FHP_LOG(kInfo) << "cellular detonation initialized: "
                 << m.tree().leaves_morton().size()
                 << " leaf blocks, finest level " << m.tree().finest_level();
}

}  // namespace fhp::sim
