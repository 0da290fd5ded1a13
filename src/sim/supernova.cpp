#include "sim/supernova.hpp"

#include <cmath>

#include "support/error.hpp"
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

void mixture_composition(double xc, double xo, double xne, double xash,
                         double& abar, double& zbar) {
  // A: 12, 16, 22, 24; Z: 6, 8, 10, 12. Normalize defensively.
  const double xsum = std::max(1e-30, xc + xo + xne + xash);
  const double inv_a =
      (xc / 12.0 + xo / 16.0 + xne / 22.0 + xash / 24.0) / xsum;
  const double z_over_a =
      (xc * 6.0 / 12.0 + xo * 8.0 / 16.0 + xne * 10.0 / 22.0 +
       xash * 12.0 / 24.0) /
      xsum;
  abar = 1.0 / inv_a;
  zbar = z_over_a * abar;
}

SupernovaSetup::SupernovaSetup(const SupernovaParams& params,
                               mem::HugePolicy policy, rt::Runtime& runtime)
    : params_(params),
      flame_speeds_(6.0, 10.0, 81, 0.2, 0.8, 25, params.x_ne22) {
  // --- EOS table (lives on the policy under test, like unk) -------------
  table_ = std::make_shared<eos::HelmTable>(eos::HelmTable::build_or_load(
      params_.table_spec, policy, runtime.page_pool(),
      params_.table_cache.empty()
          ? eos::HelmTable::cache_path(params_.table_spec)
          : params_.table_cache));
  table_->refresh_page_shift();
  eos_ = std::make_unique<eos::HelmTableEos>(table_);

  // --- hydrostatic progenitor -------------------------------------------
  gravity::WdParams wdp;
  wdp.central_density = params_.central_density;
  wdp.core_temperature = params_.core_temperature;
  mixture_composition(params_.x_carbon, params_.x_oxygen, params_.x_ne22,
                      0.0, wdp.abar, wdp.zbar);
  wd_ = std::make_unique<gravity::WhiteDwarfModel>(*eos_, wdp);
  FHP_LOG(kInfo) << "white dwarf model: R = " << wd_->radius() / 1e5
                 << " km, M = " << wd_->mass() / 1.98847e33 << " Msun";

  // --- mesh ---------------------------------------------------------------
  mesh::MeshConfig config;
  config.ndim = 2;
  config.nxb = params_.nxb;
  config.nyb = params_.nyb;
  config.nzb = 1;
  config.nguard = params_.nguard;
  config.nscalars = snvar::kCount;
  config.maxblocks = params_.maxblocks;
  config.max_level = params_.max_level;
  config.geometry = mesh::Geometry::kCylindrical;
  config.lo = {0.0, -params_.domain_radius, 0.0};
  config.hi = {params_.domain_radius, params_.domain_radius, 0.0 + 1.0};
  config.nroot = {1, 2, 1};  // square blocks: r spans half the z extent
  config.bc[0][0] = mesh::Bc::kAxis;
  config.bc[0][1] = mesh::Bc::kOutflow;
  config.bc[1][0] = mesh::Bc::kOutflow;
  config.bc[1][1] = mesh::Bc::kOutflow;
  mesh_ = std::make_unique<mesh::AmrMesh>(config, policy, runtime.layout(),
                                          runtime.page_pool(),
                                          runtime.arena());

  // --- physics units -------------------------------------------------------
  flame::AdrOptions fopt;
  fopt.phi_scalar = snvar::kPhi;
  fopt.fuel_scalar = snvar::kC12;
  fopt.ash_scalar = snvar::kAsh;
  flame_ = std::make_unique<flame::AdrFlame>(*mesh_, flame_speeds_, fopt);
  gravity_ = std::make_unique<gravity::MonopoleGravity>(
      std::array<double, 3>{0.0, 0.0, 0.0}, 512);

  initialize();
}

void SupernovaSetup::initialize() {
  mesh::AmrMesh& m = *mesh_;

  auto apply = [&](int b, int i, int j, int k) {
    const double r = m.xcenter(b, i);
    const double z = m.ycenter(b, j);
    const double radius = std::sqrt(r * r + z * z);

    const bool in_star = radius < wd_->radius();
    const double rho = in_star ? wd_->density_at(radius)
                               : params_.fluff_density;
    const double temp = in_star ? params_.core_temperature
                                : params_.fluff_temperature;

    // Ignition match-head: fully burned sphere on the axis.
    const double zi = z - params_.ignition_offset;
    const double ri = std::sqrt(r * r + zi * zi);
    const double phi = ri < params_.ignition_radius ? 1.0 : 0.0;

    const double xash = phi * params_.x_carbon;  // burned carbon
    const double xc = params_.x_carbon * (1.0 - phi);
    double abar, zbar;
    mixture_composition(xc, params_.x_oxygen, params_.x_ne22, xash, abar,
                        zbar);

    eos::State s;
    s.abar = abar;
    s.zbar = zbar;
    s.rho = rho;
    s.temp = temp;
    eos_->eval_one(eos::Mode::kDensTemp, s);

    mesh::UnkContainer& unk = m.unk();
    unk.at(kDens, i, j, k, b) = rho;
    unk.at(kVelx, i, j, k, b) = 0.0;
    unk.at(kVely, i, j, k, b) = 0.0;
    unk.at(kVelz, i, j, k, b) = 0.0;
    unk.at(kPres, i, j, k, b) = s.pres;
    unk.at(kTemp, i, j, k, b) = s.temp;
    unk.at(kEint, i, j, k, b) = s.ener;
    unk.at(kEner, i, j, k, b) = s.ener;  // velocities are zero
    unk.at(kGamc, i, j, k, b) = s.gamma1;
    unk.at(kGame, i, j, k, b) = s.pres / (s.rho * s.ener) + 1.0;
    unk.at(kFirstScalar + snvar::kPhi, i, j, k, b) = phi;
    unk.at(kFirstScalar + snvar::kC12, i, j, k, b) = xc;
    unk.at(kFirstScalar + snvar::kO16, i, j, k, b) = params_.x_oxygen;
    unk.at(kFirstScalar + snvar::kNe22, i, j, k, b) = params_.x_ne22;
    unk.at(kFirstScalar + snvar::kAsh, i, j, k, b) = xash;
  };

  m.for_leaf_cells(apply);
  const std::array<int, 2> est_vars{kDens, kFirstScalar + snvar::kPhi};
  for (int pass = 0; pass < m.config().max_level; ++pass) {
    const int changes = m.remesh(est_vars, 0.6, 0.1);
    m.for_leaf_cells(apply);
    if (changes == 0) break;
  }
  gravity_->update(m);
  FHP_LOG(kInfo) << "supernova initialized: "
                 << m.tree().leaves_morton().size()
                 << " leaf blocks, finest level " << m.tree().finest_level();
}

hydro::CompositionFn SupernovaSetup::composition_fn() const {
  return [](eos::State& s, const double* scalars, int count) {
    FHP_CHECK(count >= snvar::kCount, "supernova needs its 5 scalars");
    mixture_composition(scalars[snvar::kC12], scalars[snvar::kO16],
                        scalars[snvar::kNe22], scalars[snvar::kAsh], s.abar,
                        s.zbar);
  };
}

void SupernovaSetup::trace_eos_block(tlb::Tracer& tracer, int b) const {
  if (!tracer.enabled()) return;
  const mesh::MeshConfig& c = mesh_->config();
  const mesh::UnkContainer& unk = mesh_->unk();
  // Eos_wrapped reads the zone's thermodynamic vector + scalars and
  // writes the updated thermodynamic set...
  unk.trace_sweep(tracer, b, c.ilo(), c.ihi(), c.jlo(), c.jhi(), c.klo(),
                  c.khi(), c.nvar(), 6);
  // ...and gathers the Helmholtz table stencil per Newton iteration.
  std::vector<eos::State> row(static_cast<std::size_t>(c.nxb));
  for (int k = c.klo(); k < c.khi(); ++k) {
    for (int j = c.jlo(); j < c.jhi(); ++j) {
      for (int i = c.ilo(); i < c.ihi(); ++i) {
        eos::State& s = row[static_cast<std::size_t>(i - c.ilo())];
        s.rho = unk.at(kDens, i, j, k, b);
        s.temp = std::max(1.0e4, unk.at(kTemp, i, j, k, b));
        double sc[snvar::kCount];
        unk.gather_zone(kFirstScalar, snvar::kCount, i, j, k, b, sc);
        mixture_composition(sc[snvar::kC12], sc[snvar::kO16],
                            sc[snvar::kNe22], sc[snvar::kAsh], s.abar,
                            s.zbar);
      }
      eos_->trace_eval(tracer, eos::Mode::kDensEner,
                       std::span<const eos::State>(row));
    }
  }
}

}  // namespace fhp::sim
