#include "sim/sedov.hpp"

#include <cmath>
#include <cstdint>

#include "sim/sedov_exact.hpp"

#include "support/error.hpp"
#include "support/log.hpp"
#include "support/mutex.hpp"

namespace fhp::sim {

using mesh::var::kDens;
using mesh::var::kEint;
using mesh::var::kEner;
using mesh::var::kGamc;
using mesh::var::kGame;
using mesh::var::kPres;
using mesh::var::kTemp;
using mesh::var::kVelx;
using mesh::var::kVely;
using mesh::var::kVelz;

SedovSetup::SedovSetup(const SedovParams& params, mem::HugePolicy policy,
                       rt::Runtime& runtime)
    : params_(params), eos_(params.gamma) {
  mesh::MeshConfig config;
  config.ndim = params.ndim;
  config.nxb = params.nxb;
  config.nyb = params.nyb;
  config.nzb = params.ndim >= 3 ? params.nzb : 1;
  config.nguard = params.nguard;
  config.nscalars = 0;
  config.maxblocks = params.maxblocks;
  config.max_level = params.max_level;
  config.lo = {0.0, 0.0, 0.0};
  config.hi = {1.0, 1.0, 1.0};
  config.nroot = {1, 1, 1};
  config.geometry = mesh::Geometry::kCartesian;
  // FLASH's sedov.par uses outflow on every face.
  mesh_ = std::make_unique<mesh::AmrMesh>(config, policy, runtime.layout(),
                                          runtime.page_pool(),
                                          runtime.arena());
  initialize();
}

void SedovSetup::initialize() {
  mesh::AmrMesh& m = *mesh_;
  const mesh::MeshConfig& c = m.config();

  // Spike radius: 3.5 finest-level cells unless overridden.
  const double finest_dx =
      (c.hi[0] - c.lo[0]) / (c.nxb * (1 << (c.max_level - 1)));
  const double r0 = params_.spike_radius > 0.0 ? params_.spike_radius
                                               : 3.5 * finest_dx;
  // Thermal spike: E inside a sphere of radius r0.
  const double volume = params_.ndim == 3
                            ? 4.0 / 3.0 * M_PI * r0 * r0 * r0
                            : M_PI * r0 * r0;
  const double p_spike =
      (params_.gamma - 1.0) * params_.energy / volume;

  auto apply = [&](int b, int i, int j, int k) {
    const double x = m.xcenter(b, i) - params_.center[0];
    const double y = m.ycenter(b, j) - params_.center[1];
    const double z =
        params_.ndim >= 3 ? m.zcenter(b, k) - params_.center[2] : 0.0;
    const double r = std::sqrt(x * x + y * y + z * z);
    const double pres = r <= r0 ? p_spike : params_.p_ambient;
    const double rho = params_.rho_ambient;
    const double eint = pres / ((params_.gamma - 1.0) * rho);

    mesh::UnkContainer& unk = m.unk();
    unk.at(kDens, i, j, k, b) = rho;
    unk.at(kVelx, i, j, k, b) = 0.0;
    unk.at(kVely, i, j, k, b) = 0.0;
    unk.at(kVelz, i, j, k, b) = 0.0;
    unk.at(kPres, i, j, k, b) = pres;
    unk.at(kEint, i, j, k, b) = eint;
    unk.at(kEner, i, j, k, b) = eint;
    unk.at(kGamc, i, j, k, b) = params_.gamma;
    unk.at(kGame, i, j, k, b) = params_.gamma;
    // Gamma-law "temperature" in code units (abar = 1).
    unk.at(kTemp, i, j, k, b) = 0.0;
  };

  // Initialize, then refine toward the spike, re-initializing children
  // from the analytic profile each pass (FLASH re-calls Simulation_init
  // on new blocks during initial refinement).
  m.for_leaf_cells(apply);
  const std::array<int, 2> est_vars{kPres, kDens};
  for (int pass = 0; pass < c.max_level; ++pass) {
    const int changes = m.remesh(est_vars, 0.5, 0.05);
    m.for_leaf_cells(apply);
    if (changes == 0) break;
  }
  FHP_LOG(kInfo) << "Sedov initialized: " << m.tree().leaves_morton().size()
                 << " leaf blocks, finest level " << m.tree().finest_level()
                 << ", spike radius " << r0;
}

void SedovSetup::trace_eos_block(tlb::Tracer& tracer, int b) const {
  const mesh::MeshConfig& c = mesh_->config();
  mesh_->unk().trace_sweep(tracer, b, c.ilo(), c.ihi(), c.jlo(), c.jhi(),
                           c.klo(), c.khi(), 8, 6);
  tracer.compute(static_cast<std::uint64_t>(c.nxb * c.nyb * c.nzb) * 40, 0);
}

double SedovSetup::shock_radius(double energy, double rho, double time,
                                double gamma) {
  // Exact similarity constant from the integrated Sedov solution
  // (sedov_exact.hpp); cache per gamma since the integration costs ~ms.
  // The cache is shared by every tenant in the process, so it is
  // mutex-guarded — concurrent service tenants validate their shocks
  // from arbitrary threads.
  static Mutex cache_mutex;
  static double cached_gamma FHP_GUARDED_BY(cache_mutex) = -1.0;
  static double cached_alpha FHP_GUARDED_BY(cache_mutex) = 0.0;
  double alpha;
  {
    MutexLock lock(cache_mutex);
    if (gamma != cached_gamma) {
      cached_alpha = SedovExact(gamma, 3).alpha();
      cached_gamma = gamma;
    }
    alpha = cached_alpha;
  }
  return std::pow(energy * time * time / (alpha * rho), 0.2);
}

}  // namespace fhp::sim
