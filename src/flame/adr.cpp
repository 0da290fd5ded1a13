#include "flame/adr.hpp"

#include <algorithm>
#include <cmath>

#include "par/parallel.hpp"
#include "support/error.hpp"

namespace fhp::flame {

using mesh::var::kDens;
using mesh::var::kEint;
using mesh::var::kEner;
using mesh::var::kFirstScalar;

AdrFlame::AdrFlame(mesh::AmrMesh& mesh, const FlameSpeedTable& speeds,
                   AdrOptions options)
    : mesh_(mesh), speeds_(speeds), options_(options) {
  const mesh::MeshConfig& c = mesh_.config();
  FHP_REQUIRE(options_.phi_scalar >= 0 && options_.phi_scalar < c.nscalars,
              "phi scalar slot outside nscalars");
  FHP_REQUIRE(options_.fuel_scalar < c.nscalars &&
                  options_.ash_scalar < c.nscalars,
              "fuel/ash scalar slots outside nscalars");
  const std::size_t zones = static_cast<std::size_t>(c.ni()) *
                            static_cast<std::size_t>(c.nj()) *
                            static_cast<std::size_t>(c.nk());
  lane_scratch_.assign(static_cast<std::size_t>(mesh_.arena().lanes()),
                       std::vector<double>(zones));
}

void AdrFlame::advance(double dt) {
  const std::vector<int> leaves = mesh_.tree().leaves_morton();
  begin_advance(leaves.size());
  mesh_.arena().parallel_for(leaves.size(), [&](int lane, std::size_t n) {
    RegionWitness witness;  // region lambda body: lane writer role
    advance_block_task(n, leaves[n], dt, lane);
  });
  finish_advance();
}

void AdrFlame::begin_advance(std::size_t nleaves) {
  // A per-block slot for the energy partial: the serial leaf-order sum in
  // finish_advance makes the total independent of the lane/timing in
  // which blocks completed.
  block_energy_.assign(nleaves, 0.0);
}

void AdrFlame::advance_block_task(std::size_t leaf_index, int b, double dt,
                                  int lane) {
  block_energy_[leaf_index] =
      advance_block(b, dt, lane_scratch_[static_cast<std::size_t>(lane)]);
}

void AdrFlame::finish_advance() {
  for (const double e : block_energy_) energy_released_ += e;
}

double AdrFlame::advance_block(int b, double dt,
                               std::vector<double>& phi_new) {
  const mesh::MeshConfig& c = mesh_.config();
  mesh::UnkContainer& unk = mesh_.unk();
  const int vphi = kFirstScalar + options_.phi_scalar;
  const int vfuel = kFirstScalar + options_.fuel_scalar;
  const int vash = kFirstScalar + options_.ash_scalar;
  double energy = 0.0;

  auto scratch = [&](int i, int j, int k) -> double& {
    return phi_new[static_cast<std::size_t>(i) +
                   static_cast<std::size_t>(c.ni()) *
                       (static_cast<std::size_t>(j) +
                        static_cast<std::size_t>(c.nj()) *
                            static_cast<std::size_t>(k))];
  };

  {
    const double hx = mesh_.dx(b, 0);

    for (int k = c.klo(); k < c.khi(); ++k) {
      for (int j = c.jlo(); j < c.jhi(); ++j) {
        for (int i = c.ilo(); i < c.ihi(); ++i) {
          const double rho = unk.at(kDens, i, j, k, b);
          const double phi =
              std::clamp(unk.at(vphi, i, j, k, b), 0.0, 1.0);
          if (rho < options_.rho_min) {
            scratch(i, j, k) = phi;  // quenched: no burning, no diffusion
            continue;
          }
          // The laminar speed depends on the *unburned* carbon abundance.
          // The fuel scalar in a partially burned zone is X_C,0 (1 - phi),
          // so divide the progress variable back out (FLASH passes the
          // unburned composition to its flame-speed table the same way).
          const double fuel = std::clamp(unk.at(vfuel, i, j, k, b), 0.0, 1.0);
          const double xc =
              std::clamp(fuel / std::max(1.0 - phi, 1e-6), 0.0, 1.0);
          const double s = speeds_.speed(rho, xc);
          const double bzones = options_.front_zones;
          // Bistable calibration (see adr.hpp): kappa = s b dx / 2 and
          // f = 16 s / (b dx) give an exact traveling-wave speed s and a
          // front width of ~b zones.
          const double kappa = s * bzones * hx / 2.0;
          const double f = 16.0 * s / (bzones * hx);

          // Explicit Laplacian (uniform spacing within a block).
          double lap = (unk.at(vphi, i + 1, j, k, b) - 2.0 * phi +
                        unk.at(vphi, i - 1, j, k, b)) /
                       (hx * hx);
          if (c.ndim >= 2) {
            const double hy = mesh_.dx(b, 1);
            lap += (unk.at(vphi, i, j + 1, k, b) - 2.0 * phi +
                    unk.at(vphi, i, j - 1, k, b)) /
                   (hy * hy);
          }
          if (c.ndim >= 3) {
            const double hz = mesh_.dx(b, 2);
            lap += (unk.at(vphi, i, j, k + 1, b) - 2.0 * phi +
                    unk.at(vphi, i, j, k - 1, b)) /
                   (hz * hz);
          }
          // Bistable (sharpened-KPP-like) source: unlike plain KPP, the
          // front is "pushed", so the discrete propagation speed matches
          // the analytic one instead of running ahead of it, and small
          // diffusive leakage of phi burns back to zero instead of
          // igniting spuriously (the reason FLASH uses sKPP).
          const double reaction = f * phi * (1.0 - phi) * (phi - 0.25);
          double next = phi + dt * (kappa * lap + reaction);
          next = std::clamp(next, 0.0, 1.0);
          scratch(i, j, k) = next;
        }
      }
    }

    // Commit: energy release and fuel->ash conversion follow d(phi).
    for (int k = c.klo(); k < c.khi(); ++k) {
      for (int j = c.jlo(); j < c.jhi(); ++j) {
        for (int i = c.ilo(); i < c.ihi(); ++i) {
          const double phi_old =
              std::clamp(unk.at(vphi, i, j, k, b), 0.0, 1.0);
          const double phi = scratch(i, j, k);
          unk.at(vphi, i, j, k, b) = phi;
          const double dphi = phi - phi_old;
          if (dphi <= options_.phi_floor) continue;

          const double fuel = std::clamp(unk.at(vfuel, i, j, k, b), 0.0, 1.0);
          const double burned = fuel * dphi;
          unk.at(vfuel, i, j, k, b) = fuel - burned;
          unk.at(vash, i, j, k, b) =
              std::clamp(unk.at(vash, i, j, k, b) + burned, 0.0, 1.0);

          const double dq = options_.q_burn * burned;  // erg/g
          unk.at(kEner, i, j, k, b) += dq;
          unk.at(kEint, i, j, k, b) += dq;
          const double rho = unk.at(kDens, i, j, k, b);
          energy += dq * rho * mesh_.cell_volume(b, i, j, k);
        }
      }
    }
  }
  return energy;
}

void AdrFlame::trace_advance_block(tlb::Tracer& tracer, int b) const {
  if (!tracer.enabled()) return;
  const mesh::MeshConfig& c = mesh_.config();
  const mesh::UnkContainer& unk = mesh_.unk();
  // Pass 1 reads phi (5/7-point stencil), dens, fuel; pass 2 writes phi,
  // fuel, ash, ener, eint. The stencil re-touches the zone vector plus
  // one neighbour in each direction — approximated as nread variables.
  unk.trace_sweep(tracer, b, c.ilo(), c.ihi(), c.jlo(), c.jhi(), c.klo(),
                  c.khi(), 4 + 2 * c.ndim, 5);
  const auto zones = static_cast<std::uint64_t>(c.nxb) *
                     static_cast<std::uint64_t>(c.nyb) *
                     static_cast<std::uint64_t>(c.nzb);
  tracer.compute(zones * 60, 0);
}

}  // namespace fhp::flame
