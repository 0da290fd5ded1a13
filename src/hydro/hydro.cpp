#include "hydro/hydro.hpp"

#include <algorithm>
#include <cmath>

#include "hydro/riemann.hpp"
#include "mem/page_size.hpp"
#include "par/parallel.hpp"
#include "support/trace.hpp"
#include "support/error.hpp"
#include "tlb/geometry.hpp"

namespace fhp::hydro {

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

namespace {

double minmod3(double a, double b, double c) noexcept {
  if (a > 0 && b > 0 && c > 0) return std::min({a, b, c});
  if (a < 0 && b < 0 && c < 0) return std::max({a, b, c});
  return 0.0;
}

/// MC (monotonized central) limited slope.
double mc_slope(double um, double uc, double up) noexcept {
  return minmod3(2.0 * (uc - um), 2.0 * (up - uc), 0.5 * (up - um));
}

struct Evolved {
  // Evolved left/right primitive states of one cell.
  PrimState left, right;
};

}  // namespace

/// Scratch arrays for one pencil; sized once for the longest axis.
struct HydroSolver::PencilBuffers {
  explicit PencilBuffers(const mesh::MeshConfig& c)
      : n(std::max({c.ni(), c.nj(), c.nk()})),
        ns(c.nscalars) {
    rho.resize(static_cast<std::size_t>(n));
    un.resize(static_cast<std::size_t>(n));
    ut1.resize(static_cast<std::size_t>(n));
    ut2.resize(static_cast<std::size_t>(n));
    p.resize(static_cast<std::size_t>(n));
    game.resize(static_cast<std::size_t>(n));
    gamc.resize(static_cast<std::size_t>(n));
    evolved.resize(static_cast<std::size_t>(n));
    scal.resize(static_cast<std::size_t>(ns) * static_cast<std::size_t>(n));
    scal_lo.resize(scal.size());
    scal_hi.resize(scal.size());
    flux.resize(static_cast<std::size_t>(n + 1));
    sflux.resize(static_cast<std::size_t>(ns) *
                 static_cast<std::size_t>(n + 1));
  }
  int n;   ///< pencil length (padded)
  int ns;  ///< scalar count
  std::vector<double> rho, un, ut1, ut2, p, game, gamc;
  std::vector<Evolved> evolved;
  std::vector<double> scal;            ///< [s][i]
  std::vector<double> scal_lo, scal_hi;///< limited face values per scalar
  std::vector<Flux> flux;              ///< interface fluxes
  std::vector<double> sflux;           ///< scalar interface fluxes [s][i]
};

HydroSolver::HydroSolver(mesh::AmrMesh& mesh, const eos::Eos& eos,
                         HydroOptions options)
    : mesh_(mesh), eos_(eos), options_(options) {
  const mesh::MeshConfig& c = mesh_.config();
  FHP_REQUIRE(ncons() <= 16, "hydro supports at most 11 mass scalars");
  // flux_entry's face index is t2 * max(nxb, nyb) + t1: t1 runs over j
  // on x faces and over i on y and z faces, t2 over k on x and y faces
  // and over j on z faces (always 0 in 2-d).
  face_slot_ = std::max(c.nxb, c.nyb) *
               (c.ndim == 3 ? std::max(c.nyb, c.nzb) : 1);
  flux_store_.resize(static_cast<std::size_t>(c.maxblocks) * 2 *
                     static_cast<std::size_t>(ncons()) *
                     static_cast<std::size_t>(face_slot_));
  const auto lanes = static_cast<std::size_t>(mesh_.arena().lanes());
  lane_bufs_.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) lane_bufs_.emplace_back(c);
  lane_rows_.assign(lanes,
                    std::vector<eos::State>(static_cast<std::size_t>(c.nxb)));
  lane_scalars_.assign(
      lanes, std::vector<double>(static_cast<std::size_t>(c.nscalars)));
}

HydroSolver::~HydroSolver() = default;

void HydroSolver::sweep_block_task(int axis, double dt, int b, int lane) {
  sweep_block(axis, dt, b, lane_bufs_[static_cast<std::size_t>(lane)]);
}

void HydroSolver::eos_update_block_task(int b, int lane) {
  eos_update_block(b, lane_rows_[static_cast<std::size_t>(lane)],
                   lane_scalars_[static_cast<std::size_t>(lane)]);
}

std::size_t HydroSolver::flux_slot(int block, int side) const noexcept {
  return (static_cast<std::size_t>(block) * 2 +
          static_cast<std::size_t>(side)) *
         static_cast<std::size_t>(ncons()) *
         static_cast<std::size_t>(face_slot_);
}

double* HydroSolver::flux_entry(int block, int side, int v, int t1,
                                int t2) noexcept {
  const mesh::MeshConfig& c = mesh_.config();
  return flux_store_.data() + flux_slot(block, side) +
         static_cast<std::size_t>(v) * static_cast<std::size_t>(face_slot_) +
         static_cast<std::size_t>(t2) *
             static_cast<std::size_t>(std::max(c.nxb, c.nyb)) +
         static_cast<std::size_t>(t1);
}

double HydroSolver::block_dt(int b) const {
  const mesh::MeshConfig& c = mesh_.config();
  const mesh::UnkContainer& unk = mesh_.unk();
  double dt = std::numeric_limits<double>::max();
  std::array<double, 3> h{mesh_.dx(b, 0),
                          c.ndim >= 2 ? mesh_.dx(b, 1) : 1e300,
                          c.ndim >= 3 ? mesh_.dx(b, 2) : 1e300};
  for (int k = c.klo(); k < c.khi(); ++k) {
    for (int j = c.jlo(); j < c.jhi(); ++j) {
      for (int i = c.ilo(); i < c.ihi(); ++i) {
        const double rho = unk.at(kDens, i, j, k, b);
        const double p = unk.at(kPres, i, j, k, b);
        const double gamc = unk.at(kGamc, i, j, k, b);
        const double cs = std::sqrt(std::max(0.0, gamc * p / rho));
        const double vx = std::fabs(unk.at(kVelx, i, j, k, b));
        const double vy = std::fabs(unk.at(kVely, i, j, k, b));
        const double vz = std::fabs(unk.at(kVelz, i, j, k, b));
        dt = std::min(dt, h[0] / (vx + cs));
        if (c.ndim >= 2) dt = std::min(dt, h[1] / (vy + cs));
        if (c.ndim >= 3) dt = std::min(dt, h[2] / (vz + cs));
      }
    }
  }
  return dt;
}

double HydroSolver::compute_dt() const {
  const std::vector<int> leaves = mesh_.tree().leaves_morton();
  // Per-lane partial minima; min is exact and commutative, so the
  // lane-then-serial combine equals the serial scan bit for bit.
  std::vector<double> lane_dt(static_cast<std::size_t>(mesh_.arena().lanes()),
                              std::numeric_limits<double>::max());
  mesh_.arena().parallel_for_blocks(leaves, [&](int lane, int b) {
    RegionWitness witness;  // region lambda body: lane writer role
    auto& slot = lane_dt[static_cast<std::size_t>(lane)];
    slot = std::min(slot, block_dt(b));
  });
  double dt = std::numeric_limits<double>::max();
  for (const double d : lane_dt) dt = std::min(dt, d);
  FHP_CHECK(dt > 0.0 && dt < std::numeric_limits<double>::max(),
            "CFL produced a non-positive or unbounded dt");
  return options_.cfl * dt;
}

void HydroSolver::step(double dt) {
  FHP_TRACE_SPAN("hydro.step");
  const int ndim = mesh_.config().ndim;
  // Strang-style alternation of the sweep order between steps.
  const bool forward = (step_count_ % 2) == 0;
  for (int s = 0; s < ndim; ++s) {
    const int axis = forward ? s : ndim - 1 - s;
    mesh_.fill_guardcells();
    sweep(axis, dt);
    eos_update();
  }
  ++step_count_;
}

void HydroSolver::sweep(int axis, double dt) {
  FHP_REQUIRE(axis >= 0 && axis < mesh_.config().ndim, "bad sweep axis");
  // Span names must be static-storage literals (the ring keeps the
  // pointer), so the per-axis name is a table lookup, not a format.
  static constexpr const char* kSweepSpanNames[3] = {
      "hydro.sweep_x", "hydro.sweep_y", "hydro.sweep_z"};
  trace::SpanScope sweep_span(kSweepSpanNames[axis]);
  const std::vector<int> leaves = mesh_.tree().leaves_morton();
  // Per-lane scratch; sweep_block touches only block b's storage and b's
  // own flux-register slots, so blocks are independent.
  mesh_.arena().parallel_for_blocks(leaves, [&](int lane, int b) {
    RegionWitness witness;  // region lambda body: lane writer role
    sweep_block_task(axis, dt, b, lane);
  });
  // Fine-coarse conservation reads fine-block registers written above and
  // touches coarse cells next to refinement boundaries: serial, after the
  // sweep barrier.
  if (options_.flux_correct) apply_flux_corrections(axis, dt);
}

void HydroSolver::sweep_block(int axis, double dt, int b,
                              PencilBuffers& buf) {
  const mesh::MeshConfig& c = mesh_.config();
  mesh::UnkContainer& unk = mesh_.unk();
  const int ng = c.nguard;
  const int ns = c.nscalars;
  const bool cyl_radial =
      c.geometry == mesh::Geometry::kCylindrical && axis == 0;

  // Axis-dependent variable mapping and loop framing.
  int vn, vt1, vt2;
  int nlen;  // padded pencil length along the sweep axis
  switch (axis) {
    case 0: vn = kVelx; vt1 = kVely; vt2 = kVelz; nlen = c.ni(); break;
    case 1: vn = kVely; vt1 = kVelx; vt2 = kVelz; nlen = c.nj(); break;
    default: vn = kVelz; vt1 = kVelx; vt2 = kVely; nlen = c.nk(); break;
  }
  const double h = mesh_.dx(b, axis);
  const double dtdx = dt / h;

  // Tangential loop bounds (interior only).
  const int t1lo = axis == 0 ? c.jlo() : c.ilo();
  const int t1hi = axis == 0 ? c.jhi() : c.ihi();
  const int t2lo = axis == 2 ? c.jlo() : c.klo();
  const int t2hi = axis == 2 ? c.jhi() : c.khi();

  auto cell_index = [&](int m, int t1, int t2, int& i, int& j, int& k) {
    switch (axis) {
      case 0: i = m; j = t1; k = t2; break;
      case 1: i = t1; j = m; k = t2; break;
      default: i = t1; j = t2; k = m; break;
    }
  };

  for (int t2 = t2lo; t2 < t2hi; ++t2) {
    for (int t1 = t1lo; t1 < t1hi; ++t1) {
      // ---- gather the pencil --------------------------------------------
      for (int m = 0; m < nlen; ++m) {
        int i, j, k;
        cell_index(m, t1, t2, i, j, k);
        const auto mi = static_cast<std::size_t>(m);
        buf.rho[mi] = unk.at(kDens, i, j, k, b);
        buf.un[mi] = unk.at(vn, i, j, k, b);
        buf.ut1[mi] = unk.at(vt1, i, j, k, b);
        buf.ut2[mi] = unk.at(vt2, i, j, k, b);
        buf.p[mi] = unk.at(kPres, i, j, k, b);
        buf.game[mi] = std::max(1.0 + 1e-10, unk.at(kGame, i, j, k, b));
        buf.gamc[mi] = std::max(1.0 + 1e-10, unk.at(kGamc, i, j, k, b));
        for (int s = 0; s < ns; ++s) {
          buf.scal[static_cast<std::size_t>(s) *
                       static_cast<std::size_t>(buf.n) +
                   mi] = unk.at(kFirstScalar + s, i, j, k, b);
        }
      }

      // ---- reconstruct + half-step evolve -------------------------------
      for (int m = 1; m < nlen - 1; ++m) {
        const auto mi = static_cast<std::size_t>(m);
        const double srho = mc_slope(buf.rho[mi - 1], buf.rho[mi], buf.rho[mi + 1]);
        const double sun = mc_slope(buf.un[mi - 1], buf.un[mi], buf.un[mi + 1]);
        const double sut1 =
            mc_slope(buf.ut1[mi - 1], buf.ut1[mi], buf.ut1[mi + 1]);
        const double sut2 =
            mc_slope(buf.ut2[mi - 1], buf.ut2[mi], buf.ut2[mi + 1]);
        const double sp = mc_slope(buf.p[mi - 1], buf.p[mi], buf.p[mi + 1]);

        PrimState wl, wr;
        wl.rho = std::max(options_.small_rho, buf.rho[mi] - 0.5 * srho);
        wr.rho = std::max(options_.small_rho, buf.rho[mi] + 0.5 * srho);
        wl.u = buf.un[mi] - 0.5 * sun;
        wr.u = buf.un[mi] + 0.5 * sun;
        wl.ut1 = buf.ut1[mi] - 0.5 * sut1;
        wr.ut1 = buf.ut1[mi] + 0.5 * sut1;
        wl.ut2 = buf.ut2[mi] - 0.5 * sut2;
        wr.ut2 = buf.ut2[mi] + 0.5 * sut2;
        wl.p = std::max(options_.small_p, buf.p[mi] - 0.5 * sp);
        wr.p = std::max(options_.small_p, buf.p[mi] + 0.5 * sp);
        wl.game = wr.game = buf.game[mi];
        wl.gamc = wr.gamc = buf.gamc[mi];

        // Conserved forms of the face states.
        auto to_cons = [](const PrimState& w, double out[5]) {
          const double eint = w.p / ((w.game - 1.0) * w.rho);
          const double ke =
              0.5 * (w.u * w.u + w.ut1 * w.ut1 + w.ut2 * w.ut2);
          out[0] = w.rho;
          out[1] = w.rho * w.u;
          out[2] = w.rho * w.ut1;
          out[3] = w.rho * w.ut2;
          out[4] = w.rho * (eint + ke);
        };
        auto flux_of = [](const PrimState& w, double out[5]) {
          const double eint = w.p / ((w.game - 1.0) * w.rho);
          const double ke =
              0.5 * (w.u * w.u + w.ut1 * w.ut1 + w.ut2 * w.ut2);
          const double E = w.rho * (eint + ke);
          out[0] = w.rho * w.u;
          out[1] = w.rho * w.u * w.u + w.p;
          out[2] = w.rho * w.u * w.ut1;
          out[3] = w.rho * w.u * w.ut2;
          out[4] = w.u * (E + w.p);
        };
        double ul[5], ur[5], fl[5], fr[5];
        to_cons(wl, ul);
        to_cons(wr, ur);
        flux_of(wl, fl);
        flux_of(wr, fr);
        for (int q = 0; q < 5; ++q) {
          const double du = 0.5 * dtdx * (fl[q] - fr[q]);
          ul[q] += du;
          ur[q] += du;
        }
        auto to_prim = [&](const double u[5], double game,
                           double gamc) {
          PrimState w;
          w.rho = std::max(options_.small_rho, u[0]);
          w.u = u[1] / w.rho;
          w.ut1 = u[2] / w.rho;
          w.ut2 = u[3] / w.rho;
          const double ke =
              0.5 * (w.u * w.u + w.ut1 * w.ut1 + w.ut2 * w.ut2);
          w.p = std::max(options_.small_p,
                         (game - 1.0) * (u[4] - w.rho * ke));
          w.game = game;
          w.gamc = gamc;
          return w;
        };
        buf.evolved[mi].left = to_prim(ul, buf.game[mi], buf.gamc[mi]);
        buf.evolved[mi].right = to_prim(ur, buf.game[mi], buf.gamc[mi]);

        // Scalar face values (limited, not evolved).
        for (int s = 0; s < ns; ++s) {
          const auto si =
              static_cast<std::size_t>(s) * static_cast<std::size_t>(buf.n) +
              mi;
          const double sv = mc_slope(buf.scal[si - 1], buf.scal[si],
                                     buf.scal[si + 1]);
          buf.scal_lo[si] = buf.scal[si] - 0.5 * sv;
          buf.scal_hi[si] = buf.scal[si] + 0.5 * sv;
        }
      }

      // ---- interface fluxes ---------------------------------------------
      for (int m = ng; m <= nlen - ng; ++m) {
        const auto mi = static_cast<std::size_t>(m);
        const PrimState& left = buf.evolved[mi - 1].right;
        const PrimState& right = buf.evolved[mi].left;
        buf.flux[mi] = hllc(left, right);
        for (int s = 0; s < ns; ++s) {
          const auto base =
              static_cast<std::size_t>(s) * static_cast<std::size_t>(buf.n);
          const double phi = buf.flux[mi].mass >= 0.0
                                 ? buf.scal_hi[base + mi - 1]
                                 : buf.scal_lo[base + mi];
          buf.sflux[static_cast<std::size_t>(s) *
                        static_cast<std::size_t>(buf.n + 1) +
                    mi] = buf.flux[mi].mass * phi;
        }
      }

      // ---- conservative update ------------------------------------------
      for (int m = ng; m < nlen - ng; ++m) {
        const auto mi = static_cast<std::size_t>(m);
        int i, j, k;
        cell_index(m, t1, t2, i, j, k);
        int i1, j1, k1;  // the cell's high face carries the next index
        cell_index(m + 1, t1, t2, i1, j1, k1);

        const double vol = mesh_.cell_volume(b, i, j, k);
        const double a_lo = mesh_.face_area(b, axis, i, j, k);
        const double a_hi = mesh_.face_area(b, axis, i1, j1, k1);

        const double rho_old = buf.rho[mi];
        const double ke_old = 0.5 * (buf.un[mi] * buf.un[mi] +
                                     buf.ut1[mi] * buf.ut1[mi] +
                                     buf.ut2[mi] * buf.ut2[mi]);
        const double eint_old = buf.p[mi] / ((buf.game[mi] - 1.0) * rho_old);
        double u[5] = {rho_old, rho_old * buf.un[mi], rho_old * buf.ut1[mi],
                       rho_old * buf.ut2[mi], rho_old * (eint_old + ke_old)};

        const Flux& flo = buf.flux[mi];
        const Flux& fhi = buf.flux[mi + 1];
        const double scale = dt / vol;
        u[0] -= scale * (a_hi * fhi.mass - a_lo * flo.mass);
        u[1] -= scale * (a_hi * fhi.mom_n - a_lo * flo.mom_n);
        u[2] -= scale * (a_hi * fhi.mom_t1 - a_lo * flo.mom_t1);
        u[3] -= scale * (a_hi * fhi.mom_t2 - a_lo * flo.mom_t2);
        u[4] -= scale * (a_hi * fhi.energy - a_lo * flo.energy);
        if (cyl_radial) {
          // Geometric pressure source: + P/r on the radial momentum
          // (cancels the area-weighted pressure in the flux divergence).
          const double rc = mesh_.xcenter(b, i);
          u[1] += dt * buf.p[mi] / rc;
        }

        const double rho_new = std::max(options_.small_rho, u[0]);
        unk.at(kDens, i, j, k, b) = rho_new;
        unk.at(vn, i, j, k, b) = u[1] / rho_new;
        unk.at(vt1, i, j, k, b) = u[2] / rho_new;
        unk.at(vt2, i, j, k, b) = u[3] / rho_new;
        unk.at(kEner, i, j, k, b) = u[4] / rho_new;

        for (int s = 0; s < ns; ++s) {
          const auto fbase =
              static_cast<std::size_t>(s) * static_cast<std::size_t>(buf.n + 1);
          const auto base =
              static_cast<std::size_t>(s) * static_cast<std::size_t>(buf.n);
          double us = rho_old * buf.scal[base + mi];
          us -= scale * (a_hi * buf.sflux[fbase + mi + 1] -
                         a_lo * buf.sflux[fbase + mi]);
          unk.at(kFirstScalar + s, i, j, k, b) = us / rho_new;
        }
      }

      // ---- record boundary fluxes for fine-coarse conservation ----------
      if (options_.flux_correct) {
        const int tt1 = t1 - (axis == 0 ? c.jlo() : c.ilo());
        const int tt2 = t2 - (axis == 2 ? c.jlo() : c.klo());
        auto record = [&](int side, const Flux& f, const double* sf,
                          std::size_t sf_stride, std::size_t sf_index) {
          *flux_entry(b, side, 0, tt1, tt2) = f.mass;
          *flux_entry(b, side, 1, tt1, tt2) = f.mom_n;
          *flux_entry(b, side, 2, tt1, tt2) = f.mom_t1;
          *flux_entry(b, side, 3, tt1, tt2) = f.mom_t2;
          *flux_entry(b, side, 4, tt1, tt2) = f.energy;
          for (int s = 0; s < ns; ++s) {
            *flux_entry(b, side, 5 + s, tt1, tt2) =
                sf[static_cast<std::size_t>(s) * sf_stride + sf_index];
          }
        };
        record(0, buf.flux[static_cast<std::size_t>(ng)], buf.sflux.data(),
               static_cast<std::size_t>(buf.n + 1),
               static_cast<std::size_t>(ng));
        record(1, buf.flux[static_cast<std::size_t>(nlen - ng)],
               buf.sflux.data(), static_cast<std::size_t>(buf.n + 1),
               static_cast<std::size_t>(nlen - ng));
      }
    }
  }
}

void HydroSolver::apply_flux_corrections(int axis, double dt) {
  // Serial leaf-order loop; each per-block correction is independent
  // (writes only b's cells, reads fine-block registers), so this order
  // and any task-graph order produce bit-identical results.
  for (int b : mesh_.tree().leaves_morton()) {
    RegionWitness witness;  // serial driver thread: trivially exclusive
    apply_flux_correction_block(axis, dt, b);
  }
}

std::vector<int> HydroSolver::flux_sources(int axis, int b) const {
  std::vector<int> sources;
  if (!options_.flux_correct) return sources;
  const mesh::MeshConfig& c = mesh_.config();
  const mesh::BlockTree& tree = mesh_.tree();
  const int n1 = axis == 0 ? c.nyb : c.nxb;
  const int n2 = c.ndim >= 3 ? (axis == 2 ? c.nyb : c.nzb) : 1;
  for (int side = 0; side < 2; ++side) {
    std::array<int, 3> step{0, 0, 0};
    step[static_cast<std::size_t>(axis)] = side == 0 ? -1 : 1;
    const mesh::NeighborQuery q = tree.neighbor(b, step);
    if (q.id < 0 || tree.info(q.id).is_leaf) continue;
    const mesh::BlockInfo& nb = tree.info(q.id);
    // Same child selection as apply_flux_correction_block's inner loop.
    for (int u2 = 0; u2 < n2; ++u2) {
      for (int u1 = 0; u1 < n1; ++u1) {
        int cx = 0, cy = 0, cz = 0;
        const int facing_bit = side == 0 ? 1 : 0;
        const int half1 = (2 * u1) / n1;
        const int half2 = n2 > 1 ? (2 * u2) / n2 : 0;
        switch (axis) {
          case 0: cx = facing_bit; cy = half1; cz = half2; break;
          case 1: cy = facing_bit; cx = half1; cz = half2; break;
          default: cz = facing_bit; cx = half1; cy = half2; break;
        }
        const int fine =
            nb.children[static_cast<std::size_t>(cx + 2 * cy + 4 * cz)];
        FHP_CHECK(fine >= 0, "missing fine child at fine-coarse face");
        if (std::find(sources.begin(), sources.end(), fine) ==
            sources.end()) {
          sources.push_back(fine);
        }
      }
    }
  }
  return sources;
}

void HydroSolver::apply_flux_correction_block(int axis, double dt, int b) {
  const mesh::MeshConfig& c = mesh_.config();
  mesh::UnkContainer& unk = mesh_.unk();
  const mesh::BlockTree& tree = mesh_.tree();
  const int ng = c.nguard;
  const int ns = c.nscalars;

  int vn, vt1, vt2;
  switch (axis) {
    case 0: vn = kVelx; vt1 = kVely; vt2 = kVelz; break;
    case 1: vn = kVely; vt1 = kVelx; vt2 = kVelz; break;
    default: vn = kVelz; vt1 = kVelx; vt2 = kVely; break;
  }

  // Tangential interior extents for this axis.
  const int n1 = axis == 0 ? c.nyb : c.nxb;
  const int n2 = c.ndim >= 3 ? (axis == 2 ? c.nyb : c.nzb) : 1;
  const int nedge = axis == 0 ? c.nxb : (axis == 1 ? c.nyb : c.nzb);

  {
    for (int side = 0; side < 2; ++side) {
      std::array<int, 3> step{0, 0, 0};
      step[static_cast<std::size_t>(axis)] = side == 0 ? -1 : 1;
      const mesh::NeighborQuery q = tree.neighbor(b, step);
      if (q.id < 0 || tree.info(q.id).is_leaf) continue;
      // Finer data across this face: replace our stored coarse flux with
      // the area-weighted fine flux and correct the adjacent cells.
      const mesh::BlockInfo& nb = tree.info(q.id);

      for (int u2 = 0; u2 < n2; ++u2) {
        for (int u1 = 0; u1 < n1; ++u1) {
          // Fine child on the facing side covering coarse tangential cell
          // (u1, u2): tangential halves select the child.
          int cx = 0, cy = 0, cz = 0;  // child octant bits
          const int facing_bit = side == 0 ? 1 : 0;
          int f1 = 2 * u1, f2 = 2 * u2;  // fine tangential indices (global in neighbor)
          const int half1 = f1 / n1;     // 0 or 1
          const int half2 = n2 > 1 ? f2 / n2 : 0;
          switch (axis) {
            case 0: cx = facing_bit; cy = half1; cz = half2; break;
            case 1: cy = facing_bit; cx = half1; cz = half2; break;
            default: cz = facing_bit; cx = half1; cy = half2; break;
          }
          const int child_index = cx + 2 * cy + 4 * cz;
          const int fine = nb.children[static_cast<std::size_t>(child_index)];
          FHP_CHECK(fine >= 0, "missing fine child at fine-coarse face");

          const int l1 = f1 - half1 * n1;  // local fine tangential index
          const int l2 = n2 > 1 ? f2 - half2 * n2 : 0;

          // Area-weighted fine flux average over the 2 (2-d) or 4 (3-d)
          // fine faces covering this coarse face cell.
          const int fine_side = 1 - side;  // fine block's face toward us
          double favg[16] = {0};
          double area_sum = 0.0;
          const int m2span = c.ndim >= 3 ? 2 : 1;
          // HydroSolver stored fine boundary fluxes for the fine blocks.
          // Compute fine face areas for weighting.
          for (int d2 = 0; d2 < m2span; ++d2) {
            for (int d1 = 0; d1 < 2; ++d1) {
              // Fine face cell indices (interior-relative).
              const int ft1 = l1 + d1;
              const int ft2 = l2 + d2;
              // Map to padded (i,j,k) of the fine block's boundary face for
              // the area computation.
              int fi, fj, fk;
              const int edge = fine_side == 0 ? ng : ng + nedge;
              switch (axis) {
                case 0: fi = edge; fj = ng + ft1; fk = c.ndim >= 3 ? ng + ft2 : 0; break;
                case 1: fi = ng + ft1; fj = edge; fk = c.ndim >= 3 ? ng + ft2 : 0; break;
                default: fi = ng + ft1; fj = ng + ft2; fk = edge; break;
              }
              const double area = mesh_.face_area(fine, axis, fi, fj, fk);
              area_sum += area;
              for (int v = 0; v < ncons(); ++v) {
                favg[v] += area * *flux_entry(fine, fine_side, v, ft1, ft2);
              }
            }
          }
          for (int v = 0; v < ncons(); ++v) favg[v] /= area_sum;

          // Coarse cell adjacent to the face.
          int ci, cj, ck;
          const int adj = side == 0 ? ng : ng + nedge - 1;
          switch (axis) {
            case 0: ci = adj; cj = ng + u1; ck = c.ndim >= 3 ? ng + u2 : 0; break;
            case 1: ci = ng + u1; cj = adj; ck = c.ndim >= 3 ? ng + u2 : 0; break;
            default: ci = ng + u1; cj = ng + u2; ck = adj; break;
          }
          int ci_face = ci, cj_face = cj, ck_face = ck;
          if (side == 1) {
            // High face of the adjacent cell has index +1 along the axis.
            switch (axis) {
              case 0: ci_face = ci + 1; break;
              case 1: cj_face = cj + 1; break;
              default: ck_face = ck + 1; break;
            }
          }
          const double a_face =
              mesh_.face_area(b, axis, ci_face, cj_face, ck_face);
          const double vol = mesh_.cell_volume(b, ci, cj, ck);

          // Stored coarse flux at this face cell.
          double fc[16];
          for (int v = 0; v < ncons(); ++v) {
            fc[v] = *flux_entry(b, side, v, u1, u2);
          }

          // Correction: replace Fc by favg in the already-applied update.
          // Low face contributed +dt/V*A*Fc, high face -dt/V*A*Fc.
          const double sign = side == 0 ? 1.0 : -1.0;
          const double scale = sign * dt * a_face / vol;

          const double rho_old = unk.at(kDens, ci, cj, ck, b);
          double uvec[16];
          uvec[0] = rho_old;
          uvec[1] = rho_old * unk.at(vn, ci, cj, ck, b);
          uvec[2] = rho_old * unk.at(vt1, ci, cj, ck, b);
          uvec[3] = rho_old * unk.at(vt2, ci, cj, ck, b);
          uvec[4] = rho_old * unk.at(kEner, ci, cj, ck, b);
          for (int s = 0; s < ns; ++s) {
            uvec[5 + s] = rho_old * unk.at(kFirstScalar + s, ci, cj, ck, b);
          }
          for (int v = 0; v < ncons(); ++v) {
            uvec[v] += scale * (favg[v] - fc[v]);
          }
          const double rho_new = std::max(options_.small_rho, uvec[0]);
          unk.at(kDens, ci, cj, ck, b) = rho_new;
          unk.at(vn, ci, cj, ck, b) = uvec[1] / rho_new;
          unk.at(vt1, ci, cj, ck, b) = uvec[2] / rho_new;
          unk.at(vt2, ci, cj, ck, b) = uvec[3] / rho_new;
          unk.at(kEner, ci, cj, ck, b) = uvec[4] / rho_new;
          for (int s = 0; s < ns; ++s) {
            unk.at(kFirstScalar + s, ci, cj, ck, b) = uvec[5 + s] / rho_new;
          }
        }
      }
    }
  }
}

void HydroSolver::eos_update() {
  FHP_TRACE_SPAN("eos.update");
  const std::vector<int> leaves = mesh_.tree().leaves_morton();
  // Per-lane row scratch; Eos::eval is const (pure per-zone), so the
  // block pass is embarrassingly parallel.
  mesh_.arena().parallel_for_blocks(leaves, [&](int lane, int b) {
    RegionWitness witness;  // region lambda body: lane writer role
    eos_update_block_task(b, lane);
  });
}

void HydroSolver::eos_update_block(int b, std::vector<eos::State>& row,
                                   std::vector<double>& scalars) {
  const mesh::MeshConfig& c = mesh_.config();
  mesh::UnkContainer& unk = mesh_.unk();
  {
    for (int k = c.klo(); k < c.khi(); ++k) {
      for (int j = c.jlo(); j < c.jhi(); ++j) {
        for (int i = c.ilo(); i < c.ihi(); ++i) {
          const auto ri = static_cast<std::size_t>(i - c.ilo());
          eos::State& s = row[ri];
          s.rho = unk.at(kDens, i, j, k, b);
          const double vx = unk.at(kVelx, i, j, k, b);
          const double vy = unk.at(kVely, i, j, k, b);
          const double vz = unk.at(kVelz, i, j, k, b);
          const double ke = 0.5 * (vx * vx + vy * vy + vz * vz);
          const double ener = unk.at(kEner, i, j, k, b);
          s.ener = std::max(ener - ke, 1e-30);
          s.temp = unk.at(kTemp, i, j, k, b);  // warm start for the Newton
          s.abar = options_.abar;
          s.zbar = options_.zbar;
          if (composition_) {
            composition_(s,
                         unk.zone_span(kFirstScalar, c.nscalars, i, j, k, b,
                                       scalars.data()),
                         c.nscalars);
          }
        }
        eos_.eval(eos::Mode::kDensEner, row);
        for (int i = c.ilo(); i < c.ihi(); ++i) {
          const auto ri = static_cast<std::size_t>(i - c.ilo());
          const eos::State& s = row[ri];
          const double vx = unk.at(kVelx, i, j, k, b);
          const double vy = unk.at(kVely, i, j, k, b);
          const double vz = unk.at(kVelz, i, j, k, b);
          const double ke = 0.5 * (vx * vx + vy * vy + vz * vz);
          unk.at(kPres, i, j, k, b) = s.pres;
          unk.at(kTemp, i, j, k, b) = s.temp;
          unk.at(kEint, i, j, k, b) = s.ener;
          unk.at(kEner, i, j, k, b) = s.ener + ke;
          unk.at(kGamc, i, j, k, b) = s.gamma1;
          unk.at(kGame, i, j, k, b) =
              s.pres / (s.rho * s.ener) + 1.0;
        }
      }
    }
  }
}

void HydroSolver::trace_step_block(tlb::Tracer& tracer, int b) const {
  if (!tracer.enabled()) return;
  const mesh::MeshConfig& c = mesh_.config();
  const mesh::UnkContainer& unk = mesh_.unk();
  const int nvar = c.nvar();
  // Per-pencil scratch (primitives, slopes, evolved states, fluxes) lives
  // on the ordinary heap — base pages in both experiment arms (4 KiB on
  // x86, 64 KiB on many ARM kernels). Modeled at a fixed synthetic
  // address so the stream is identical whichever thread replays it.
  const std::uint8_t heap_shift = tlb::page_shift_of(mem::base_page_size());
  constexpr std::size_t kScratchRows = 14;
  constexpr std::size_t kScratchRowBytes = 64 * sizeof(double);
  const auto zones = static_cast<std::uint64_t>(c.nxb) *
                     static_cast<std::uint64_t>(c.nyb) *
                     static_cast<std::uint64_t>(c.nzb);
  const std::uint64_t pencils_per_sweep =
      zones / static_cast<std::uint64_t>(c.nxb);
  for (int axis = 0; axis < c.ndim; ++axis) {
    // Pencil gather (in sweep order — y/z pencils stride across pages)
    // reads every variable of every zone; the update writes the
    // conserved set back. Guard zones along the pencil are read too.
    unk.trace_sweep_axis(tracer, b, axis, c.ilo() - (axis == 0 ? 2 : 0),
                         c.ihi() + (axis == 0 ? 2 : 0),
                         c.jlo() - (axis == 1 ? 2 : 0),
                         c.jhi() + (axis == 1 ? 2 : 0),
                         c.klo() - (axis == 2 ? 2 : 0),
                         c.khi() + (axis == 2 ? 2 : 0), nvar, 0);
    // The conservative update re-reads the zone's state (read-modify-
    // write) before scattering the conserved set back.
    unk.trace_sweep_axis(tracer, b, axis, c.ilo(), c.ihi(), c.jlo(),
                         c.jhi(), c.klo(), c.khi(), ncons(), ncons());
    // MUSCL reconstruction + HLLC per zone: ~230 scalar ops with a small
    // vectorizable fraction (the paper measured 0.11 SVE instr/cycle).
    tracer.compute(zones * 230, zones * 15);
    for (std::uint64_t p = 0; p < pencils_per_sweep; ++p) {
      for (std::size_t r = 0; r < kScratchRows; ++r) {
        tracer.touch(tlb::synthetic_scratch(tlb::kHydroPencilScratchSlot,
                                            r * kScratchRowBytes),
                     kScratchRowBytes, true, heap_shift);
      }
    }
  }
  // The per-sweep EOS consistency pass is traced separately by the driver
  // (it is the paper's "EOS" instrumented region).
}

}  // namespace fhp::hydro
