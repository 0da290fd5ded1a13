#include "mesh/amr_mesh.hpp"

#include <algorithm>
#include <cmath>

#include "support/trace.hpp"
#include "par/parallel.hpp"
#include "support/contracts.hpp"

namespace fhp::mesh {

namespace {
constexpr double kTwoPi = 6.283185307179586;

double minmod(double a, double b) noexcept {
  if (a * b <= 0.0) return 0.0;
  return std::fabs(a) < std::fabs(b) ? a : b;
}
}  // namespace

AmrMesh::AmrMesh(const MeshConfig& config, mem::HugePolicy policy,
                 LayoutKind layout, mem::PagePool& pool,
                 par::ExecArena& arena)
    : config_(config),
      tree_(config),
      unk_(config, policy, layout, pool),
      arena_(arena) {
  tree_.create_roots();
  unk_.refresh_page_shift();
}

double AmrMesh::xcenter(int b, int i) const {
  return tree_.block_lo(b)[0] + (i - config_.nguard + 0.5) * dx(b, 0);
}

double AmrMesh::ycenter(int b, int j) const {
  if (config_.ndim < 2) return 0.0;
  return tree_.block_lo(b)[1] + (j - config_.nguard + 0.5) * dx(b, 1);
}

double AmrMesh::zcenter(int b, int k) const {
  if (config_.ndim < 3) return 0.0;
  return tree_.block_lo(b)[2] + (k - config_.nguard + 0.5) * dx(b, 2);
}

double AmrMesh::xface(int b, int i) const {
  return tree_.block_lo(b)[0] + (i - config_.nguard) * dx(b, 0);
}

double AmrMesh::cell_volume(int b, int i, int j, int k) const {
  (void)j;
  (void)k;
  const double hx = dx(b, 0);
  if (config_.geometry == Geometry::kCylindrical) {
    const double rl = xface(b, i);
    const double rc = rl + 0.5 * hx;
    return kTwoPi * rc * hx * dx(b, 1);
  }
  double vol = hx;
  if (config_.ndim >= 2) vol *= dx(b, 1);
  if (config_.ndim >= 3) vol *= dx(b, 2);
  return vol;
}

double AmrMesh::face_area(int b, int axis, int i, int j, int k) const {
  (void)j;
  (void)k;
  if (config_.geometry == Geometry::kCylindrical) {
    const double hx = dx(b, 0);
    if (axis == 0) {
      const double rl = xface(b, i);
      return kTwoPi * rl * dx(b, 1);  // radial face at radius r_low
    }
    const double rc = xface(b, i) + 0.5 * hx;
    return kTwoPi * rc * hx;  // z face: annulus area
  }
  switch (axis) {
    case 0: {
      double a = 1.0;
      if (config_.ndim >= 2) a *= dx(b, 1);
      if (config_.ndim >= 3) a *= dx(b, 2);
      return a;
    }
    case 1: {
      double a = dx(b, 0);
      if (config_.ndim >= 3) a *= dx(b, 2);
      return a;
    }
    default:
      return dx(b, 0) * dx(b, 1);
  }
}

AmrMesh::Range AmrMesh::guard_range(int axis, int step) const {
  const int ng = config_.nguard;
  int lo = 0, hi = 1, n = 1;
  switch (axis) {
    case 0: lo = config_.ilo(); hi = config_.ihi(); n = config_.nxb; break;
    case 1: lo = config_.jlo(); hi = config_.jhi(); n = config_.nyb; break;
    default: lo = config_.klo(); hi = config_.khi(); n = config_.nzb; break;
  }
  if (axis >= config_.ndim) return {0, 1};
  if (step < 0) return {lo - ng, lo};
  if (step > 0) return {hi, hi + ng};
  (void)n;
  return {lo, hi};
}

void AmrMesh::copy_same_level(int dst, int src, const std::array<int, 3>& step) {
  const int nvar = config_.nvar();
  const std::array<int, 3> shift = {step[0] * config_.nxb,
                                    step[1] * config_.nyb,
                                    step[2] * config_.nzb};
  const Range ri = guard_range(0, step[0]);
  const Range rj = guard_range(1, step[1]);
  const Range rk = guard_range(2, step[2]);
  for (int k = rk.lo; k < rk.hi; ++k) {
    for (int j = rj.lo; j < rj.hi; ++j) {
      for (int i = ri.lo; i < ri.hi; ++i) {
        for (int v = 0; v < nvar; ++v) {
          unk_.at(v, i, j, k, dst) =
              unk_.at(v, i - shift[0], j - shift[1], k - shift[2], src);
        }
      }
    }
  }
}

void AmrMesh::fill_from_coarse(int dst, const std::array<int, 3>& step) {
  const BlockInfo& fine = tree_.info(dst);
  FHP_CHECK(fine.level >= 2, "coarse fill on a level-1 block");
  const int nvar = config_.nvar();
  const int ng = config_.nguard;
  const std::array<int, 3> nb = {config_.nxb, config_.nyb, config_.nzb};

  const Range ri = guard_range(0, step[0]);
  const Range rj = guard_range(1, step[1]);
  const Range rk = guard_range(2, step[2]);

  // Global fine-cell extent per axis (for periodic wrapping).
  std::array<std::int64_t, 3> nglobal{1, 1, 1};
  for (int d = 0; d < config_.ndim; ++d) {
    nglobal[static_cast<std::size_t>(d)] =
        static_cast<std::int64_t>(tree_.level_extent(fine.level, d)) *
        nb[static_cast<std::size_t>(d)];
  }

  for (int k = rk.lo; k < rk.hi; ++k) {
    for (int j = rj.lo; j < rj.hi; ++j) {
      for (int i = ri.lo; i < ri.hi; ++i) {
        // Global fine indices of this guard cell (wrapped if periodic).
        std::array<std::int64_t, 3> gf = {
            static_cast<std::int64_t>(fine.coord[0]) * nb[0] + (i - ng),
            config_.ndim >= 2
                ? static_cast<std::int64_t>(fine.coord[1]) * nb[1] + (j - ng)
                : 0,
            config_.ndim >= 3
                ? static_cast<std::int64_t>(fine.coord[2]) * nb[2] + (k - ng)
                : 0};
        for (int d = 0; d < config_.ndim; ++d) {
          const auto dd = static_cast<std::size_t>(d);
          gf[dd] = ((gf[dd] % nglobal[dd]) + nglobal[dd]) % nglobal[dd];
        }
        // Underlying coarse cell and the coarse block holding it.
        std::array<std::int64_t, 3> gc = {gf[0] >> 1, gf[1] >> 1, gf[2] >> 1};
        std::array<std::int32_t, 3> cb = {
            static_cast<std::int32_t>(gc[0] / nb[0]),
            config_.ndim >= 2 ? static_cast<std::int32_t>(gc[1] / nb[1]) : 0,
            config_.ndim >= 3 ? static_cast<std::int32_t>(gc[2] / nb[2]) : 0};
        const int coarse = tree_.find(fine.level - 1, cb);
        FHP_CHECK(coarse >= 0, "2:1 balance violated: no coarse cover block");
        const int ci = static_cast<int>(gc[0] - static_cast<std::int64_t>(cb[0]) * nb[0]) + ng;
        const int cj = config_.ndim >= 2
                           ? static_cast<int>(gc[1] - static_cast<std::int64_t>(cb[1]) * nb[1]) + ng
                           : 0;
        const int ck = config_.ndim >= 3
                           ? static_cast<int>(gc[2] - static_cast<std::int64_t>(cb[2]) * nb[2]) + ng
                           : 0;
        // Position of the fine cell inside the coarse cell: -1/4 or +1/4.
        const double xi = (gf[0] & 1) ? 0.25 : -0.25;
        const double xj = (gf[1] & 1) ? 0.25 : -0.25;
        const double xk = (gf[2] & 1) ? 0.25 : -0.25;
        for (int v = 0; v < nvar; ++v) {
          double value = unk_.at(v, ci, cj, ck, coarse);
          value += xi * 0.5 *
                   (unk_.at(v, ci + 1, cj, ck, coarse) -
                    unk_.at(v, ci - 1, cj, ck, coarse));
          if (config_.ndim >= 2) {
            value += xj * 0.5 *
                     (unk_.at(v, ci, cj + 1, ck, coarse) -
                      unk_.at(v, ci, cj - 1, ck, coarse));
          }
          if (config_.ndim >= 3) {
            value += xk * 0.5 *
                     (unk_.at(v, ci, cj, ck + 1, coarse) -
                      unk_.at(v, ci, cj, ck - 1, coarse));
          }
          unk_.at(v, i, j, k, dst) = value;
        }
      }
    }
  }
}

void AmrMesh::apply_boundaries(int b, unsigned axes) {
  const BlockInfo& info = tree_.info(b);
  const int nvar = config_.nvar();
  const int ng = config_.nguard;

  for (int axis = 0; axis < config_.ndim; ++axis) {
    if ((axes & (1u << axis)) == 0) continue;
    const auto ax = static_cast<std::size_t>(axis);
    const std::int32_t extent = tree_.level_extent(info.level, axis);
    for (int side = 0; side < 2; ++side) {
      const Bc bc = config_.bc[ax][static_cast<std::size_t>(side)];
      if (bc == Bc::kPeriodic) continue;
      const bool at_boundary = side == 0 ? info.coord[ax] == 0
                                         : info.coord[ax] == extent - 1;
      if (!at_boundary) continue;

      const int lo = axis == 0 ? config_.ilo()
                   : axis == 1 ? config_.jlo()
                               : config_.klo();
      const int hi = axis == 0 ? config_.ihi()
                   : axis == 1 ? config_.jhi()
                               : config_.khi();
      const int vel_var = axis == 0   ? var::kVelx
                          : axis == 1 ? var::kVely
                                      : var::kVelz;

      // Full tangential slabs (guards included) so corners get values.
      const int imax = config_.ni();
      const int jmax = config_.nj();
      const int kmax = config_.nk();
      for (int g = 0; g < ng; ++g) {
        const int dst = side == 0 ? lo - 1 - g : hi + g;
        const int src_outflow = side == 0 ? lo : hi - 1;
        const int src_reflect = side == 0 ? lo + g : hi - 1 - g;
        const int src =
            (bc == Bc::kOutflow) ? src_outflow : src_reflect;
        for (int k = 0; k < (axis == 2 ? 1 : kmax); ++k) {
          for (int j = 0; j < (axis == 1 ? 1 : jmax); ++j) {
            for (int i = 0; i < (axis == 0 ? 1 : imax); ++i) {
              int di = i, dj = j, dk = k, si = i, sj = j, sk = k;
              if (axis == 0) { di = dst; si = src; }
              if (axis == 1) { dj = dst; sj = src; }
              if (axis == 2) { dk = dst; sk = src; }
              for (int v = 0; v < nvar; ++v) {
                double value = unk_.at(v, si, sj, sk, b);
                if ((bc == Bc::kReflect || bc == Bc::kAxis) && v == vel_var) {
                  value = -value;
                }
                unk_.at(v, di, dj, dk, b) = value;
              }
            }
          }
        }
      }
    }
  }
}

void AmrMesh::fill_block_faces(int b, FaceMask faces) {
  unsigned axes = 0;
  for (int axis = 0; axis < config_.ndim; ++axis) {
    for (int side = 0; side < 2; ++side) {
      if ((faces & face_bit(axis, side)) == 0) continue;
      axes |= 1u << axis;
      const std::array<int, 3> step = face_step(axis, side);
      const NeighborQuery q = tree_.neighbor(b, step);
      if (q.outside_domain) continue;  // physical BC pass below
      if (q.id >= 0) {
        copy_same_level(b, q.id, step);
      } else {
        fill_from_coarse(b, step);
      }
    }
  }
  apply_boundaries(b, axes);
}

void AmrMesh::fill_guardcells() {
  FHP_TRACE_SPAN("grid.fill_guardcells");
  const GuardPlan plan = plan_guards(tree_, all_faces(config_.ndim));
  restrict_parents(plan.restricts);  // serial: parents feed the fills
  // The fills come coarse to fine. Within one level they run
  // block-parallel: fill_block_faces writes only block b's guard zones
  // and reads same-level interiors (never written in this pass) or a
  // coarser cover's interior and face guards (filled by an earlier
  // level).
  const std::vector<GuardFill>& fills = plan.fills;
  for (std::size_t begin = 0, end = 0; begin < fills.size(); begin = end) {
    const int level = tree_.info(fills[begin].block).level;
    while (end < fills.size() && tree_.info(fills[end].block).level == level) {
      ++end;
    }
    arena_.parallel_for(end - begin, [&](int /*lane*/, std::size_t n) {
      RegionWitness witness;  // region lambda body: lane writer role
      const GuardFill& fill = fills[begin + n];
      fill_block_faces(fill.block, fill.faces);
    });
  }
}

void AmrMesh::restrict_child(int parent, int child) {
  const BlockInfo& ci = tree_.info(child);
  const int nvar = config_.nvar();
  const int ng = config_.nguard;
  const int ox = (ci.coord[0] & 1) * (config_.nxb / 2);
  const int oy = config_.ndim >= 2 ? (ci.coord[1] & 1) * (config_.nyb / 2) : 0;
  const int oz = config_.ndim >= 3 ? (ci.coord[2] & 1) * (config_.nzb / 2) : 0;
  const bool cyl = config_.geometry == Geometry::kCylindrical;

  for (int k = config_.klo(); k < config_.khi(); k += (config_.ndim >= 3 ? 2 : 1)) {
    for (int j = config_.jlo(); j < config_.jhi(); j += (config_.ndim >= 2 ? 2 : 1)) {
      for (int i = config_.ilo(); i < config_.ihi(); i += 2) {
        const int pi = ng + ox + (i - ng) / 2;
        const int pj = config_.ndim >= 2 ? ng + oy + (j - ng) / 2 : 0;
        const int pk = config_.ndim >= 3 ? ng + oz + (k - ng) / 2 : 0;
        const int kspan = config_.ndim >= 3 ? 2 : 1;
        const int jspan = config_.ndim >= 2 ? 2 : 1;
        for (int v = 0; v < nvar; ++v) {
          double sum = 0.0, wsum = 0.0;
          for (int kk = 0; kk < kspan; ++kk) {
            for (int jj = 0; jj < jspan; ++jj) {
              for (int ii = 0; ii < 2; ++ii) {
                const double w =
                    cyl ? std::max(1e-300, xcenter(child, i + ii)) : 1.0;
                sum += w * unk_.at(v, i + ii, j + jj, k + kk, child);
                wsum += w;
              }
            }
          }
          unk_.at(v, pi, pj, pk, parent) = sum / wsum;
        }
      }
    }
  }
}

void AmrMesh::restrict_parents(std::span<const int> parents) {
  for (const int parent : parents) {
    const BlockInfo& info = tree_.info(parent);
    FHP_PRECONDITION(info.in_use && !info.is_leaf,
                     "restrict_parents: not a parent block");
    for (int c = 0; c < config_.nchildren(); ++c) {
      restrict_child(parent, info.children[static_cast<std::size_t>(c)]);
    }
  }
}

void AmrMesh::prolong_child(int parent, int child) {
  const BlockInfo& ci = tree_.info(child);
  const int nvar = config_.nvar();
  const int ng = config_.nguard;
  const int ox = (ci.coord[0] & 1) * (config_.nxb / 2);
  const int oy = config_.ndim >= 2 ? (ci.coord[1] & 1) * (config_.nyb / 2) : 0;
  const int oz = config_.ndim >= 3 ? (ci.coord[2] & 1) * (config_.nzb / 2) : 0;

  for (int k = config_.klo(); k < config_.khi(); ++k) {
    for (int j = config_.jlo(); j < config_.jhi(); ++j) {
      for (int i = config_.ilo(); i < config_.ihi(); ++i) {
        const int pi = ng + ox + (i - ng) / 2;
        const int pj = config_.ndim >= 2 ? ng + oy + (j - ng) / 2 : 0;
        const int pk = config_.ndim >= 3 ? ng + oz + (k - ng) / 2 : 0;
        const double xi = ((i - ng) & 1) ? 0.25 : -0.25;
        const double xj = ((j - ng) & 1) ? 0.25 : -0.25;
        const double xk = ((k - ng) & 1) ? 0.25 : -0.25;
        for (int v = 0; v < nvar; ++v) {
          double value = unk_.at(v, pi, pj, pk, parent);
          value += xi * minmod(unk_.at(v, pi + 1, pj, pk, parent) -
                                   unk_.at(v, pi, pj, pk, parent),
                               unk_.at(v, pi, pj, pk, parent) -
                                   unk_.at(v, pi - 1, pj, pk, parent));
          if (config_.ndim >= 2) {
            value += xj * minmod(unk_.at(v, pi, pj + 1, pk, parent) -
                                     unk_.at(v, pi, pj, pk, parent),
                                 unk_.at(v, pi, pj, pk, parent) -
                                     unk_.at(v, pi, pj - 1, pk, parent));
          }
          if (config_.ndim >= 3) {
            value += xk * minmod(unk_.at(v, pi, pj, pk + 1, parent) -
                                     unk_.at(v, pi, pj, pk, parent),
                                 unk_.at(v, pi, pj, pk, parent) -
                                     unk_.at(v, pi, pj, pk - 1, parent));
          }
          unk_.at(v, i, j, k, child) = value;
        }
      }
    }
  }
}

std::array<int, 8> AmrMesh::refine_block(int id) {
  FHP_PRECONDITION(id >= 0 && id < tree_.capacity(),
                   "refine_block id out of range");
  const std::array<int, 8> kids = tree_.refine(id);
  for (int c = 0; c < config_.nchildren(); ++c) {
    prolong_child(id, kids[static_cast<std::size_t>(c)]);
  }
  return kids;
}

void AmrMesh::derefine_block(int id) {
  FHP_PRECONDITION(id >= 0 && id < tree_.capacity(),
                   "derefine_block id out of range");
  const BlockInfo& info = tree_.info(id);
  for (int c = 0; c < config_.nchildren(); ++c) {
    const int kid = info.children[static_cast<std::size_t>(c)];
    restrict_child(id, kid);
  }
  tree_.derefine(id);
}

double AmrMesh::loehner_error(int b, int v) const {
  constexpr double kFilter = 0.01;
  const MeshConfig& c = config_;
  double worst = 0.0;
  for (int k = c.klo(); k < c.khi(); ++k) {
    for (int j = c.jlo(); j < c.jhi(); ++j) {
      for (int i = c.ilo(); i < c.ihi(); ++i) {
        double num = 0.0, den = 0.0;
        auto accumulate = [&](double up, double uc, double um) {
          const double d2 = up - 2.0 * uc + um;
          const double d1 = std::fabs(up - uc) + std::fabs(uc - um);
          const double filter =
              kFilter * (std::fabs(up) + 2.0 * std::fabs(uc) + std::fabs(um));
          num += d2 * d2;
          const double dd = d1 + filter;
          den += dd * dd;
        };
        accumulate(unk_.at(v, i + 1, j, k, b), unk_.at(v, i, j, k, b),
                   unk_.at(v, i - 1, j, k, b));
        if (c.ndim >= 2) {
          accumulate(unk_.at(v, i, j + 1, k, b), unk_.at(v, i, j, k, b),
                     unk_.at(v, i, j - 1, k, b));
        }
        if (c.ndim >= 3) {
          accumulate(unk_.at(v, i, j, k + 1, b), unk_.at(v, i, j, k, b),
                     unk_.at(v, i, j, k - 1, b));
        }
        if (den > 0.0) worst = std::max(worst, std::sqrt(num / den));
      }
    }
  }
  return worst;
}

int AmrMesh::remesh(std::span<const int> est_vars, double refine_cut,
                    double derefine_cut) {
  FHP_PRECONDITION(!est_vars.empty(), "remesh needs at least one error var");
  FHP_PRECONDITION(refine_cut >= derefine_cut,
                   "refine_cut must not undercut derefine_cut");
  fill_guardcells();

  const std::vector<int> leaves = tree_.leaves_morton();
  std::vector<char> want_refine(static_cast<std::size_t>(tree_.capacity()), 0);
  std::vector<char> want_derefine(static_cast<std::size_t>(tree_.capacity()),
                                  0);

  for (int b : leaves) {
    double err = 0.0;
    for (int v : est_vars) err = std::max(err, loehner_error(b, v));
    const int level = tree_.info(b).level;
    if (err > refine_cut && level < config_.max_level) {
      want_refine[static_cast<std::size_t>(b)] = 1;
    } else if (err < derefine_cut && level > 1) {
      want_derefine[static_cast<std::size_t>(b)] = 1;
    }
  }

  // Balance promotion: a coarser neighbor of a to-be-refined leaf must
  // refine too if the result would break 2:1 adjacency.
  bool changed = true;
  while (changed) {
    changed = false;
    for (int b = 0; b < tree_.capacity(); ++b) {
      if (!want_refine[static_cast<std::size_t>(b)]) continue;
      const BlockInfo& info = tree_.info(b);
      if (!info.in_use || !info.is_leaf) continue;
      const int zlo = config_.ndim >= 3 ? -1 : 0;
      const int zhi = config_.ndim >= 3 ? 1 : 0;
      for (int dz = zlo; dz <= zhi; ++dz) {
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx_ = -1; dx_ <= 1; ++dx_) {
            if (dx_ == 0 && dy == 0 && dz == 0) continue;
            const NeighborQuery q = tree_.neighbor(b, {dx_, dy, dz});
            if (q.outside_domain || q.id >= 0) continue;
            // Region is covered coarser: that cover block must refine.
            std::array<std::int32_t, 3> cc = info.coord;
            cc[0] = static_cast<std::int32_t>(
                std::floor((info.coord[0] + dx_) / 2.0));
            cc[1] = config_.ndim >= 2
                        ? static_cast<std::int32_t>(
                              std::floor((info.coord[1] + dy) / 2.0))
                        : 0;
            cc[2] = config_.ndim >= 3
                        ? static_cast<std::int32_t>(
                              std::floor((info.coord[2] + dz) / 2.0))
                        : 0;
            // Wrap periodic coordinates at the coarse level.
            for (int d = 0; d < config_.ndim; ++d) {
              const auto dd = static_cast<std::size_t>(d);
              const std::int32_t ext = tree_.level_extent(info.level - 1, d);
              cc[dd] = static_cast<std::int32_t>(((cc[dd] % ext) + ext) % ext);
            }
            const int cover = tree_.find(info.level - 1, cc);
            if (cover >= 0 && tree_.info(cover).is_leaf &&
                !want_refine[static_cast<std::size_t>(cover)]) {
              want_refine[static_cast<std::size_t>(cover)] = 1;
              want_derefine[static_cast<std::size_t>(cover)] = 0;
              changed = true;
            }
          }
        }
      }
    }
  }

  int changes = 0;

  // Derefinement: a sibling group collapses only if every child is a leaf
  // marked for derefinement and the collapse keeps 2:1 balance.
  for (int parent = 0; parent < tree_.capacity(); ++parent) {
    const BlockInfo& p = tree_.info(parent);
    if (!p.in_use || p.is_leaf) continue;
    bool all_marked = true;
    for (int c = 0; c < config_.nchildren() && all_marked; ++c) {
      const int kid = p.children[static_cast<std::size_t>(c)];
      const BlockInfo& ki = tree_.info(kid);
      all_marked = ki.is_leaf &&
                   want_derefine[static_cast<std::size_t>(kid)] != 0 &&
                   want_refine[static_cast<std::size_t>(kid)] == 0;
    }
    if (!all_marked) continue;
    // Check: after collapse the parent (a leaf at level L) must not touch
    // any level L+2 block — i.e. no neighbor's child adjacent to a child
    // of p may have children. Also no adjacent leaf may be marked refine.
    bool safe = true;
    for (int c = 0; c < config_.nchildren() && safe; ++c) {
      const int kid = p.children[static_cast<std::size_t>(c)];
      const int zlo = config_.ndim >= 3 ? -1 : 0;
      const int zhi = config_.ndim >= 3 ? 1 : 0;
      for (int dz = zlo; dz <= zhi && safe; ++dz) {
        for (int dy = -1; dy <= 1 && safe; ++dy) {
          for (int dx_ = -1; dx_ <= 1 && safe; ++dx_) {
            if (dx_ == 0 && dy == 0 && dz == 0) continue;
            const NeighborQuery q = tree_.neighbor(kid, {dx_, dy, dz});
            if (q.id < 0) continue;
            const BlockInfo& nb = tree_.info(q.id);
            if (!nb.is_leaf) safe = false;  // finer data next to the group
            if (nb.is_leaf && want_refine[static_cast<std::size_t>(q.id)]) {
              safe = false;
            }
          }
        }
      }
    }
    if (!safe) continue;
    derefine_block(parent);
    ++changes;
  }

  // Refinement.
  for (int b = 0; b < tree_.capacity(); ++b) {
    if (!want_refine[static_cast<std::size_t>(b)]) continue;
    const BlockInfo& info = tree_.info(b);
    if (!info.in_use || !info.is_leaf) continue;
    refine_block(b);
    ++changes;
  }
  return changes;
}

double AmrMesh::integrate(int v) const {
  double total = 0.0;
  const MeshConfig& c = config_;
  for (int b : tree_.leaves_morton()) {
    for (int k = c.klo(); k < c.khi(); ++k) {
      for (int j = c.jlo(); j < c.jhi(); ++j) {
        for (int i = c.ilo(); i < c.ihi(); ++i) {
          total += unk_.at(v, i, j, k, b) * cell_volume(b, i, j, k);
        }
      }
    }
  }
  return total;
}

double AmrMesh::integrate_product(int v1, int v2) const {
  double total = 0.0;
  const MeshConfig& c = config_;
  for (int b : tree_.leaves_morton()) {
    for (int k = c.klo(); k < c.khi(); ++k) {
      for (int j = c.jlo(); j < c.jhi(); ++j) {
        for (int i = c.ilo(); i < c.ihi(); ++i) {
          total += unk_.at(v1, i, j, k, b) * unk_.at(v2, i, j, k, b) *
                   cell_volume(b, i, j, k);
        }
      }
    }
  }
  return total;
}

}  // namespace fhp::mesh
