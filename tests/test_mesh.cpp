/// \file test_mesh.cpp
/// \brief Unit tests for the PARAMESH-like AMR mesh.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "mem/huge_policy.hpp"
#include "mesh/amr_mesh.hpp"
#include "mesh/config.hpp"
#include "mesh/guard_plan.hpp"
#include "mesh/tree.hpp"
#include "mesh/unk.hpp"
#include "rt/runtime.hpp"
#include "support/error.hpp"
#include "support/lane.hpp"
#include "support/rng.hpp"

namespace fhp::mesh {
namespace {

MeshConfig small_2d() {
  MeshConfig c;
  c.ndim = 2;
  c.nxb = 8;
  c.nyb = 8;
  c.nguard = 4;
  c.nscalars = 1;
  c.maxblocks = 256;
  c.max_level = 4;
  return c;
}

MeshConfig small_3d() {
  MeshConfig c;
  c.ndim = 3;
  c.nxb = 8;
  c.nyb = 8;
  c.nzb = 8;
  c.nguard = 4;
  c.maxblocks = 256;
  c.max_level = 3;
  return c;
}

// ----------------------------------------------------------------- config

TEST(MeshConfigTest, ValidationCatchesBadShapes) {
  MeshConfig c = small_2d();
  c.validate();  // baseline is fine
  c.nxb = 7;     // odd: restriction cannot pair cells
  EXPECT_THROW(c.validate(), ConfigError);
  c = small_2d();
  c.nguard = 1;
  EXPECT_THROW(c.validate(), ConfigError);
  c = small_2d();
  c.ndim = 3;  // nzb still 1
  EXPECT_THROW(c.validate(), ConfigError);
  c = small_2d();
  c.geometry = Geometry::kCylindrical;
  c.validate();
  c.ndim = 3;
  c.nzb = 8;
  EXPECT_THROW(c.validate(), ConfigError);  // cylindrical is 2-d
  c = small_2d();
  c.bc[0][0] = Bc::kPeriodic;  // unpaired periodic
  EXPECT_THROW(c.validate(), ConfigError);
}

TEST(MeshConfigTest, DerivedExtents) {
  const MeshConfig c = small_2d();
  EXPECT_EQ(c.nvar(), var::kFirstScalar + 1);
  EXPECT_EQ(c.ni(), 16);
  EXPECT_EQ(c.nj(), 16);
  EXPECT_EQ(c.nk(), 1);
  EXPECT_EQ(c.ilo(), 4);
  EXPECT_EQ(c.ihi(), 12);
  EXPECT_EQ(c.klo(), 0);
  EXPECT_EQ(c.khi(), 1);
  EXPECT_EQ(c.nchildren(), 4);
}

// -------------------------------------------------------------------- unk

TEST(UnkTest, VariableIndexIsFastest) {
  rt::Runtime runtime;
  const MeshConfig c = small_2d();
  // Pinned to the Fortran layout: this test asserts var_major's specific
  // strides, so it must not float with FLASHHP_LAYOUT (the layout-matrix
  // CI job runs the whole suite under every layout).
  UnkContainer unk(c, mem::HugePolicy::kNone, LayoutKind::kVarMajor,
                   runtime.page_pool());
  // unk(v, i, j, k, b): v consecutive, i strides by nvar.
  EXPECT_EQ(unk.offset(1, 0, 0, 0, 0) - unk.offset(0, 0, 0, 0, 0), 1u);
  EXPECT_EQ(unk.offset(0, 1, 0, 0, 0) - unk.offset(0, 0, 0, 0, 0),
            static_cast<std::size_t>(c.nvar()));
  EXPECT_EQ(unk.offset(0, 0, 1, 0, 0) - unk.offset(0, 0, 0, 0, 0),
            static_cast<std::size_t>(c.nvar()) * c.ni());
  EXPECT_EQ(unk.offset(0, 0, 0, 0, 1) - unk.offset(0, 0, 0, 0, 0),
            unk.block_stride());
}

TEST(UnkTest, StorageRoundTrip) {
  rt::Runtime runtime;
  UnkContainer unk(small_2d(), mem::HugePolicy::kNone, runtime.layout(),
                   runtime.page_pool());
  unk.at(3, 5, 7, 0, 2) = 42.5;
  EXPECT_DOUBLE_EQ(unk.at(3, 5, 7, 0, 2), 42.5);
  EXPECT_EQ(unk.ptr(3, 5, 7, 0, 2), &unk.at(3, 5, 7, 0, 2));
}

TEST(UnkTest, SizesMatchConfig) {
  rt::Runtime runtime;
  const MeshConfig c = small_2d();
  UnkContainer unk(c, mem::HugePolicy::kNone, runtime.layout(),
                   runtime.page_pool());
  EXPECT_EQ(unk.bytes(), static_cast<std::size_t>(c.nvar()) * c.ni() *
                             c.nj() * c.nk() * c.maxblocks * sizeof(double));
}

// ------------------------------------------------------------------- tree

TEST(TreeTest, RootsCoverTheDomain) {
  MeshConfig c = small_2d();
  c.nroot = {2, 3, 1};
  BlockTree tree(c);
  tree.create_roots();
  EXPECT_EQ(tree.num_allocated(), 6);
  EXPECT_EQ(tree.leaves_morton().size(), 6u);
  EXPECT_EQ(tree.finest_level(), 1);
}

TEST(TreeTest, RefineCreatesChildrenWithHalvedCoords) {
  BlockTree tree(small_2d());
  tree.create_roots();
  const auto kids = tree.refine(0);
  EXPECT_EQ(tree.num_allocated(), 5);
  EXPECT_FALSE(tree.info(0).is_leaf);
  for (int child = 0; child < 4; ++child) {
    const BlockInfo& info = tree.info(kids[static_cast<std::size_t>(child)]);
    EXPECT_EQ(info.level, 2);
    EXPECT_EQ(info.parent, 0);
    EXPECT_EQ(info.coord[0], child & 1);
    EXPECT_EQ(info.coord[1], (child >> 1) & 1);
    EXPECT_TRUE(info.is_leaf);
  }
}

TEST(TreeTest, DerefineRestoresLeaf) {
  BlockTree tree(small_2d());
  tree.create_roots();
  tree.refine(0);
  tree.derefine(0);
  EXPECT_TRUE(tree.info(0).is_leaf);
  EXPECT_EQ(tree.num_allocated(), 1);
  // Freed slots are reusable.
  tree.refine(0);
  EXPECT_EQ(tree.num_allocated(), 5);
}

TEST(TreeTest, FindLocatesBlocksByCoordinates) {
  BlockTree tree(small_2d());
  tree.create_roots();
  const auto kids = tree.refine(0);
  EXPECT_EQ(tree.find(1, {0, 0, 0}), 0);
  EXPECT_EQ(tree.find(2, {1, 1, 0}), kids[3]);
  EXPECT_EQ(tree.find(2, {5, 0, 0}), -1);
  EXPECT_EQ(tree.find(3, {0, 0, 0}), -1);
}

TEST(TreeTest, NeighborQueriesRespectDomainBounds) {
  MeshConfig c = small_2d();
  c.nroot = {2, 1, 1};
  BlockTree tree(c);
  tree.create_roots();
  const NeighborQuery right = tree.neighbor(0, {1, 0, 0});
  EXPECT_EQ(right.id, 1);
  EXPECT_FALSE(right.outside_domain);
  const NeighborQuery left = tree.neighbor(0, {-1, 0, 0});
  EXPECT_EQ(left.id, -1);
  EXPECT_TRUE(left.outside_domain);
}

TEST(TreeTest, PeriodicNeighborsWrap) {
  MeshConfig c = small_2d();
  c.nroot = {2, 1, 1};
  c.bc[0][0] = c.bc[0][1] = Bc::kPeriodic;
  BlockTree tree(c);
  tree.create_roots();
  const NeighborQuery wrapped = tree.neighbor(0, {-1, 0, 0});
  EXPECT_EQ(wrapped.id, 1);
  EXPECT_FALSE(wrapped.outside_domain);
}

TEST(TreeTest, MortonOrderVisitsEveryLeafOnce) {
  BlockTree tree(small_2d());
  tree.create_roots();
  tree.refine(0);
  const auto kids = tree.refine(tree.find(2, {0, 0, 0}));
  (void)kids;
  const auto leaves = tree.leaves_morton();
  std::set<int> unique(leaves.begin(), leaves.end());
  EXPECT_EQ(unique.size(), leaves.size());
  EXPECT_EQ(leaves.size(), 7u);  // 3 L2 leaves + 4 L3 leaves
  for (int id : leaves) {
    EXPECT_TRUE(tree.info(id).is_leaf);
  }
}

TEST(TreeTest, BlockBoundsPartitionTheDomain) {
  MeshConfig c = small_2d();
  c.lo = {0.0, -1.0, 0.0};
  c.hi = {2.0, 1.0, 1.0};
  BlockTree tree(c);
  tree.create_roots();
  const auto kids = tree.refine(0);
  const auto lo = tree.block_lo(kids[3]);
  const auto hi = tree.block_hi(kids[3]);
  EXPECT_DOUBLE_EQ(lo[0], 1.0);
  EXPECT_DOUBLE_EQ(hi[0], 2.0);
  EXPECT_DOUBLE_EQ(lo[1], 0.0);
  EXPECT_DOUBLE_EQ(hi[1], 1.0);
  EXPECT_DOUBLE_EQ(tree.cell_size(2, 0), 2.0 / (2 * c.nxb));
}

TEST(TreeTest, MaxblocksExhaustionThrows) {
  MeshConfig c = small_2d();
  c.maxblocks = 4;  // root + one refinement does not fit
  BlockTree tree(c);
  tree.create_roots();
  EXPECT_THROW(tree.refine(0), SystemError);
}

TEST(TreeTest, RefinePastMaxLevelThrows) {
  MeshConfig c = small_2d();
  c.max_level = 1;
  BlockTree tree(c);
  tree.create_roots();
  EXPECT_THROW(tree.refine(0), ConfigError);
}

TEST(TreeTest, BalanceDetection) {
  BlockTree tree(small_2d());
  tree.create_roots();
  EXPECT_TRUE(tree.is_balanced());
  tree.refine(0);
  EXPECT_TRUE(tree.is_balanced());
  // Refine one grandchild twice without touching its coarse neighbors.
  const int c00 = tree.find(2, {0, 0, 0});
  tree.refine(c00);
  EXPECT_TRUE(tree.is_balanced());  // L3 next to L2: legal
  // L4 in the domain corner touches only L3 leaves: the L2 leaves lie
  // beyond it only across the (outflow) domain edge, which does not wrap.
  tree.refine(tree.find(3, {0, 0, 0}));
  EXPECT_TRUE(tree.is_balanced());
  tree.refine(tree.find(3, {1, 1, 0}));
  EXPECT_FALSE(tree.is_balanced());  // L4 next to L2: violation
}

// Two 2x2-root trees refined at the lower-left corner: root (0,0), then
// its level-2 child (0,0). The level-3 blocks sit against x = 0 and
// y = 0, so they touch the level-1 leaves (1,0) and (0,1) only across a
// periodic wrap.
BlockTree corner_refined(const MeshConfig& c) {
  BlockTree tree(c);
  tree.create_roots();
  tree.refine(tree.find(1, {0, 0, 0}));
  tree.refine(tree.find(2, {0, 0, 0}));
  return tree;
}

TEST(TreeTest, BalanceIgnoresWrapAlongNonPeriodicAxes) {
  MeshConfig c = small_2d();
  c.nroot = {2, 2, 1};
  c.bc[0] = {Bc::kOutflow, Bc::kReflect};
  c.bc[1] = {Bc::kReflect, Bc::kOutflow};
  EXPECT_TRUE(corner_refined(c).is_balanced());
}

TEST(TreeTest, BalanceSeesLevelJumpsAcrossAPeriodicWrap) {
  MeshConfig x = small_2d();
  x.nroot = {2, 2, 1};
  x.bc[0] = {Bc::kPeriodic, Bc::kPeriodic};
  // Root (1,0) touches the level-3 blocks across the x wrap.
  EXPECT_FALSE(corner_refined(x).is_balanced());

  MeshConfig y = small_2d();
  y.nroot = {2, 2, 1};
  y.bc[1] = {Bc::kPeriodic, Bc::kPeriodic};
  // Root (0,1) touches them across the y wrap.
  EXPECT_FALSE(corner_refined(y).is_balanced());
}

// --------------------------------------------------------------- AMR mesh

TEST(AmrMeshTest, CellCoordinatesAndVolumesCartesian) {
  rt::Runtime runtime;
  MeshConfig c = small_2d();
  c.lo = {0.0, 0.0, 0.0};
  c.hi = {1.0, 1.0, 1.0};
  AmrMesh mesh(c, mem::HugePolicy::kNone, runtime.layout(),
               runtime.page_pool(), runtime.arena());
  const int b = 0;
  EXPECT_DOUBLE_EQ(mesh.dx(b, 0), 1.0 / c.nxb);
  EXPECT_DOUBLE_EQ(mesh.xcenter(b, c.ilo()), 0.5 / c.nxb);
  EXPECT_DOUBLE_EQ(mesh.xface(b, c.ilo()), 0.0);
  // Sum of interior cell volumes equals the domain area (2-d: depth 1).
  double total = 0.0;
  for (int j = c.jlo(); j < c.jhi(); ++j) {
    for (int i = c.ilo(); i < c.ihi(); ++i) {
      total += mesh.cell_volume(b, i, j, 0);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(AmrMeshTest, CylindricalVolumesIntegrateToTorus) {
  rt::Runtime runtime;
  MeshConfig c = small_2d();
  c.geometry = Geometry::kCylindrical;
  c.lo = {0.0, 0.0, 0.0};
  c.hi = {2.0, 1.0, 1.0};
  c.bc[0][0] = Bc::kAxis;
  AmrMesh mesh(c, mem::HugePolicy::kNone, runtime.layout(),
               runtime.page_pool(), runtime.arena());
  double total = 0.0;
  for (int j = c.jlo(); j < c.jhi(); ++j) {
    for (int i = c.ilo(); i < c.ihi(); ++i) {
      total += mesh.cell_volume(0, i, j, 0);
    }
  }
  // V = pi R^2 H = pi * 4 * 1.
  EXPECT_NEAR(total, M_PI * 4.0, 1e-10);
  // Radial face area at the axis is zero.
  EXPECT_DOUBLE_EQ(mesh.face_area(0, 0, c.ilo(), c.jlo(), 0), 0.0);
}

/// Fill all interior cells from an analytic linear function.
void fill_linear(AmrMesh& mesh) {
  const MeshConfig& c = mesh.config();
  for (int b : mesh.tree().leaves_morton()) {
    for (int k = c.klo(); k < c.khi(); ++k) {
      for (int j = c.jlo(); j < c.jhi(); ++j) {
        for (int i = c.ilo(); i < c.ihi(); ++i) {
          const double f = 2.0 + 3.0 * mesh.xcenter(b, i) -
                           1.5 * mesh.ycenter(b, j);
          for (int v = 0; v < c.nvar(); ++v) {
            mesh.unk().at(v, i, j, k, b) = f + v;
          }
        }
      }
    }
  }
}

TEST(AmrMeshTest, GuardFillReproducesLinearFieldSameLevel) {
  rt::Runtime runtime;
  MeshConfig c = small_2d();
  c.nroot = {2, 2, 1};
  AmrMesh mesh(c, mem::HugePolicy::kNone, runtime.layout(),
               runtime.page_pool(), runtime.arena());
  fill_linear(mesh);
  mesh.fill_guardcells();
  // Interior-side guards of block 0 (high-x) must continue the function.
  const int b = 0;
  for (int j = c.jlo(); j < c.jhi(); ++j) {
    for (int i = c.ihi(); i < c.ihi() + c.nguard; ++i) {
      const double expected =
          2.0 + 3.0 * mesh.xcenter(b, i) - 1.5 * mesh.ycenter(b, j);
      EXPECT_NEAR(mesh.unk().at(0, i, j, 0, b), expected, 1e-12);
    }
  }
}

TEST(AmrMeshTest, GuardFillInterpolatesFromCoarseExactlyForLinear) {
  rt::Runtime runtime;
  MeshConfig c = small_2d();
  c.nroot = {2, 1, 1};
  AmrMesh mesh(c, mem::HugePolicy::kNone, runtime.layout(),
               runtime.page_pool(), runtime.arena());
  fill_linear(mesh);
  mesh.fill_guardcells();
  mesh.refine_block(0);  // block 1 stays coarse: fine-coarse interface
  fill_linear(mesh);
  mesh.fill_guardcells();
  // The high-x guards of the fine block at (1,0) come from coarse block 1;
  // linear interpolation is exact for a linear field.
  const int fine = mesh.tree().find(2, {1, 0, 0});
  ASSERT_GE(fine, 0);
  // Rows whose coarse stencil reaches the domain-boundary guards (where
  // outflow flattens the field) are excluded: linearity only holds where
  // the coarse data itself is linear.
  for (int j = c.jlo() + 2; j < c.jhi() - 2; ++j) {
    for (int i = c.ihi(); i < c.ihi() + c.nguard; ++i) {
      const double expected =
          2.0 + 3.0 * mesh.xcenter(fine, i) - 1.5 * mesh.ycenter(fine, j);
      EXPECT_NEAR(mesh.unk().at(0, i, j, 0, fine), expected, 1e-10)
          << "i=" << i << " j=" << j;
    }
  }
}

TEST(AmrMeshTest, OutflowBoundaryCopiesEdgeValue) {
  rt::Runtime runtime;
  MeshConfig c = small_2d();
  AmrMesh mesh(c, mem::HugePolicy::kNone, runtime.layout(),
               runtime.page_pool(), runtime.arena());
  fill_linear(mesh);
  mesh.fill_guardcells();
  const double edge = mesh.unk().at(0, c.ilo(), c.jlo() + 2, 0, 0);
  for (int g = 1; g <= c.nguard; ++g) {
    EXPECT_DOUBLE_EQ(mesh.unk().at(0, c.ilo() - g, c.jlo() + 2, 0, 0), edge);
  }
}

TEST(AmrMeshTest, ReflectBoundaryMirrorsAndNegatesNormalVelocity) {
  rt::Runtime runtime;
  MeshConfig c = small_2d();
  c.bc[0][0] = Bc::kReflect;
  AmrMesh mesh(c, mem::HugePolicy::kNone, runtime.layout(),
               runtime.page_pool(), runtime.arena());
  fill_linear(mesh);
  mesh.fill_guardcells();
  const int j = c.jlo() + 1;
  for (int g = 0; g < c.nguard; ++g) {
    const double mirror = mesh.unk().at(var::kDens, c.ilo() + g, j, 0, 0);
    EXPECT_DOUBLE_EQ(mesh.unk().at(var::kDens, c.ilo() - 1 - g, j, 0, 0),
                     mirror);
    const double vmir = mesh.unk().at(var::kVelx, c.ilo() + g, j, 0, 0);
    EXPECT_DOUBLE_EQ(mesh.unk().at(var::kVelx, c.ilo() - 1 - g, j, 0, 0),
                     -vmir);
  }
}

TEST(AmrMeshTest, PeriodicGuardsWrapAround) {
  rt::Runtime runtime;
  MeshConfig c = small_2d();
  c.nroot = {2, 1, 1};
  c.bc[0][0] = c.bc[0][1] = Bc::kPeriodic;
  AmrMesh mesh(c, mem::HugePolicy::kNone, runtime.layout(),
               runtime.page_pool(), runtime.arena());
  // A distinctive value at the far-right interior of block 1 must appear
  // in the low-x guards of block 0.
  mesh.unk().at(0, c.ihi() - 1, c.jlo(), 0, 1) = 123.0;
  mesh.fill_guardcells();
  EXPECT_DOUBLE_EQ(mesh.unk().at(0, c.ilo() - 1, c.jlo(), 0, 0), 123.0);
}

TEST(AmrMeshTest, RestrictionConservesMassCartesian) {
  rt::Runtime runtime;
  MeshConfig c = small_2d();
  AmrMesh mesh(c, mem::HugePolicy::kNone, runtime.layout(),
               runtime.page_pool(), runtime.arena());
  fill_linear(mesh);
  mesh.fill_guardcells();
  mesh.refine_block(0);
  // Perturb the children, then derefine: the parent must hold the
  // volume-weighted child average, conserving the integral.
  fill_linear(mesh);
  const double mass_fine = mesh.integrate(var::kDens);
  mesh.derefine_block(0);
  const double mass_coarse = mesh.integrate(var::kDens);
  EXPECT_NEAR(mass_coarse / mass_fine, 1.0, 1e-12);
}

TEST(AmrMeshTest, ProlongationIsConservativeAndExactForLinear) {
  rt::Runtime runtime;
  MeshConfig c = small_2d();
  AmrMesh mesh(c, mem::HugePolicy::kNone, runtime.layout(),
               runtime.page_pool(), runtime.arena());
  fill_linear(mesh);
  mesh.fill_guardcells();
  const double mass_before = mesh.integrate(var::kDens);
  mesh.refine_block(0);
  const double mass_after = mesh.integrate(var::kDens);
  EXPECT_NEAR(mass_after / mass_before, 1.0, 1e-12);
  // Away from the domain boundary (where guards are zero-gradient, making
  // the parent slopes flat), the linear field is reproduced exactly.
  const int fine = mesh.tree().find(2, {1, 1, 0});
  const int i = c.ilo() + 1, j = c.jlo() + 1;
  const double expected =
      2.0 + 3.0 * mesh.xcenter(fine, i) - 1.5 * mesh.ycenter(fine, j);
  EXPECT_NEAR(mesh.unk().at(0, i, j, 0, fine), expected, 1e-10);
}

TEST(AmrMeshTest, LoehnerFlatFieldScoresZero) {
  rt::Runtime runtime;
  AmrMesh mesh(small_2d(), mem::HugePolicy::kNone, runtime.layout(),
               runtime.page_pool(), runtime.arena());
  // A constant field has no second derivative anywhere — including at
  // the outflow boundaries, whose zero-gradient guards would make a
  // *linear* field look curved in the edge cells.
  const MeshConfig& c = mesh.config();
  for (int j = 0; j < c.nj(); ++j) {
    for (int i = 0; i < c.ni(); ++i) {
      mesh.unk().at(0, i, j, 0, 0) = 7.0;
    }
  }
  EXPECT_LT(mesh.loehner_error(0, 0), 1e-12);
}

TEST(AmrMeshTest, LoehnerDiscontinuityScoresHigh) {
  rt::Runtime runtime;
  MeshConfig c = small_2d();
  AmrMesh mesh(c, mem::HugePolicy::kNone, runtime.layout(),
               runtime.page_pool(), runtime.arena());
  for (int j = 0; j < c.nj(); ++j) {
    for (int i = 0; i < c.ni(); ++i) {
      mesh.unk().at(0, i, j, 0, 0) = i < c.ni() / 2 ? 1.0 : 10.0;
    }
  }
  EXPECT_GT(mesh.loehner_error(0, 0), 0.6);
}

TEST(AmrMeshTest, RemeshRefinesDiscontinuityAndKeepsBalance) {
  rt::Runtime runtime;
  MeshConfig c = small_2d();
  c.max_level = 3;
  c.maxblocks = 128;
  AmrMesh mesh(c, mem::HugePolicy::kNone, runtime.layout(),
               runtime.page_pool(), runtime.arena());
  auto paint = [&mesh](int v) {
    const MeshConfig& cc = mesh.config();
    for (int b : mesh.tree().leaves_morton()) {
      for (int j = cc.jlo(); j < cc.jhi(); ++j) {
        for (int i = cc.ilo(); i < cc.ihi(); ++i) {
          mesh.unk().at(v, i, j, 0, b) =
              mesh.xcenter(b, i) < 0.3 ? 1.0 : 8.0;
        }
      }
    }
  };
  paint(var::kDens);
  const std::array<int, 1> vars{var::kDens};
  for (int pass = 0; pass < 3; ++pass) {
    mesh.remesh(vars, 0.7, 0.1);
    paint(var::kDens);
  }
  EXPECT_EQ(mesh.tree().finest_level(), 3);
  EXPECT_TRUE(mesh.tree().is_balanced());
  EXPECT_GT(mesh.tree().leaves_morton().size(), 4u);
}

TEST(AmrMeshTest, RemeshDerefinesSmoothRegions) {
  rt::Runtime runtime;
  MeshConfig c = small_2d();
  c.max_level = 2;
  AmrMesh mesh(c, mem::HugePolicy::kNone, runtime.layout(),
               runtime.page_pool(), runtime.arena());
  mesh.refine_block(0);  // fully refined, but the data is smooth
  for (int b : mesh.tree().leaves_morton()) {
    for (int j = 0; j < c.nj(); ++j) {
      for (int i = 0; i < c.ni(); ++i) {
        for (int v = 0; v < c.nvar(); ++v) {
          mesh.unk().at(v, i, j, 0, b) = 3.0;
        }
      }
    }
  }
  const std::array<int, 1> vars{var::kDens};
  mesh.remesh(vars, 0.8, 0.2);
  EXPECT_EQ(mesh.tree().leaves_morton().size(), 1u);  // collapsed back
}

TEST(AmrMeshTest, IntegrateProductMatchesHandComputation) {
  rt::Runtime runtime;
  MeshConfig c = small_2d();
  AmrMesh mesh(c, mem::HugePolicy::kNone, runtime.layout(),
               runtime.page_pool(), runtime.arena());
  for (int j = c.jlo(); j < c.jhi(); ++j) {
    for (int i = c.ilo(); i < c.ihi(); ++i) {
      mesh.unk().at(var::kDens, i, j, 0, 0) = 2.0;
      mesh.unk().at(var::kEner, i, j, 0, 0) = 3.0;
    }
  }
  EXPECT_NEAR(mesh.integrate(var::kDens), 2.0, 1e-12);
  EXPECT_NEAR(mesh.integrate_product(var::kDens, var::kEner), 6.0, 1e-12);
}

TEST(AmrMeshTest, ThreeDRefinementProducesEightChildren) {
  rt::Runtime runtime;
  AmrMesh mesh(small_3d(), mem::HugePolicy::kNone, runtime.layout(),
               runtime.page_pool(), runtime.arena());
  const auto kids = mesh.refine_block(0);
  int live = 0;
  for (int kid : kids) {
    if (kid >= 0) ++live;
  }
  EXPECT_EQ(live, 8);
  EXPECT_EQ(mesh.tree().leaves_morton().size(), 8u);
}

// ------------------------------------------------------------- guard plan
//
// A stage's GuardPlan must write fill_guardcells()'s bits into every zone
// the stage reads: for a sweep, both face slabs along its axis, nguard
// deep, inside the transverse interior, every variable; for the flame
// stage, every face. Each case runs fill_guardcells() — the all-faces
// plan, level-parallel on the arena — on one mesh, and the stage's plan,
// serially in its own order, on an identical copy whose non-interior
// zones hold different garbage. A sweep stage's plan differs from the
// all-faces one in its closure and in the parents it restricts; the
// flame stage's is the same plan, so its row shows any zone both forget
// to fill (or fill from a stale source) as a bit mismatch.

struct PlanCase {
  const char* name;
  MeshConfig config;
  /// Blocks refined in order, as (level, coordinates).
  std::vector<std::pair<int, std::array<std::int32_t, 3>>> refine;
};

std::vector<PlanCase> plan_cases() {
  std::vector<PlanCase> cases;
  {
    // Three levels: a level-3 corner inside a refined root, so the
    // plan restricts a parent after its non-leaf child.
    MeshConfig c = small_2d();
    c.nroot = {2, 2, 1};
    c.bc[0] = {Bc::kOutflow, Bc::kReflect};
    c.bc[1] = {Bc::kReflect, Bc::kOutflow};
    cases.push_back({"2d-outflow-reflect", c, {{1, {0, 0, 0}}, {2, {0, 0, 0}}}});
  }
  {
    // In the y-sweep stage a cover's x face copies from a parent whose
    // refined children no planned face copies from directly: the plan
    // must still restrict them first, so the parent comes out whole.
    MeshConfig c = small_2d();
    c.nroot = {3, 2, 1};
    cases.push_back({"2d-restrict-closure",
                     c,
                     {{1, {2, 1, 0}},
                      {1, {1, 0, 0}},
                      {1, {2, 0, 0}},
                      {2, {5, 2, 0}},
                      {2, {5, 1, 0}},
                      {2, {5, 3, 0}}}});
  }
  {
    // Fine-coarse faces across the periodic wrap.
    MeshConfig c = small_2d();
    c.nroot = {2, 2, 1};
    c.bc[0] = {Bc::kPeriodic, Bc::kPeriodic};
    c.bc[1] = {Bc::kPeriodic, Bc::kPeriodic};
    cases.push_back({"2d-periodic", c, {{1, {1, 0, 0}}}});
  }
  {
    // Cylindrical (r, z) with the axis boundary under refined blocks.
    MeshConfig c = small_2d();
    c.geometry = Geometry::kCylindrical;
    c.nroot = {2, 2, 1};
    c.bc[0] = {Bc::kAxis, Bc::kOutflow};
    c.bc[1] = {Bc::kReflect, Bc::kOutflow};
    cases.push_back({"2d-cylindrical-axis", c, {{1, {0, 0, 0}}, {2, {0, 0, 0}}}});
  }
  {
    MeshConfig c = small_3d();
    c.nscalars = 1;
    c.maxblocks = 32;
    c.nroot = {2, 2, 2};
    c.bc[0] = {Bc::kOutflow, Bc::kOutflow};
    c.bc[1] = {Bc::kReflect, Bc::kOutflow};
    c.bc[2] = {Bc::kOutflow, Bc::kReflect};
    cases.push_back({"3d-outflow-reflect", c, {{1, {0, 0, 0}}, {2, {0, 0, 0}}}});
  }
  {
    MeshConfig c = small_3d();
    c.maxblocks = 32;
    c.nroot = {2, 2, 2};
    c.bc[0] = {Bc::kPeriodic, Bc::kPeriodic};
    c.bc[1] = {Bc::kPeriodic, Bc::kPeriodic};
    c.bc[2] = {Bc::kPeriodic, Bc::kPeriodic};
    cases.push_back({"3d-periodic", c, {{1, {1, 1, 1}}}});
  }
  return cases;
}

/// True if some leaf face abuts a coarser block.
bool has_fine_coarse_face(const BlockTree& tree) {
  for (const int b : tree.leaves_morton()) {
    for (int axis = 0; axis < tree.config().ndim; ++axis) {
      for (int side = 0; side < 2; ++side) {
        const NeighborQuery q = tree.neighbor(b, face_step(axis, side));
        if (!q.outside_domain && q.id < 0) return true;
      }
    }
  }
  return false;
}

/// The case's mesh: every zone of every allocated block holds garbage
/// from \p garbage_seed, then every leaf interior the same seeded state.
std::unique_ptr<AmrMesh> build_plan_case(const PlanCase& pc,
                                         rt::Runtime& runtime,
                                         std::uint64_t garbage_seed) {
  auto mesh = std::make_unique<AmrMesh>(pc.config, mem::HugePolicy::kNone,
                                        runtime.layout(), runtime.page_pool(),
                                        runtime.arena());
  for (const auto& [level, coord] : pc.refine) {
    mesh->refine_block(mesh->tree().find(level, coord));
  }
  const MeshConfig& c = mesh->config();
  UnkContainer& unk = mesh->unk();
  Rng garbage(garbage_seed);
  for (int level = 1; level <= mesh->tree().finest_level(); ++level) {
    for (const int b : mesh->tree().blocks_at_level(level)) {
      for (int k = 0; k < c.nk(); ++k) {
        for (int j = 0; j < c.nj(); ++j) {
          for (int i = 0; i < c.ni(); ++i) {
            for (int v = 0; v < c.nvar(); ++v) {
              unk.at(v, i, j, k, b) = garbage.uniform(-1.0, 0.0);
            }
          }
        }
      }
    }
  }
  Rng state(2024);
  mesh->for_leaf_cells([&](int b, int i, int j, int k) {
    for (int v = 0; v < c.nvar(); ++v) {
      unk.at(v, i, j, k, b) = state.uniform(0.5, 2.0);
    }
  });
  return mesh;
}

/// The plan, executed serially in its own order (restrictions, then
/// fills coarse to fine) — the order its task edges enforce.
void run_plan(AmrMesh& mesh, const GuardPlan& plan) {
  mesh.restrict_parents(plan.restricts);
  for (const GuardFill& fill : plan.fills) {
    RegionWitness witness;  // serial test: the only thread on this mesh
    mesh.fill_block_faces(fill.block, fill.faces);
  }
}

/// Interior zones of \p b that differ, bit for bit, between the meshes.
std::int64_t interior_mismatches(const AmrMesh& full, const AmrMesh& planned,
                                 int b) {
  const MeshConfig& c = full.config();
  std::int64_t mismatches = 0;
  for (int k = c.klo(); k < c.khi(); ++k) {
    for (int j = c.jlo(); j < c.jhi(); ++j) {
      for (int i = c.ilo(); i < c.ihi(); ++i) {
        for (int v = 0; v < c.nvar(); ++v) {
          const double want = full.unk().at(v, i, j, k, b);
          const double got = planned.unk().at(v, i, j, k, b);
          if (std::memcmp(&want, &got, sizeof want) != 0) ++mismatches;
        }
      }
    }
  }
  return mismatches;
}

/// Compares, bit for bit, every zone a stage reading \p faces reads on
/// every leaf; returns {zones compared, mismatches}.
std::pair<std::int64_t, std::int64_t> compare_stage_reads(
    const AmrMesh& full, const AmrMesh& planned, FaceMask faces) {
  const MeshConfig& c = full.config();
  const std::array<int, 3> lo = {c.ilo(), c.jlo(), c.klo()};
  const std::array<int, 3> hi = {c.ihi(), c.jhi(), c.khi()};
  std::int64_t compared = 0;
  std::int64_t mismatches = 0;
  for (const int b : full.tree().leaves_morton()) {
    for (int axis = 0; axis < c.ndim; ++axis) {
      for (int side = 0; side < 2; ++side) {
        if ((faces & face_bit(axis, side)) == 0) continue;
        std::array<int, 3> from = lo;
        std::array<int, 3> to = hi;
        const auto a = static_cast<std::size_t>(axis);
        from[a] = side == 0 ? lo[a] - c.nguard : hi[a];
        to[a] = side == 0 ? lo[a] : hi[a] + c.nguard;
        for (int k = from[2]; k < to[2]; ++k) {
          for (int j = from[1]; j < to[1]; ++j) {
            for (int i = from[0]; i < to[0]; ++i) {
              for (int v = 0; v < c.nvar(); ++v) {
                const double want = full.unk().at(v, i, j, k, b);
                const double got = planned.unk().at(v, i, j, k, b);
                ++compared;
                if (std::memcmp(&want, &got, sizeof want) != 0) ++mismatches;
              }
            }
          }
        }
      }
    }
  }
  return {compared, mismatches};
}

TEST(GuardPlan, WritesTheFullFillsBitsIntoEveryZoneEachStageReads) {
  rt::Runtime runtime;
  for (const PlanCase& pc : plan_cases()) {
    SCOPED_TRACE(pc.name);
    const std::unique_ptr<AmrMesh> full = build_plan_case(pc, runtime, 1);
    ASSERT_TRUE(has_fine_coarse_face(full->tree()));
    // fill_guardcells() also checks 2:1 balance: every face of a leaf
    // without a same-level neighbor must find a coarse cover.
    full->fill_guardcells();

    const int ndim = pc.config.ndim;
    std::vector<FaceMask> stages;
    for (int axis = 0; axis < ndim; ++axis) stages.push_back(axis_faces(axis));
    stages.push_back(all_faces(ndim));  // the flame stage
    for (const FaceMask faces : stages) {
      SCOPED_TRACE("faces " + std::to_string(faces));
      const GuardPlan plan = plan_guards(full->tree(), faces);
      for (const GuardFill& fill : plan.fills) {
        EXPECT_TRUE(full->tree().info(fill.block).is_leaf);
        EXPECT_EQ(fill.faces & faces, faces);
      }
      const std::unique_ptr<AmrMesh> planned =
          build_plan_case(pc, runtime, 2);
      run_plan(*planned, plan);
      const auto [compared, mismatches] =
          compare_stage_reads(*full, *planned, faces);
      EXPECT_GT(compared, 0);
      EXPECT_EQ(mismatches, 0) << "of " << compared << " zones read";
      // A parent the plan restricts holds exactly fill_guardcells()'s
      // data.
      for (const int parent : plan.restricts) {
        EXPECT_EQ(interior_mismatches(*full, *planned, parent), 0)
            << "restricted parent " << parent;
      }
    }
  }
}

TEST(GuardPlan, UniformSedovMeshFillsOnlySweepFacesAndRestrictsNothing) {
  // sedov3d's mesh: 16^3 blocks, 4 guards, 64 level-3 leaves under 9
  // parents. The counts are the plan's own, not a timing.
  MeshConfig c;
  c.ndim = 3;
  c.nxb = c.nyb = c.nzb = 16;
  c.nguard = 4;
  c.maxblocks = 80;
  c.max_level = 3;
  BlockTree tree(c);
  tree.create_roots();
  for (const int kid : tree.refine(0)) (void)tree.refine(kid);
  ASSERT_EQ(tree.leaves_morton().size(), 64u);
  ASSERT_EQ(tree.num_allocated(), 73);

  const std::int64_t shell = static_cast<std::int64_t>(c.ni()) * c.nj() *
                                 c.nk() -
                             static_cast<std::int64_t>(c.nxb) * c.nyb * c.nzb;
  EXPECT_EQ(shell, 9728);
  EXPECT_EQ(tree.num_allocated() * shell, 710144);  // every block's shell

  for (int axis = 0; axis < 3; ++axis) {
    const GuardPlan plan = plan_guards(tree, axis_faces(axis));
    EXPECT_EQ(plan.guard_zones, 131072);  // 64 x 2 x 4*16*16
    EXPECT_TRUE(plan.restricts.empty());
    ASSERT_EQ(plan.fills.size(), 64u);
    for (const GuardFill& fill : plan.fills) {
      EXPECT_TRUE(tree.info(fill.block).is_leaf);
      EXPECT_EQ(fill.faces, axis_faces(axis));
      EXPECT_TRUE(fill.covers.empty());
    }
  }
  const GuardPlan flame = plan_guards(tree, all_faces(3));
  EXPECT_EQ(flame.guard_zones, 64 * 6 * 1024);
  EXPECT_TRUE(flame.restricts.empty());
}

}  // namespace
}  // namespace fhp::mesh
