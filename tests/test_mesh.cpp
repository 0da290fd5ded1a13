/// \file test_mesh.cpp
/// \brief Unit tests for the PARAMESH-like AMR mesh.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "mem/huge_policy.hpp"
#include "mesh/amr_mesh.hpp"
#include "mesh/config.hpp"
#include "mesh/tree.hpp"
#include "mesh/unk.hpp"
#include "rt/runtime.hpp"
#include "support/error.hpp"

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
  const int c000 = tree.find(3, {0, 0, 0});
  tree.refine(c000);
  EXPECT_FALSE(tree.is_balanced());  // L4 next to L2: violation
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

}  // namespace
}  // namespace fhp::mesh
