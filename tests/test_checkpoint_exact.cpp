/// \file test_checkpoint_exact.cpp
/// \brief Tests for checkpoint I/O and the exact Sedov similarity solution.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "eos/gamma_eos.hpp"
#include "hydro/hydro.hpp"
#include "rt/runtime.hpp"
#include "sim/checkpoint.hpp"
#include "sim/sedov.hpp"
#include "sim/sedov_exact.hpp"
#include "support/error.hpp"

namespace fhp::sim {
namespace {

using mesh::LayoutKind;
using mesh::var::kDens;
using mesh::var::kEner;
using mesh::var::kPres;

// ----------------------------------------------------------- Sedov exact

TEST(SedovExactTest, AlphaMatchesPublishedValues) {
  // Sedov 1959 / Landau-Lifshitz tables, spherical geometry.
  EXPECT_NEAR(SedovExact(1.4, 3).alpha(), 0.851, 0.002);
  EXPECT_NEAR(SedovExact(5.0 / 3.0, 3).alpha(), 0.493, 0.002);
  // Cylindrical gamma = 1.4: alpha ~ 0.984.
  EXPECT_NEAR(SedovExact(1.4, 2).alpha(), 0.984, 0.003);
}

TEST(SedovExactTest, ShockRadiusScalesAsSimilarity) {
  const SedovExact sedov(1.4, 3);
  const double r1 = sedov.shock_radius(1.0, 1.0, 1.0);
  EXPECT_NEAR(sedov.shock_radius(1.0, 1.0, 2.0) / r1, std::pow(4.0, 0.2),
              1e-12);
  EXPECT_NEAR(sedov.shock_radius(32.0, 1.0, 1.0) / r1, std::pow(32.0, 0.2),
              1e-12);
  EXPECT_NEAR(sedov.shock_radius(1.0, 32.0, 1.0) / r1,
              std::pow(1.0 / 32.0, 0.2), 1e-12);
}

TEST(SedovExactTest, ProfileHasTheRightShape) {
  const SedovExact sedov(1.4, 3);
  // At the shock everything is the post-shock value.
  const auto at_shock = sedov.profile(1.0);
  EXPECT_DOUBLE_EQ(at_shock[0], 1.0);
  EXPECT_DOUBLE_EQ(at_shock[1], 1.0);
  // The interior evacuates: density plummets toward the center while the
  // pressure levels off at a finite plateau (~0.37 p2 for gamma = 1.4).
  const auto mid = sedov.profile(0.5);
  EXPECT_LT(mid[0], 0.01);
  EXPECT_NEAR(mid[2], 0.366, 0.01);
  const auto center = sedov.profile(0.01);
  EXPECT_LT(center[0], 1e-10);
  EXPECT_NEAR(center[2], 0.366, 0.01);
  // Velocity decreases monotonically toward the center.
  EXPECT_LT(sedov.profile(0.3)[1], sedov.profile(0.8)[1]);
}

TEST(SedovExactTest, SetupUsesTheExactAlpha) {
  const SedovExact sedov(1.4, 3);
  EXPECT_NEAR(SedovSetup::shock_radius(1.0, 1.0, 0.5, 1.4) /
                  sedov.shock_radius(1.0, 1.0, 0.5),
              1.0, 1e-12);
}

TEST(SedovExactTest, RejectsBadArguments) {
  EXPECT_THROW(SedovExact(1.0, 3), ConfigError);
  EXPECT_THROW(SedovExact(1.4, 4), ConfigError);
  EXPECT_THROW(SedovExact(1.4, 3, 2), ConfigError);
}

// ------------------------------------------------------------ checkpoints

mesh::MeshConfig ckpt_config() {
  mesh::MeshConfig c;
  c.ndim = 2;
  c.nxb = 8;
  c.nyb = 8;
  c.nguard = 4;
  c.nscalars = 1;
  c.maxblocks = 128;
  c.max_level = 3;
  c.nroot = {2, 1, 1};
  return c;
}

void paint(mesh::AmrMesh& m) {
  const mesh::MeshConfig& c = m.config();
  for (int b : m.tree().leaves_morton()) {
    for (int j = c.jlo(); j < c.jhi(); ++j) {
      for (int i = c.ilo(); i < c.ihi(); ++i) {
        for (int v = 0; v < c.nvar(); ++v) {
          m.unk().at(v, i, j, 0, b) =
              v + 10.0 * m.xcenter(b, i) + 100.0 * m.ycenter(b, j);
        }
      }
    }
  }
}

/// Every interior value of \p restored equals that of \p original.
void expect_same_interiors(const mesh::AmrMesh& restored,
                           const mesh::AmrMesh& original) {
  ASSERT_EQ(restored.tree().leaves_morton(),
            original.tree().leaves_morton());
  const mesh::MeshConfig& c = original.config();
  for (int b : original.tree().leaves_morton()) {
    for (int j = c.jlo(); j < c.jhi(); ++j) {
      for (int i = c.ilo(); i < c.ihi(); ++i) {
        for (int v = 0; v < c.nvar(); ++v) {
          ASSERT_EQ(restored.unk().at(v, i, j, 0, b),
                    original.unk().at(v, i, j, 0, b))
              << "b=" << b << " i=" << i << " j=" << j << " v=" << v;
        }
      }
    }
  }
}

TEST(CheckpointTest, RoundTripRestoresTopologyAndData) {
  rt::Runtime runtime;
  mesh::AmrMesh original(ckpt_config(), mem::HugePolicy::kNone,
                         runtime.layout(), runtime.page_pool(),
                         runtime.arena());
  // A non-trivial tree: refine block 0, then one of its children.
  original.refine_block(0);
  original.refine_block(original.tree().find(2, {0, 0, 0}));
  paint(original);
  original.fill_guardcells();

  write_checkpoint("ckpt_roundtrip.bin", original, {0.125, 42});

  mesh::AmrMesh restored(ckpt_config(), mem::HugePolicy::kNone,
                         runtime.layout(), runtime.page_pool(),
                         runtime.arena());
  const CheckpointInfo info =
      read_checkpoint("ckpt_roundtrip.bin", restored);
  EXPECT_DOUBLE_EQ(info.sim_time, 0.125);
  EXPECT_EQ(info.step, 42);

  // Same topology...
  EXPECT_EQ(restored.tree().num_allocated(),
            original.tree().num_allocated());
  EXPECT_EQ(restored.tree().leaves_morton(),
            original.tree().leaves_morton());
  // ...and bit-identical interiors.
  expect_same_interiors(restored, original);
}

TEST(CheckpointTest, RestartContinuesBitExactly) {
  rt::Runtime runtime;
  // Run A: 8 Sod-like steps straight through. Run B: 4 steps, checkpoint,
  // restore into a fresh mesh, 4 more. The results must agree bit for bit
  // (this is FLASH's restart guarantee).
  auto build = [&runtime]() {
    auto m = std::make_unique<mesh::AmrMesh>(
        ckpt_config(), mem::HugePolicy::kNone, runtime.layout(),
        runtime.page_pool(), runtime.arena());
    const mesh::MeshConfig& c = m->config();
    m->for_leaf_cells([&](int b, int i, int j, int k) {
      const double x = m->xcenter(b, i);
      const double rho = x < 0.5 ? 1.0 : 0.125;
      const double p = x < 0.5 ? 1.0 : 0.1;
      auto& unk = m->unk();
      unk.at(kDens, i, j, k, b) = rho;
      unk.at(kPres, i, j, k, b) = p;
      unk.at(mesh::var::kEint, i, j, k, b) = p / (0.4 * rho);
      unk.at(kEner, i, j, k, b) = p / (0.4 * rho);
      unk.at(mesh::var::kGamc, i, j, k, b) = 1.4;
      unk.at(mesh::var::kGame, i, j, k, b) = 1.4;
    });
    (void)c;
    m->fill_guardcells();
    return m;
  };

  eos::GammaEos gamma(1.4);

  auto run_a = build();
  hydro::HydroSolver solver_a(*run_a, gamma);
  for (int n = 0; n < 8; ++n) solver_a.step(1e-3);

  auto run_b = build();
  {
    hydro::HydroSolver solver_b(*run_b, gamma);
    for (int n = 0; n < 4; ++n) solver_b.step(1e-3);
    write_checkpoint("ckpt_restart.bin", *run_b, {4e-3, 4});
  }
  auto run_c = std::make_unique<mesh::AmrMesh>(
      ckpt_config(), mem::HugePolicy::kNone, runtime.layout(),
      runtime.page_pool(), runtime.arena());
  read_checkpoint("ckpt_restart.bin", *run_c);
  hydro::HydroSolver solver_c(*run_c, gamma);
  // Match run A's sweep-order phase (4 steps already taken).
  for (int n = 0; n < 4; ++n) solver_c.step(1e-3);

  const mesh::MeshConfig& c = run_a->config();
  for (int b : run_a->tree().leaves_morton()) {
    for (int j = c.jlo(); j < c.jhi(); ++j) {
      for (int i = c.ilo(); i < c.ihi(); ++i) {
        ASSERT_EQ(run_c->unk().at(kDens, i, j, 0, b),
                  run_a->unk().at(kDens, i, j, 0, b))
            << "b=" << b << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(CheckpointTest, ConfigMismatchRejected) {
  rt::Runtime runtime;
  mesh::AmrMesh original(ckpt_config(), mem::HugePolicy::kNone,
                         runtime.layout(), runtime.page_pool(),
                         runtime.arena());
  paint(original);
  write_checkpoint("ckpt_mismatch.bin", original, {});

  mesh::MeshConfig other = ckpt_config();
  other.nscalars = 2;  // different layout
  mesh::AmrMesh wrong(other, mem::HugePolicy::kNone, runtime.layout(),
                      runtime.page_pool(), runtime.arena());
  EXPECT_THROW(read_checkpoint("ckpt_mismatch.bin", wrong), ConfigError);
}

TEST(CheckpointTest, MissingAndCorruptFilesRejected) {
  rt::Runtime runtime;
  mesh::AmrMesh m(ckpt_config(), mem::HugePolicy::kNone, runtime.layout(),
                  runtime.page_pool(), runtime.arena());
  EXPECT_THROW(read_checkpoint("nonexistent.bin", m), SystemError);
  // A file with the wrong magic is rejected before any topology change.
  std::FILE* f = std::fopen("ckpt_garbage.bin", "wb");
  std::fputs("not a checkpoint at all, sorry", f);
  std::fclose(f);
  EXPECT_THROW(read_checkpoint("ckpt_garbage.bin", m), ConfigError);
}

TEST(CheckpointTest, RequiresAFreshMesh) {
  rt::Runtime runtime;
  mesh::AmrMesh original(ckpt_config(), mem::HugePolicy::kNone,
                         runtime.layout(), runtime.page_pool(),
                         runtime.arena());
  paint(original);
  write_checkpoint("ckpt_fresh.bin", original, {});

  mesh::AmrMesh busy(ckpt_config(), mem::HugePolicy::kNone,
                     runtime.layout(), runtime.page_pool(),
                     runtime.arena());
  busy.refine_block(0);  // not fresh any more
  EXPECT_THROW(read_checkpoint("ckpt_fresh.bin", busy), ConfigError);
}

/// A refined, painted mesh under \p layout.
std::unique_ptr<mesh::AmrMesh> painted_mesh(rt::Runtime& runtime,
                                            LayoutKind layout) {
  auto m = std::make_unique<mesh::AmrMesh>(
      ckpt_config(), mem::HugePolicy::kNone, layout, runtime.page_pool(),
      runtime.arena());
  m->refine_block(0);
  m->refine_block(m->tree().find(2, {0, 0, 0}));
  paint(*m);
  return m;
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// The painted mesh's checkpoint written under var_major, and the offset
/// of its writer-layout provenance: the one 4-byte field in which it
/// differs from the same mesh written under zone_major.
struct ProvenanceFile {
  std::vector<char> bytes;
  std::size_t field = 0;
};

ProvenanceFile provenance_file(rt::Runtime& runtime) {
  // One file per test: ctest runs the tests that call this as concurrent
  // processes in one working directory.
  const std::string path =
      std::string("ckpt_provenance_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".bin";
  std::vector<char> written[2];
  for (const LayoutKind layout :
       {LayoutKind::kVarMajor, LayoutKind::kZoneMajor}) {
    write_checkpoint(path, *painted_mesh(runtime, layout), {0.5, 7});
    written[static_cast<int>(layout)] = file_bytes(path);
  }
  ProvenanceFile file{written[0], 0};
  EXPECT_EQ(written[0].size(), written[1].size());
  std::vector<std::size_t> differ;
  for (std::size_t n = 0; n < written[0].size(); ++n) {
    if (written[0][n] != written[1][n]) differ.push_back(n);
  }
  EXPECT_FALSE(differ.empty());
  if (differ.empty()) return file;
  EXPECT_LT(differ.back() - differ.front(), sizeof(std::int32_t));
  file.field = differ.front();
  std::int32_t as_written[2];
  for (int w = 0; w < 2; ++w) {
    std::memcpy(&as_written[w], written[w].data() + file.field,
                sizeof(std::int32_t));
  }
  EXPECT_EQ(as_written[0], static_cast<std::int32_t>(LayoutKind::kVarMajor));
  EXPECT_EQ(as_written[1], static_cast<std::int32_t>(LayoutKind::kZoneMajor));
  return file;
}

/// Write \p bytes to \p path with the field at \p offset set to \p value.
template <typename T>
void write_patched(std::vector<char> bytes, std::size_t offset, T value,
                   const std::string& path) {
  std::memcpy(bytes.data() + offset, &value, sizeof value);
  std::ofstream(path, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CheckpointTest, LegacyTiledProvenanceRestoresExactly) {
  rt::Runtime runtime;
  const ProvenanceFile file = provenance_file(runtime);
  ASSERT_GT(file.field, 0u);
  // Files written under the since-deleted tiled layout say 2; their zone
  // data is canonical, so they restore into either layout.
  write_patched(file.bytes, file.field, std::int32_t{2},
                "ckpt_legacy_layout.bin");
  const auto original = painted_mesh(runtime, LayoutKind::kVarMajor);
  for (const LayoutKind reader :
       {LayoutKind::kVarMajor, LayoutKind::kZoneMajor}) {
    mesh::AmrMesh restored(ckpt_config(), mem::HugePolicy::kNone, reader,
                           runtime.page_pool(), runtime.arena());
    const CheckpointInfo info =
        read_checkpoint("ckpt_legacy_layout.bin", restored);
    EXPECT_DOUBLE_EQ(info.sim_time, 0.5);
    EXPECT_EQ(info.step, 7);
    expect_same_interiors(restored, *original);
  }
}

TEST(CheckpointTest, UnknownLayoutProvenanceRejected) {
  rt::Runtime runtime;
  const ProvenanceFile file = provenance_file(runtime);
  ASSERT_GT(file.field, 0u);
  for (const std::int32_t value : {-1, 3}) {
    write_patched(file.bytes, file.field, value, "ckpt_unknown_layout.bin");
    mesh::AmrMesh m(ckpt_config(), mem::HugePolicy::kNone, runtime.layout(),
                    runtime.page_pool(), runtime.arena());
    EXPECT_THROW(read_checkpoint("ckpt_unknown_layout.bin", m), ConfigError)
        << "provenance " << value;
  }
}

TEST(CheckpointTest, OversizedLeafCountRejected) {
  rt::Runtime runtime;
  const ProvenanceFile file = provenance_file(runtime);
  ASSERT_GT(file.field, 0u);
  // The leaf count follows the provenance: 4 bytes of layout, 8 of time,
  // 8 of step.
  const std::size_t count_field = file.field + sizeof(std::int32_t) +
                                  sizeof(double) + sizeof(std::int64_t);
  std::int64_t written = 0;
  ASSERT_LE(count_field + sizeof written, file.bytes.size());
  std::memcpy(&written, file.bytes.data() + count_field, sizeof written);
  ASSERT_EQ(written, 8);  // the painted mesh's leaves

  mesh::AmrMesh fresh(ckpt_config(), mem::HugePolicy::kNone,
                      runtime.layout(), runtime.page_pool(), runtime.arena());
  const std::int64_t capacity = fresh.tree().capacity();
  for (const std::int64_t count : {capacity + 1, std::int64_t{1} << 60}) {
    write_patched(file.bytes, count_field, count, "ckpt_leaf_count.bin");
    mesh::AmrMesh m(ckpt_config(), mem::HugePolicy::kNone, runtime.layout(),
                    runtime.page_pool(), runtime.arena());
    EXPECT_THROW(read_checkpoint("ckpt_leaf_count.bin", m), ConfigError)
        << "leaf count " << count;
    // Rejected before the topology replay touched the mesh.
    EXPECT_EQ(m.tree().num_allocated(), fresh.tree().num_allocated())
        << "leaf count " << count;
  }
}

}  // namespace
}  // namespace fhp::sim
