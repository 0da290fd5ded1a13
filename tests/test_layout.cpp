/// \file test_layout.cpp
/// \brief BlockLayout policy tests: bijection, strides, trace runs, and
/// the cross-layout physics / checkpoint invariants.
///
/// The layout contract (layout.hpp): every layout is a bijection over
/// (v,i,j,k,b) with identical block footprint; kernels see identical
/// values through at(), so the physics end state is bit-identical across
/// layouts and thread counts; checkpoints are canonical, so any layout
/// restores any layout; and the tracer sees each layout's *real* address
/// stream — var_major's being byte-identical to the historical contiguous
/// zone-vector replay.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "mem/huge_policy.hpp"
#include "mesh/amr_mesh.hpp"
#include "mesh/config.hpp"
#include "mesh/layout.hpp"
#include "mesh/unk.hpp"
#include "par/parallel.hpp"
#include "rt/runtime.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulation.hpp"
#include "support/error.hpp"
#include "support/runtime_params.hpp"
#include "svc/service.hpp"
#include "tlb/machine.hpp"
#include "tlb/trace.hpp"

#include "scoped_env.hpp"

namespace fhp {
namespace {

using mesh::BlockLayout;
using mesh::LayoutKind;
using mesh::MeshConfig;
using mesh::UnkContainer;

constexpr LayoutKind kAllLayouts[] = {LayoutKind::kVarMajor,
                                      LayoutKind::kZoneMajor};

// ----------------------------------------------------------- selection

TEST(LayoutSelect, ParseAndToStringRoundTrip) {
  for (const LayoutKind kind : kAllLayouts) {
    const auto parsed = mesh::parse_layout(mesh::to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(mesh::parse_layout("  SoA "), LayoutKind::kZoneMajor);
  EXPECT_EQ(mesh::parse_layout("Fortran"), LayoutKind::kVarMajor);
  EXPECT_FALSE(mesh::parse_layout("diagonal").has_value());
  EXPECT_FALSE(mesh::parse_layout("").has_value());
  // The deleted tiled layout and its alias.
  EXPECT_FALSE(mesh::parse_layout("tiled").has_value());
  EXPECT_FALSE(mesh::parse_layout("tile").has_value());
}

/// The message of the ConfigError \p fn throws ("" if it throws none).
template <typename Fn>
std::string config_error_text(Fn&& fn) {
  try {
    fn();
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

/// \p text names every valid layout.
void expect_names_every_layout(const std::string& text) {
  ASSERT_FALSE(text.empty()) << "no ConfigError";
  for (const LayoutKind kind : kAllLayouts) {
    EXPECT_NE(text.find(mesh::to_string(kind)), std::string::npos) << text;
  }
}

TEST(LayoutSelect, RuntimeParamSelectsTheLayout) {
  RuntimeParams rp;
  mesh::declare_runtime_params(rp);
  std::ostringstream help;
  rp.dump(help);
  expect_names_every_layout(help.str());
  EXPECT_FALSE(mesh::layout_from_params(rp).has_value());  // "": defer
  rp.set_from_string(mesh::kLayoutParamName, "zone_major");
  EXPECT_EQ(mesh::layout_from_params(rp), LayoutKind::kZoneMajor);
  rp.set_from_string(mesh::kLayoutParamName, "junk");
  EXPECT_THROW(static_cast<void>(mesh::layout_from_params(rp)), ConfigError);
  rp.set_from_string(mesh::kLayoutParamName, "tiled");
  expect_names_every_layout(config_error_text(
      [&] { static_cast<void>(mesh::layout_from_params(rp)); }));
}

TEST(LayoutSelect, TiledEnvironmentIsAConfigError) {
  const test::ScopedEnv env(mesh::kLayoutEnvVar, "tiled");
  expect_names_every_layout(
      config_error_text([] { static_cast<void>(rt::Runtime()); }));
}

// ------------------------------------------------------------ the map

TEST(LayoutMap, EveryLayoutIsABijectionWithBlockLocality) {
  // Deliberately anisotropic extents.
  const int nvar = 7, ni = 12, nj = 10, nk = 6, nblocks = 3;
  for (const LayoutKind kind : kAllLayouts) {
    const BlockLayout layout(kind, nvar, ni, nj, nk);
    ASSERT_EQ(layout.block_stride(),
              static_cast<std::size_t>(nvar) * ni * nj * nk);
    const std::size_t total = layout.block_stride() * nblocks;
    std::vector<char> seen(total, 0);
    for (int b = 0; b < nblocks; ++b) {
      for (int k = 0; k < nk; ++k) {
        for (int j = 0; j < nj; ++j) {
          for (int i = 0; i < ni; ++i) {
            for (int v = 0; v < nvar; ++v) {
              const std::size_t off = layout.offset(v, i, j, k, b);
              ASSERT_LT(off, total) << mesh::to_string(kind);
              // Block locality: all of block b inside its stride window.
              ASSERT_GE(off, layout.block_stride() * b);
              ASSERT_LT(off, layout.block_stride() * (b + 1));
              ASSERT_EQ(seen[off], 0)
                  << mesh::to_string(kind) << " aliases offset " << off;
              seen[off] = 1;
            }
          }
        }
      }
    }
    // Bijection: every offset hit exactly once.
    for (std::size_t off = 0; off < total; ++off) {
      ASSERT_EQ(seen[off], 1) << mesh::to_string(kind) << " hole at " << off;
    }
  }
}

TEST(LayoutMap, VarMajorMatchesTheFortranFormula) {
  const int nvar = 15, ni = 24, nj = 24, nk = 24;
  const BlockLayout layout(LayoutKind::kVarMajor, nvar, ni, nj, nk);
  for (const auto [v, i, j, k, b] :
       {std::array<int, 5>{0, 0, 0, 0, 0}, {3, 5, 7, 11, 2},
        {14, 23, 23, 23, 4}}) {
    const std::size_t expected =
        static_cast<std::size_t>(v) +
        static_cast<std::size_t>(nvar) *
            (i + static_cast<std::size_t>(ni) *
                     (j + static_cast<std::size_t>(nj) *
                              (k + static_cast<std::size_t>(nk) *
                                       static_cast<std::size_t>(
                                           b))));  // fhp-lint: allow(layout-offset)
    EXPECT_EQ(layout.offset(v, i, j, k, b), expected);
  }
}

TEST(LayoutMap, AffineStridesMatchOffsetDeltas) {
  const int nvar = 6, ni = 12, nj = 10, nk = 6;
  for (const LayoutKind kind : kAllLayouts) {
    const BlockLayout layout(kind, nvar, ni, nj, nk);
    const std::size_t base = layout.offset(2, 3, 4, 2, 1);
    EXPECT_EQ(layout.offset(2, 4, 4, 2, 1) - base, layout.zone_stride(0));
    EXPECT_EQ(layout.offset(2, 3, 5, 2, 1) - base, layout.zone_stride(1));
    EXPECT_EQ(layout.offset(2, 3, 4, 3, 1) - base, layout.zone_stride(2));
    EXPECT_EQ(layout.offset(3, 3, 4, 2, 1) - base, layout.var_stride());
  }
  // The Fortran pencil strides the paper describes.
  const BlockLayout vm(LayoutKind::kVarMajor, nvar, ni, nj, nk);
  EXPECT_EQ(vm.var_stride(), 1u);
  EXPECT_EQ(vm.zone_stride(0), static_cast<std::size_t>(nvar));
  EXPECT_EQ(vm.zone_stride(1), static_cast<std::size_t>(nvar) * ni);
  // SoA: unit zone stride, plane-sized variable stride.
  const BlockLayout zm(LayoutKind::kZoneMajor, nvar, ni, nj, nk);
  EXPECT_EQ(zm.zone_stride(0), 1u);
  EXPECT_EQ(zm.var_stride(), static_cast<std::size_t>(ni) * nj * nk);
}

TEST(LayoutMap, VarRunsCoverTheZoneVectorExactly) {
  const int nvar = 9;
  for (const LayoutKind kind : kAllLayouts) {
    const BlockLayout layout(kind, nvar, 12, 10, 6);
    std::vector<std::size_t> offsets;
    int runs = 0;
    layout.for_each_var_run(2, 5, 3, 4, 2, 1,
                            [&](std::size_t off, int len) {
                              ++runs;
                              for (int d = 0; d < len; ++d) {
                                offsets.push_back(off +
                                                  static_cast<std::size_t>(d));
                              }
                            });
    // The runs enumerate exactly offsets of v = 2..6 at that zone.
    ASSERT_EQ(offsets.size(), 5u) << mesh::to_string(kind);
    std::vector<std::size_t> expected;
    for (int v = 2; v < 7; ++v) {
      expected.push_back(layout.offset(v, 3, 4, 2, 1));
    }
    if (kind == LayoutKind::kVarMajor) {
      EXPECT_EQ(runs, 1);  // one contiguous touch — the seed's pattern
    }
    std::sort(offsets.begin(), offsets.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(offsets, expected) << mesh::to_string(kind);
  }
}

// ----------------------------------------------------- container views

MeshConfig small_3d() {
  MeshConfig c;
  c.ndim = 3;
  c.nxb = c.nyb = c.nzb = 16;
  c.nguard = 4;
  c.nscalars = 5;
  c.maxblocks = 8;
  return c;
}

TEST(LayoutViews, GatherScatterZoneRoundTrips) {
  rt::Runtime runtime;
  const MeshConfig c = small_3d();
  for (const LayoutKind kind : kAllLayouts) {
    UnkContainer unk(c, mem::HugePolicy::kNone, kind, runtime.page_pool());
    for (int v = 0; v < c.nvar(); ++v) {
      unk.at(v, 5, 6, 7, 2) = 100.0 * v + 0.25;
    }
    std::vector<double> zone(static_cast<std::size_t>(c.nvar()));
    unk.gather_zone(0, c.nvar(), 5, 6, 7, 2, zone.data());
    for (int v = 0; v < c.nvar(); ++v) {
      ASSERT_EQ(zone[static_cast<std::size_t>(v)], 100.0 * v + 0.25);
    }
    for (auto& x : zone) x += 1.0;
    unk.scatter_zone(0, c.nvar(), 5, 6, 7, 2, zone.data());
    for (int v = 0; v < c.nvar(); ++v) {
      ASSERT_EQ(unk.at(v, 5, 6, 7, 2), 100.0 * v + 1.25);
    }
  }
}

TEST(LayoutViews, ZoneSpanIsInPlaceOnlyWhenContiguous) {
  rt::Runtime runtime;
  const MeshConfig c = small_3d();
  std::vector<double> scratch(static_cast<std::size_t>(c.nscalars));
  for (const LayoutKind kind : kAllLayouts) {
    UnkContainer unk(c, mem::HugePolicy::kNone, kind, runtime.page_pool());
    for (int s = 0; s < c.nscalars; ++s) {
      unk.at(mesh::var::kFirstScalar + s, 4, 4, 4, 1) = 7.0 + s;
    }
    const double* span = unk.zone_span(mesh::var::kFirstScalar, c.nscalars,
                                       4, 4, 4, 1, scratch.data());
    if (kind == LayoutKind::kVarMajor) {
      EXPECT_EQ(span, unk.ptr(mesh::var::kFirstScalar, 4, 4, 4, 1));
    } else {
      EXPECT_EQ(span, scratch.data());
    }
    for (int s = 0; s < c.nscalars; ++s) {
      ASSERT_EQ(span[s], 7.0 + s) << mesh::to_string(kind);
    }
  }
}

// ------------------------------------------------------------- tracing

TEST(LayoutTrace, VarMajorSweepMatchesContiguousZoneVectorReplay) {
  rt::Runtime runtime;
  // The seed traced each zone as one contiguous nread*8-byte touch at
  // ptr(0, i, j, k, b). The layout-aware sweep must reproduce that
  // byte-for-byte under var_major — this is what keeps the golden
  // counters of the paper reproduction unchanged.
  const MeshConfig c = small_3d();
  const UnkContainer unk(c, mem::HugePolicy::kNone, LayoutKind::kVarMajor,
                         runtime.page_pool());
  const int nread = c.nvar(), nwrite = 6;

  tlb::Machine through_layout;
  {
    tlb::Tracer tracer(&through_layout);
    unk.trace_sweep_axis(tracer, 1, 1, c.ilo(), c.ihi(), c.jlo(), c.jhi(),
                         c.klo(), c.khi(), nread, nwrite);
  }
  tlb::Machine by_hand;
  {
    tlb::Tracer tracer(&by_hand);
    for (int k = c.klo(); k < c.khi(); ++k) {
      for (int i = c.ilo(); i < c.ihi(); ++i) {
        for (int j = c.jlo(); j < c.jhi(); ++j) {  // axis-1 pencil order
          const double* zone = unk.ptr(0, i, j, k, 1);
          tracer.touch(zone, sizeof(double) * static_cast<std::size_t>(nread),
                       false, unk.page_shift());
          tracer.touch(zone,
                       sizeof(double) * static_cast<std::size_t>(nwrite),
                       true, unk.page_shift());
        }
      }
    }
  }
  EXPECT_EQ(through_layout.quantum().accesses, by_hand.quantum().accesses);
  EXPECT_EQ(through_layout.quantum().l1_tlb_misses,
            by_hand.quantum().l1_tlb_misses);
  EXPECT_EQ(through_layout.quantum().walks, by_hand.quantum().walks);
  EXPECT_EQ(through_layout.quantum().l1d_misses,
            by_hand.quantum().l1d_misses);
}

TEST(LayoutTrace, ZoneMajorSingleVarSweepCutsModeled4kMisses) {
  rt::Runtime runtime;
  // The A2 ablation's headline, guarded in CI: a single-variable sweep
  // (the Löhner-estimator access shape) under zone_major touches ~nvar
  // times fewer 4 KiB pages than under var_major.
  const MeshConfig c = small_3d();
  auto misses = [&](LayoutKind kind) {
    UnkContainer unk(c, mem::HugePolicy::kNone, kind, runtime.page_pool());
    tlb::Machine machine;
    tlb::Tracer tracer(&machine);
    for (int b = 0; b < c.maxblocks; ++b) {
      unk.trace_sweep_var(tracer, b, mesh::var::kDens, 0, c.ni(), 0, c.nj(),
                          0, c.nk(), false, tlb::kShift4K);
    }
    return machine.quantum().l1_tlb_misses;
  };
  const std::uint64_t vm = misses(LayoutKind::kVarMajor);
  const std::uint64_t zm = misses(LayoutKind::kZoneMajor);
  ASSERT_GT(zm, 0u);
  EXPECT_GE(vm, 10 * zm) << "var_major=" << vm << " zone_major=" << zm;
}

// ------------------------------------------- cross-layout physics

void expect_bit_identical(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what;
}

/// Canonical end state of a run (svc::canonical_state) on a runtime of
/// \p layout and \p threads lanes: bit-comparable across layouts.
std::vector<double> run(const sim::ProblemParams& problem, int nsteps,
                        LayoutKind layout, int threads) {
  rt::Runtime runtime({.lanes = threads, .layout = layout});
  sim::DriverOptions opts;
  opts.nsteps = nsteps;
  opts.trace_sample = 0;
  opts.verbose = false;
  sim::Simulation simulation(problem, runtime, opts);
  simulation.driver().evolve();
  return svc::canonical_state(simulation.mesh(),
                              simulation.driver().sim_time());
}

std::vector<double> run_sedov(LayoutKind layout, int threads) {
  sim::SedovParams params;
  params.ndim = 2;
  params.nzb = 1;
  params.max_level = 2;
  params.maxblocks = 128;
  return run(params, 12, layout, threads);
}

TEST(LayoutPhysics, SedovEndStateBitIdenticalAcrossLayoutsAndThreads) {
  const std::vector<double> baseline =
      run_sedov(LayoutKind::kVarMajor, 1);
  ASSERT_GT(baseline.size(), 1u);
  for (const LayoutKind layout : kAllLayouts) {
    for (const int threads : {1, 2, 4}) {
      if (layout == LayoutKind::kVarMajor && threads == 1) continue;
      expect_bit_identical(
          baseline, run_sedov(layout, threads),
          (std::string(mesh::to_string(layout)) + " x " +
           std::to_string(threads) + " threads")
              .c_str());
    }
  }
}

std::vector<double> run_supernova(LayoutKind layout, int threads) {
  sim::SupernovaParams p;
  p.max_level = 3;
  p.maxblocks = 400;
  p.table_spec = {-4.0, 10.0, 141, 5.0, 10.0, 51};
  return run(p, 4, layout, threads);
}

TEST(LayoutPhysics, SupernovaEndStateBitIdenticalAcrossLayoutsAndThreads) {
  const std::vector<double> baseline =
      run_supernova(LayoutKind::kVarMajor, 1);
  ASSERT_GT(baseline.size(), 1u);
  for (const LayoutKind layout : kAllLayouts) {
    for (const int threads : {1, 2, 4}) {
      if (layout == LayoutKind::kVarMajor && threads == 1) continue;
      expect_bit_identical(
          baseline, run_supernova(layout, threads),
          (std::string(mesh::to_string(layout)) + " x " +
           std::to_string(threads) + " threads")
              .c_str());
    }
  }
}

// ------------------------------------------- cross-layout checkpoints

MeshConfig ckpt_config() {
  MeshConfig c;
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
  const MeshConfig& c = m.config();
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

TEST(LayoutCheckpoint, AnyLayoutRestoresAnyLayoutExactly) {
  rt::Runtime runtime;
  for (const LayoutKind writer : kAllLayouts) {
    mesh::AmrMesh original(ckpt_config(), mem::HugePolicy::kNone, writer,
                           runtime.page_pool(), runtime.arena());
    original.refine_block(0);
    original.refine_block(original.tree().find(2, {0, 0, 0}));
    paint(original);
    original.fill_guardcells();
    sim::write_checkpoint("ckpt_layout.bin", original, {0.5, 7});

    for (const LayoutKind reader : kAllLayouts) {
      mesh::AmrMesh restored(ckpt_config(), mem::HugePolicy::kNone, reader,
                             runtime.page_pool(), runtime.arena());
      const sim::CheckpointInfo info =
          sim::read_checkpoint("ckpt_layout.bin", restored);
      EXPECT_DOUBLE_EQ(info.sim_time, 0.5);
      EXPECT_EQ(info.step, 7);
      ASSERT_EQ(restored.tree().leaves_morton(),
                original.tree().leaves_morton());
      const MeshConfig& c = original.config();
      for (int b : original.tree().leaves_morton()) {
        for (int j = c.jlo(); j < c.jhi(); ++j) {
          for (int i = c.ilo(); i < c.ihi(); ++i) {
            for (int v = 0; v < c.nvar(); ++v) {
              ASSERT_EQ(restored.unk().at(v, i, j, 0, b),
                        original.unk().at(v, i, j, 0, b))
                  << mesh::to_string(writer) << " -> "
                  << mesh::to_string(reader);
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace fhp
