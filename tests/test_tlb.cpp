/// \file test_tlb.cpp
/// \brief Unit and property tests for the TLB/cache/core machine model.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <string>

#include "eos/eos_table.hpp"
#include "mesh/config.hpp"
#include "mesh/layout.hpp"
#include "mesh/unk.hpp"
#include "perf/perf_context.hpp"
#include "rt/runtime.hpp"
#include "support/contracts.hpp"
#include "support/error.hpp"
#include "mem/page_size.hpp"
#include "tlb/cache_model.hpp"
#include "tlb/machine.hpp"
#include "tlb/tlb_model.hpp"
#include "tlb/trace.hpp"

#include "reference_models.hpp"

namespace fhp::tlb {
namespace {

// ------------------------------------------------ differential test stream

/// A deterministic mixed address stream for the reference comparisons:
/// phases of sequential, working-set, strided and random addresses, each
/// phase on one page size with occasional accesses at another, about a
/// third of them writes.
class MixedStream {
 public:
  struct Access {
    std::uint64_t addr;
    std::uint8_t shift;
    bool write;
  };

  explicit MixedStream(std::uint64_t seed) : rng_(seed | 1) {}

  Access next() {
    if (left_ == 0) start_phase();
    --left_;
    switch (pattern_) {
      case 0:  // sequential, sub-line to multi-line steps
        cursor_ += 8u << (rand() % 6);
        break;
      case 1:  // uniform over a working set
        cursor_ = origin_ + rand() % span_;
        break;
      case 2:  // fixed stride (pencil-like)
        cursor_ += stride_;
        break;
      default:  // anywhere in a 48-bit space
        cursor_ = rand() & ((std::uint64_t{1} << 48) - 1);
        break;
    }
    const std::uint8_t shift =
        rand() % 10 == 0 ? kShifts[rand() % 4] : shift_;
    return {cursor_, shift, rand() % 3 == 0};
  }

  /// A nearby or random address for a side-effect-free probe.
  std::uint64_t probe_addr() {
    return rand() % 2 == 0 ? cursor_ - (rand() % 8) * 4096
                           : rand() & ((std::uint64_t{1} << 40) - 1);
  }
  std::uint8_t probe_shift() { return kShifts[rand() % 4]; }

 private:
  static constexpr std::uint8_t kShifts[4] = {kShift4K, kShift64K, kShift2M,
                                              kShift512M};

  std::uint64_t rand() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }

  void start_phase() {
    pattern_ = static_cast<int>(rand() % 4);
    left_ = 500 + rand() % 4000;
    shift_ = kShifts[rand() % 4];
    origin_ = (rand() & ((std::uint64_t{1} << 44) - 1)) & ~std::uint64_t{63};
    span_ = std::uint64_t{1} << (12 + rand() % 16);  // 4 KiB .. 128 MiB
    constexpr std::uint64_t kStrides[] = {64,    256,    2880,     4160,
                                          9000,  65600,  1u << 20, 2097344};
    stride_ = kStrides[rand() % 8];
    if (pattern_ != 3) cursor_ = origin_;
  }

  std::uint64_t rng_;
  int pattern_ = 0;
  std::uint64_t left_ = 0;
  std::uint8_t shift_ = kShift4K;
  std::uint64_t origin_ = 0, span_ = 1, stride_ = 64, cursor_ = 0;
};

constexpr int kReferenceAccesses = 600000;
constexpr int kReferenceFlushEvery = 100000;

// -------------------------------------------------------------- TLB model

TEST(TlbModelTest, HitAfterInstall) {
  TlbModel tlb({4, 0});  // 4-entry fully associative
  EXPECT_FALSE(tlb.access(0x1000, kShift4K));  // compulsory miss
  EXPECT_TRUE(tlb.access(0x1000, kShift4K));
  EXPECT_TRUE(tlb.access(0x1fff, kShift4K));  // same page
  EXPECT_FALSE(tlb.access(0x2000, kShift4K)); // next page
  EXPECT_EQ(tlb.hits(), 2u);
  EXPECT_EQ(tlb.misses(), 2u);
}

TEST(TlbModelTest, CapacityEviction) {
  TlbModel tlb({4, 0});
  for (std::uint64_t p = 0; p < 5; ++p) {
    tlb.access(p << kShift4K, kShift4K);
  }
  // 5 pages through 4 entries: at least one of the originals is gone.
  int resident = 0;
  for (std::uint64_t p = 0; p < 5; ++p) {
    if (tlb.contains(p << kShift4K, kShift4K)) ++resident;
  }
  EXPECT_EQ(resident, 4);
}

TEST(TlbModelTest, PageSizesAreDistinctEntries) {
  TlbModel tlb({8, 0});
  tlb.access(0x200000, kShift4K);
  EXPECT_FALSE(tlb.contains(0x200000, kShift2M));
  tlb.access(0x200000, kShift2M);
  EXPECT_TRUE(tlb.contains(0x200000, kShift4K));
  EXPECT_TRUE(tlb.contains(0x200000, kShift2M));
}

TEST(TlbModelTest, HugePageCoversWideRange) {
  TlbModel tlb({4, 0});
  tlb.access(0x40000000, kShift2M);
  // Anywhere within the same 2 MiB frame hits.
  EXPECT_TRUE(tlb.access(0x40000000 + (1 << 20), kShift2M));
  EXPECT_TRUE(tlb.access(0x40000000 + (2 << 20) - 1, kShift2M));
  EXPECT_FALSE(tlb.access(0x40000000 + (2 << 20), kShift2M));
}

TEST(TlbModelTest, FlushEmptiesEverything) {
  TlbModel tlb({4, 0});
  tlb.access(0x1000, kShift4K);
  tlb.flush();
  EXPECT_FALSE(tlb.contains(0x1000, kShift4K));
}

TEST(TlbModelTest, SetAssociativeMapsByVpnBits) {
  TlbModel tlb({8, 2});  // 4 sets x 2 ways
  EXPECT_EQ(tlb.sets(), 4u);
  EXPECT_EQ(tlb.ways(), 2u);
  // Pages 0, 4, 8 share set 0 (vpn & 3 == 0); two fit, the third evicts.
  tlb.access(0ull << kShift4K, kShift4K);
  tlb.access(4ull << kShift4K, kShift4K);
  tlb.access(8ull << kShift4K, kShift4K);
  int resident = 0;
  for (std::uint64_t p : {0ull, 4ull, 8ull}) {
    if (tlb.contains(p << kShift4K, kShift4K)) ++resident;
  }
  EXPECT_EQ(resident, 2);
  // A page in another set is untouched by that conflict.
  tlb.access(1ull << kShift4K, kShift4K);
  EXPECT_TRUE(tlb.contains(1ull << kShift4K, kShift4K));
}

TEST(TlbModelTest, GeometryValidation) {
  EXPECT_THROW(TlbModel({0, 0}), ConfigError);
  EXPECT_THROW(TlbModel({7, 2}), ConfigError);   // 7 % 2 != 0
  EXPECT_THROW(TlbModel({24, 2}), ConfigError);  // 12 sets: not a pow2
  TlbModel ok({48, 0});                           // A64FX L1 shape
  EXPECT_EQ(ok.sets(), 1u);
  EXPECT_EQ(ok.ways(), 48u);
}

/// A lookup key holds the page shift in 6 bits beside a 58-bit VPN, so
/// shifts outside [6, 63] are refused where the key is formed.
TEST(TlbModelTest, PageShiftOutsideKeyRangeViolatesContract) {
  if (!FHP_CONTRACTS_ENABLED) GTEST_SKIP() << "contracts compiled out";
  TlbModel tlb({4, 0});
  EXPECT_THROW(tlb.access(0x1000, TlbModel::kMinPageShift - 1),
               ContractViolation);
  EXPECT_THROW(static_cast<void>(tlb.contains(0x1000, 64)),
               ContractViolation);
  EXPECT_EQ(tlb.misses(), 0u);
  EXPECT_FALSE(tlb.access(~std::uint64_t{0}, TlbModel::kMinPageShift));
  EXPECT_FALSE(tlb.access(0x1000, TlbModel::kMaxPageShift));
  EXPECT_TRUE(tlb.contains(~std::uint64_t{0} >> 1, TlbModel::kMaxPageShift));
  EXPECT_TRUE(tlb.contains(~std::uint64_t{0}, TlbModel::kMinPageShift));
}

/// The hashed TLB against the scanning reference it replaced: every
/// hit/miss, sampled contains() probes and the final counts agree on a
/// long mixed stream with flushes, for each geometry shape in use (and
/// the degenerate ones).
TEST(TlbModelTest, MatchesReferenceModel) {
  const TlbGeometry geometries[] = {{48, 0}, {4, 0},  {1, 0},
                                    {1024, 4}, {8, 2}, {64, 8}};
  for (const TlbGeometry& g : geometries) {
    SCOPED_TRACE(testing::Message() << g.entries << " entries, " << g.ways
                                    << " ways");
    TlbModel tlb(g);
    reference::TlbModel ref(g);
    ASSERT_EQ(tlb.sets(), ref.sets());
    ASSERT_EQ(tlb.ways(), ref.ways());
    MixedStream stream(0x9e3779b97f4a7c15ull * g.entries + g.ways);
    int mismatches = 0;
    for (int n = 1; n <= kReferenceAccesses; ++n) {
      const MixedStream::Access a = stream.next();
      if (tlb.access(a.addr, a.shift) != ref.access(a.addr, a.shift) &&
          mismatches++ == 0) {
        ADD_FAILURE() << "first access mismatch at access " << n;
      }
      if (n % 7 == 0) {
        const std::uint64_t p = stream.probe_addr();
        const std::uint8_t s = stream.probe_shift();
        if (tlb.contains(p, s) != ref.contains(p, s) && mismatches++ == 0) {
          ADD_FAILURE() << "first probe mismatch at access " << n;
        }
      }
      if (n % kReferenceFlushEvery == 0) {
        tlb.flush();
        ref.flush();
      }
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(tlb.hits(), ref.hits());
    EXPECT_EQ(tlb.misses(), ref.misses());
    EXPECT_GT(tlb.hits(), 0u);
    EXPECT_GT(tlb.misses(), 0u);
  }
}

/// Property: for a fixed strided stream, misses never increase when the
/// page size grows (the monotonicity the whole paper rests on).
class TlbPageSizeMonotonicity : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(TlbPageSizeMonotonicity, MissesMonotoneInPageSize) {
  const std::size_t stride = GetParam();
  std::uint64_t prev_misses = ~0ull;
  for (const std::uint8_t shift : {kShift4K, kShift64K, kShift2M,
                                   kShift512M}) {
    TlbModel tlb({48, 0});
    std::uint64_t addr = 0;
    for (int n = 0; n < 50000; ++n) {
      tlb.access(addr, shift);
      addr += stride;
      if (addr >= (512u << 20)) addr = 0;
    }
    EXPECT_LE(tlb.misses(), prev_misses) << "stride " << stride << " shift "
                                         << int(shift);
    prev_misses = tlb.misses();
  }
}

INSTANTIATE_TEST_SUITE_P(Strides, TlbPageSizeMonotonicity,
                         ::testing::Values(64, 256, 4096, 9000, 65536,
                                           120000, 1 << 20, 5u << 20));

/// Property: sequential access misses exactly once per page.
class TlbSequentialCompulsory : public ::testing::TestWithParam<int> {};

TEST_P(TlbSequentialCompulsory, OneMissPerPage) {
  const int npages = GetParam();
  TlbModel tlb({1024, 4});
  const std::size_t line = 256;
  for (std::uint64_t addr = 0;
       addr < static_cast<std::uint64_t>(npages) << kShift4K; addr += line) {
    tlb.access(addr, kShift4K);
  }
  EXPECT_EQ(tlb.misses(), static_cast<std::uint64_t>(npages));
}

INSTANTIATE_TEST_SUITE_P(PageCounts, TlbSequentialCompulsory,
                         ::testing::Values(1, 16, 256, 1024));

// ------------------------------------------------------------- cache model

TEST(CacheModelTest, HitAfterFill) {
  CacheModel cache({1024, 2, 64});  // 8 sets x 2 ways of 64 B lines
  EXPECT_FALSE(cache.access(0x100, false).hit);
  EXPECT_TRUE(cache.access(0x100, false).hit);
  EXPECT_TRUE(cache.access(0x13f, false).hit);   // same line
  EXPECT_FALSE(cache.access(0x140, false).hit);  // next line
}

TEST(CacheModelTest, WritebackOnDirtyEviction) {
  CacheModel cache({128, 1, 64});  // direct-mapped, 2 sets
  cache.access(0x000, true);            // dirty line in set 0
  const CacheResult r = cache.access(0x080, false);  // set 0 conflict
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(cache.writebacks(), 1u);
  // Evicting a clean line does not write back.
  const CacheResult r2 = cache.access(0x100, false);
  EXPECT_FALSE(r2.writeback);
}

TEST(CacheModelTest, LruKeepsRecentlyUsed) {
  CacheModel cache({128, 2, 64});  // 1 set x 2 ways
  cache.access(0x000, false);
  cache.access(0x040, false);
  cache.access(0x000, false);      // refresh line 0
  cache.access(0x080, false);      // evicts LRU = line at 0x040
  EXPECT_TRUE(cache.contains(0x000));
  EXPECT_FALSE(cache.contains(0x040));
}

TEST(CacheModelTest, GeometryValidation) {
  EXPECT_THROW(CacheModel({1024, 0, 64}), ConfigError);
  EXPECT_THROW(CacheModel({1024, 2, 63}), ConfigError);
  EXPECT_THROW(CacheModel({64, 2, 64}), ConfigError);  // 0.5 sets
  EXPECT_THROW(CacheModel({2, 2, 1}), ConfigError);    // no spare tag value
}

TEST(CacheModelTest, FlushDropsDirtyState) {
  CacheModel cache({128, 2, 64});
  cache.access(0x000, true);
  cache.flush();
  EXPECT_FALSE(cache.contains(0x000));
  const CacheResult r = cache.access(0x080, false);
  EXPECT_FALSE(r.writeback);  // dirty bit did not survive the flush
}

/// The branch-free cache against the scanning reference it replaced:
/// every hit and writeback result, sampled contains() probes and the
/// final counts agree on a long mixed stream with flushes.
TEST(CacheModelTest, MatchesReferenceModel) {
  const CacheGeometry geometries[] = {{std::size_t{64} << 10, 4, 256},
                                      {std::size_t{1} << 20, 16, 256},
                                      {1024, 2, 64},
                                      {128, 1, 64}};
  for (const CacheGeometry& g : geometries) {
    SCOPED_TRACE(testing::Message() << g.capacity_bytes << " B, " << g.ways
                                    << " ways, " << g.line_bytes << " B lines");
    CacheModel cache(g);
    reference::CacheModel ref(g);
    ASSERT_EQ(cache.sets(), ref.sets());
    MixedStream stream(0xd1b54a32d192ed03ull ^ g.capacity_bytes ^ g.ways);
    int mismatches = 0;
    for (int n = 1; n <= kReferenceAccesses; ++n) {
      const MixedStream::Access a = stream.next();
      const CacheResult r = cache.access(a.addr, a.write);
      const reference::CacheResult e = ref.access(a.addr, a.write);
      if ((r.hit != e.hit || r.writeback != e.writeback) &&
          mismatches++ == 0) {
        ADD_FAILURE() << "first access mismatch at access " << n;
      }
      if (n % 7 == 0) {
        const std::uint64_t p = stream.probe_addr();
        if (cache.contains(p) != ref.contains(p) && mismatches++ == 0) {
          ADD_FAILURE() << "first probe mismatch at access " << n;
        }
      }
      if (n % kReferenceFlushEvery == 0) {
        cache.flush();
        ref.flush();
      }
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(cache.hits(), ref.hits());
    EXPECT_EQ(cache.misses(), ref.misses());
    EXPECT_EQ(cache.writebacks(), ref.writebacks());
    EXPECT_GT(cache.hits(), 0u);
    EXPECT_GT(cache.writebacks(), 0u);
  }
}

// ---------------------------------------------------------------- machine

TEST(MachineTest, TouchSplitsIntoLines) {
  Machine machine;
  // 600 bytes starting at offset 0x80 span lines 0x10000/0x10100/0x10200.
  machine.touch(reinterpret_cast<void*>(0x10080), 600, false, kShift4K);
  EXPECT_EQ(machine.quantum().accesses, 3u);
}

TEST(MachineTest, ComputeOnlyQuantumCostsComputeCycles) {
  MachineParams params;
  Machine machine(params);
  machine.compute(2000, 1000);
  const double cycles = machine.model_cycles(machine.quantum());
  EXPECT_DOUBLE_EQ(cycles, 2000.0 / params.scalar_ops_per_cycle +
                               1000.0 / params.vector_ops_per_cycle);
}

TEST(MachineTest, BandwidthBoundQuantum) {
  MachineParams params;
  params.latency_overlap = 1.0;  // isolate the bandwidth term
  params.walk_overlap = 1.0;
  params.l2_tlb_hit_overlap = 1.0;
  Machine machine(params);
  // Stream far more data than compute: cycles == bytes / bw.
  for (std::uint64_t a = 0; a < (64u << 20); a += 256) {
    machine.touch(reinterpret_cast<void*>(0x100000000ull + a), 256, false,
                  kShift2M);
  }
  const auto& q = machine.quantum();
  ASSERT_GT(q.l2_misses, 0u);
  const double expected =
      static_cast<double>(q.bytes_read(256)) / params.mem_bytes_per_cycle;
  EXPECT_NEAR(machine.model_cycles(q), expected, expected * 1e-9);
}

TEST(MachineTest, WalkCyclesChargedWhenNotOverlapped) {
  MachineParams params;
  params.walk_overlap = 0.0;  // nothing hidden
  params.l2_tlb_hit_overlap = 0.0;
  Machine machine(params);
  QuantumStats q;
  q.walks = 10;
  q.l1_tlb_misses = 10;  // all missed both levels
  const double cycles = machine.model_cycles(q);
  EXPECT_DOUBLE_EQ(cycles, 10.0 * params.walk_cycles);
}

TEST(MachineTest, CommitPublishesScaledCounters) {
  perf::PerfContext perf;
  MachineParams params;
  params.background_miss_per_cycle = 0.0;
  Machine machine(params, &perf);
  machine.compute(100, 50);
  machine.touch(reinterpret_cast<void*>(0x20000), 8, false, kShift4K);
  machine.commit(/*scale=*/4);
  const auto s = perf.snapshot();
  EXPECT_EQ(s[perf::Event::kVectorOps], 200u);           // 50 * 4
  EXPECT_EQ(s[perf::Event::kDtlbMisses], 4u);            // 1 L1 miss * 4
  EXPECT_GT(s[perf::Event::kCycles], 0u);
  // The quantum was reset but the structural state persists.
  EXPECT_EQ(machine.quantum().accesses, 0u);
}

TEST(MachineTest, BackgroundFloorProducesMisses) {
  perf::PerfContext perf;
  MachineParams params;  // default floor
  Machine machine(params, &perf);
  machine.compute(1800000, 0);  // ~0.9M cycles
  machine.commit(1);
  const auto s = perf.snapshot();
  const double cycles = static_cast<double>(s[perf::Event::kCycles]);
  const double misses = static_cast<double>(s[perf::Event::kDtlbMisses]);
  EXPECT_NEAR(misses / cycles, params.background_miss_per_cycle,
              params.background_miss_per_cycle * 0.05);
}

TEST(MachineTest, ResetClearsStructuresAndTotals) {
  Machine machine;
  machine.touch(reinterpret_cast<void*>(0x1000), 8, false, kShift4K);
  machine.commit();
  machine.reset();
  // After reset the same page misses again (structures were flushed).
  machine.touch(reinterpret_cast<void*>(0x1000), 8, false, kShift4K);
  EXPECT_EQ(machine.quantum().l1_tlb_misses, 1u);
}

/// The headline mechanism, in miniature: a strided sweep over a working
/// set larger than the L1 TLB's 4 KiB reach misses hard at 4 KiB pages
/// and barely at 2 MiB.
TEST(MachineTest, HugePagesCollapseStridedMisses) {
  auto run = [](std::uint8_t shift) {
    Machine machine;
    // unk-like: 2.9 KiB stride (nvar*ni*8), 64 MiB working set, 3 passes.
    for (int pass = 0; pass < 3; ++pass) {
      for (std::uint64_t a = 0; a < (64u << 20); a += 2880) {
        machine.touch(reinterpret_cast<void*>(0x200000000ull + a), 120,
                      false, shift);
      }
    }
    return machine.quantum().l1_tlb_misses;
  };
  const auto misses_4k = run(kShift4K);
  const auto misses_2m = run(kShift2M);
  EXPECT_GT(misses_4k, 20u * misses_2m);
}

// ------------------------------------------------------- golden counters
//
// Two fixed replay streams — the unk pencil sweeps of the hydro and the
// Helmholtz-table gathers of the EOS — pushed through a default (A64FX)
// Machine into a PerfContext. Every counter the Machine publishes is
// pinned to the literal the scanning models (tests/reference_models.hpp)
// produced, so any change to the TLB/cache models or the cycle formula
// that moves a modeled measure fails here by name.

/// The nine events Machine::commit publishes, in Event order.
constexpr std::array<perf::Event, 9> kModeledEvents = {
    perf::Event::kCycles,        perf::Event::kInstructions,
    perf::Event::kVectorOps,     perf::Event::kDtlbMisses,
    perf::Event::kTlbWalkCycles, perf::Event::kBytesRead,
    perf::Event::kBytesWritten,  perf::Event::kL1Misses,
    perf::Event::kL2Misses};

using ModeledCounters = std::array<std::uint64_t, kModeledEvents.size()>;

ModeledCounters published_counters(perf::PerfContext& perf) {
  perf.publish();
  const perf::PublishedCounters pub = perf.published();
  ModeledCounters out{};
  for (std::size_t e = 0; e < kModeledEvents.size(); ++e) {
    out[e] = pub.counters[kModeledEvents[e]];
  }
  return out;
}

void expect_counters(const ModeledCounters& actual,
                     const ModeledCounters& expected,
                     const std::string& arm) {
  for (std::size_t e = 0; e < kModeledEvents.size(); ++e) {
    EXPECT_EQ(actual[e], expected[e])
        << arm << ": " << perf::event_name(kModeledEvents[e]);
  }
  if (actual != expected) {
    std::printf("  %s actual: {", arm.c_str());
    for (const std::uint64_t v : actual) {
      std::printf("%lluull, ", static_cast<unsigned long long>(v));
    }
    std::printf("}\n");
  }
}

TEST(MachineGolden, UnkSweepCountersArePinned) {
  rt::Runtime runtime;
  mesh::MeshConfig c;
  c.ndim = 3;
  c.nxb = c.nyb = c.nzb = 16;
  c.nguard = 4;
  c.nscalars = 5;
  c.maxblocks = 4;
  struct Arm {
    mesh::LayoutKind layout;
    std::uint8_t shift;
    ModeledCounters expected;
  };
  const Arm arms[] = {
      {mesh::LayoutKind::kVarMajor, kShift4K,
       {3121469, 365280, 2400, 11443, 15689, 13369344, 11702272, 101708,
        52224}},
      {mesh::LayoutKind::kVarMajor, kShift2M,
       {3078473, 365280, 2400, 1354, 9751, 13369344, 11702272, 101708,
        52224}},
      {mesh::LayoutKind::kZoneMajor, kShift4K,
       {7014018, 2174688, 2400, 807991, 44664, 17694720, 1055744, 752944,
        69120}},
      {mesh::LayoutKind::kZoneMajor, kShift2M,
       {3774148, 2174688, 2400, 1659, 11947, 17694720, 1055744, 752944,
        69120}},
  };
  for (const Arm& arm : arms) {
    const mesh::UnkContainer unk(c, mem::HugePolicy::kNone, arm.layout,
                                 runtime.page_pool());
    perf::PerfContext perf;
    Machine machine({}, &perf);
    Tracer tracer(&machine);
    for (int axis = 0; axis < 3; ++axis) {
      for (int b = 0; b < c.maxblocks; ++b) {
        unk.trace_sweep_axis(tracer, b, axis, c.ilo(), c.ihi(), c.jlo(),
                             c.jhi(), c.klo(), c.khi(), c.nvar(), 6,
                             arm.shift);
        // A store-only pass (no read first) leaves dirty lines in the L2,
        // so its evictions write back.
        unk.trace_sweep_var(tracer, b, mesh::var::kFirstScalar + axis,
                            c.ilo(), c.ihi(), c.jlo(), c.jhi(), c.klo(),
                            c.khi(), /*write=*/true, arm.shift);
        machine.compute(400, 100);
      }
      machine.commit(/*scale=*/axis + 1);
    }
    expect_counters(published_counters(perf), arm.expected,
                    std::string(mesh::to_string(arm.layout)) + " shift " +
                        std::to_string(arm.shift));
  }
}

TEST(MachineGolden, HelmInterpolateCountersArePinned) {
  rt::Runtime runtime;
  const eos::HelmTableSpec spec{-4.0, 10.0, 81, 5.0, 10.0, 31};
  const eos::HelmTable table =
      eos::HelmTable::build(spec, mem::HugePolicy::kNone, runtime.page_pool());
  ASSERT_EQ(table.page_shift(), kShift4K);  // never refreshed: 4 KiB
  perf::PerfContext perf;
  Machine machine({}, &perf);
  Tracer tracer(&machine);
  // Zones hop across the (rhoYe, T) grid (strides 37 and 13 cells), so
  // consecutive lookups gather from different table pages: one full state
  // fill and three P/E-only Newton iterations per zone, committed every
  // 400 zones.
  auto axis_value = [](double lo, double hi, int cells, double x) {
    return std::pow(10.0, lo + (hi - lo) * x / cells);
  };
  const int nr = spec.nrho - 1, nt = spec.ntemp - 1;
  for (int n = 0; n < 4000; ++n) {
    const double rho_ye = axis_value(spec.log_rho_min, spec.log_rho_max, nr,
                                     (n * 37) % nr + 0.57);
    const double temp = axis_value(spec.log_temp_min, spec.log_temp_max, nt,
                                   (n * 13) % nt + 0.31);
    table.trace_interpolate(tracer, rho_ye, temp, true);
    for (int it = 0; it < 3; ++it) {
      table.trace_interpolate(tracer, rho_ye, temp * (1.0 + 0.01 * it),
                              false);
    }
    if (n % 400 == 399) machine.commit(/*scale=*/2);
  }
  expect_counters(published_counters(perf),
                  {13662934, 17939942, 8320000, 104042, 44286, 643072, 0,
                   221146, 2512},
                  "helm 4 KiB");
}

// ------------------------------------------------------------------ tracer

TEST(TracerTest, DisabledTracerIsInert) {
  Tracer tracer;  // no machine
  EXPECT_FALSE(tracer.enabled());
  tracer.touch(reinterpret_cast<void*>(0x1000), 64, true, kShift4K);
  tracer.compute(100, 100);  // must not crash
}

TEST(TracerTest, EnabledTracerForwards) {
  Machine machine;
  Tracer tracer(&machine);
  ASSERT_TRUE(tracer.enabled());
  tracer.touch(reinterpret_cast<void*>(0x1000), 64, true, kShift4K);
  tracer.compute(10, 20);
  EXPECT_EQ(machine.quantum().accesses, 1u);
  EXPECT_EQ(machine.quantum().scalar_ops, 10u);
  EXPECT_EQ(machine.quantum().vector_ops, 20u);
}

TEST(EffectivePageShiftTest, SmallAndHugetlbRegions) {
  mem::MapRequest req;
  req.bytes = 2u << 20;
  req.policy = mem::HugePolicy::kNone;
  mem::MappedRegion small(req);
  EXPECT_EQ(effective_page_shift(small), page_shift_of(mem::base_page_size()));

  const mem::MappedRegion unmapped;
  EXPECT_EQ(effective_page_shift(unmapped),
            page_shift_of(mem::base_page_size()));
}

}  // namespace
}  // namespace fhp::tlb
