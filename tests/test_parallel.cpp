/// \file test_parallel.cpp
/// \brief The fhp::par worker pool and the bit-identical-across-thread-
/// counts determinism contract.
///
/// Two layers: unit tests of the ExecArena pool itself (chunking, lane
/// ids, env parsing, exception propagation, serial fallback), then the
/// determinism suite — software counter totals and the full physics
/// state of the Sedov and supernova workloads must be bit-identical on
/// runtimes with 1, 2 and 4 lanes. The 4-thread hydro-sweep tests double
/// as the real workload behind the tsan CMake preset.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "par/parallel.hpp"
#include "perf/perf_context.hpp"
#include "rt/runtime.hpp"
#include "sim/simulation.hpp"
#include "support/error.hpp"
#include "support/runtime_params.hpp"

namespace fhp::par {
namespace {

// ---------------------------------------------------------------- pool

TEST(ParTest, SerialDefaultAndClamping) {
  ASSERT_EQ(::unsetenv(kThreadsEnvVar), 0);
  EXPECT_EQ(ExecArena().lanes(), 1);  // 0 = FLASHHP_THREADS, unset = 1
  EXPECT_EQ(ExecArena(-3).lanes(), 1);  // clamped up
  EXPECT_EQ(ExecArena(kMaxLanes + 100).lanes(), kMaxLanes);  // clamped down
}

TEST(ParTest, ThreadsFromEnvironmentParsesAndRejects) {
  ASSERT_EQ(::setenv(kThreadsEnvVar, "3", 1), 0);
  EXPECT_EQ(threads_from_environment(), 3);
  ASSERT_EQ(::setenv(kThreadsEnvVar, "99999", 1), 0);
  EXPECT_EQ(threads_from_environment(), kMaxLanes);  // clamped
  // Beyond int and beyond long: clamped too, not wrapped to one lane.
  ASSERT_EQ(::setenv(kThreadsEnvVar, "3000000000", 1), 0);
  EXPECT_EQ(threads_from_environment(), kMaxLanes);
  ASSERT_EQ(::setenv(kThreadsEnvVar, "99999999999999999999", 1), 0);
  EXPECT_EQ(threads_from_environment(), kMaxLanes);
  ASSERT_EQ(::setenv(kThreadsEnvVar, "banana", 1), 0);
  EXPECT_THROW(static_cast<void>(threads_from_environment()), ConfigError);
  ASSERT_EQ(::setenv(kThreadsEnvVar, "0", 1), 0);
  EXPECT_THROW(static_cast<void>(threads_from_environment()), ConfigError);
  ASSERT_EQ(::unsetenv(kThreadsEnvVar), 0);
  EXPECT_EQ(threads_from_environment(7), 7);  // fallback when unset
}

TEST(ParTest, EveryIndexRunsExactlyOnce) {
  for (int lanes : {1, 2, 4, 5}) {
    ExecArena arena(lanes);
    const std::size_t n = 103;  // deliberately not a multiple of lanes
    std::vector<std::atomic<int>> hits(n);
    arena.parallel_for(n, [&](int lane, std::size_t i) {
      EXPECT_GE(lane, 0);
      EXPECT_LT(lane, lanes);
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " lanes=" << lanes;
    }
  }
}

TEST(ParTest, StaticChunkingIsContiguousAndDeterministic) {
  ExecArena arena(4);
  const std::size_t n = 10;
  // lane i of L owns [i*n/L, (i+1)*n/L): 0-1, 2-4, 5-6, 7-9.
  std::vector<int> lane_of(n, -1);
  std::mutex mu;
  arena.parallel_for(n, [&](int lane, std::size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    lane_of[i] = lane;
  });
  const std::vector<int> expected = {0, 0, 1, 1, 1, 2, 2, 3, 3, 3};
  EXPECT_EQ(lane_of, expected);
}

TEST(ParTest, SerialFallbackRunsOnCallingThread) {
  ExecArena arena(1);
  const std::thread::id caller = std::this_thread::get_id();
  arena.parallel_for(16, [&](int lane, std::size_t) {
    EXPECT_EQ(lane, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParTest, WorkersReportDistinctLanesAndCallerIsLaneZero) {
  ExecArena arena(4);
  std::mutex mu;
  std::set<std::thread::id> by_lane[4];
  const std::thread::id caller = std::this_thread::get_id();
  arena.parallel_for(64, [&](int lane, std::size_t) {
    std::lock_guard<std::mutex> lock(mu);
    // fhp-analyze: allow(alloc-in-region) -- test harness collecting
    // thread ids under a mutex; this is not a hot-path region
    by_lane[lane].insert(std::this_thread::get_id());
  });
  std::set<std::thread::id> all;
  for (int l = 0; l < 4; ++l) {
    EXPECT_EQ(by_lane[l].size(), 1u) << "lane " << l;
    all.insert(*by_lane[l].begin());
  }
  EXPECT_EQ(all.size(), 4u);  // four distinct threads
  EXPECT_TRUE(by_lane[0].count(caller));  // caller participates as lane 0
  EXPECT_EQ(lane(), 0);  // outside a region the caller is lane 0
}

TEST(ParTest, FirstExceptionIsRethrownOnCaller) {
  // With 4 lanes over 32 indices, i == 2 lies in lane 0's chunk (the
  // caller) and i == 17 in lane 2's (a worker); the caller-side throw
  // must still wait out the completion handshake before rethrowing.
  for (int lanes : {1, 4}) {
    for (std::size_t bad : {std::size_t{2}, std::size_t{17}}) {
      ExecArena arena(lanes);
      EXPECT_THROW(arena.parallel_for(32,
                                      [&](int, std::size_t i) {
                                        if (i == bad) {
                                          throw NumericsError("lane blew up");
                                        }
                                      }),
                   NumericsError)
          << "lanes=" << lanes << " bad=" << bad;
      // The pool survives a throwing region and runs the next one.
      std::atomic<int> count{0};
      arena.parallel_for(8, [&](int, std::size_t) { count.fetch_add(1); });
      EXPECT_EQ(count.load(), 8);
    }
  }
}

TEST(ParTest, NestedRegionsAreRejectedNotCorrupted) {
  ExecArena arena(2);
  EXPECT_THROW(arena.parallel_for(8,
                                  [&](int, std::size_t) {
                                    arena.parallel_for(
                                        4, [](int, std::size_t) {});
                                  }),
               ConfigError);
  // The guard released and the pool handshake stayed intact.
  std::atomic<int> count{0};
  arena.parallel_for(8, [&](int, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ParTest, ParallelForBlocksVisitsTheBlockList) {
  ExecArena arena(3);
  const std::vector<int> blocks = {5, 9, 2, 41, 7};
  std::mutex mu;
  std::vector<int> seen;
  arena.parallel_for_blocks(blocks, [&](int, int b) {
    std::lock_guard<std::mutex> lock(mu);
    // fhp-analyze: allow(alloc-in-region) -- test harness recording the
    // visited block list under a mutex; not a hot-path region
    seen.push_back(b);
  });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int>{2, 5, 7, 9, 41}));
}

TEST(ParTest, RuntimeParamRoundTrip) {
  RuntimeParams rp;
  rt::declare_runtime_params(rp);
  rp.set_int("par.threads", 2);
  const rt::Runtime runtime(rt::apply_runtime_params(rp));
  EXPECT_EQ(runtime.lanes(), 2);
}

// ---------------------------------------------------------- determinism

/// Bit-exact fingerprint of the leaf-block solution: every unk value of
/// every leaf, FNV-folded so any single-bit difference shows.
std::uint64_t unk_fingerprint(mesh::AmrMesh& m) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  m.for_leaf_cells([&](int b, int i, int j, int k) {
    for (int v = 0; v < m.unk().nvar(); ++v) {
      const std::uint64_t bits =
          std::bit_cast<std::uint64_t>(m.unk().at(v, i, j, k, b));
      h = (h ^ bits) * 0x100000001b3ull;
    }
  });
  return h;
}

struct SedovRun {
  std::uint64_t state = 0;       ///< physics fingerprint
  double sim_time = 0;           ///< final time
  perf::CounterSet counters{};   ///< modeled software counter totals
};

/// The 3-d Hydro workload in miniature, at a given lane count, with the
/// machine model fed so counter totals are part of the contract.
SedovRun run_sedov(int nthreads) {
  rt::Runtime runtime({.lanes = nthreads});
  sim::SedovParams params;
  params.ndim = 2;
  params.nzb = 1;
  params.max_level = 3;
  params.maxblocks = 300;
  sim::DriverOptions opts;
  opts.nsteps = 12;
  opts.trace_sample = 2;
  opts.verbose = false;
  sim::Simulation simulation(params, runtime, opts);
  simulation.driver().evolve();
  SedovRun r;
  r.state = unk_fingerprint(simulation.mesh());
  r.sim_time = simulation.driver().sim_time();
  r.counters = runtime.perf().snapshot();
  return r;
}

TEST(ParTest, SedovIsBitIdenticalAcrossThreadCounts) {
  const SedovRun serial = run_sedov(1);
  for (int nthreads : {2, 4}) {
    const SedovRun threaded = run_sedov(nthreads);
    EXPECT_EQ(threaded.state, serial.state) << "threads=" << nthreads;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(threaded.sim_time),
              std::bit_cast<std::uint64_t>(serial.sim_time))
        << "threads=" << nthreads;
    for (std::size_t e = 0; e < perf::kNumEvents; ++e) {
      EXPECT_EQ(threaded.counters.values[e], serial.counters.values[e])
          << "threads=" << nthreads << " event=" << e;
    }
  }
}

/// The EOS workload in miniature: flame + gravity + tabulated EOS. The
/// flame's energy release is a floating-point reduction — per-block
/// partials summed serially in leaf order — so it too must match to the
/// last bit.
std::pair<std::uint64_t, std::uint64_t> run_supernova(int nthreads) {
  rt::Runtime runtime({.lanes = nthreads});
  sim::SupernovaParams p;
  p.max_level = 3;
  p.maxblocks = 400;
  p.table_spec = {-4.0, 10.0, 141, 5.0, 10.0, 51};
  sim::DriverOptions opts;
  opts.nsteps = 6;
  opts.trace_sample = 0;
  opts.verbose = false;
  sim::Simulation simulation(p, runtime, opts);
  simulation.driver().evolve();
  return {unk_fingerprint(simulation.mesh()),
          std::bit_cast<std::uint64_t>(simulation.flame()->energy_released())};
}

TEST(ParTest, SupernovaIsBitIdenticalAcrossThreadCounts) {
  const auto serial = run_supernova(1);
  for (int nthreads : {2, 4}) {
    const auto threaded = run_supernova(nthreads);
    EXPECT_EQ(threaded.first, serial.first) << "threads=" << nthreads;
    EXPECT_EQ(threaded.second, serial.second)
        << "flame energy differs, threads=" << nthreads;
  }
}

/// The tsan workload: a real 4-thread hydro sweep over a refined mesh,
/// exercising pool handshakes, per-lane pencil buffers and EOS rows,
/// guard-cell fill, and sharded counters under the race detector.
TEST(ParTest, FourThreadHydroSweepIsClean) {
  const SedovRun run = run_sedov(4);
  EXPECT_NE(run.state, 0u);
  EXPECT_GT(run.sim_time, 0.0);
  EXPECT_GT(run.counters[perf::Event::kCycles], 0u);
}

}  // namespace
}  // namespace fhp::par
