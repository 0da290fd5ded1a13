/// \file test_runtime.cpp
/// \brief Tests for fhp::rt::Runtime — the explicit per-tenant context.
///
/// Four layers:
///   1. context plumbing — construction-time config snapshots, private
///      vs injected page pools, runtime parameters feeding the options;
///   2. execution arenas — per-arena region guards (two arenas mid-region
///      at once);
///   3. per-runtime observability — two Telemetry sinks installed on two
///      runtimes trace separate timelines, and the runtime log tag
///      prefixes driver and lane lines;
///   4. the PR invariant — a Sedov tenant and a supernova tenant (each on
///      its own Runtime, with different unk layouts) interleaved
///      step-by-step on one thread AND run concurrently on two threads,
///      end states and published counters bit-identical to each tenant
///      running solo, at 1/2/4 lanes. This file is part of the tsan
///      workload: the concurrent phase is the data-race test for the
///      multi-tenant design.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "eos/eos_table.hpp"
#include "mem/huge_policy.hpp"
#include "mem/page_pool.hpp"
#include "mesh/amr_mesh.hpp"
#include "mesh/config.hpp"
#include "mesh/layout.hpp"
#include "obs/telemetry.hpp"
#include "par/parallel.hpp"
#include "perf/perf_context.hpp"
#include "rt/runtime.hpp"
#include "sim/simulation.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/runtime_params.hpp"
#include "support/trace.hpp"
#include "svc/service.hpp"

#include "scoped_env.hpp"

namespace fhp::sim {
namespace {

using mesh::LayoutKind;
using test::ScopedEnv;

// ----------------------------------------------------- context plumbing

TEST(RuntimeContext, ExplicitRuntimeSnapshotsConfigAtConstruction) {
  std::optional<rt::Runtime> snapshot;
  {
    const ScopedEnv env(mesh::kLayoutEnvVar, "zone_major");
    rt::RuntimeOptions opts;
    opts.lanes = 2;
    snapshot.emplace(opts);  // nullopt layout: resolve the environment now
  }
  {
    const ScopedEnv env(mesh::kLayoutEnvVar, "var_major");
    EXPECT_EQ(snapshot->layout(), LayoutKind::kZoneMajor);
    EXPECT_EQ(rt::Runtime().layout(), LayoutKind::kVarMajor);
  }
  EXPECT_EQ(snapshot->lanes(), 2);

  rt::RuntimeOptions explicit_opts;
  explicit_opts.lanes = 1;
  explicit_opts.layout = LayoutKind::kVarMajor;
  explicit_opts.policy = mem::HugePolicy::kNone;
  explicit_opts.log_tag = "tenant";
  rt::Runtime pinned(explicit_opts);
  EXPECT_EQ(pinned.layout(), LayoutKind::kVarMajor);
  EXPECT_EQ(pinned.huge_policy(), mem::HugePolicy::kNone);
  EXPECT_EQ(pinned.log_tag(), "tenant");
}

TEST(RuntimeContext, PoolIsPrivateByDefaultAndSharableByInjection) {
  rt::Runtime tenant_a;
  rt::Runtime tenant_b;
  EXPECT_NE(&tenant_a.page_pool(), &tenant_b.page_pool());
  EXPECT_NE(&tenant_a.perf(), &tenant_b.perf());
  EXPECT_NE(&tenant_a.arena(), &tenant_b.arena());

  mem::PagePool shared;
  rt::RuntimeOptions opts;
  opts.pool = &shared;
  rt::Runtime shared_a(opts);
  rt::Runtime shared_b(opts);
  EXPECT_EQ(&shared_a.page_pool(), &shared);
  EXPECT_EQ(&shared_b.page_pool(), &shared);
}

TEST(RuntimeContext, RuntimeParamsFeedTheOptions) {
  RuntimeParams rp;
  rt::declare_runtime_params(rp);
  rp.set_int("par.threads", 3);
  rp.set_from_string(mesh::kLayoutParamName, "zone_major");
  rp.set_from_string(mem::kPolicyParamName, "thp");
  const rt::Runtime runtime(rt::apply_runtime_params(rp));
  EXPECT_EQ(runtime.lanes(), 3);
  EXPECT_EQ(runtime.layout(), LayoutKind::kZoneMajor);
  EXPECT_EQ(runtime.huge_policy(), mem::HugePolicy::kThp);

  // Empty layout/policy defer to the environment, like a default runtime.
  rp.set_from_string(mesh::kLayoutParamName, "");
  rp.set_from_string(mem::kPolicyParamName, "");
  const rt::RuntimeOptions deferred = rt::apply_runtime_params(rp);
  EXPECT_FALSE(deferred.layout.has_value());
  EXPECT_FALSE(deferred.policy.has_value());

  rp.set_from_string(mesh::kLayoutParamName, "junk");
  EXPECT_THROW(static_cast<void>(rt::apply_runtime_params(rp)), ConfigError);
}

TEST(RuntimeContext, PoolParamsConfigureOnlyTheirRuntimesPool) {
  // Never a nonzero page count here: it makes PagePool::init try to
  // resize the host's hugetlb pool. A reservation of 0 pages never
  // writes sysfs.
  const ScopedEnv pool_env(mem::kPoolEnvVar, "");
  RuntimeParams rp;
  rt::declare_runtime_params(rp);
  rp.set_from_string(mem::kPoolParamName, "2M:0");
  const rt::RuntimeOptions options = rt::apply_runtime_params(rp);
  ASSERT_TRUE(options.pool_config.has_value());
  ASSERT_EQ(options.pool_config->reservations.size(), 1u);
  EXPECT_EQ(options.pool_config->reservations[0].page_bytes, mem::kPage2M);
  EXPECT_EQ(options.pool_config->reservations[0].pages, 0u);

  const rt::Runtime runtime(options);
  EXPECT_EQ(runtime.page_pool().status().state, "ready");

  // Applying the parameters configured no process-wide slot: a pool built
  // afterwards elsewhere is not initialized until its first use.
  const mem::PagePool elsewhere;
  EXPECT_EQ(elsewhere.status().state, "idle");

  for (const char* junk : {"off", "2M:junk"}) {
    rp.set_from_string(mem::kPoolParamName, junk);
    EXPECT_THROW(static_cast<void>(rt::apply_runtime_params(rp)), ConfigError)
        << junk;
  }
}

// ----------------------------------------------------- execution arenas

TEST(ExecArenaRegions, TwoArenasRunRegionsConcurrently) {
  // Each lane-0 blocks until the other arena's region is also in
  // flight: with the old process-wide region guard the second region
  // would have thrown the nested-region ConfigError; with per-arena
  // guards both proceed.
  par::ExecArena a(2);
  par::ExecArena b(2);
  std::atomic<bool> a_inside{false};
  std::atomic<bool> b_inside{false};
  auto meet = [](std::atomic<bool>& mine, std::atomic<bool>& theirs) {
    mine.store(true, std::memory_order_release);
    while (!theirs.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  };
  std::thread other([&] {
    b.run_region([&](int lane) {
      if (lane == 0) meet(b_inside, a_inside);
    });
  });
  a.run_region([&](int lane) {
    if (lane == 0) meet(a_inside, b_inside);
  });
  other.join();
  EXPECT_TRUE(a_inside.load());
  EXPECT_TRUE(b_inside.load());
}

// ------------------------------------------- per-runtime observability

TEST(RuntimeTelemetry, PerRuntimeSinksKeepSeparateTimelines) {
  rt::RuntimeOptions opts;
  opts.lanes = 2;
  rt::Runtime tenant_a(opts);
  rt::Runtime tenant_b(opts);

  obs::TelemetryOptions topts;
  topts.lanes = 2;
  obs::Telemetry tel_a(topts);
  obs::Telemetry tel_b(topts);
  tel_a.install(tenant_a);
  tel_b.install(tenant_b);

  EXPECT_EQ(tenant_a.trace_sink(), &tel_a);

  tenant_a.arena().parallel_for(
      64, [](int, std::size_t) { FHP_TRACE_SPAN("tenant_a.work"); });
  tenant_b.arena().parallel_for(
      64, [](int, std::size_t) { FHP_TRACE_SPAN("tenant_b.work"); });

  EXPECT_EQ(tel_a.total_spans(), 64u);
  EXPECT_EQ(tel_b.total_spans(), 64u);
  const auto hist_a = tenant_a.timers().histograms();
  EXPECT_EQ(hist_a.count("tenant_a.work"), 1u);
  EXPECT_EQ(hist_a.count("tenant_b.work"), 0u);
  const auto hist_b = tenant_b.timers().histograms();
  EXPECT_EQ(hist_b.count("tenant_b.work"), 1u);
  EXPECT_EQ(hist_b.count("tenant_a.work"), 0u);

  // One sink per runtime: a second install on the same runtime throws.
  obs::Telemetry spare(topts);
  EXPECT_THROW(spare.install(tenant_a), ConfigError);

  tel_a.uninstall();
  EXPECT_EQ(tenant_a.trace_sink(), nullptr);
}

TEST(RuntimeLogTag, TagFollowsTheDriverThreadAndTheLanes) {
  rt::RuntimeOptions opts;
  opts.lanes = 2;
  opts.log_tag = "simA";
  rt::Runtime tenant(opts);

  const std::string path = "runtime_log_tag_test.log";
  std::remove(path.c_str());
  Logger::instance().set_logfile(path);
  {
    rt::Runtime::BindScope bound(tenant);
    FHP_LOG(kInfo) << "tagged driver line";
  }
  tenant.arena().parallel_for(
      2, [](int, std::size_t) { FHP_LOG(kInfo) << "lane line"; });
  FHP_LOG(kInfo) << "untagged line";
  Logger::instance().set_logfile("");

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::remove(path.c_str());

  auto count = [&text](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size())) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("[simA] tagged driver line"), 1u) << text;
  EXPECT_EQ(count("[simA] lane line"), 2u) << text;
  EXPECT_EQ(count("untagged line"), 1u) << text;
  EXPECT_EQ(count("[simA] untagged line"), 0u) << text;
}

// =====================================================================
// The PR invariant: two tenants, interleaved and concurrent, each
// bit-identical to running solo.
// =====================================================================

/// Canonical end state: every leaf interior zone vector in Morton order,
/// the final time, and the full published software-counter set (wall
/// nanos excluded — modeled counters must be exact, wall time is not).
struct RunResult {
  std::vector<double> state;
  perf::CounterSet counters;
};

void expect_identical(const RunResult& a, const RunResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.state.size(), b.state.size()) << what;
  ASSERT_EQ(std::memcmp(a.state.data(), b.state.data(),
                        a.state.size() * sizeof(double)),
            0)
      << what << ": physics state differs";
  for (std::size_t e = 0; e < perf::kNumEvents; ++e) {
    if (e == static_cast<std::size_t>(perf::Event::kWallNanos)) continue;
    EXPECT_EQ(a.counters.values[e], b.counters.values[e])
        << what << ": counter " << e << " differs";
  }
}

SedovParams sedov_params() {
  SedovParams params;
  params.ndim = 2;
  params.nzb = 1;
  params.max_level = 2;
  params.maxblocks = 128;
  return params;
}

SupernovaParams snova_params() {
  SupernovaParams params;
  params.max_level = 3;
  params.maxblocks = 400;
  params.table_spec = {-4.0, 10.0, 141, 5.0, 10.0, 51};
  return params;
}

/// One tenant: its own Runtime (private pool, private perf, private
/// arena, its own layout and log tag) and a Simulation with modeled
/// counters on.
struct Tenant {
  Tenant(const ProblemParams& problem, int nsteps, int lanes,
         LayoutKind layout, const char* tag)
      : runtime({.lanes = lanes,
                 .layout = layout,
                 .policy = mem::HugePolicy::kNone,
                 .log_tag = tag}),
        simulation(problem, runtime,
                   DriverOptions{.nsteps = nsteps, .trace_sample = 2,
                                 .verbose = false}) {}
  RunResult result() {
    RunResult r;
    r.state = svc::canonical_state(simulation.mesh(),
                                   simulation.driver().sim_time());
    // The flame's serial leaf-order energy reduction is part of the
    // bit-identity contract; fold it into the comparable state.
    if (const flame::AdrFlame* flame = simulation.flame()) {
      r.state.push_back(flame->energy_released());
    }
    r.counters = runtime.perf().snapshot();
    return r;
  }
  rt::Runtime runtime;
  Simulation simulation;
};

/// The Sedov tenant (zone-major) next to the supernova tenant (var-major,
/// with flame + gravity + the Helmholtz-table EOS trace hook).
struct TenantPair {
  explicit TenantPair(int lanes)
      : sedov(sedov_params(), 12, lanes, LayoutKind::kZoneMajor, "sedov"),
        snova(snova_params(), 4, lanes, LayoutKind::kVarMajor, "snova") {}
  Tenant sedov;
  Tenant snova;
};

struct PairResult {
  RunResult sedov;
  RunResult snova;
};

/// Builds BOTH tenants (solo baselines included — the modeled counters
/// are a deliberate function of where the pools land in the address
/// space, so baseline and measured runs must construct identically; what
/// varies is only who gets stepped), then interleaves step_once() calls
/// on the calling thread.
PairResult run_pair_interleaved(int lanes, bool step_sedov,
                                bool step_snova) {
  TenantPair t(lanes);
  bool more = true;
  while (more) {
    const bool advanced_a =
        step_sedov && t.sedov.simulation.driver().step_once();
    const bool advanced_b =
        step_snova && t.snova.simulation.driver().step_once();
    more = advanced_a || advanced_b;
  }
  return {t.sedov.result(), t.snova.result()};
}

/// Same contract, but each driver evolves on its own thread, with both
/// evolutions genuinely overlapping. Nothing about thread placement
/// needs pinning: every address the machine model replays is synthetic
/// (tlb::synthetic_scratch), so the modeled counters cannot see where
/// stacks, pools or tables happened to land.
PairResult run_pair_concurrent(int lanes, bool step_sedov,
                               bool step_snova) {
  TenantPair t(lanes);
  std::thread snova_thread([&] {
    if (step_snova) t.snova.simulation.driver().evolve();
  });
  std::thread sedov_thread([&] {
    if (step_sedov) t.sedov.simulation.driver().evolve();
  });
  sedov_thread.join();
  snova_thread.join();
  return {t.sedov.result(), t.snova.result()};
}

void warm_process() {
  // Build (or load) the Helm table cache once, so every tenant below
  // loads the identical table file instead of each paying the build.
  mem::PagePool pool;
  (void)eos::HelmTable::build_or_load(snova_params().table_spec,
                                      mem::HugePolicy::kNone, pool);
}

TEST(RuntimePhysics, InterleavedTenantsBitIdenticalToSolo) {
  warm_process();

  const RunResult sedov_solo = run_pair_interleaved(1, true, false).sedov;
  const RunResult snova_solo = run_pair_interleaved(1, false, true).snova;
  ASSERT_GT(sedov_solo.state.size(), 1u);
  ASSERT_GT(snova_solo.state.size(), 1u);

  for (const int lanes : {1, 2, 4}) {
    const PairResult pair = run_pair_interleaved(lanes, true, true);
    expect_identical(sedov_solo, pair.sedov,
                     "interleaved sedov x " + std::to_string(lanes) +
                         " lanes");
    expect_identical(snova_solo, pair.snova,
                     "interleaved supernova x " + std::to_string(lanes) +
                         " lanes");
  }
}

TEST(RuntimePhysics, ConcurrentTenantsBitIdenticalToSolo) {
  warm_process();

  const RunResult sedov_solo = run_pair_concurrent(1, true, false).sedov;
  const RunResult snova_solo = run_pair_concurrent(1, false, true).snova;
  ASSERT_GT(sedov_solo.state.size(), 1u);
  ASSERT_GT(snova_solo.state.size(), 1u);

  for (const int lanes : {1, 2, 4}) {
    const PairResult pair = run_pair_concurrent(lanes, true, true);
    expect_identical(sedov_solo, pair.sedov,
                     "concurrent sedov x " + std::to_string(lanes) +
                         " lanes");
    expect_identical(snova_solo, pair.snova,
                     "concurrent supernova x " + std::to_string(lanes) +
                         " lanes");
  }
}

}  // namespace
}  // namespace fhp::sim
