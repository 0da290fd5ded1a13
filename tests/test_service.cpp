/// \file test_service.cpp
/// \brief Tests for fhp::svc::Service — the multi-tenant front-end.
///
/// Five layers:
///   1. lifecycle — a mixed sedov/cellular/supernova batch runs to
///      completion with per-tenant results, counters and pool summaries;
///   2. admission — the bounded queue rejects with typed reasons
///      (kQueueFull at capacity, kShuttingDown after shutdown, kBadSpec
///      on junk), and rejected ids are never issued;
///   3. exhaustion — tenants carving from a dry fake hugetlb tree
///      degrade hugetlbfs -> THP -> base and still complete, with the
///      fallbacks visible in their JobResult::pool;
///   4. shutdown — kDrain resolves everything kDone, kCancel resolves
///      the backlog kCancelled promptly; both join the workers. This
///      file is part of the tsan workload: concurrent workers stepping
///      tenants over one shared pool is the race surface;
///   5. the scheduler extension of the PR 9 invariant — a probe tenant
///      stepped in 1- and 3-step quanta, interleaved with strangers on
///      concurrent workers, ends bit-identical (canonical end state AND
///      published counters) to its solo run, across both layouts.

#include <gtest/gtest.h>

#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "eos/eos_table.hpp"
#include "mem/huge_policy.hpp"
#include "mem/page_pool.hpp"
#include "mem/page_size.hpp"
#include "par/parallel.hpp"
#include "perf/events.hpp"
#include "support/error.hpp"
#include "support/runtime_params.hpp"
#include "svc/service.hpp"

#include "fake_hugepages.hpp"
#include "scoped_env.hpp"

namespace fhp::svc {
namespace {

using mesh::LayoutKind;

std::string sysfs_fixture(const std::string& rel) {
  return std::string(FHP_TEST_FIXTURE_DIR) + "/sysfs/" + rel;
}

/// Pool config over a fake hugetlb tree (no privilege needed).
mem::PagePoolConfig tree_pool(const test::FakeHugepagesRoot& tree, bool thp) {
  mem::PagePoolConfig cfg;
  cfg.hugepages_root = tree.root();
  cfg.thp_root = thp ? sysfs_fixture("thp") : "/flashhp-nonexistent";
  return cfg;
}

/// The probe tenant of the bit-identity tests: the same 2-d Sedov the
/// runtime tests use, with modeled counters on.
JobSpec sedov_spec(int nsteps = 12) {
  JobSpec spec;
  spec.kind = JobKind::kSedov;
  spec.nsteps = nsteps;
  spec.trace_sample = 2;
  spec.sedov.ndim = 2;
  spec.sedov.nzb = 1;
  spec.sedov.max_level = 2;
  spec.sedov.maxblocks = 128;
  return spec;
}

JobSpec cellular_spec(int nsteps = 8) {
  JobSpec spec;
  spec.kind = JobKind::kCellular;
  spec.nsteps = nsteps;
  spec.cellular.max_level = 2;
  spec.cellular.maxblocks = 128;
  return spec;
}

JobSpec supernova_spec(int nsteps = 3) {
  JobSpec spec;
  spec.kind = JobKind::kSupernova;
  spec.nsteps = nsteps;
  spec.supernova.max_level = 3;
  spec.supernova.maxblocks = 400;
  spec.supernova.table_spec = {-4.0, 10.0, 141, 5.0, 10.0, 51};
  return spec;
}

/// Build (or load) the Helm table cache once so no tenant pays the
/// build (mirrors test_runtime's warm_process).
void warm_process() {
  mem::PagePool pool;
  (void)eos::HelmTable::build_or_load(supernova_spec().supernova.table_spec,
                                      mem::HugePolicy::kNone, pool);
}

void expect_counters_identical(const perf::PublishedCounters& a,
                               const perf::PublishedCounters& b,
                               const std::string& what) {
  EXPECT_EQ(a.seq, b.seq) << what << ": publish count differs";
  for (std::size_t e = 0; e < perf::kNumEvents; ++e) {
    if (e == static_cast<std::size_t>(perf::Event::kWallNanos)) continue;
    EXPECT_EQ(a.counters.values[e], b.counters.values[e])
        << what << ": counter " << e << " differs";
  }
}

// ------------------------------------------------------------ lifecycle

TEST(ServiceLifecycle, MixedBatchRunsToCompletion) {
  warm_process();
  ServiceOptions opts;
  opts.workers = 2;
  opts.quantum_steps = 2;
  Service service(opts);

  const Submission sedov = service.submit(sedov_spec(6));
  const Submission cellular = service.submit(cellular_spec(4));
  const Submission snova = service.submit(supernova_spec(2));
  ASSERT_TRUE(sedov.accepted());
  ASSERT_TRUE(cellular.accepted());
  ASSERT_TRUE(snova.accepted());
  EXPECT_NE(sedov.id, cellular.id);

  for (const Submission& s : {sedov, cellular, snova}) {
    const JobResult r = service.wait(s.id);
    EXPECT_EQ(r.status, JobStatus::kDone) << r.error;
    EXPECT_EQ(r.id, s.id);
    EXPECT_GT(r.sim_time, 0.0);
    EXPECT_GT(r.wall_seconds, 0.0);
    EXPECT_GE(r.wall_seconds, r.queue_seconds);
    // The driver publishes at every step boundary.
    EXPECT_EQ(r.counters.seq, static_cast<std::uint64_t>(r.steps));
  }
  EXPECT_EQ(service.wait(sedov.id).steps, 6);
  EXPECT_EQ(service.wait(cellular.id).steps, 4);
  EXPECT_EQ(service.wait(snova.id).steps, 2);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.active_tenants, 0);
  EXPECT_EQ(stats.queued, 0);
}

TEST(ServiceLifecycle, ProgressStreamsAndResolvesUnknownIds) {
  Service service(ServiceOptions{.workers = 1, .quantum_steps = 1});
  EXPECT_EQ(service.progress(42), std::nullopt);
  EXPECT_THROW((void)service.wait(42), ConfigError);

  const Submission s = service.submit(sedov_spec(6));
  ASSERT_TRUE(s.accepted());
  // Poll the streaming face while the worker steps the tenant; every
  // snapshot must be monotone and internally consistent.
  int last_steps = 0;
  for (;;) {
    const auto p = service.progress(s.id);
    ASSERT_TRUE(p.has_value());
    EXPECT_GE(p->steps, last_steps);
    last_steps = p->steps;
    if (p->status == JobStatus::kDone) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto final_progress = service.progress(s.id);
  ASSERT_TRUE(final_progress.has_value());
  EXPECT_EQ(final_progress->steps, 6);
  EXPECT_EQ(final_progress->counters.seq, 6u);
  EXPECT_GT(final_progress->sim_time, 0.0);
}

TEST(ServiceLifecycle, TimelineExportsPerTenantTrace) {
  const std::string path = "svc_tenant_timeline.json";
  std::remove(path.c_str());
  {
    Service service(ServiceOptions{.workers = 1});
    JobSpec spec = sedov_spec(4);
    spec.timeline_path = path;
    const Submission s = service.submit(std::move(spec));
    ASSERT_TRUE(s.accepted());
    EXPECT_EQ(service.wait(s.id).status, JobStatus::kDone);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "timeline not written";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("traceEvents"), std::string::npos);
  EXPECT_NE(text.find("driver.step"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- options

TEST(ServiceOptionsTest, RuntimeParamsFillTheOptionsOnly) {
  RuntimeParams rp;
  declare_runtime_params(rp);
  rp.set_int("svc.quantum", 1);
  rp.set_int("svc.queue", 3);
  const ServiceOptions options = apply_runtime_params(rp);
  EXPECT_EQ(options.quantum_steps, 1);
  EXPECT_EQ(options.queue_capacity, 3);
  EXPECT_EQ(options.workers, 0);  // unset: resolved at construction

  // Applying them configured no process-wide slot.
  Service service;
  EXPECT_EQ(service.quantum_steps(), 4);

  rp.set_int("svc.max_tenants", -1);
  EXPECT_THROW(static_cast<void>(apply_runtime_params(rp)), ConfigError);
}

TEST(ServiceOptionsTest, OversizedValuesClampInsteadOfWrapping) {
  RuntimeParams rp;
  declare_runtime_params(rp);
  for (const char* name :
       {"svc.lanes", "svc.queue", "svc.max_tenants", "svc.quantum"}) {
    rp.set_from_string(name, "3000000000");
  }
  const ServiceOptions options = apply_runtime_params(rp);
  EXPECT_EQ(options.workers, par::kMaxLanes);
  EXPECT_EQ(options.queue_capacity, INT_MAX);
  EXPECT_EQ(options.max_tenants, INT_MAX);
  EXPECT_EQ(options.quantum_steps, INT_MAX);
}

TEST(ServiceOptionsTest, WorkerCountsClampToMaxLanes) {
  // One lane over the ceiling: a broken clamp starts kMaxLanes + 1
  // threads, never thousands.
  const std::string over = std::to_string(par::kMaxLanes + 1);
  {
    const test::ScopedEnv env(kSvcLanesEnvVar, over.c_str());
    const Service from_env({.start_paused = true});
    EXPECT_EQ(from_env.workers(), par::kMaxLanes);
  }
  const Service explicit_count(
      {.workers = par::kMaxLanes + 1, .start_paused = true});
  EXPECT_EQ(explicit_count.workers(), par::kMaxLanes);
}

// ------------------------------------------------------------ admission

TEST(ServiceAdmission, SaturatedQueueRejectsTyped) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  opts.start_paused = true;  // nothing drains while we fill the queue
  Service service(opts);

  const Submission a = service.submit(sedov_spec(2));
  const Submission b = service.submit(sedov_spec(2));
  ASSERT_TRUE(a.accepted());
  ASSERT_TRUE(b.accepted());

  const Submission overflow = service.submit(sedov_spec(2));
  EXPECT_FALSE(overflow.accepted());
  EXPECT_EQ(overflow.reason, RejectReason::kQueueFull);
  EXPECT_EQ(overflow.id, 0u);
  EXPECT_EQ(service.stats().rejected, 1u);

  service.start();
  EXPECT_EQ(service.wait(a.id).status, JobStatus::kDone);
  EXPECT_EQ(service.wait(b.id).status, JobStatus::kDone);
  // Capacity freed: admission works again.
  EXPECT_TRUE(service.submit(sedov_spec(2)).accepted());
}

TEST(ServiceAdmission, BadSpecAndShutdownRejectTyped) {
  Service service(ServiceOptions{.workers = 1});

  JobSpec junk = sedov_spec(2);
  junk.lanes = 0;
  EXPECT_EQ(service.submit(std::move(junk)).reason, RejectReason::kBadSpec);
  JobSpec no_budget = sedov_spec(2);
  no_budget.nsteps = 0;
  EXPECT_EQ(service.submit(std::move(no_budget)).reason,
            RejectReason::kBadSpec);

  service.shutdown(Service::Shutdown::kDrain);
  const Submission late = service.submit(sedov_spec(2));
  EXPECT_EQ(late.reason, RejectReason::kShuttingDown);
  EXPECT_EQ(late.id, 0u);
}

TEST(ServiceAdmission, InteractivePreferredOverEarlierBatch) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.start_paused = true;
  Service service(opts);

  JobSpec batch1 = sedov_spec(2);
  batch1.deadline = DeadlineClass::kBatch;
  JobSpec batch2 = cellular_spec(2);
  batch2.deadline = DeadlineClass::kBatch;
  JobSpec urgent = sedov_spec(2);
  urgent.deadline = DeadlineClass::kInteractive;

  const Submission b1 = service.submit(std::move(batch1));
  const Submission b2 = service.submit(std::move(batch2));
  const Submission i = service.submit(std::move(urgent));
  ASSERT_TRUE(b1.accepted() && b2.accepted() && i.accepted());

  service.start();
  // Strict class priority with one worker: no batch job may leave the
  // queue while the interactive job is still in it.
  for (;;) {
    const auto pi = service.progress(i.id);
    ASSERT_TRUE(pi.has_value());
    if (pi->status != JobStatus::kQueued) break;
    EXPECT_EQ(service.progress(b1.id)->status, JobStatus::kQueued);
    EXPECT_EQ(service.progress(b2.id)->status, JobStatus::kQueued);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(service.wait(i.id).status, JobStatus::kDone);
  EXPECT_EQ(service.wait(b1.id).status, JobStatus::kDone);
  EXPECT_EQ(service.wait(b2.id).status, JobStatus::kDone);
}

// ----------------------------------------------------------- exhaustion

TEST(ServiceExhaustion, DryPoolDegradesToThpWithoutFailing) {
  ServiceOptions opts;
  opts.workers = 2;
  // A pool whose hugetlb tree is already dry, with the THP tier
  // available: every tenant allocation must degrade, not fail.
  test::FakeHugepagesRoot tree;
  tree.set(mem::kPage2M, 4, 0);
  opts.pool_config = tree_pool(tree, /*thp=*/true);
  Service service(opts);

  JobSpec spec = sedov_spec(2);
  spec.policy = mem::HugePolicy::kHugetlbfs;
  const Submission a = service.submit(spec);
  const Submission b = service.submit(spec);
  ASSERT_TRUE(a.accepted() && b.accepted());

  for (const Submission& s : {a, b}) {
    const JobResult r = service.wait(s.id);
    EXPECT_EQ(r.status, JobStatus::kDone) << r.error;
    EXPECT_EQ(r.pool.huge_allocs, 0u);
    EXPECT_GT(r.pool.exhausted_events, 0u);
    EXPECT_GT(r.pool.thp_fallbacks, 0u);
    EXPECT_EQ(r.pool.base_fallbacks, 0u);
  }
}

TEST(ServiceExhaustion, NoThpTierDegradesToBaseWithoutFailing) {
  ServiceOptions opts;
  opts.workers = 1;
  test::FakeHugepagesRoot tree;
  tree.set(mem::kPage2M, 4, 0);
  opts.pool_config = tree_pool(tree, /*thp=*/false);
  Service service(opts);

  JobSpec spec = cellular_spec(2);
  spec.policy = mem::HugePolicy::kHugetlbfs;
  const Submission s = service.submit(spec);
  ASSERT_TRUE(s.accepted());
  const JobResult r = service.wait(s.id);
  EXPECT_EQ(r.status, JobStatus::kDone) << r.error;
  EXPECT_EQ(r.pool.huge_allocs, 0u);
  EXPECT_GT(r.pool.exhausted_events, 0u);
  EXPECT_EQ(r.pool.thp_fallbacks, 0u);
  EXPECT_GT(r.pool.base_fallbacks, 0u);
}

TEST(ServiceExhaustion, SharedInventoryAccountsPerTenant) {
  // A healthy fake tree: tenants plan from one shared pool, and each
  // tenant's JobResult::pool carries its own slice.
  ServiceOptions opts;
  opts.workers = 1;  // serial: deterministic attribution
  test::FakeHugepagesRoot tree;
  tree.set(mem::kPage2M, 256, 256);
  opts.pool_config = tree_pool(tree, /*thp=*/true);
  Service service(opts);

  JobSpec spec = sedov_spec(2);
  spec.policy = mem::HugePolicy::kHugetlbfs;
  const Submission a = service.submit(spec);
  const Submission b = service.submit(spec);
  ASSERT_TRUE(a.accepted() && b.accepted());
  const JobResult ra = service.wait(a.id);
  const JobResult rb = service.wait(b.id);
  EXPECT_EQ(ra.status, JobStatus::kDone) << ra.error;
  EXPECT_EQ(rb.status, JobStatus::kDone) << rb.error;
  EXPECT_GT(ra.pool.huge_allocs, 0u);
  // Identical specs carve identical arenas: the shared pool's counters
  // split evenly across the two tenants.
  EXPECT_EQ(ra.pool.huge_allocs, rb.pool.huge_allocs);
  EXPECT_EQ(service.pool().counters().huge_allocs,
            ra.pool.huge_allocs + rb.pool.huge_allocs);
}

// ------------------------------------------------------------- shutdown

TEST(ServiceShutdown, DrainFinishesTheBacklog) {
  ServiceOptions opts;
  opts.workers = 2;
  opts.quantum_steps = 1;
  opts.start_paused = true;
  Service service(opts);

  std::vector<Submission> subs;
  for (int i = 0; i < 4; ++i) subs.push_back(service.submit(sedov_spec(3)));
  for (const Submission& s : subs) ASSERT_TRUE(s.accepted());

  service.start();
  service.shutdown(Service::Shutdown::kDrain);
  for (const Submission& s : subs) {
    const JobResult r = service.wait(s.id);
    EXPECT_EQ(r.status, JobStatus::kDone) << r.error;
    EXPECT_EQ(r.steps, 3);
  }
  EXPECT_EQ(service.stats().completed, 4u);
}

TEST(ServiceShutdown, CancelResolvesQueuedJobsWithoutRunningThem) {
  ServiceOptions opts;
  opts.workers = 2;
  opts.start_paused = true;  // workers never touch the backlog
  Service service(opts);

  std::vector<Submission> subs;
  for (int i = 0; i < 3; ++i) subs.push_back(service.submit(sedov_spec(50)));
  for (const Submission& s : subs) ASSERT_TRUE(s.accepted());

  service.shutdown(Service::Shutdown::kCancel);
  for (const Submission& s : subs) {
    const JobResult r = service.wait(s.id);
    EXPECT_EQ(r.status, JobStatus::kCancelled);
    EXPECT_EQ(r.steps, 0);
    EXPECT_EQ(r.counters.seq, 0u);  // never constructed, never published
  }
  EXPECT_EQ(service.stats().cancelled, 3u);
}

TEST(ServiceShutdown, CancelInterruptsRunningJobsAtQuantum) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.quantum_steps = 1;
  Service service(opts);

  const Submission s = service.submit(sedov_spec(500));
  ASSERT_TRUE(s.accepted());
  // Let it actually run a few quanta before pulling the plug.
  for (;;) {
    const auto p = service.progress(s.id);
    ASSERT_TRUE(p.has_value());
    if (p->steps >= 2) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  service.shutdown(Service::Shutdown::kCancel);
  const JobResult r = service.wait(s.id);
  EXPECT_EQ(r.status, JobStatus::kCancelled);
  EXPECT_GE(r.steps, 2);
  EXPECT_LT(r.steps, 500);
  EXPECT_EQ(service.stats().active_tenants, 0);
}

TEST(ServiceShutdown, DestructorDrainsAndSecondShutdownIsIdempotent) {
  Submission s;
  JobResult r;
  {
    Service service(ServiceOptions{.workers = 1});
    s = service.submit(sedov_spec(2));
    ASSERT_TRUE(s.accepted());
    service.shutdown(Service::Shutdown::kDrain);
    service.shutdown(Service::Shutdown::kCancel);  // mode already picked
    r = service.wait(s.id);
  }  // destructor shuts down again
  EXPECT_EQ(r.status, JobStatus::kDone);
  EXPECT_EQ(r.steps, 2);
}

// =====================================================================
// The scheduler extension of the PR 9 invariant: fair-share quanta are
// invisible to the tenant — end state and published counters are
// bit-identical to the solo run, at 1- and 3-step quanta, interleaved
// with strangers on concurrent workers, across both layouts.
// =====================================================================

struct ProbeResult {
  std::vector<double> state;
  perf::PublishedCounters counters;
};

/// Run the probe through a service: solo (one worker, nothing else) or
/// sharing the service with interference tenants at the given quantum.
ProbeResult run_probe(LayoutKind layout, int quantum, bool interference) {
  ServiceOptions opts;
  opts.workers = interference ? 2 : 1;
  opts.quantum_steps = quantum;
  Service service(opts);

  JobSpec probe = sedov_spec(12);
  probe.layout = layout;
  probe.capture_state = true;
  probe.log_tag = "probe";

  const Submission p = service.submit(std::move(probe));
  EXPECT_TRUE(p.accepted());
  std::vector<Submission> others;
  if (interference) {
    // Strangers on both layouts, one of them flame-bearing, so the
    // probe's quanta interleave with genuinely different physics.
    JobSpec c = cellular_spec(8);
    c.layout = LayoutKind::kVarMajor;
    others.push_back(service.submit(std::move(c)));
    JobSpec s = sedov_spec(8);
    s.layout = LayoutKind::kZoneMajor;
    s.sedov.max_level = 1;
    others.push_back(service.submit(std::move(s)));
  }

  const JobResult r = service.wait(p.id);
  EXPECT_EQ(r.status, JobStatus::kDone) << r.error;
  for (const Submission& o : others) {
    EXPECT_EQ(service.wait(o.id).status, JobStatus::kDone);
  }
  return {r.final_state, r.counters};
}

TEST(ServiceFairShare, QuantaInterleavedBitIdenticalToSolo) {
  for (const LayoutKind layout :
       {LayoutKind::kVarMajor, LayoutKind::kZoneMajor}) {
    const ProbeResult solo = run_probe(layout, 4, /*interference=*/false);
    ASSERT_GT(solo.state.size(), 1u);
    ASSERT_GT(solo.counters.seq, 0u);

    for (const int quantum : {1, 3}) {
      const std::string what =
          "layout " + std::string(mesh::to_string(layout)) + ", quantum " +
          std::to_string(quantum);
      const ProbeResult shared =
          run_probe(layout, quantum, /*interference=*/true);
      ASSERT_EQ(solo.state.size(), shared.state.size()) << what;
      EXPECT_EQ(std::memcmp(solo.state.data(), shared.state.data(),
                            solo.state.size() * sizeof(double)),
                0)
          << what << ": end state differs";
      expect_counters_identical(solo.counters, shared.counters, what);
    }
  }
}

}  // namespace
}  // namespace fhp::svc
