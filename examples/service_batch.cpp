/// \file service_batch.cpp
/// \brief The fhp::svc quickstart: one service, a mixed batch of
///        tenants, per-tenant results.
///
/// Submits a small matrix of jobs — interactive Sedovs, batch cellular
/// detonations — lets the service schedule them in fair-share quanta
/// over its worker pool and one shared huge-page arena, and prints each
/// tenant's result line: wall/queue latency, modeled DTLB misses from
/// its published counters, and its slice of the pool's decisions.
///
/// Usage: service_batch [--jobs=N] [--svc.lanes=W] [--svc.quantum=Q]
///                      [--mem.hpage_type=none|thp|hugetlbfs]
///                      [--mem.page_pool=SPEC] [--obs.timeline=PATH]
///
/// Every tenant requests the page policy of `--mem.hpage_type` (else
/// FLASHHP_HPAGE_TYPE / XOS_MMM_L_HPAGE_TYPE, else none); the service's
/// shared pool is configured from `--mem.page_pool` (else
/// FLASHHP_PAGE_POOL). With --obs.timeline (or FLASHHP_TELEMETRY) the
/// first job writes its span timeline to PATH (JobSpec::timeline_path;
/// tenants run no sampler).

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "mem/huge_policy.hpp"
#include "mem/page_pool.hpp"
#include "obs/telemetry.hpp"
#include "support/error.hpp"
#include "support/runtime_params.hpp"
#include "svc/service.hpp"

int main(int argc, char** argv) try {
  using namespace fhp;
  RuntimeParams rp;
  rp.declare_int("jobs", 6, "jobs to submit");
  mem::declare_runtime_params(rp);
  svc::declare_runtime_params(rp);
  obs::declare_runtime_params(rp);
  rp.apply_command_line(argc, argv);
  svc::ServiceOptions options = svc::apply_runtime_params(rp);
  options.pool_config = mem::pool_config_from_params(rp);
  const std::optional<mem::HugePolicy> requested = mem::policy_from_params(rp);
  const mem::HugePolicy policy =
      requested ? *requested : mem::policy_from_environment();
  const int njobs = static_cast<int>(rp.get_int("jobs"));
  std::printf("tenants request %s pages\n",
              std::string(mem::to_string(policy)).c_str());

  svc::Service service(options);  // workers: --svc.lanes / FLASHHP_SVC_LANES

  std::vector<svc::JobId> ids;
  for (int j = 0; j < njobs; ++j) {
    svc::JobSpec spec;
    spec.policy = policy;
    if (j == 0) spec.timeline_path = rp.get_string("obs.timeline");
    if (j % 2 == 0) {
      spec.kind = svc::JobKind::kSedov;
      spec.deadline = svc::DeadlineClass::kInteractive;
      spec.nsteps = 8;
      spec.trace_sample = 2;  // modeled counters on
      spec.sedov.ndim = 2;
      spec.sedov.nzb = 1;
      spec.sedov.max_level = 2;
      spec.sedov.maxblocks = 128;
    } else {
      spec.kind = svc::JobKind::kCellular;
      spec.deadline = svc::DeadlineClass::kBatch;
      spec.nsteps = 6;
      spec.cellular.max_level = 2;
      spec.cellular.maxblocks = 128;
    }
    const svc::Submission s = service.submit(std::move(spec));
    if (!s.accepted()) {
      std::fprintf(stderr, "job %d rejected: %s\n", j,
                   svc::to_string(s.reason));
      continue;
    }
    ids.push_back(s.id);
  }

  for (const svc::JobId id : ids) {
    const svc::JobResult r = service.wait(id);
    std::printf(
        "job %3llu  %-9s  steps=%3d  t=%.3e s  queue=%6.1f ms  "
        "wall=%6.1f ms  dtlb=%llu  pool[huge=%llu thp=%llu base=%llu]\n",
        static_cast<unsigned long long>(r.id), svc::to_string(r.status),
        r.steps, r.sim_time, r.queue_seconds * 1e3, r.wall_seconds * 1e3,
        static_cast<unsigned long long>(
            r.counters.counters[perf::Event::kDtlbMisses]),
        static_cast<unsigned long long>(r.pool.huge_allocs),
        static_cast<unsigned long long>(r.pool.thp_fallbacks),
        static_cast<unsigned long long>(r.pool.base_fallbacks));
  }

  const svc::ServiceStats stats = service.stats();
  std::printf("%llu submitted, %llu done, %llu failed (workers=%d, "
              "quantum=%d)\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.failed),
              service.workers(), service.quantum_steps());
  return stats.failed == 0 ? 0 : 1;
} catch (const fhp::ConfigError& e) {
  std::fprintf(stderr, "service_batch: %s\n", e.what());
  return 2;
}
