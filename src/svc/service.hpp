/// \file service.hpp
/// \brief fhp::svc::Service — the multi-tenant simulation front-end.
///
/// The paper measures one FLASH instance per node; the roadmap's north
/// star is a service carrying many concurrent simulations per process.
/// PR 9's rt::Runtime made per-tenant isolation bit-exact; Service is
/// the scheduling layer on top:
///
///   - admission control: a bounded pending queue. submit() answers
///     with a JobId or a typed RejectReason — saturation is an API
///     result, not a hang;
///   - fair-share chunked stepping: workers pop a tenant, advance it by
///     at most `quantum_steps` Driver::step_once() calls, and requeue
///     it behind its class — so a 50-step supernova cannot starve a
///     6-step Sedov. Interactive jobs are preferred over batch at every
///     pop. Because step_once() leaves all stepping state in members
///     (Strang parity, flame energy, remesh cadence), a tenant stepped
///     in 1-step quanta interleaved with strangers ends bit-identical
///     to its solo run — the scheduler extension of the PR 9 contract,
///     held by tests/test_service.cpp;
///   - a shared huge-page pool: every tenant's Runtime carves block
///     and table storage from one mem::PagePool, under the runtime's
///     huge_policy() (the job's JobSpec::policy), and the pool plans
///     each allocation from the kernel's hugetlb pools as they read
///     then, so pages a finished tenant released serve the next one.
///     Tenant setups are serialized under one mutex so that the pool
///     counter deltas across each setup are that tenant's alone: they
///     become its JobResult::pool — per-tenant accounting of one shared
///     pool. (PagePool serializes allocations anyway, and the Helm-table
///     disk cache is safe to share: HelmTable::save renames a finished
///     file into place.) Exhaustion degrades (hugetlbfs -> THP -> base),
///     it never fails a job;
///   - per-tenant counters: each tenant is one sim::Simulation, whose
///     Driver and machine model count into its runtime's perf(), which
///     progress() and JobResult read;
///   - result streaming: progress() reads the tenant's last published
///     counter snapshot from any thread mid-flight; completed jobs
///     resolve to a JobResult via wait(); per-tenant span timelines
///     export to Chrome-trace JSON on request.
///
/// Layering: svc sits at the top of the module DAG — the one place that
/// constructs rt::Runtimes it does not hand to a human (examples/bench
/// construct their own). tools/fhp_analyze.py enforces that nothing
/// below svc includes it.

#pragma once

#include <cstdint>
#include <optional>

#include "mem/page_pool.hpp"
#include "mesh/amr_mesh.hpp"
#include "svc/job.hpp"

namespace fhp {
class RuntimeParams;
}  // namespace fhp

namespace fhp::svc {

/// Environment knob: worker (scheduler lane) count, FLASHHP_SVC_LANES.
inline constexpr const char* kSvcLanesEnvVar = "FLASHHP_SVC_LANES";

/// Construction-time configuration: the one way settings enter a
/// Service. svc::apply_runtime_params() fills it from the `svc.*`
/// parameters.
struct ServiceOptions {
  /// Worker threads stepping tenants, clamped to par::kMaxLanes.
  /// 0 = resolve FLASHHP_SVC_LANES / 2, at construction.
  int workers = 0;
  /// Pending-queue bound: jobs admitted but not yet finished beyond the
  /// ones holding tenants. submit() rejects kQueueFull at capacity.
  /// 0 = 16.
  int queue_capacity = 0;
  /// Maximum concurrently *constructed* tenants (jobs holding mesh
  /// storage in the shared pool). Workers defer building fresh tenants
  /// beyond this; admitted jobs wait queued instead of failing.
  /// 0 = 8.
  int max_tenants = 0;
  /// Steps a tenant advances per scheduling quantum. 0 = 4.
  int quantum_steps = 0;
  /// Non-null: carve every tenant from this pool (must outlive the
  /// service). Null: the service owns a private pool, initialized from
  /// `pool_config` when given, else lazily from the environment.
  mem::PagePool* pool = nullptr;
  /// Config for the service-owned pool (ignored when `pool` is set).
  /// Tests inject synthetic inventories here to drive exhaustion.
  std::optional<mem::PagePoolConfig> pool_config;
  /// true: workers idle until start() — deterministic admission-order
  /// tests submit a whole batch first, then release the scheduler.
  bool start_paused = false;
};

/// Aggregate service counters (monotonic except active/queued).
struct ServiceStats {
  std::uint64_t submitted = 0;  ///< accepted submits
  std::uint64_t rejected = 0;   ///< refused submits
  std::uint64_t completed = 0;  ///< resolved kDone
  std::uint64_t failed = 0;     ///< resolved kFailed
  std::uint64_t cancelled = 0;  ///< resolved kCancelled
  int queued = 0;               ///< admitted, not yet holding a tenant
  int active_tenants = 0;       ///< tenants currently constructed
};

/// submit()'s answer: an id when accepted, a reason when not.
struct Submission {
  JobId id = 0;
  RejectReason reason = RejectReason::kNone;
  [[nodiscard]] bool accepted() const noexcept {
    return reason == RejectReason::kNone;
  }
};

/// The service. Construct it, submit jobs from any thread, wait for
/// results, shut it down (the destructor drains). All public entry
/// points are thread-safe.
class Service {
 public:
  explicit Service(ServiceOptions options = {});
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admit \p spec or answer why not. Never blocks on the scheduler.
  [[nodiscard]] Submission submit(JobSpec spec);

  /// Block until job \p id resolves; returns its result. Throws
  /// fhp::ConfigError for an id the service never issued.
  [[nodiscard]] JobResult wait(JobId id);

  /// Non-blocking mid-flight view: status, steps so far, and the
  /// tenant's last step-boundary counter publish. nullopt for unknown
  /// ids. Safe from any thread while workers step the tenant.
  [[nodiscard]] std::optional<JobProgress> progress(JobId id) const;

  /// How shutdown() treats unfinished work.
  enum class Shutdown : std::uint8_t {
    kDrain,   ///< finish every admitted job, then stop
    kCancel,  ///< resolve unfinished jobs kCancelled at the next quantum
  };

  /// Stop admission (further submits reject kShuttingDown), dispose of
  /// the backlog per \p mode, join the workers. Idempotent; the first
  /// call picks the mode. The destructor calls shutdown(kDrain).
  void shutdown(Shutdown mode = Shutdown::kDrain);

  /// Release the workers of a start_paused service (no-op otherwise).
  void start();

  [[nodiscard]] ServiceStats stats() const;

  /// The shared pool tenants carve from (the injected pool, or the
  /// service-owned one).
  [[nodiscard]] mem::PagePool& pool() noexcept;

  [[nodiscard]] int workers() const noexcept;
  [[nodiscard]] int quantum_steps() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The canonical end-state vector the service captures for
/// JobSpec::capture_state jobs: every leaf interior zone in Morton
/// order, then the final time. Exposed so bit-identity tests canonicalize
/// their solo baselines identically.
[[nodiscard]] std::vector<double> canonical_state(const mesh::AmrMesh& mesh,
                                                  double sim_time);

/// Declare "svc.lanes", "svc.queue", "svc.max_tenants", "svc.quantum".
void declare_runtime_params(RuntimeParams& params);

/// The ServiceOptions those parameters describe (0 = unset, resolved at
/// construction). `svc.lanes` clamps to par::kMaxLanes, the others to
/// INT_MAX. Touches no process-wide state. Throws fhp::ConfigError on a
/// negative value.
[[nodiscard]] ServiceOptions apply_runtime_params(const RuntimeParams& params);

}  // namespace fhp::svc
