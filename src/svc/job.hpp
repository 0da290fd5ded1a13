/// \file job.hpp
/// \brief fhp::svc job vocabulary — specs, results, progress, rejection.
///
/// A job is one simulation a tenant asked the service to run: a setup
/// kind plus its runtime parameters, a step budget, and a deadline
/// class. The service answers a submit() with either a JobId or a typed
/// RejectReason — admission control is part of the API, not a log line —
/// and every accepted job eventually produces exactly one JobResult,
/// whatever happened to it (done, failed, cancelled).
///
/// Everything here is plain data: the scheduling machinery lives in
/// svc/service.hpp, and the per-tenant execution context (rt::Runtime)
/// is a service implementation detail the client never touches.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/huge_policy.hpp"
#include "mem/page_pool.hpp"
#include "mesh/layout.hpp"
#include "perf/perf_context.hpp"
#include "sim/cellular.hpp"
#include "sim/sedov.hpp"
#include "sim/supernova.hpp"

namespace fhp::svc {

/// Which setup the job instantiates. The three classes span the cost
/// spectrum: Sedov (pure hydro, cheapest), cellular detonation (hydro +
/// ADR flame), supernova (tabulated EOS + flame + gravity, heaviest).
enum class JobKind : std::uint8_t {
  kSedov,
  kCellular,
  kSupernova,
};

/// Scheduling class. Interactive jobs are picked ahead of batch jobs at
/// every quantum boundary; within a class the service round-robins.
enum class DeadlineClass : std::uint8_t {
  kInteractive,
  kBatch,
};

/// Why a submit() was refused. kNone means it was accepted.
enum class RejectReason : std::uint8_t {
  kNone,
  kQueueFull,      ///< the bounded pending queue is at capacity
  kShuttingDown,   ///< shutdown() has begun; no new work
  kBadSpec,        ///< spec failed validation (lanes, budget, ...)
};

/// Terminal and in-flight states of an accepted job.
enum class JobStatus : std::uint8_t {
  kQueued,     ///< admitted, waiting for a worker
  kRunning,    ///< tenant constructed; being stepped in quanta
  kDone,       ///< budget spent, result complete
  kFailed,     ///< setup or stepping threw; see JobResult::error
  kCancelled,  ///< shutdown(kCancel) reached it first
};

[[nodiscard]] const char* to_string(JobKind kind) noexcept;
[[nodiscard]] const char* to_string(DeadlineClass deadline) noexcept;
[[nodiscard]] const char* to_string(RejectReason reason) noexcept;
[[nodiscard]] const char* to_string(JobStatus status) noexcept;

/// Monotonic per-service job handle; 0 is never issued.
using JobId = std::uint64_t;

/// What a client submits. Exactly one of the params structs is read —
/// the one matching `kind`; the others keep their defaults.
struct JobSpec {
  JobKind kind = JobKind::kSedov;
  DeadlineClass deadline = DeadlineClass::kBatch;

  /// Step budget for the tenant's Driver.
  int nsteps = 8;
  /// Lane count of the tenant's private ExecArena. The service default
  /// of 1 runs each tenant serially on its worker thread — throughput
  /// comes from concurrent tenants, not intra-tenant parallelism.
  int lanes = 1;
  /// Block-data layout; nullopt = the tenant Runtime snapshots the
  /// process resolution order.
  std::optional<mesh::LayoutKind> layout;
  /// Huge-page policy for the tenant's mesh (and table) storage.
  mem::HugePolicy policy = mem::HugePolicy::kNone;
  /// Driver trace sampling (0 = modeled counters off).
  int trace_sample = 0;

  /// true: JobResult::final_state carries the canonical end state (every
  /// leaf interior zone in Morton order + sim time + flame energy), the
  /// same canonicalization the bit-identity tests compare.
  bool capture_state = false;
  /// Non-empty: export this tenant's span timeline (Chrome-trace JSON)
  /// here at completion.
  std::string timeline_path;
  /// Log-line tag for the tenant's Runtime ("" = "job<id>").
  std::string log_tag;

  sim::SedovParams sedov{};
  sim::CellularParams cellular{};
  sim::SupernovaParams supernova{};
};

/// Streamed mid-flight view of a job (see Service::progress()). The
/// counter snapshot is the tenant's last step-boundary publish — safe to
/// read from any thread while the tenant is being stepped.
struct JobProgress {
  JobStatus status = JobStatus::kQueued;
  int steps = 0;
  double sim_time = 0.0;
  perf::PublishedCounters counters;
};

/// The one record every accepted job resolves to.
struct JobResult {
  JobId id = 0;
  JobStatus status = JobStatus::kQueued;
  std::string error;  ///< non-empty iff status == kFailed

  int steps = 0;          ///< steps actually taken
  double sim_time = 0.0;  ///< final simulated time [s]

  double queue_seconds = 0.0;  ///< submit -> first step
  double wall_seconds = 0.0;   ///< submit -> completion (the job latency)

  /// The tenant's final published counter set (seq 0 if it never ran).
  perf::PublishedCounters counters;
  /// This tenant's slice of the shared pool's decision counters: the
  /// deltas accrued while its setup carved its blocks and tables from
  /// the pool. The degradation contract shows up here — a pool-dry
  /// tenant reports thp/base fallbacks instead of failing.
  mem::PoolCounters pool;
  /// Canonical end state when JobSpec::capture_state was set.
  std::vector<double> final_state;
};

}  // namespace fhp::svc
