#include "svc/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/recording.hpp"
#include "rt/runtime.hpp"
#include "sim/simulation.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/runtime_params.hpp"

namespace fhp::svc {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Everything one admitted job owns while it runs: its Runtime (private
/// perf context, arena, layout snapshot; block storage carved from the
/// service's shared pool) and the Simulation built on it. Declaration
/// order is the destruction contract: the runtime outlives the
/// simulation built on it, and the recording (installed on the runtime)
/// uninstalls before the runtime dies.
struct Tenant {
  std::unique_ptr<rt::Runtime> runtime;
  std::optional<obs::Recording> recording;
  std::optional<sim::Simulation> simulation;
};

/// The problem a job instantiates: the params struct matching its kind.
sim::ProblemParams problem_of(const JobSpec& spec) {
  switch (spec.kind) {
    case JobKind::kSedov: return spec.sedov;
    case JobKind::kCellular: return spec.cellular;
    case JobKind::kSupernova: return spec.supernova;
  }
  throw ConfigError("svc: unknown job kind");
}

/// One admitted job's record. The atomics are the streaming face:
/// progress() reads them (and the tenant runtime's published counter
/// slot) from arbitrary threads while the owning worker steps the
/// driver. Everything else is guarded by the service mutex — a job is
/// owned by exactly one worker between queue pops, and the mutex
/// handshake around pop/requeue is the happens-before edge.
struct Job {
  JobId id = 0;
  JobSpec spec;

  std::atomic<JobStatus> status{JobStatus::kQueued};
  std::atomic<int> steps{0};
  std::atomic<std::uint64_t> sim_time_bits{0};

  Clock::time_point submitted_at{};
  Clock::time_point started_at{};
  bool started = false;

  std::unique_ptr<Tenant> tenant;
  JobResult result;
  bool done = false;

  void store_sim_time(double t) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &t, sizeof bits);
    sim_time_bits.store(bits, std::memory_order_relaxed);
  }
  [[nodiscard]] double load_sim_time() const noexcept {
    const std::uint64_t bits = sim_time_bits.load(std::memory_order_relaxed);
    double t = 0.0;
    std::memcpy(&t, &bits, sizeof t);
    return t;
  }
};

}  // namespace

const char* to_string(JobKind kind) noexcept {
  switch (kind) {
    case JobKind::kSedov: return "sedov";
    case JobKind::kCellular: return "cellular";
    case JobKind::kSupernova: return "supernova";
  }
  return "?";
}

const char* to_string(DeadlineClass deadline) noexcept {
  switch (deadline) {
    case DeadlineClass::kInteractive: return "interactive";
    case DeadlineClass::kBatch: return "batch";
  }
  return "?";
}

const char* to_string(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kQueueFull: return "queue-full";
    case RejectReason::kShuttingDown: return "shutting-down";
    case RejectReason::kBadSpec: return "bad-spec";
  }
  return "?";
}

const char* to_string(JobStatus status) noexcept {
  switch (status) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kDone: return "done";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kCancelled: return "cancelled";
  }
  return "?";
}

std::vector<double> canonical_state(const mesh::AmrMesh& mesh,
                                    double sim_time) {
  const mesh::MeshConfig& c = mesh.config();
  std::vector<double> out;
  std::vector<double> zone(static_cast<std::size_t>(c.nvar()));
  for (int b : mesh.tree().leaves_morton()) {
    for (int k = c.klo(); k < c.khi(); ++k) {
      for (int j = c.jlo(); j < c.jhi(); ++j) {
        for (int i = c.ilo(); i < c.ihi(); ++i) {
          mesh.unk().gather_zone(0, c.nvar(), i, j, k, b, zone.data());
          out.insert(out.end(), zone.begin(), zone.end());
        }
      }
    }
  }
  out.push_back(sim_time);
  return out;
}

void declare_runtime_params(RuntimeParams& params) {
  params.declare_int("svc.lanes", 0,
                     "service worker threads stepping tenants "
                     "(FLASHHP_SVC_LANES; 0 = resolve)");
  params.declare_int("svc.queue", 0,
                     "pending-job queue capacity (0 = default 16)");
  params.declare_int("svc.max_tenants", 0,
                     "max concurrently constructed tenants (0 = default 8)");
  params.declare_int("svc.quantum", 0,
                     "steps per fair-share scheduling quantum "
                     "(0 = default 4)");
}

ServiceOptions apply_runtime_params(const RuntimeParams& params) {
  const auto read = [&params](const char* name, int ceiling) {
    const long long value = params.get_int(name);
    if (value < 0) {
      throw ConfigError(std::string(name) + "=" + std::to_string(value) +
                        ": expected a non-negative integer");
    }
    return static_cast<int>(std::min<long long>(value, ceiling));
  };
  ServiceOptions options;
  options.workers = read("svc.lanes", par::kMaxLanes);
  options.queue_capacity = read("svc.queue", INT_MAX);
  options.max_tenants = read("svc.max_tenants", INT_MAX);
  options.quantum_steps = read("svc.quantum", INT_MAX);
  return options;
}

// ---------------------------------------------------------------- Impl

struct Service::Impl {
  // Resolved configuration (immutable after construction).
  int workers_n = 0;
  int queue_capacity = 0;
  int max_tenants = 0;
  int quantum = 0;

  mem::PagePool owned_pool;
  mem::PagePool* pool = nullptr;

  mutable std::mutex mutex;
  std::condition_variable work_cv;  ///< workers wait for runnable jobs
  std::condition_variable done_cv;  ///< wait() waits for resolutions

  bool started = true;      ///< false while start_paused holds workers
  bool accepting = true;
  bool stop = false;        ///< shutdown has begun
  bool cancel_mode = false;
  int inflight = 0;         ///< jobs currently held by a worker
  JobId next_id = 1;

  std::map<JobId, std::shared_ptr<Job>> jobs;
  /// Ready queues by class: [0] interactive, [1] batch. A job is in at
  /// most one place: a queue, a worker's hands, or resolved.
  std::deque<std::shared_ptr<Job>> ready[2];
  int queued_jobs = 0;      ///< admitted jobs not yet holding a tenant
  int active_tenants = 0;
  ServiceStats stats;

  /// Serializes tenant construction, so the pool counter deltas around
  /// one setup are that tenant's alone (the shared pool hands out arenas
  /// one at a time anyway).
  std::mutex setup_mutex;

  std::mutex join_mutex;
  std::vector<std::thread> threads;

  // -- scheduling ------------------------------------------------------

  [[nodiscard]] std::shared_ptr<Job> pop_runnable_locked() {
    for (auto& queue : ready) {
      for (auto it = queue.begin(); it != queue.end(); ++it) {
        // A fresh job needs a tenant slot; one mid-run already has its
        // tenant and is always runnable.
        if ((*it)->tenant == nullptr && !cancel_mode &&
            active_tenants >= max_tenants) {
          continue;
        }
        std::shared_ptr<Job> job = *it;
        queue.erase(it);
        return job;
      }
    }
    return nullptr;
  }

  [[nodiscard]] bool queues_empty() const {
    return ready[0].empty() && ready[1].empty();
  }

  /// Resolve \p job (mutex held): fill the result, free the tenant, wake
  /// waiters. The one place a job reaches a terminal status.
  void finalize_locked(const std::shared_ptr<Job>& job, JobStatus status,
                       std::string error) {
    JobResult& r = job->result;
    r.id = job->id;
    r.steps = job->steps.load(std::memory_order_relaxed);
    r.sim_time = job->load_sim_time();
    r.error = std::move(error);
    if (job->tenant) {
      Tenant& t = *job->tenant;
      r.counters = t.runtime->perf().published();
      if (status == JobStatus::kDone && job->spec.capture_state) {
        sim::Simulation& simulation = *t.simulation;
        r.final_state = canonical_state(simulation.mesh(),
                                        simulation.driver().sim_time());
        if (const flame::AdrFlame* f = simulation.flame()) {
          r.final_state.push_back(f->energy_released());
        }
      }
      if (status == JobStatus::kDone) {
        try {
          static_cast<void>(t.recording->finish());
        } catch (const std::exception& e) {
          FHP_LOG(kWarn) << "job " << job->id << ": timeline export to '"
                         << job->spec.timeline_path << "' failed: "
                         << e.what();
        }
      }
      job->tenant.reset();
      --active_tenants;
    } else if (job->status.load(std::memory_order_relaxed) ==
               JobStatus::kQueued) {
      --queued_jobs;
    }
    const Clock::time_point now = Clock::now();
    r.wall_seconds = seconds_between(job->submitted_at, now);
    r.queue_seconds = job->started
                          ? seconds_between(job->submitted_at, job->started_at)
                          : r.wall_seconds;
    r.status = status;
    job->status.store(status, std::memory_order_release);
    job->done = true;
    switch (status) {
      case JobStatus::kDone: ++stats.completed; break;
      case JobStatus::kFailed: ++stats.failed; break;
      case JobStatus::kCancelled: ++stats.cancelled; break;
      default: break;
    }
    done_cv.notify_all();
    work_cv.notify_all();  // a tenant slot may have been freed
  }

  [[nodiscard]] std::unique_ptr<Tenant> build_tenant(const JobSpec& spec,
                                                     JobId id) {
    auto tenant = std::make_unique<Tenant>();

    rt::RuntimeOptions ropts;
    ropts.lanes = spec.lanes;
    ropts.layout = spec.layout;
    ropts.policy = spec.policy;
    ropts.pool = pool;
    ropts.log_tag =
        spec.log_tag.empty() ? "job" + std::to_string(id) : spec.log_tag;
    tenant->runtime = std::make_unique<rt::Runtime>(ropts);
    rt::Runtime& runtime = *tenant->runtime;

    tenant->recording.emplace(runtime, spec.timeline_path);

    sim::DriverOptions dopts;
    dopts.nsteps = spec.nsteps;
    dopts.trace_sample = spec.trace_sample;
    dopts.verbose = false;
    tenant->simulation.emplace(problem_of(spec), runtime, dopts);
    return tenant;
  }

  /// Handle one popped job: construct its tenant if fresh, advance it by
  /// one quantum, then resolve or requeue. Enters and leaves with
  /// \p lock held; unlocks around the slow work.
  void process(std::unique_lock<std::mutex>& lock,
               const std::shared_ptr<Job>& job) {
    if (cancel_mode) {
      finalize_locked(job, JobStatus::kCancelled, {});
      return;
    }

    if (!job->tenant) {
      ++active_tenants;  // reserve the slot before dropping the lock
      lock.unlock();
      std::unique_ptr<Tenant> tenant;
      mem::PoolCounters delta;
      std::string error;
      {
        std::lock_guard<std::mutex> setup(setup_mutex);
        const mem::PoolCounters before = pool->counters();
        try {
          tenant = build_tenant(job->spec, job->id);
        } catch (const std::exception& e) {
          error = e.what();
        }
        delta = pool->counters().since(before);
      }
      lock.lock();
      job->result.pool = delta;
      if (!tenant) {
        --active_tenants;
        finalize_locked(job, JobStatus::kFailed, std::move(error));
        return;
      }
      job->tenant = std::move(tenant);
      job->started_at = Clock::now();
      job->started = true;
      --queued_jobs;
      job->status.store(JobStatus::kRunning, std::memory_order_release);
      if (cancel_mode) {  // shutdown(kCancel) raced the setup
        finalize_locked(job, JobStatus::kCancelled, {});
        return;
      }
    }

    sim::Driver& driver = job->tenant->simulation->driver();
    lock.unlock();
    bool finished = false;
    std::string error;
    try {
      for (int n = 0; n < quantum && !finished; ++n) {
        if (!driver.step_once()) {
          finished = true;
          break;
        }
        job->steps.store(driver.steps(), std::memory_order_relaxed);
        job->store_sim_time(driver.sim_time());
        if (driver.steps() >= job->spec.nsteps) finished = true;
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    lock.lock();
    if (!error.empty()) {
      finalize_locked(job, JobStatus::kFailed, std::move(error));
    } else if (cancel_mode) {
      finalize_locked(job, JobStatus::kCancelled, {});
    } else if (finished) {
      finalize_locked(job, JobStatus::kDone, {});
    } else {
      // Quantum spent: back of its class queue — round-robin fair share.
      const int cls =
          job->spec.deadline == DeadlineClass::kInteractive ? 0 : 1;
      ready[cls].push_back(job);
      work_cv.notify_one();
    }
  }

  void worker_main() {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      if (started) {
        if (std::shared_ptr<Job> job = pop_runnable_locked()) {
          ++inflight;
          process(lock, job);
          --inflight;
          if (stop) work_cv.notify_all();
          continue;
        }
        if (stop && inflight == 0 && queues_empty()) {
          work_cv.notify_all();
          return;
        }
      }
      work_cv.wait(lock);
    }
  }
};

// ------------------------------------------------------------- Service

Service::Service(ServiceOptions options) : impl_(std::make_unique<Impl>()) {
  const auto or_default = [](int value, int fallback) {
    return value > 0 ? value : fallback;
  };
  impl_->workers_n =
      options.workers > 0
          ? std::min(options.workers, par::kMaxLanes)
          : positive_int_from_environment(kSvcLanesEnvVar, 2, par::kMaxLanes);
  impl_->queue_capacity = or_default(options.queue_capacity, 16);
  impl_->max_tenants = or_default(options.max_tenants, 8);
  impl_->quantum = or_default(options.quantum_steps, 4);

  if (options.pool != nullptr) {
    impl_->pool = options.pool;
  } else {
    impl_->pool = &impl_->owned_pool;
    if (options.pool_config.has_value()) {
      impl_->owned_pool.init(*options.pool_config);
    }
  }

  impl_->started = !options.start_paused;
  impl_->threads.reserve(static_cast<std::size_t>(impl_->workers_n));
  for (int w = 0; w < impl_->workers_n; ++w) {
    impl_->threads.emplace_back([this] { impl_->worker_main(); });
  }
  FHP_LOG(kInfo) << "svc: service up, " << impl_->workers_n
                 << " workers, queue " << impl_->queue_capacity
                 << ", max_tenants " << impl_->max_tenants << ", quantum "
                 << impl_->quantum;
}

Service::~Service() { shutdown(Shutdown::kDrain); }

Submission Service::submit(JobSpec spec) {
  if (spec.lanes < 1 || spec.lanes > par::kMaxLanes || spec.nsteps < 1 ||
      spec.trace_sample < 0) {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    ++impl_->stats.rejected;
    return {0, RejectReason::kBadSpec};
  }
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (!impl_->accepting) {
    ++impl_->stats.rejected;
    return {0, RejectReason::kShuttingDown};
  }
  if (impl_->queued_jobs >= impl_->queue_capacity) {
    ++impl_->stats.rejected;
    return {0, RejectReason::kQueueFull};
  }
  auto job = std::make_shared<Job>();
  job->id = impl_->next_id++;
  job->spec = std::move(spec);
  job->submitted_at = Clock::now();
  impl_->jobs.emplace(job->id, job);
  const int cls = job->spec.deadline == DeadlineClass::kInteractive ? 0 : 1;
  impl_->ready[cls].push_back(job);
  ++impl_->queued_jobs;
  ++impl_->stats.submitted;
  impl_->work_cv.notify_one();
  return {job->id, RejectReason::kNone};
}

JobResult Service::wait(JobId id) {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end()) {
    throw ConfigError("svc: wait() on unknown job id " + std::to_string(id));
  }
  std::shared_ptr<Job> job = it->second;
  impl_->done_cv.wait(lock, [&job] { return job->done; });
  return job->result;
}

std::optional<JobProgress> Service::progress(JobId id) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end()) return std::nullopt;
  const std::shared_ptr<Job>& job = it->second;
  JobProgress p;
  p.status = job->status.load(std::memory_order_acquire);
  p.steps = job->steps.load(std::memory_order_relaxed);
  p.sim_time = job->load_sim_time();
  if (job->tenant) {
    // The tenant may be mid-step on its worker right now: published()
    // only touches the mutex-guarded copy, never the totals its replay
    // is writing.
    p.counters = job->tenant->runtime->perf().published();
  } else if (job->done) {
    p.counters = job->result.counters;
  }
  return p;
}

void Service::shutdown(Shutdown mode) {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (!impl_->stop) {
      impl_->stop = true;
      impl_->accepting = false;
      impl_->cancel_mode = (mode == Shutdown::kCancel);
      impl_->started = true;  // release a paused scheduler to dispose
    }
    impl_->work_cv.notify_all();
  }
  std::lock_guard<std::mutex> join(impl_->join_mutex);
  for (std::thread& t : impl_->threads) {
    if (t.joinable()) t.join();
  }
}

void Service::start() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->started = true;
  impl_->work_cv.notify_all();
}

ServiceStats Service::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  ServiceStats s = impl_->stats;
  s.queued = impl_->queued_jobs;
  s.active_tenants = impl_->active_tenants;
  return s;
}

mem::PagePool& Service::pool() noexcept { return *impl_->pool; }

int Service::workers() const noexcept { return impl_->workers_n; }

int Service::quantum_steps() const noexcept { return impl_->quantum; }

}  // namespace fhp::svc
