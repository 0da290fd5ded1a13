#include "par/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hpp"
#include "support/log.hpp"
#include "support/runtime_params.hpp"
#include "support/trace.hpp"

namespace fhp::par {

namespace {

int clamp_lanes(int n) {
  if (n < 1) return 1;
  if (n > kMaxLanes) return kMaxLanes;
  return n;
}

/// Pooled-region participation depth of the calling thread. Incremented
/// on every lane (caller and workers) for the duration of its chunk;
/// region_active() reads it. Thread-local so that one runtime draining
/// telemetry is not confused with another runtime being mid-region.
thread_local constinit int t_region_depth = 0;

/// Applies an arena's LaneEnv to the calling thread: trace-sink binding
/// and log tag. No-op (and no TLS writes beyond the optionals' flags)
/// when env is null or empty. Does not allocate — TaskGraph's scheduler
/// region runs under FHP_NO_ALLOC.
class EnvBinding {
 public:
  explicit EnvBinding(const LaneEnv* env) {
    if (env == nullptr) return;
    if (env->trace_sink != nullptr) sink_.emplace(env->trace_sink);
    if (env->log_tag != nullptr) tag_.emplace(env->log_tag);
  }
  EnvBinding(const EnvBinding&) = delete;
  EnvBinding& operator=(const EnvBinding&) = delete;

 private:
  std::optional<trace::SinkBinding> sink_;
  std::optional<LogTagScope> tag_;
};

/// Full per-lane region scope: the env binding plus the thread-local
/// region-participation mark. Constructed around run_chunk on every
/// participating thread of a pooled region (serial paths apply only the
/// EnvBinding — with one lane there is no quiescence hazard to flag).
class LaneBinding {
 public:
  explicit LaneBinding(const LaneEnv* env) : env_(env) { ++t_region_depth; }
  ~LaneBinding() { --t_region_depth; }
  LaneBinding(const LaneBinding&) = delete;
  LaneBinding& operator=(const LaneBinding&) = delete;

 private:
  EnvBinding env_;
};

/// RAII claim on an arena's single-region slot. Modeled as acquiring the
/// support-layer region capability (support/lane.hpp): while a guard is
/// alive the arena's lanes hold the per-lane writer role, so the
/// thread-safety analysis rejects a nested parallel_for (which is
/// FHP_EXCLUDES_REGION) at compile time; the runtime exchange() below
/// stays as the defense against unannotated callers. The flag is
/// per-arena, so two arenas (two runtimes) may be mid-region at once.
class FHP_SCOPED_CAPABILITY RegionGuard {
 public:
  explicit RegionGuard(std::atomic<bool>& active)
      FHP_ACQUIRE(::fhp::region_cap)
      : active_(active) {
    FHP_REQUIRE(!active_.exchange(true, std::memory_order_acquire),
                "parallel_for: regions on one arena must not be nested or "
                "issued concurrently from two threads");
  }
  RegionGuard(const RegionGuard&) = delete;
  RegionGuard& operator=(const RegionGuard&) = delete;
  ~RegionGuard() FHP_RELEASE() {
    active_.store(false, std::memory_order_release);
  }

 private:
  std::atomic<bool>& active_;
};

}  // namespace

namespace detail {

/// Persistent worker pool. Workers sleep on a condition variable between
/// regions; a region is published as a monotonically increasing
/// generation number plus a task body, and completion is counted back
/// under the same mutex. std::mutex (not fhp::Mutex) because
/// std::condition_variable requires it; the lock discipline here is
/// local to this file. The owning arena starts it at its first pooled
/// region; the workers join when the arena is destroyed.
class ThreadPool {
 public:
  explicit ThreadPool(int lanes) : lanes_(lanes) {
    workers_.reserve(static_cast<std::size_t>(lanes_ - 1));
    for (int lane = 1; lane < lanes_; ++lane) {
      workers_.emplace_back([this, lane] { worker_main(lane); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  /// Runs `fn(lane, i)` for i in [0, n), lane l covering the static
  /// chunk [l*n/L, (l+1)*n/L), with \p env applied on every lane for the
  /// duration of its chunk. Rethrows the first captured exception — only
  /// after every lane has stopped, even when the throwing lane is the
  /// caller itself: workers may still be inside `fn`, which lives in the
  /// caller's frame, so unwinding before the handshake would be a
  /// use-after-free (and would leave pending_ poisoned for the next
  /// region).
  void run(std::size_t n, const std::function<void(int, std::size_t)>& fn,
           const LaneEnv* env) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      task_fn_ = &fn;
      task_n_ = n;
      task_env_ = env;
      pending_ = lanes_ - 1;
      first_error_ = nullptr;
      ++generation_;
    }
    start_cv_.notify_all();

    try {
      LaneBinding binding(env);
      run_chunk(0, n, fn);  // the caller participates as lane 0
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }

    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    task_fn_ = nullptr;
    if (first_error_) std::rethrow_exception(first_error_);
  }

 private:
  void worker_main(int lane) {
    ::fhp::detail::bind_lane(lane);
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int, std::size_t)>* fn = nullptr;
      std::size_t n = 0;
      const LaneEnv* env = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        start_cv_.wait(lock,
                       [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        fn = task_fn_;
        n = task_n_;
        env = task_env_;
      }
      try {
        LaneBinding binding(env);
        run_chunk(lane, n, *fn);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --pending_;
      }
      done_cv_.notify_one();
    }
  }

  void run_chunk(int lane, std::size_t n,
                 const std::function<void(int, std::size_t)>& fn) const {
    const auto lanes = static_cast<std::size_t>(lanes_);
    const auto l = static_cast<std::size_t>(lane);
    const std::size_t begin = l * n / lanes;
    const std::size_t end = (l + 1) * n / lanes;
    for (std::size_t i = begin; i < end; ++i) fn(lane, i);
  }

  const int lanes_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int, std::size_t)>* task_fn_ = nullptr;
  std::size_t task_n_ = 0;
  const LaneEnv* task_env_ = nullptr;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace detail

int threads_from_environment(int fallback) {
  return clamp_lanes(
      positive_int_from_environment(kThreadsEnvVar, fallback, kMaxLanes));
}

bool region_active() noexcept { return t_region_depth > 0; }

void declare_runtime_params(RuntimeParams& params) {
  params.declare_int("par.threads", threads_from_environment(1),
                     "worker lanes for block-parallel sweeps "
                     "(FLASHHP_THREADS)");
}

ExecArena::ExecArena(int lanes, const LaneEnv* env)
    : lanes_(lanes == 0 ? threads_from_environment(1) : clamp_lanes(lanes)),
      env_(env) {}

ExecArena::~ExecArena() = default;

detail::ThreadPool& ExecArena::pool() {
  if (pool_ == nullptr) pool_ = std::make_unique<detail::ThreadPool>(lanes_);
  return *pool_;
}

void ExecArena::parallel_for(
    std::size_t n, const std::function<void(int lane, std::size_t i)>& fn) {
  if (lanes_ == 1 || n < 2) {
    EnvBinding binding(env_);
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  RegionGuard guard(active_);
  pool().run(n, fn, env_);
}

void ExecArena::parallel_for_blocks(
    std::span<const int> blocks,
    const std::function<void(int lane, int block)>& fn) {
  parallel_for(blocks.size(),
               [&](int lane, std::size_t i) { fn(lane, blocks[i]); });
}

void ExecArena::run_region(const std::function<void(int lane)>& body) {
  if (lanes_ == 1) {
    EnvBinding binding(env_);
    body(0);
    return;
  }
  RegionGuard guard(active_);
  // With n == lanes the static chunk of lane l is exactly {l}, so the
  // pool's run() degenerates to "each lane executes the body once".
  pool().run(static_cast<std::size_t>(lanes_),
             [&body](int lane, std::size_t /*i*/) { body(lane); }, env_);
}

}  // namespace fhp::par
