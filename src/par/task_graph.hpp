/// \file task_graph.hpp
/// \brief Block-task DAG executed by the lane pool with work stealing.
///
/// The barrier loops of `parallel_for_blocks` make every lane wait for
/// the slowest block of every phase: guard-fill, sweep, flux fixup and
/// EOS update each drain the pool before the next phase starts. The
/// paper's workload is memory-latency bound (huge pages cut DTLB misses
/// 21x yet buy ~2% wall time), so the remaining win is *overlap* —
/// a block's sweep is runnable the moment its own guard cells are
/// filled, regardless of how far the rest of the level has gotten.
/// TaskGraph is that execution model: the driver submits per-block tasks
/// with explicit dependencies at setup time, and `run()` executes the
/// whole step on the existing lane pool with per-lane work-stealing
/// deques instead of barriers.
///
/// Contracts, extending the `parallel_for` ones (parallel.hpp):
///
///   - **Single driver thread.** Graphs are built, frozen and run from
///     one thread; `run()` claims the same single-region slot as
///     `parallel_for` (a nested run is a ConfigError and, under clang,
///     a -Wthread-safety error via FHP_EXCLUDES_REGION).
///   - **Region capability.** Task bodies execute on pool lanes holding
///     the per-lane writer role: a body that writes lane-private state
///     (span rings, scratch) or block data asserts it with a
///     `RegionWitness`, exactly like a `parallel_for` lambda. The
///     compile_fail suite pins that a lane-private write inside a task
///     body without a witness still fails -Wthread-safety.
///   - **Allocation freedom.** Construction (`add_task`, `add_edge`,
///     `freeze`) allocates; `run()` is allocation-free on the hot path —
///     fixed-capacity deques are sized at `freeze()` for the arena's
///     lane count, which is fixed at its construction.
///   - **Determinism.** Physics and published counters must be
///     bit-identical regardless of steal order and lane count. The graph
///     guarantees *ordering* (a task runs after its dependencies); the
///     submitted bodies guarantee *commutativity* (per-block writes
///     only, serial leaf-order FP reductions outside the graph). Task
///     bodies write no counter: the machine-model replay, serial on the
///     driver thread, is the counters' one writer. Per-task spans time
///     every lane.
///
/// `run_serial(Schedule::kReverse / kRandom, seed)` executes the graph
/// on the calling thread in an adversarial-but-legal ready order; tests
/// use it to assert that dependency edges, not scheduling luck, carry
/// the correctness argument.

#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "support/contracts.hpp"
#include "support/lane.hpp"

namespace fhp::par {

class ExecArena;

class TaskGraph {
 public:
  /// Dense task handle, assigned by add_task in submission order.
  using TaskId = int;

  /// Ready-queue policy for run_serial (single-threaded replays).
  enum class Schedule {
    kFifo,     ///< submission order among ready tasks
    kReverse,  ///< always the most recently readied task
    kRandom,   ///< seeded xorshift pick among ready tasks
  };

  /// \param arena the execution arena run() schedules on; it must
  ///        outlive the graph. The driver's step graphs pass the mesh's
  ///        arena, so a step claims its own runtime's region slot.
  explicit TaskGraph(ExecArena& arena) : arena_(arena) {}
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Submit one task. \p name must be a static-storage string literal —
  /// it doubles as the task's trace-span name, and the span ring keeps
  /// the pointer. Setup-time: allocates. Returns the task's id.
  TaskId add_task(const char* name, std::function<void(int lane)> body);

  /// Declare that \p before must complete before \p after may start.
  /// Setup-time: allocates. Self-edges and duplicate edges are rejected
  /// with ConfigError (a duplicate would double-count the dependency).
  void add_edge(TaskId before, TaskId after);

  /// Validate the graph (cycle -> fhp::ConfigError, reported with the
  /// names of the tasks on the cycle) and size all runtime state for the
  /// arena's lanes. Must be called once after construction;
  /// add_task/add_edge after freeze() throw.
  void freeze() FHP_EXCLUDES_REGION;

  /// Execute every task, honoring the dependency edges, on the lane
  /// pool with work-stealing deques. Allocation-free (see file comment).
  /// The first exception thrown by a task body aborts the remaining
  /// bodies (completions still propagate, so termination is guaranteed)
  /// and is rethrown here after every lane has stopped.
  void run() FHP_EXCLUDES_REGION;

  /// Execute every task on the calling thread (lane 0) in a
  /// deterministic adversarial ready order — for dependency tests.
  void run_serial(Schedule mode, std::uint64_t seed = 0)
      FHP_EXCLUDES_REGION;

  /// Number of submitted tasks.
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

  [[nodiscard]] bool frozen() const noexcept { return frozen_; }

  /// Discard all tasks and edges; the graph can be rebuilt and frozen
  /// again (the driver does this after every remesh).
  void clear();

 private:
  struct Node {
    const char* name;                  ///< static-storage span name
    std::function<void(int)> body;
    std::vector<TaskId> successors;
    int indegree = 0;
  };

  /// Fixed-capacity Chase-Lev-style deque. Capacity is the task count:
  /// every task is pushed exactly once per run (by the lane that makes
  /// it ready), so indices never wrap within a run. All top_/bottom_
  /// accesses are seq_cst atomic operations — deliberately no
  /// std::atomic_thread_fence, which ThreadSanitizer does not model —
  /// and the slots themselves are atomics so the owner's push and a
  /// thief's read are never a plain-memory race.
  struct alignas(64) Deque {
    std::atomic<std::int64_t> top{0};
    std::atomic<std::int64_t> bottom{0};
    std::unique_ptr<std::atomic<TaskId>[]> slots;

    FHP_NO_ALLOC void push(TaskId t) noexcept;
    /// Owner-side pop (LIFO). Returns -1 when empty.
    FHP_NO_ALLOC TaskId take() noexcept;
    /// Thief-side steal (FIFO). Returns -1 when empty or lost the race.
    FHP_NO_ALLOC TaskId steal() noexcept;
  };

  void require_building(const char* what) const;
  void reset_run_state() noexcept;
  void scheduler_loop(int lane) noexcept;
  FHP_NO_ALLOC void execute_task(TaskId t, int lane) noexcept;
  void finish_run();

  ExecArena& arena_;
  std::vector<Node> nodes_;
  bool frozen_ = false;

  // --- runtime state, sized at freeze() --------------------------------
  std::vector<std::atomic<int>> remaining_;  ///< unmet deps per task
  std::vector<Deque> deques_;           ///< one per lane
  std::atomic<std::int64_t> unfinished_{0};
  std::atomic<bool> abort_{false};
  std::exception_ptr first_error_;
  std::mutex error_mutex_;

  // run_serial scratch, sized at freeze (kept allocation-free too so the
  // adversarial replays are usable inside FHP_NO_ALLOC-audited tests).
  std::vector<TaskId> ready_scratch_;
};

}  // namespace fhp::par
