/// \file parallel.hpp
/// \brief Block-sweep worker pool: `fhp::par::ExecArena` and the
///        `parallel_for_blocks` family.
///
/// The paper's workloads are leaf-block sweeps over `unk` in which each
/// block touches only its own storage (interior plus pre-filled guard
/// cells), so the natural unit of parallelism is the block. This module
/// provides a small persistent worker pool with two execution models on
/// top of it:
///
///   - `ExecArena::parallel_for` / `parallel_for_blocks`: one
///     barrier-synchronized stage with *static chunking* — lane `i` of `L`
///     processes the contiguous index range `[i*n/L, (i+1)*n/L)`. Static
///     chunking is deliberate: the partition depends only on `(n, L)`,
///     never on timing, which is one half of the
///     bit-identical-across-thread-counts guarantee (the other half is
///     that parallelized loops write only per-block data; see DESIGN.md
///     "Threading model"). compute_dt and the per-unit solver calls use
///     these.
///   - `par::TaskGraph` (task_graph.hpp): per-block tasks with explicit
///     dependencies, executed by the same lanes with work-stealing
///     deques. The driver's fused timestep runs on it, overlapping
///     guard-fill, sweeps, flux fixups and EOS updates.
///
/// Execution arenas. The pool, its region guard and the lane count belong
/// to an `ExecArena`; there is no process-wide arena. Each rt::Runtime
/// owns one, so two runtimes can run regions concurrently without
/// tripping each other's nested-region `ConfigError`. An arena's lane
/// count is fixed at construction (0 = `FLASHHP_THREADS`, else 1), so
/// everything sized per lane (solver scratch, span reductions, span
/// rings) can be sized once.
///
/// With one lane every entry point degenerates to a plain serial loop on
/// the calling thread — no pool is created, no locks are taken — so
/// single-threaded builds pay nothing for this module's existence.
/// Within a parallel region the caller participates as lane 0 and
/// workers are lanes `1..L-1`; `lane()` returns the executing thread's
/// lane so per-lane scratch (pencil buffers, EOS rows, span rings) can be
/// indexed without synchronization.

#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>

#include "support/lane.hpp"

namespace fhp {
class RuntimeParams;
}  // namespace fhp

namespace fhp::trace {
class Sink;
}  // namespace fhp::trace

namespace fhp::par {

/// Environment variable consulted by `threads_from_environment`.
inline constexpr const char* kThreadsEnvVar = "FLASHHP_THREADS";

/// Hard ceiling on the number of lanes. Aliases the support-layer
/// constant so bottom-layer consumers (span reductions, span rings) need
/// not depend on this module.
inline constexpr int kMaxLanes = ::fhp::kMaxLanes;

/// Parses `FLASHHP_THREADS`; returns `fallback` when unset. Throws
/// `fhp::ConfigError` when set to a non-positive or non-numeric value.
/// Values above `kMaxLanes`, including ones too large for any integer
/// type, are clamped to `kMaxLanes`.
[[nodiscard]] int threads_from_environment(int fallback = 1);

/// Lane of the calling thread: 0 for the caller (and for all serial
/// code), `1..lanes-1` inside pool workers during a region.
/// Forwarding alias for `fhp::lane_id()` (support/lane.hpp).
[[nodiscard]] inline int lane() noexcept { return ::fhp::lane_id(); }

/// True while the *calling thread* is participating in a pooled parallel
/// region (any arena). Read-side telemetry helpers assert on this:
/// per-lane rings and span tables may only be drained from a thread
/// that is outside the region whose lanes wrote them (the pool handshake
/// is the happens-before edge that makes those reads safe). Thread-local
/// by design — runtime A draining its telemetry must not be blinded by
/// runtime B being mid-region on another thread.
[[nodiscard]] bool region_active() noexcept;

/// Registers the `par.threads` runtime parameter (default:
/// `threads_from_environment()`); rt::apply_runtime_params reads it into
/// `RuntimeOptions::lanes`.
void declare_runtime_params(RuntimeParams& params);

/// Per-lane ambient environment an arena applies on every participating
/// thread (caller lane 0 and each pool worker) for the duration of a
/// region. This is how an rt::Runtime's trace sink and log tag follow
/// its work onto pool lanes.
struct LaneEnv {
  /// Non-null: thread-locally bound as the trace sink while a region runs.
  trace::Sink* trace_sink = nullptr;
  /// Non-null: FHP_LOG lines from region lanes carry this tag.
  const char* log_tag = nullptr;
};

namespace detail {
class ThreadPool;
}  // namespace detail

/// One execution arena: a lane pool plus its own single-region guard.
/// Static chunking makes results bit-identical for a given lane count
/// regardless of which arena runs them. Construction is cheap (the pool
/// itself spins up lazily at the first multi-lane region). Regions on
/// *one* arena must not be nested or issued concurrently from two
/// threads (ConfigError, and a `-Wthread-safety` error first); regions
/// on *different* arenas may run concurrently.
class ExecArena {
 public:
  /// \param lanes fixed lane count for this arena; 0 = resolve
  ///        `threads_from_environment()` once, now. Clamped to
  ///        [1, kMaxLanes].
  /// \param env per-lane environment applied by every region (null =
  ///        none). The pointee must outlive the arena; rt::Runtime points
  ///        it at a member of itself.
  explicit ExecArena(int lanes = 0, const LaneEnv* env = nullptr);
  ~ExecArena();
  ExecArena(const ExecArena&) = delete;
  ExecArena& operator=(const ExecArena&) = delete;

  /// The arena's lane count, fixed at construction.
  [[nodiscard]] int lanes() const noexcept { return lanes_; }

  /// Runs `fn(lane, i)` for every `i` in `[0, n)`, statically chunked
  /// across `lanes()` lanes. Blocks until all lanes finish. The first
  /// exception thrown by any lane — including lane 0, the caller — is
  /// rethrown on the caller after every lane has stopped.
  void parallel_for(std::size_t n,
                    const std::function<void(int lane, std::size_t i)>& fn)
      FHP_EXCLUDES_REGION;

  /// Runs `fn(lane, block)` for every block id in `blocks` (typically
  /// the mesh's leaf list), statically chunked across `lanes()` lanes.
  void parallel_for_blocks(std::span<const int> blocks,
                           const std::function<void(int lane, int block)>& fn)
      FHP_EXCLUDES_REGION;

  /// Runs `body(lane)` exactly once on every lane (0..lanes()-1)
  /// concurrently, inside one pooled parallel region. This is the
  /// substrate both execution models share: `parallel_for` hands each
  /// lane its static chunk, and `TaskGraph::run` hands each lane its
  /// scheduler loop. With one lane the body runs once, serially, on the
  /// caller — no pool, no locks. Same exception contract as
  /// parallel_for.
  void run_region(const std::function<void(int lane)>& body)
      FHP_EXCLUDES_REGION;

 private:
  /// The pool, started at the first call. Called only under the region
  /// guard, which makes regions on one arena exclusive.
  [[nodiscard]] detail::ThreadPool& pool() FHP_REQUIRES_REGION;

  const int lanes_;
  std::unique_ptr<detail::ThreadPool> pool_;  // touched under active_
  std::atomic<bool> active_{false};
  const LaneEnv* const env_;
};

}  // namespace fhp::par
