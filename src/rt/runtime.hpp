/// \file runtime.hpp
/// \brief fhp::rt::Runtime — the explicit per-tenant runtime context.
///
/// The paper measures one FLASH instance per node, but the roadmap's
/// north star is a service batching many concurrent simulations per
/// process. Runtime packages the services a simulation needs as an
/// explicitly constructed context — each simulation tenant owns (or is
/// handed) its own copy, so two sim::Drivers in one process keep their
/// counters, allocations, parallel regions, trace spans and log lines
/// fully separate, and each run is bit-identical to the same run solo.
///
/// What a Runtime owns:
///   - a perf::PerfContext (counters, regions, publish snapshots) — the
///     one context its Driver's regions, its machine model and its
///     step-boundary publishes land in,
///   - a mem::PagePool handle — private by default (configured from
///     RuntimeOptions::pool_config, else from the environment), or a
///     shared pool injected via RuntimeOptions::pool (tenants sharing one
///     reserved hugetlb inventory),
///   - a par::ExecArena — its own lane pool and region guard, so
///     concurrent runtimes never trip each other's nested-region
///     ConfigError,
///   - the resolved mesh::LayoutKind / mem::HugePolicy configuration
///     snapshot (explicit option, else the environment, else the
///     built-in default); setups built on the runtime allocate with its
///     huge_policy(),
///   - a perf::Timers, the exact reduction of every span closed on its
///     driver thread and pool lanes — the sink they bind while working
///     (see trace::SinkBinding) — and the log tag they bind with it
///     (fhp::LogTagScope).
///
/// There is no process-default runtime: every entry point (example,
/// bench, test, service tenant) constructs one. What stays process-wide,
/// by design: the Logger sink itself (one log stream per process, like
/// FLASH's flash.log — runtimes are told apart by their log tag),
/// signal/environment state, and the runtime-params registry. See
/// DESIGN.md "Runtime context model".

#pragma once

#include <memory>
#include <optional>
#include <string>

#include "mem/huge_policy.hpp"
#include "mem/page_pool.hpp"
#include "mesh/layout.hpp"
#include "par/parallel.hpp"
#include "perf/perf_context.hpp"
#include "perf/timers.hpp"
#include "support/log.hpp"
#include "support/trace.hpp"

namespace fhp {
class RuntimeParams;
}  // namespace fhp

namespace fhp::rt {

/// Construction-time configuration for a Runtime. Everything defaults
/// to "resolve from the environment": 0 lanes = FLASHHP_THREADS (else
/// 1), nullopt layout = FLASHHP_LAYOUT (else var_major), nullopt policy =
/// FLASHHP_HPAGE_TYPE / XOS_MMM_L_HPAGE_TYPE (else none), null pool = a
/// private pool initialized from `pool_config`, or from the environment
/// on first allocation. rt::apply_runtime_params() fills these from
/// `--par.threads` / `--mesh.layout` / `--mem.hpage_type` /
/// `--mem.page_pool`.
struct RuntimeOptions {
  /// Lane count for this runtime's ExecArena; 0 = resolve
  /// FLASHHP_THREADS / 1, once, at construction.
  int lanes = 0;
  /// Block-data layout; nullopt = FLASHHP_LAYOUT / var_major, resolved
  /// once at construction.
  std::optional<mesh::LayoutKind> layout;
  /// Huge-page policy; nullopt = FLASHHP_HPAGE_TYPE / kNone, resolved
  /// once at construction.
  std::optional<mem::HugePolicy> policy;
  /// Non-null: carve from this shared pool instead of a private one.
  /// The pool must outlive the runtime.
  mem::PagePool* pool = nullptr;
  /// Config the private pool is initialized with at construction
  /// (ignored when `pool` is set); nullopt = initialize it from the
  /// environment on first allocation.
  std::optional<mem::PagePoolConfig> pool_config;
  /// Non-empty: log lines from this runtime's driver thread and lanes
  /// are prefixed "[tag]" so interleaved-sim logs stay attributable.
  std::string log_tag;
};

/// Declares the parameters that configure a runtime: `par.threads`,
/// `mesh.layout`, `mem.hpage_type` and `mem.page_pool`.
void declare_runtime_params(RuntimeParams& params);

/// Reads the parameters declared above (after apply_command_line) into
/// RuntimeOptions, with the same meaning their environment twins have;
/// `mem.page_pool` lands in `pool_config`. Touches no
/// process-wide state. Throws ConfigError on unparsable values.
[[nodiscard]] RuntimeOptions apply_runtime_params(const RuntimeParams& params);

/// The per-tenant context. Not copyable or movable: meshes, drivers and
/// arenas hold references into it, so construct it first and keep it
/// alive past everything built on it.
class Runtime {
 public:
  explicit Runtime(RuntimeOptions options = {});
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// This runtime's performance counters and region registry.
  [[nodiscard]] perf::PerfContext& perf() const noexcept { return *perf_; }

  /// The pool this runtime's unk array and EOS table carve from.
  [[nodiscard]] mem::PagePool& page_pool() const noexcept { return *pool_; }

  /// The execution arena this runtime's parallel regions run on.
  [[nodiscard]] par::ExecArena& arena() const noexcept { return *arena_; }

  /// Lane count of the arena.
  [[nodiscard]] int lanes() const noexcept { return arena_->lanes(); }

  /// The block-data layout resolved at construction.
  [[nodiscard]] mesh::LayoutKind layout() const noexcept { return layout_; }

  /// The huge-page policy resolved at construction.
  [[nodiscard]] mem::HugePolicy huge_policy() const noexcept {
    return policy_;
  }

  /// The exact reduction of this runtime's spans: the FLASH timer table.
  /// Sized to lanes() at construction.
  [[nodiscard]] perf::Timers& timers() noexcept { return timers_; }
  [[nodiscard]] const perf::Timers& timers() const noexcept {
    return timers_;
  }

  /// Install (or clear, with null) the sink that also receives this
  /// runtime's spans and step marks, downstream of timers() (see
  /// perf::Timers::set_downstream). Setup-time, driver thread, outside
  /// evolve(), no span open. Two runtimes trace to two sinks
  /// concurrently.
  void set_trace_sink(trace::Sink* sink) noexcept {
    timers_.set_downstream(sink);
  }
  [[nodiscard]] trace::Sink* trace_sink() const noexcept {
    return timers_.downstream();
  }

  /// The tag prefixing this runtime's log lines ("" = untagged).
  [[nodiscard]] const std::string& log_tag() const noexcept {
    return log_tag_;
  }

  /// RAII: binds the runtime's timers() as the span sink and its log tag
  /// (when non-empty) to the calling thread. The driver opens one over
  /// each step; anything else running work for a runtime on its own
  /// thread (setup, checkpointing, report rendering) can do the same.
  /// Scopes nest and restore on destruction.
  class BindScope {
   public:
    explicit BindScope(const Runtime& runtime);
    BindScope(const BindScope&) = delete;
    BindScope& operator=(const BindScope&) = delete;

   private:
    trace::SinkBinding sink_;
    std::optional<LogTagScope> tag_;
  };

 private:
  std::unique_ptr<perf::PerfContext> perf_;
  std::unique_ptr<mem::PagePool> owned_pool_;  ///< null when shared
  mem::PagePool* pool_ = nullptr;              ///< never null
  std::unique_ptr<par::ExecArena> arena_;
  perf::Timers timers_;  ///< sized by arena_, so declared after it

  mesh::LayoutKind layout_;
  mem::HugePolicy policy_;

  std::string log_tag_;
  /// The per-lane environment the arena applies during regions; points
  /// at stable storage in this object.
  par::LaneEnv env_;
};

}  // namespace fhp::rt
