/// \file trace.hpp
/// \brief The thread-bound span-tracing facade behind FHP_TRACE_SPAN.
///
/// Physics kernels (mesh, hydro, flame) and the driver mark timed scopes
/// with FHP_TRACE_SPAN, but what records those spans lives higher in the
/// module DAG: perf::Timers reduces them and obs::Telemetry keeps their
/// timeline. The layers in between may not include obs (the layering
/// rule in tools/fhp_analyze.py makes that an error), so this facade
/// inverts the dependency: support defines the abstract Sink and a
/// thread-local binding slot, and everything in between depends only on
/// support. There is no process-wide sink: a span reaches a sink only on
/// a thread that has one bound (SinkBinding). Every rt::Runtime binds its
/// perf::Timers on its driver thread during a step (Runtime::BindScope)
/// and on its arena's lanes during a region; an installed obs::Telemetry
/// receives the spans downstream of it.
///
/// The cost contract: on a thread with no sink bound a SpanScope is one
/// thread-local load and a branch — no clock read, no allocation, no
/// virtual call. Under a runtime it is two clock reads and one table
/// update, still with no allocation (tests/test_obs.cpp holds both with
/// an allocation-counting guard).
///
/// Threading contract: spans may close on the driver thread and on pool
/// lanes inside a parallel region — each records only against its own
/// lane (see support/lane.hpp for the writer-role capability this maps
/// to).

#pragma once

#include <cstdint>

#include "support/lane.hpp"

namespace fhp::trace {

/// Abstract span sink. Implemented by perf::Timers and obs::Telemetry;
/// the virtual calls are intentionally unannotated for the thread-safety
/// analysis — each implementation asserts its own writer-role invariants
/// (per-lane single-writer tables and rings) where it touches
/// lane-private storage.
class Sink {
 public:
  Sink() = default;
  virtual ~Sink() = default;
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  /// Current timestamp in nanoseconds (SpanScope reads it twice).
  [[nodiscard]] virtual std::uint64_t now_ns() const = 0;

  /// One closed span, recorded against \p lane. Hot path: must not
  /// block and must not allocate.
  virtual void record_span(int lane, const char* name,
                           std::uint64_t begin_ns, std::uint64_t end_ns,
                           std::uint16_t depth) noexcept = 0;

  /// Timeline annotation for a completed driver step (driver thread
  /// only, between regions).
  virtual void mark_step(int step, double sim_time, double dt) = 0;
};

namespace detail {
/// The calling thread's bound sink (null = tracing disabled). constinit
/// thread_local for the same reason as fhp::detail::t_lane — a constant
/// initializer keeps the access a plain TLS load with no `_ZTH` wrapper
/// (see support/lane.hpp for the full rationale).
extern thread_local constinit Sink* t_sink;
/// Per-thread span nesting depth bookkeeping for SpanScope.
[[nodiscard]] std::uint16_t enter_span() noexcept;
void exit_span() noexcept;
}  // namespace detail

/// The sink bound to the calling thread (see SinkBinding). Null =
/// tracing disabled for this thread.
[[nodiscard]] inline Sink* sink() noexcept { return detail::t_sink; }

/// RAII thread-local sink binding: while alive, this thread's spans,
/// step marks and SpanScopes resolve to \p s (null disables them). This
/// is how an rt::Runtime scopes its span reduction to its own driver
/// thread and pool lanes: the driver binds over each step, and par
/// applies the owning arena's LaneEnv on every worker lane for the
/// duration of a region. Bindings nest (save/restore), and each binds only the
/// constructing thread.
class SinkBinding {
 public:
  explicit SinkBinding(Sink* s) noexcept : saved_sink_(detail::t_sink) {
    detail::t_sink = s;
  }
  ~SinkBinding() { detail::t_sink = saved_sink_; }
  SinkBinding(const SinkBinding&) = delete;
  SinkBinding& operator=(const SinkBinding&) = delete;

 private:
  Sink* saved_sink_;
};

/// Forward a completed driver step to the calling thread's sink (no-op
/// when tracing is disabled). Driver thread only, between regions — hence
/// FHP_EXCLUDES_REGION.
void step_mark(int step, double sim_time, double dt) FHP_EXCLUDES_REGION;

/// RAII span scope: records {name, begin, end, depth, lane} into the
/// calling thread's sink on destruction; a no-op (one thread-local load)
/// when none is bound. Use through FHP_TRACE_SPAN.
class SpanScope {
 public:
  explicit SpanScope(const char* name) {
    Sink* s = trace::sink();
    if (s == nullptr) return;
    sink_ = s;
    name_ = name;
    depth_ = detail::enter_span();
    begin_ns_ = s->now_ns();
  }
  ~SpanScope() {
    if (sink_ == nullptr) return;
    const std::uint64_t end_ns = sink_->now_ns();
    detail::exit_span();
    sink_->record_span(::fhp::lane_id(), name_, begin_ns_, end_ns, depth_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Sink* sink_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t begin_ns_ = 0;
  std::uint16_t depth_ = 0;
};

}  // namespace fhp::trace

// NOLINTNEXTLINE(cppcoreguidelines-macro-usage) — needs __LINE__ pasting.
#define FHP_TRACE_CONCAT_(a, b) a##b
#define FHP_TRACE_CONCAT(a, b) FHP_TRACE_CONCAT_(a, b)
/// Trace the enclosing scope as a span named \p name (a string literal).
#define FHP_TRACE_SPAN(name) \
  ::fhp::trace::SpanScope FHP_TRACE_CONCAT(fhp_trace_span_, __LINE__)(name)
