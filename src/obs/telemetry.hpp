/// \file telemetry.hpp
/// \brief The obs::Telemetry context and the FHP_TRACE_SPAN macro.
///
/// Telemetry is to observability what perf::PerfContext is to counters:
/// an explicit object you construct alongside the PerfContext, thread
/// through sim::DriverUnits, and read results from — per-lane span rings,
/// per-name latency histograms, step marks — before exporting the whole
/// run as a chrome://tracing / Perfetto timeline (obs/timeline.hpp).
///
/// A Telemetry is *installed* on one rt::Runtime and receives the spans
/// recorded on that runtime's driver thread and arena lanes. The binding
/// slot itself lives one layer down, in support/trace.hpp —
/// FHP_TRACE_SPAN and the SpanScope that physics kernels use consult the
/// support-layer facade, so mesh/hydro/sim never include this module
/// (the module DAG puts obs on top; tools/fhp_analyze.py enforces it).
/// Telemetry is the facade's in-tree trace::Sink implementation. The
/// disabled path is the design's contract: with no sink bound a span
/// scope is one thread-local load and a branch — no clock read, no
/// allocation, no syscall — so an untraced run pays nothing on the
/// block-sweep hot path (tests/test_obs.cpp holds this with an
/// allocation-counting guard).
///
/// Threading contract (mirrors perf_context.hpp): spans may be recorded
/// by the driver thread and by pool lanes inside a parallel region —
/// each writes only its own lane's ring. install()/uninstall() and all
/// read-side methods (rings, histograms, export) are driver-thread-only,
/// outside any region. Background threads (the obs::Sampler) must not
/// record spans.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/span.hpp"
#include "par/parallel.hpp"
#include "support/trace.hpp"

namespace fhp {
class RuntimeParams;
}  // namespace fhp

namespace fhp::rt {
class Runtime;  // rt/runtime.hpp — per-runtime install target
}  // namespace fhp::rt

namespace fhp::obs {

/// Construction-time knobs. The defaults trace a full Sedov run (~1e5
/// spans) in ~512 KiB per lane.
struct TelemetryOptions {
  /// Span records retained per lane before oldest-dropped kicks in.
  std::size_t ring_capacity = std::size_t{1} << 14;
  /// Lane rings to allocate; 0 means `par::threads_from_environment()`,
  /// the lane count a default-constructed rt::Runtime resolves. Spans
  /// from lanes beyond this count are counted, not stored.
  int lanes = 0;
  /// Timestamp source in nanoseconds; null = steady_clock. Injectable so
  /// tests drive deterministic timelines.
  std::function<std::uint64_t()> clock;
};

/// The observability context: owns the per-lane span rings and the step
/// marks, builds per-name latency histograms, and (while installed on a
/// runtime) is the trace::Sink behind that runtime's FHP_TRACE_SPANs.
class Telemetry final : public trace::Sink {
 public:
  explicit Telemetry(TelemetryOptions options = {});
  ~Telemetry() override;
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Publish this context as \p runtime's span sink: spans recorded on
  /// the runtime's arena lanes — and on the driver thread inside a
  /// Driver step or a Runtime::BindScope — route here, so interleaved
  /// runtimes keep separate timelines. Size `TelemetryOptions::lanes`
  /// to the runtime's lane count. Throws fhp::ConfigError if \p runtime
  /// already has a sink. The runtime must outlive this Telemetry (or
  /// uninstall() first).
  void install(rt::Runtime& runtime) FHP_EXCLUDES_REGION;

  /// Withdraw from the bound runtime (idempotent; the destructor calls
  /// it). Only legal when no region is in flight and no span is open.
  void uninstall() noexcept FHP_EXCLUDES_REGION;

  /// Current timestamp from the injected clock.
  [[nodiscard]] std::uint64_t now_ns() const override { return clock_(); }

  /// Record one closed span against \p lane's ring (hot path; requires
  /// the per-lane writer role — the caller must be the thread running as
  /// that lane). Lanes beyond the ring count are tallied as dropped.
  FHP_NO_ALLOC void record(int lane, const SpanRecord& rec) noexcept
      FHP_REQUIRES_REGION {
    if (lane >= 0 && lane < static_cast<int>(rings_.size())) {
      rings_[static_cast<std::size_t>(lane)].push(rec);
    } else {
      overflow_drops_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// trace::Sink hot path: a SpanScope closed on lane \p lane. Defined
  /// out of line — it asserts the writer role before forwarding to
  /// record() (the recording thread *is* that lane, by construction).
  void record_span(int lane, const char* name, std::uint64_t begin_ns,
                   std::uint64_t end_ns, std::uint16_t depth) noexcept
      override;

  /// Annotate the timeline with a completed driver step (driver thread
  /// only; rendered as instant events carrying step/t/dt).
  struct StepMark {
    int step = 0;
    std::uint64_t t_ns = 0;
    double sim_time = 0.0;
    double dt = 0.0;
  };
  void mark_step(int step, double sim_time, double dt) override;

  // ---- read side: driver thread, after lanes quiesce -----------------
  [[nodiscard]] int lanes() const noexcept {
    return static_cast<int>(rings_.size());
  }
  [[nodiscard]] const SpanRing& ring(int lane) const FHP_EXCLUDES_REGION;
  [[nodiscard]] const std::vector<StepMark>& step_marks() const noexcept {
    return step_marks_;
  }

  /// Spans recorded over all lanes (retained + dropped).
  [[nodiscard]] std::uint64_t total_spans() const noexcept
      FHP_EXCLUDES_REGION;

  /// Spans lost to ring overwrite or out-of-range lanes.
  [[nodiscard]] std::uint64_t dropped_spans() const noexcept
      FHP_EXCLUDES_REGION;

  /// Per-span-name latency histograms (end - begin, ns), merged across
  /// every lane's retained records.
  [[nodiscard]] std::map<std::string, Histogram, std::less<>>
  latency_histograms() const FHP_EXCLUDES_REGION;

 private:
  std::vector<SpanRing> rings_;
  std::vector<StepMark> step_marks_;
  std::function<std::uint64_t()> clock_;
  std::atomic<std::uint64_t> overflow_drops_{0};
  rt::Runtime* runtime_ = nullptr;  ///< per-runtime install target
};

/// Environment variable naming the timeline output path ("" = disabled).
inline constexpr const char* kTimelineEnvVar = "FLASHHP_TELEMETRY";
/// Environment variable overriding the sampler cadence in milliseconds.
inline constexpr const char* kSampleMsEnvVar = "FLASHHP_SAMPLE_MS";

/// FLASHHP_TELEMETRY's value, or "" when unset (telemetry off).
[[nodiscard]] std::string timeline_from_environment();

/// FLASHHP_SAMPLE_MS as a positive integer, clamped to INT_MAX;
/// \p fallback when unset. Throws fhp::ConfigError on a non-positive or
/// non-numeric value.
[[nodiscard]] int sample_ms_from_environment(int fallback);

/// Registers `obs.timeline` (default: FLASHHP_TELEMETRY) and
/// `obs.sample_ms` (default: FLASHHP_SAMPLE_MS or 10).
void declare_runtime_params(RuntimeParams& params);

}  // namespace fhp::obs
