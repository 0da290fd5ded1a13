/// \file telemetry.hpp
/// \brief obs::Telemetry: the span rings and step marks a timeline draws.
///
/// Every span closed on an rt::Runtime's driver thread or arena lanes is
/// reduced exactly into the runtime's perf::Timers, which is what the
/// FLASH table and a timeline's histograms read. A Telemetry *installed*
/// on the runtime is that reduction's downstream sink: it keeps the same
/// spans in per-lane rings (oldest dropped when full) and the step marks,
/// which obs/timeline.hpp draws as a chrome://tracing / Perfetto
/// timeline, and its clock times the runtime's spans while installed.
/// obs::Recording is the one owner that installs one for a program.
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
#include <string>
#include <vector>

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

/// Construction-time knobs. By default each lane's ring keeps its latest
/// 16 Ki span records in 512 KiB.
struct TelemetryOptions {
  /// Span records retained per lane before oldest-dropped kicks in.
  std::size_t ring_capacity = std::size_t{1} << 14;
  /// Lane rings to allocate (at least one): the lane count of the
  /// runtime it is installed on. Spans from lanes beyond it are counted,
  /// not stored.
  int lanes = 1;
  /// Timestamp source in nanoseconds; null = steady_clock. Injectable so
  /// tests drive deterministic timelines.
  std::function<std::uint64_t()> clock;
};

/// The timeline context: owns the per-lane span rings and the step marks
/// and, while installed on a runtime, receives that runtime's spans.
class Telemetry final : public trace::Sink {
 public:
  explicit Telemetry(TelemetryOptions options = {});
  ~Telemetry() override;
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Become \p runtime's downstream span sink: spans recorded on the
  /// runtime's arena lanes — and on the driver thread inside a Driver
  /// step or a Runtime::BindScope — route here after the runtime's
  /// timers, so interleaved runtimes keep separate timelines. Size
  /// `TelemetryOptions::lanes` to the runtime's lane count. Setup-time:
  /// no span of the runtime may be open. Throws fhp::ConfigError if
  /// \p runtime already has one. The runtime must outlive this Telemetry
  /// (or uninstall() first).
  void install(rt::Runtime& runtime) FHP_EXCLUDES_REGION;

  /// Withdraw from the bound runtime (idempotent; the destructor calls
  /// it). Only legal when no region is in flight and no span is open.
  void uninstall() noexcept FHP_EXCLUDES_REGION;

  /// Current timestamp from the injected clock.
  [[nodiscard]] std::uint64_t now_ns() const override { return clock_(); }

  /// trace::Sink hot path: one closed span, pushed onto \p lane's ring
  /// by the thread running as that lane (a SpanScope's own thread, via
  /// the runtime's timers). Lanes beyond the ring count are tallied as
  /// dropped.
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

  /// Spans the rings no longer hold (overwritten, or from out-of-range
  /// lanes): the timeline does not draw them, though the runtime's
  /// timers counted them.
  [[nodiscard]] std::uint64_t dropped_spans() const noexcept
      FHP_EXCLUDES_REGION;

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
