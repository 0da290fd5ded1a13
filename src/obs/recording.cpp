#include "obs/recording.hpp"

#include <cerrno>
#include <chrono>
#include <fstream>
#include <utility>

#include "obs/timeline.hpp"
#include "rt/runtime.hpp"
#include "support/error.hpp"
#include "support/runtime_params.hpp"

namespace fhp::obs {

Recording::Recording(rt::Runtime& runtime, std::string timeline_path,
                     int sample_ms)
    : runtime_(runtime), timeline_path_(std::move(timeline_path)) {
  if (timeline_path_.empty()) return;
  TelemetryOptions options;
  options.lanes = runtime.lanes();
  telemetry_.emplace(std::move(options));
  telemetry_->install(runtime);
  if (sample_ms > 0) {
    SamplerOptions sampling;
    sampling.cadence = std::chrono::milliseconds(sample_ms);
    sampling.perf = &runtime.perf();
    sampler_.emplace(std::move(sampling));
    sampler_->start();
  }
}

Recording::Recording(rt::Runtime& runtime, const RuntimeParams& params)
    : Recording(runtime, params.get_string("obs.timeline"),
                static_cast<int>(params.get_int("obs.sample_ms"))) {}

std::string Recording::csv_path() const {
  return sampler_ ? csv_path_for(timeline_path_) : std::string();
}

std::string Recording::finish() {
  if (!telemetry_) return {};
  const std::string csv = csv_path();
  if (sampler_) sampler_->stop();
  telemetry_->uninstall();
  write_timeline_file(timeline_path_, *telemetry_, runtime_.timers(),
                      sampler_ ? &*sampler_ : nullptr);
  std::string report = "timeline written to " + timeline_path_ + " (" +
                       std::to_string(telemetry_->total_spans()) + " spans";
  if (sampler_) {
    std::ofstream out(csv);
    if (!out) {
      throw SystemError("cannot write sampler CSV '" + csv + "'", errno);
    }
    sampler_->write_csv(out);
    report += ", sampler CSV " + csv + ", " +
              std::to_string(sampler_->taken()) + " samples";
  }
  sampler_.reset();
  telemetry_.reset();
  return report + ")";
}

}  // namespace fhp::obs
