/// \file recording.hpp
/// \brief obs::Recording — the one owner of a program's timeline.
///
/// Every program that writes a timeline (the examples, both table benches
/// and svc tenants) builds one Recording on its runtime: it installs a
/// Telemetry sized to the runtime's lanes, runs the memory/THP Sampler on
/// the runtime's counters when asked, and at finish() writes the
/// chrome://tracing timeline — histograms from the runtime's exact span
/// reduction — plus the sampler CSV next to it. With no timeline path it
/// does nothing, so a program builds one unconditionally.

#pragma once

#include <optional>
#include <string>

#include "obs/sampler.hpp"
#include "obs/telemetry.hpp"
#include "support/lane.hpp"

namespace fhp {
class RuntimeParams;
}  // namespace fhp

namespace fhp::rt {
class Runtime;
}  // namespace fhp::rt

namespace fhp::obs {

class Recording {
 public:
  /// Record \p runtime into \p timeline_path ("" = record nothing), with
  /// a Sampler on `runtime.perf()` every \p sample_ms ms when it is
  /// positive. Installs on the runtime now: setup-time, no span of the
  /// runtime open. The runtime must outlive the Recording.
  Recording(rt::Runtime& runtime, std::string timeline_path,
            int sample_ms = 0);

  /// Record into `obs.timeline` with the sampler at `obs.sample_ms` (see
  /// declare_runtime_params).
  Recording(rt::Runtime& runtime, const RuntimeParams& params);

  Recording(const Recording&) = delete;
  Recording& operator=(const Recording&) = delete;

  [[nodiscard]] bool active() const noexcept { return telemetry_.has_value(); }
  [[nodiscard]] const std::string& timeline_path() const noexcept {
    return timeline_path_;
  }
  /// Where the sampler CSV goes ("" when no sampler runs).
  [[nodiscard]] std::string csv_path() const;

  /// Stop the sampler, uninstall the telemetry and write the timeline and
  /// the sampler CSV. Returns a one-line report of what was written (""
  /// when inactive); a second call writes nothing. Driver thread, lanes
  /// quiescent. Throws fhp::SystemError when a file cannot be written.
  std::string finish() FHP_EXCLUDES_REGION;

 private:
  rt::Runtime& runtime_;
  std::string timeline_path_;
  std::optional<Telemetry> telemetry_;
  std::optional<Sampler> sampler_;
};

}  // namespace fhp::obs
