/// \file timeline.hpp
/// \brief chrome://tracing / Perfetto JSON export of a telemetry run.
///
/// Emits the JSON object form of the Chrome Trace Event format
/// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
/// spans as complete ("X") events on one track per lane, step marks as
/// instant ("i") events, sampler series as counter ("C") tracks, and the
/// runtime's exact per-span histograms and busy totals (perf::Timers)
/// under a "flashhpSummary" top-level key (legal: trace viewers ignore
/// unknown keys). Load the file in
/// ui.perfetto.dev or chrome://tracing and the whole Sedov run — what
/// each lane ran, when THP adoption moved, how the counters advanced —
/// is one scrollable timeline.
///
/// Timestamps are normalized so the earliest event sits at t=0; Chrome
/// trace "ts"/"dur" are microseconds (fractional allowed — span clocks
/// are ns).

#pragma once

#include <iosfwd>
#include <string>

#include "support/lane.hpp"

namespace fhp::perf {
class Timers;
}  // namespace fhp::perf

namespace fhp::obs {

class Sampler;
class Telemetry;

/// Write the timeline JSON for \p telemetry, with the histograms of
/// \p timers (the runtime it was installed on) and \p sampler's counter
/// tracks, when given. Read side: driver thread, after lanes quiesce and
/// the sampler is stopped.
void write_timeline(std::ostream& os, const Telemetry& telemetry,
                    const perf::Timers& timers,
                    const Sampler* sampler = nullptr) FHP_EXCLUDES_REGION;

/// write_timeline to \p path; throws fhp::SystemError when the file
/// cannot be opened.
void write_timeline_file(const std::string& path, const Telemetry& telemetry,
                         const perf::Timers& timers,
                         const Sampler* sampler = nullptr)
    FHP_EXCLUDES_REGION;

/// Derive the sampler CSV path next to a timeline path:
/// "timeline.json" -> "timeline.csv", "trace" -> "trace.csv".
[[nodiscard]] std::string csv_path_for(const std::string& timeline_path);

}  // namespace fhp::obs
