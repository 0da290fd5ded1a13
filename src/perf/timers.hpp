/// \file timers.hpp
/// \brief FLASH-style timers: the exact per-lane reduction of a runtime's
/// spans.
///
/// FLASH's Timers unit (Timers_start / Timers_stop / Timers_getSummary)
/// records elapsed time per named timer and prints an indented summary at
/// the end of the run — the paper's "FLASH Timer (s)" rows come from it.
/// Here the span (FHP_TRACE_SPAN, support/trace.hpp) is the one timing
/// primitive, and Timers is the reduction each rt::Runtime keeps of its
/// spans: one table per lane holding one Histogram (count, sum, min, max,
/// log2 buckets) per span name, updated as each span closes. The FLASH
/// table, seconds()/calls() and a timeline's histograms and busy totals
/// all read it, so they are exact at any run length — the timeline's
/// span rings keep only their latest records.
///
/// A runtime binds its Timers as the trace::Sink of its driver thread and
/// its arena lanes whether or not telemetry is installed. An installed
/// obs::Telemetry is the downstream sink: it receives the same spans and
/// step marks, and its clock times them; without one, spans are timed on
/// steady_clock.
///
/// Threading contract (as for the span rings): lane
/// l's table is written only by the thread running as lane l, so a span
/// closes into an unsynchronized table update — no lock, no atomic, no
/// allocation. Entries are keyed by the name literal's address and merged
/// by name text when read. The read side runs on the driver thread after
/// the lanes quiesce.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "perf/histogram.hpp"
#include "support/contracts.hpp"
#include "support/lane.hpp"
#include "support/trace.hpp"

namespace fhp::perf {

/// The span reduction: per-lane, per-name duration histograms.
class Timers final : public trace::Sink {
 public:
  /// Distinct span names one lane's table holds. A span of a further name
  /// is counted in overflow(), not timed.
  static constexpr int kNameCapacity = 64;

  /// Allocates \p lanes tables (at least one) once; spans recorded
  /// against a lane beyond them are counted in overflow(). elapsed()
  /// counts from here.
  explicit Timers(int lanes = 1);

  /// The sink that also receives every span and step mark, and whose
  /// clock times them (null = none, time on steady_clock). Setup-time
  /// only: no span open and no region in flight.
  void set_downstream(trace::Sink* sink) noexcept { downstream_ = sink; }
  [[nodiscard]] trace::Sink* downstream() const noexcept {
    return downstream_;
  }

  [[nodiscard]] std::uint64_t now_ns() const override;
  void record_span(int lane, const char* name, std::uint64_t begin_ns,
                   std::uint64_t end_ns, std::uint16_t depth) noexcept
      override;
  void mark_step(int step, double sim_time, double dt) override;

  [[nodiscard]] int lanes() const noexcept {
    return static_cast<int>(lanes_.size());
  }

  /// Busy seconds of the spans named \p name, summed over lanes.
  [[nodiscard]] double seconds(std::string_view name) const
      FHP_EXCLUDES_REGION;

  /// Number of spans named \p name, summed over lanes.
  [[nodiscard]] std::uint64_t calls(std::string_view name) const
      FHP_EXCLUDES_REGION;

  /// Seconds elapsed since construction (the "elapsed time for the
  /// simulation" the paper reports).
  [[nodiscard]] double elapsed() const;

  /// Span durations (ns) per name, merged over lanes.
  [[nodiscard]] std::map<std::string, Histogram, std::less<>> histograms()
      const FHP_EXCLUDES_REGION;

  /// Spans counted but not timed: names beyond kNameCapacity on a lane,
  /// or lanes beyond lanes().
  [[nodiscard]] std::uint64_t overflow() const noexcept FHP_EXCLUDES_REGION;

  /// Print the FLASH-like summary: one row per span name with its time,
  /// calls and percent of elapsed(), summed over lanes, in the order the
  /// names first began; names seen on the driver thread are indented by
  /// their nesting depth there.
  void summary(std::ostream& os) const FHP_EXCLUDES_REGION;

 private:
  struct Entry {
    std::uint16_t depth = 0;          ///< nesting depth when first seen
    std::uint64_t first_begin_ns = 0;  ///< begin of the first span seen
    Histogram durations;
  };
  /// One lane's table. Names are kept apart from the entries so the
  /// lookup scans a few contiguous cache lines.
  struct alignas(64) Lane {
    const char* names[kNameCapacity] = {};
    Entry entries[kNameCapacity];
    int used = 0;
    std::uint64_t overflow = 0;
  };

  /// The durations of the spans named \p name, merged over lanes.
  [[nodiscard]] Histogram merged(std::string_view name) const
      FHP_EXCLUDES_REGION;

  std::vector<Lane> lanes_;
  std::atomic<std::uint64_t> lane_overflow_{0};
  trace::Sink* downstream_ = nullptr;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace fhp::perf
