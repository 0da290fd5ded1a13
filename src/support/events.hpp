/// \file events.hpp
/// \brief The performance-counter vocabulary: Event, CounterSet,
///        CounterSink.
///
/// This is the bottom-layer half of what used to live in perf/events.hpp.
/// It sits in src/support so that counter *producers* below the perf
/// layer — the tlb machine model publishes modeled cycles and miss counts
/// — can name events and hand off deltas without depending on the perf
/// layer's accumulation machinery (PerfContext, regions, reports). The
/// declared module DAG is `support → mem → tlb → perf → …`
/// (tools/fhp_analyze.py enforces it from the include graph), so tlb may
/// not include perf; producers depend on this vocabulary plus the
/// abstract CounterSink, and perf::PerfContext implements the sink.
///
/// Everything here stays in `namespace fhp::perf`: the types *belong* to
/// the perf vocabulary and renaming them would churn every consumer for
/// no semantic gain. perf/events.hpp re-exports this header and adds the
/// derived-measure types (MeasureSet etc.) that only report-side code
/// needs.

#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "support/lane.hpp"

namespace fhp::perf {

/// The events flashhp counts. kWallNanos is always captured; hardware-ish
/// events come from the software machine model and/or perf_event.
enum class Event : std::uint8_t {
  kCycles = 0,      ///< modeled/HW CPU cycles (PAPI_TOT_CYC analog)
  kInstructions,    ///< retired instructions (PAPI_TOT_INS analog)
  kVectorOps,       ///< SVE-class vector instructions (paper's SVE measure)
  kDtlbMisses,      ///< DTLB misses requiring a page-table walk
  kTlbWalkCycles,   ///< cycles spent in page-table walks (model detail)
  kBytesRead,       ///< bytes moved from memory (for the GB/s measure)
  kBytesWritten,    ///< bytes moved to memory
  kL1Misses,        ///< L1D misses (model detail)
  kL2Misses,        ///< L2 misses = memory traffic events
  kWallNanos,       ///< wall-clock nanoseconds
};

inline constexpr std::size_t kNumEvents = 10;

/// PAPI-flavoured names, for reports ("PAPI_TOT_CYC", ...).
[[nodiscard]] std::string_view event_name(Event e) noexcept;

/// A value for every event. Plain aggregate; supports snapshot arithmetic.
struct CounterSet {
  std::array<std::uint64_t, kNumEvents> values{};

  [[nodiscard]] std::uint64_t operator[](Event e) const noexcept {
    return values[static_cast<std::size_t>(e)];
  }
  std::uint64_t& operator[](Event e) noexcept {
    return values[static_cast<std::size_t>(e)];
  }

  /// Element-wise this - earlier (wraps are the caller's problem; our
  /// sources are 64-bit and monotonic).
  [[nodiscard]] CounterSet since(const CounterSet& earlier) const noexcept {
    CounterSet d;
    for (std::size_t i = 0; i < kNumEvents; ++i) {
      d.values[i] = values[i] - earlier.values[i];
    }
    return d;
  }

  CounterSet& operator+=(const CounterSet& other) noexcept {
    for (std::size_t i = 0; i < kNumEvents; ++i) {
      values[i] += other.values[i];
    }
    return *this;
  }
};

/// Abstract consumer of committed counter deltas. Producers below the
/// perf layer (the tlb machine model) publish through this interface;
/// perf::PerfContext is the in-tree implementation. sink_counters is
/// FHP_EXCLUDES_REGION because in-tree producers commit from exactly one
/// serial thread (the tracing thread, between parallel regions): that
/// thread is the counters' one writer.
class CounterSink {
 public:
  CounterSink() = default;
  virtual ~CounterSink() = default;
  CounterSink(const CounterSink&) = delete;
  CounterSink& operator=(const CounterSink&) = delete;

  /// Merge one committed quantum's counter deltas.
  virtual void sink_counters(const CounterSet& delta) noexcept
      FHP_EXCLUDES_REGION = 0;
};

}  // namespace fhp::perf
