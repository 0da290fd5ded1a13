/// \file events.hpp
/// \brief Performance event identifiers, counter sets, derived measures.
///
/// The paper instruments FLASH with a PAPI event subset that "can
/// characterize overall performance — use of SVE measured as SVE
/// instructions per cycle, memory bandwidth, DTLB misses, and the number of
/// hardware cycles". We model the same set. Counter values flow from one
/// of several backends (software model, perf_event, wall clock) into
/// CounterSet snapshots; RegionStats accumulates deltas per code region.
///
/// The vocabulary itself — Event, CounterSet, event_name, plus the
/// CounterSink producer interface — lives in support/events.hpp so that
/// producers below the perf layer (the tlb machine model) can use it
/// without an include edge that violates the module DAG. This header
/// re-exports it and adds the report-side derived-measure types.

#pragma once

#include "support/events.hpp"  // IWYU pragma: export

namespace fhp::perf {

/// The five measures of the paper's Tables I/II (plus the FLASH timer,
/// which is reported separately by the driver).
struct MeasureSet {
  double hardware_cycles = 0;      ///< "Hardware (cycles)"
  double time_seconds = 0;         ///< "Time (s)" = cycles / clock_hz
  double vector_per_cycle = 0;     ///< "SVE Instructions/cycle"
  double memory_gbytes_per_s = 0;  ///< "Memory (Gbytes/s)"
  double dtlb_misses_per_s = 0;    ///< "DTLB misses (1/s)"
};

/// Derive the paper's measures from a counter delta.
/// \param clock_hz the modeled core frequency (Ookami A64FX: 1.8 GHz).
[[nodiscard]] MeasureSet derive_measures(const CounterSet& delta,
                                         double clock_hz) noexcept;

}  // namespace fhp::perf
