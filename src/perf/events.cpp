#include "perf/events.hpp"

namespace fhp::perf {

MeasureSet derive_measures(const CounterSet& delta, double clock_hz) noexcept {
  MeasureSet m;
  const auto cycles = static_cast<double>(delta[Event::kCycles]);
  m.hardware_cycles = cycles;
  m.time_seconds = clock_hz > 0 ? cycles / clock_hz : 0.0;
  m.vector_per_cycle =
      cycles > 0 ? static_cast<double>(delta[Event::kVectorOps]) / cycles : 0.0;
  const double bytes = static_cast<double>(delta[Event::kBytesRead]) +
                       static_cast<double>(delta[Event::kBytesWritten]);
  m.memory_gbytes_per_s =
      m.time_seconds > 0 ? bytes / 1.0e9 / m.time_seconds : 0.0;
  m.dtlb_misses_per_s =
      m.time_seconds > 0
          ? static_cast<double>(delta[Event::kDtlbMisses]) / m.time_seconds
          : 0.0;
  return m;
}

}  // namespace fhp::perf
