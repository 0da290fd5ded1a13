/// \file region.hpp
/// \brief RAII instrumented regions — the paper's Fortran PAPI object.
///
/// The paper instruments FLASH with "a Fortran object to interface with
/// the PAPI routines": construction starts the counters, finalization
/// stops them, and a module stores an identifier for the instrumented
/// region. (Their finalizer broke under the Fujitsu compiler — §II — and
/// they fell back to hard-coded calls; C++ destructors make the RAII form
/// reliable.) PerfRegion is that object: it snapshots a PerfContext's
/// software counters (and optionally the hardware PMU) on entry, and
/// accumulates the delta into a named slot of that context's
/// RegionRegistry on exit.
///
/// Regions start and stop outside parallel regions, on the thread that
/// commits the counters (the replay's, see perf_context.hpp), so a
/// region's delta is exactly what was committed between its start and
/// stop.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "perf/events.hpp"
#include "support/lane.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace fhp::perf {

class PerfContext;

/// Accumulated statistics for one named region.
struct RegionStats {
  CounterSet totals;           ///< summed deltas from the software counters
  CounterSet hw_totals;        ///< summed deltas from perf_event (if open)
  std::uint64_t entries = 0;   ///< number of times the region ran
  bool hw_valid = false;       ///< hw_totals has real data
};

/// Registry of instrumented regions. Owned by a PerfContext; construct
/// standalone instances only in tests.
class RegionRegistry {
 public:
  RegionRegistry() = default;

  /// Merge a delta into \p name.
  void accumulate(std::string_view name, const CounterSet& delta,
                  const CounterSet* hw_delta) FHP_EXCLUDES(mutex_);

  /// Stats for one region (zeros if never entered).
  [[nodiscard]] RegionStats get(std::string_view name) const
      FHP_EXCLUDES(mutex_);

  /// All region names with data, sorted.
  [[nodiscard]] std::vector<std::string> names() const FHP_EXCLUDES(mutex_);

 private:
  mutable fhp::Mutex mutex_;
  std::map<std::string, RegionStats, std::less<>> stats_
      FHP_GUARDED_BY(mutex_);
};

/// RAII region: counts everything between construction and destruction
/// against \p name in \p context. Cheap: two counter snapshots and a
/// clock read.
class PerfRegion {
 public:
  /// Regions snapshot the context's counters on entry and exit, so they
  /// start and stop only outside parallel regions (see file comment) —
  /// FHP_EXCLUDES_REGION enforces it statically.
  PerfRegion(PerfContext& context, std::string_view name)
      FHP_EXCLUDES_REGION;

  ~PerfRegion();
  PerfRegion(const PerfRegion&) = delete;
  PerfRegion& operator=(const PerfRegion&) = delete;

  /// Stop early (idempotent; the destructor then does nothing).
  void stop() FHP_EXCLUDES_REGION;

 private:
  PerfContext& context_;
  std::string name_;
  CounterSet start_;
  std::chrono::steady_clock::time_point wall_start_;
  bool active_ = true;
};

/// Enable/disable hardware (perf_event) capture for subsequently created
/// PerfRegions. Off by default; turning it on probes the PMU once and
/// silently stays off if the kernel denies access.
void set_hardware_capture(bool enabled);
[[nodiscard]] bool hardware_capture_active();

}  // namespace fhp::perf
