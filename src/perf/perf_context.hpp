/// \file perf_context.hpp
/// \brief Explicit instrumentation context: one counter set, one writer.
///
/// PerfContext replaces the process-wide SoftCounters / RegionRegistry
/// singletons with an object you construct, pass to the units that
/// produce numbers (tlb::Machine, Driver, bench arms), and read results
/// from. Each rt::Runtime owns one (`runtime.perf()`); there is no
/// process-wide context.
///
/// Counters are modeled events with one serial writer: the machine-model
/// replay (`Driver::trace_regions`) commits each quantum through
/// `sink_counters` on the driver thread, between parallel regions. No
/// lane ever writes a counter, so `snapshot()` is a plain copy and gives
/// the same value at any lane count (see DESIGN.md "Threading model").
///
/// Readers: `snapshot()` and the PerfRegions that diff it run on the
/// same thread as the writer. `published()` is the one read from other
/// threads (the obs::Sampler, svc::Service::progress): it returns the
/// mutex-guarded copy that `publish()` takes at step boundaries.

#pragma once

#include <cstdint>

#include "perf/events.hpp"
#include "perf/region.hpp"
#include "support/lane.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace fhp::perf {

/// A mutex-guarded copy of the counters, taken at a moment when
/// snapshot() was legal. `seq` counts publishes (0 = none yet) so a
/// reader can tell "fresh" from "same as last time".
struct PublishedCounters {
  CounterSet counters;
  std::uint64_t seq = 0;
};

/// An instrumentation scope: the committed counter totals plus the
/// region registry that PerfRegions commit into. Implements the
/// support-layer CounterSink so producers below the perf layer (the tlb
/// machine model) can publish deltas through the abstract interface.
///
/// Every member that touches the totals excludes the region capability
/// (support/lane.hpp; `sink_counters` through CounterSink): none may run
/// on a pool lane. Under Clang a misplaced call is a `-Wthread-safety`
/// error (tests/compile_fail/).
class PerfContext final : public CounterSink {
 public:
  PerfContext() = default;
  PerfContext(const PerfContext&) = delete;
  PerfContext& operator=(const PerfContext&) = delete;

  /// CounterSink: add a committed quantum's deltas to the totals.
  void sink_counters(const CounterSet& delta) noexcept override {
    totals_ += delta;
  }

  /// The committed totals. Call on the writer's thread, outside parallel
  /// regions (see file comment).
  [[nodiscard]] CounterSet snapshot() const noexcept FHP_EXCLUDES_REGION {
    return totals_;
  }

  /// The per-region accumulation table PerfRegions commit into.
  [[nodiscard]] RegionRegistry& regions() noexcept { return regions_; }
  [[nodiscard]] const RegionRegistry& regions() const noexcept {
    return regions_;
  }

  /// Copy snapshot() into the published slot. Same legality rule as
  /// snapshot() — the driver publishes at step boundaries. This is the
  /// one bridge to asynchronous readers: a background observer (the
  /// obs::Sampler) may call published() at any time from any thread
  /// without racing the writer, because it only ever touches the
  /// mutex-guarded copy.
  void publish() FHP_EXCLUDES_REGION;

  /// Most recent publish() result (zero counters, seq 0 before the
  /// first). Safe from any thread at any time — but never from inside a
  /// region lambda (a lane polling the published slot would serialize the
  /// hot path on the publish mutex), hence FHP_EXCLUDES_REGION.
  [[nodiscard]] PublishedCounters published() const FHP_EXCLUDES_REGION;

 private:
  CounterSet totals_;
  RegionRegistry regions_;

  mutable Mutex publish_mutex_;
  PublishedCounters published_ FHP_GUARDED_BY(publish_mutex_);
};

}  // namespace fhp::perf
