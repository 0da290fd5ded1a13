/// \file perf_context.hpp
/// \brief Explicit instrumentation context with per-lane counter shards.
///
/// PerfContext replaces the process-wide SoftCounters / RegionRegistry
/// singletons with an object you construct, pass to the units that
/// produce numbers (tlb::Machine, Driver, bench arms), and read results
/// from. Two things motivated the redesign:
///
///   1. The block-parallel sweep engine (fhp::par) breaks the old
///      single-kernel-thread contract. Counters are now *sharded*: each
///      lane owns a cache-line-aligned shard and the hot-path increment
///      is still exactly one unsynchronized add — no atomics, no false
///      sharing. `snapshot()` sums the shards; uint64 addition is exact
///      and order-independent, so totals are bit-identical regardless of
///      how many lanes contributed (one half of the determinism
///      guarantee; see DESIGN.md "Threading model").
///   2. Benches and tests kept tripping over shared ambient state
///      (`reset()` hygiene between arms). A context scopes counters to
///      an experiment arm by construction.
///
/// Shard synchronization contract: lanes write only their own shard
/// inside a parallel region (`ExecArena::parallel_for`, a TaskGraph run),
/// and `snapshot()`/`reset()` run outside any region on the thread that
/// invoked it. The pool's
/// start/finish handshake provides the happens-before edge from worker
/// writes to the caller's reads, so this is data-race-free without
/// atomics (the `tsan` preset enforces it).
///
/// There is no process-wide context: each rt::Runtime owns one, and code
/// takes a PerfContext& (usually `runtime.perf()`).

#pragma once

#include <cstdint>

#include "perf/events.hpp"
#include "perf/region.hpp"
#include "support/contracts.hpp"
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

/// One lane's private counter block, padded to a cache line so
/// neighboring lanes never write-share.
struct alignas(64) CounterShard {
  std::uint64_t values[kNumEvents] = {};
};

/// An instrumentation scope: sharded software counters plus the region
/// registry that PerfRegions commit into. Implements the support-layer
/// CounterSink so producers below the perf layer (the tlb machine model)
/// can publish deltas through the abstract interface.
///
/// The shard discipline is annotated with the region capability
/// (support/lane.hpp): writers (`add`, `add_all`) require the per-lane
/// writer role, cross-shard readers (`snapshot`, `reset`, `publish`,
/// `published`) require the lanes to be quiescent. Under Clang a
/// misplaced call is a `-Wthread-safety` error (tests/compile_fail/).
class PerfContext final : public CounterSink {
 public:
  PerfContext() = default;
  PerfContext(const PerfContext&) = delete;
  PerfContext& operator=(const PerfContext&) = delete;

  /// Add \p amount to \p event on the calling lane's shard. One add.
  FHP_NO_ALLOC void add(Event event, std::uint64_t amount) noexcept
      FHP_REQUIRES_REGION {
    shards_[static_cast<std::size_t>(::fhp::lane_id())]
        .values[static_cast<std::size_t>(event)] += amount;
  }

  /// Bulk add (one call per committed machine-model quantum).
  FHP_NO_ALLOC void add_all(const CounterSet& delta) noexcept
      FHP_REQUIRES_REGION {
    CounterShard& shard = shards_[static_cast<std::size_t>(::fhp::lane_id())];
    for (std::size_t i = 0; i < kNumEvents; ++i) {
      shard.values[i] += delta.values[i];
    }
  }

  /// CounterSink: merge a committed quantum's deltas (serial producers —
  /// the tracing thread — between regions; see support/events.hpp).
  void sink_counters(const CounterSet& delta) noexcept override;

  /// Sum of all shards. Call outside parallel regions (see file
  /// comment); exact and shard-order-independent.
  [[nodiscard]] CounterSet snapshot() const noexcept FHP_EXCLUDES_REGION {
    CounterSet s;
    for (const CounterShard& shard : shards_) {
      for (std::size_t i = 0; i < kNumEvents; ++i) {
        s.values[i] += shard.values[i];
      }
    }
    return s;
  }

  /// Zero every shard (between experiment arms / tests).
  void reset() noexcept FHP_EXCLUDES_REGION {
    for (CounterShard& shard : shards_) {
      for (auto& v : shard.values) v = 0;
    }
  }

  /// The per-region accumulation table PerfRegions commit into.
  [[nodiscard]] RegionRegistry& regions() noexcept { return regions_; }
  [[nodiscard]] const RegionRegistry& regions() const noexcept {
    return regions_;
  }

  /// Copy snapshot() into the published slot. Same legality rule as
  /// snapshot() — call outside parallel regions (the driver publishes at
  /// step boundaries). This is the one bridge between the unsynchronized
  /// lane shards and asynchronous readers: a background observer (the
  /// obs::Sampler) may call published() at any time from any thread
  /// without racing lane increments, because it only ever touches the
  /// mutex-guarded copy.
  void publish() FHP_EXCLUDES_REGION;

  /// Most recent publish() result (zero counters, seq 0 before the
  /// first). Safe from any thread at any time — but never from inside a
  /// region lambda (a lane polling the published slot would serialize the
  /// hot path on the publish mutex), hence FHP_EXCLUDES_REGION.
  [[nodiscard]] PublishedCounters published() const FHP_EXCLUDES_REGION;

 private:
  CounterShard shards_[::fhp::kMaxLanes] = {};
  RegionRegistry regions_;

  mutable Mutex publish_mutex_;
  PublishedCounters published_ FHP_GUARDED_BY(publish_mutex_);
};

}  // namespace fhp::perf
