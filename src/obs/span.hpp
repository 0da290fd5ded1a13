/// \file span.hpp
/// \brief Span records and the per-lane ring buffers they land in.
///
/// A span is one timed scope of work — a driver step, a hydro sweep, one
/// block's EOS pass — recorded as {name, begin, end, depth} when the
/// scope closes. Rings are strictly single-writer: lane `l`'s ring is
/// written only by the thread running as `par::lane() == l` inside a
/// region (or the driver thread, which is lane 0, outside one), so the
/// hot path is an unsynchronized slot store plus a counter increment —
/// no atomics, no locks, and never a block: when the ring is full the
/// oldest record is overwritten and the drop is visible as
/// `pushed() - capacity()`. The reader (the timeline exporter) runs on
/// the driver thread after the lanes have quiesced; the
/// worker pool's completion handshake provides the happens-before edge,
/// exactly as for the per-lane tables of perf::Timers.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/contracts.hpp"
#include "support/lane.hpp"

namespace fhp::obs {

/// One closed span. `name` must point at static-storage text (the
/// FHP_TRACE_SPAN macro passes string literals) — rings store the
/// pointer, not a copy, so the hot path never allocates.
struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t begin_ns = 0;  ///< clock value at scope entry
  std::uint64_t end_ns = 0;    ///< clock value at scope exit
  std::uint16_t depth = 0;     ///< nesting depth on the recording thread
};

/// Fixed-capacity overwrite-oldest ring of SpanRecords (single writer;
/// see file comment for the synchronization contract).
class SpanRing {
 public:
  explicit SpanRing(std::size_t capacity)
      : slots_(capacity == 0 ? 1 : capacity) {}

  /// Record one span; overwrites the oldest record when full. One slot
  /// store + one increment — never blocks, never allocates. Requires the
  /// per-lane writer role (support/lane.hpp): only the thread running as
  /// this ring's lane may push.
  FHP_NO_ALLOC void push(const SpanRecord& rec) noexcept
      FHP_REQUIRES_REGION {
    slots_[static_cast<std::size_t>(pushed_ % slots_.size())] = rec;
    ++pushed_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Total spans ever pushed (retained + dropped).
  [[nodiscard]] std::uint64_t pushed() const noexcept { return pushed_; }

  /// Spans lost to overwrite (reported, per the never-block contract).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return pushed_ > slots_.size() ? pushed_ - slots_.size() : 0;
  }

  /// Number of records currently retained.
  [[nodiscard]] std::size_t size() const noexcept {
    return pushed_ < slots_.size() ? static_cast<std::size_t>(pushed_)
                                   : slots_.size();
  }

  /// Retained records, oldest first. Reader-side only (after quiesce).
  [[nodiscard]] std::vector<SpanRecord> in_order() const
      FHP_EXCLUDES_REGION {
    std::vector<SpanRecord> out;
    const std::size_t n = size();
    out.reserve(n);
    const std::uint64_t first = pushed_ - n;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(
          slots_[static_cast<std::size_t>((first + i) % slots_.size())]);
    }
    return out;
  }

 private:
  std::vector<SpanRecord> slots_;
  std::uint64_t pushed_ = 0;
};

}  // namespace fhp::obs
