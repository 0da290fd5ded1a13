/// \file histogram.hpp
/// \brief Log-scale latency histograms: power-of-2 buckets, mergeable.
///
/// Span latencies range over six decades (a 2 µs per-block EOS pass to a
/// 300 ms remesh), so a linear histogram is either blind or enormous.
/// Histogram buckets by floor(log2(value)): bucket i counts values v with
/// 2^(i-1) <= v < 2^i (bucket 0 counts v == 0). 65 buckets cover the full
/// uint64 range in 544 bytes, merging is bucket-wise addition (exact and
/// order-independent, so per-lane histograms merge deterministically),
/// and quantiles interpolate within a bucket — good to a factor of 2,
/// which is what a latency distribution question actually needs.

#pragma once

#include <bit>
#include <cstdint>
#include <string>

namespace fhp::perf {

/// A log2-bucketed histogram of non-negative 64-bit samples (span
/// latencies in nanoseconds, in perf::Timers). Plain value type: copy,
/// merge, compare freely. Not internally synchronized — each lane owns
/// one, and merges happen on the reader thread after the lanes quiesce.
class Histogram {
 public:
  /// bucket 0: v == 0; bucket i (1..64): 2^(i-1) <= v < 2^i.
  static constexpr int kBuckets = 65;

  void add(std::uint64_t v) noexcept {
    buckets_[std::bit_width(v)] += 1;
    sum_ += v;
    if (count_ == 0 || v < min_) min_ = v;
    if (v > max_) max_ = v;
    ++count_;
  }

  /// Bucket-wise accumulation of \p other into this histogram.
  void merge(const Histogram& other) noexcept {
    for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    sum_ += other.sum_;
    if (other.count_ > 0) {
      if (count_ == 0 || other.min_ < min_) min_ = other.min_;
      if (other.max_ > max_) max_ = other.max_;
    }
    count_ += other.count_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return min_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  [[nodiscard]] std::uint64_t bucket_count(int i) const noexcept {
    return (i >= 0 && i < kBuckets) ? buckets_[i] : 0;
  }

  /// Smallest value that lands in bucket \p i (0 for bucket 0).
  [[nodiscard]] static constexpr std::uint64_t bucket_floor(int i) noexcept {
    return i <= 0 ? 0 : std::uint64_t{1} << (i - 1);
  }

  /// Estimate of the q-quantile (q in [0,1]) by linear interpolation
  /// inside the containing bucket; exact min/max at the ends.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// "n=412 mean=1.2ms p50=0.9ms p90=2.1ms p99=6.7ms max=12.4ms".
  [[nodiscard]] std::string summary() const;

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace fhp::perf
