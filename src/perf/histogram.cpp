#include "perf/histogram.hpp"

#include <cstdio>

namespace fhp::perf {

namespace {

/// Render nanoseconds with a unit a human scans quickly.
std::string format_ns(double ns) {
  char buf[48];
  if (ns >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.2fs", ns / 1e9);
  } else if (ns >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2fms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.2fus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0fns", ns);
  }
  return buf;
}

}  // namespace

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(min_);
  if (q >= 1.0) return static_cast<double>(max_);

  const double target = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const auto next = seen + buckets_[i];
    if (static_cast<double>(next) >= target) {
      // Interpolate within [floor, 2*floor) — clamped to the observed
      // min/max so tiny histograms do not report values never seen.
      const auto lo = static_cast<double>(bucket_floor(i));
      const double hi = i == 0 ? 0.0 : lo * 2.0;
      const double frac = buckets_[i] == 0
                              ? 0.0
                              : (target - static_cast<double>(seen)) /
                                    static_cast<double>(buckets_[i]);
      double v = lo + frac * (hi - lo);
      if (v < static_cast<double>(min_)) v = static_cast<double>(min_);
      if (v > static_cast<double>(max_)) v = static_cast<double>(max_);
      return v;
    }
    seen = next;
  }
  return static_cast<double>(max_);
}

std::string Histogram::summary() const {
  if (count_ == 0) return "n=0";
  char buf[192];
  std::snprintf(buf, sizeof buf, "n=%llu mean=%s p50=%s p90=%s p99=%s max=%s",
                static_cast<unsigned long long>(count_),
                format_ns(mean()).c_str(), format_ns(quantile(0.5)).c_str(),
                format_ns(quantile(0.9)).c_str(),
                format_ns(quantile(0.99)).c_str(),
                format_ns(static_cast<double>(max_)).c_str());
  return buf;
}

}  // namespace fhp::perf
