#include "perf/region.hpp"

#include <optional>

#include "perf/perf_context.hpp"
#include "perf/perf_event_backend.hpp"

namespace fhp::perf {

namespace {

/// Lazily constructed PMU group shared by all regions. Regions may nest
/// but start/stop on one thread, so reading shared monotonic totals at
/// start/stop is race-free.
PerfEventBackend* hw_backend() {
  static PerfEventBackend backend;
  return &backend;
}

bool g_hw_capture = false;

/// Per-region hardware start snapshots keyed by region address. Regions
/// are scoped objects so a small thread_local stack suffices.
thread_local std::vector<std::pair<const PerfRegion*, CounterSet>>
    t_hw_starts;

}  // namespace

void set_hardware_capture(bool enabled) {
  g_hw_capture = enabled && hw_backend()->available();
}

bool hardware_capture_active() { return g_hw_capture; }

void RegionRegistry::accumulate(std::string_view name, const CounterSet& delta,
                                const CounterSet* hw_delta) {
  fhp::MutexLock lock(mutex_);
  auto it = stats_.find(name);
  if (it == stats_.end()) {
    it = stats_.emplace(std::string(name), RegionStats{}).first;
  }
  it->second.totals += delta;
  if (hw_delta != nullptr) {
    it->second.hw_totals += *hw_delta;
    it->second.hw_valid = true;
  }
  ++it->second.entries;
}

RegionStats RegionRegistry::get(std::string_view name) const {
  fhp::MutexLock lock(mutex_);
  auto it = stats_.find(name);
  return it == stats_.end() ? RegionStats{} : it->second;
}

std::vector<std::string> RegionRegistry::names() const {
  fhp::MutexLock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(stats_.size());
  for (const auto& [name, s] : stats_) out.push_back(name);
  return out;
}

PerfRegion::PerfRegion(PerfContext& context, std::string_view name)
    : context_(context),
      name_(name),
      start_(context.snapshot()),
      wall_start_(std::chrono::steady_clock::now()) {
  if (g_hw_capture) {
    t_hw_starts.emplace_back(this, hw_backend()->read());
  }
}

void PerfRegion::stop() {
  if (!active_) return;
  active_ = false;

  CounterSet end = context_.snapshot();
  CounterSet delta = end.since(start_);
  const auto wall_end = std::chrono::steady_clock::now();
  delta[Event::kWallNanos] = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall_end -
                                                           wall_start_)
          .count());

  std::optional<CounterSet> hw_delta;
  if (!t_hw_starts.empty() && t_hw_starts.back().first == this) {
    hw_delta = hw_backend()->read().since(t_hw_starts.back().second);
    t_hw_starts.pop_back();
  }
  context_.regions().accumulate(name_, delta,
                                hw_delta ? &*hw_delta : nullptr);
}

PerfRegion::~PerfRegion() { stop(); }

}  // namespace fhp::perf
