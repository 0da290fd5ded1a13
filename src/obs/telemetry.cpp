#include "obs/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "rt/runtime.hpp"
#include "support/error.hpp"
#include "support/runtime_params.hpp"

namespace fhp::obs {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Telemetry::Telemetry(TelemetryOptions options)
    : clock_(options.clock ? std::move(options.clock) : steady_now_ns) {
  const int lanes = std::max(options.lanes, 1);
  rings_.reserve(static_cast<std::size_t>(lanes));
  for (int l = 0; l < lanes; ++l) rings_.emplace_back(options.ring_capacity);
}

Telemetry::~Telemetry() { uninstall(); }

void Telemetry::install(rt::Runtime& runtime) {
  if (runtime.trace_sink() != nullptr) {
    throw ConfigError(
        "obs::Telemetry::install: the runtime already has a trace sink");
  }
  runtime.set_trace_sink(this);
  runtime_ = &runtime;
}

void Telemetry::uninstall() noexcept {
  if (runtime_ != nullptr) {
    if (runtime_->trace_sink() == this) runtime_->set_trace_sink(nullptr);
    runtime_ = nullptr;
  }
}

FHP_NO_ALLOC void Telemetry::record_span(int lane, const char* name,
                                         std::uint64_t begin_ns,
                                         std::uint64_t end_ns,
                                         std::uint16_t depth) noexcept {
  // Writer-role witness: a SpanScope destructs on the thread that opened
  // it and passes that thread's own lane_id(), so the caller is by
  // construction the single writer of lane's ring — whether it is a pool
  // lane inside a region or the driver thread (lane 0) between regions.
  RegionWitness witness;
  if (lane >= 0 && lane < lanes()) {
    rings_[static_cast<std::size_t>(lane)].push(
        {name, begin_ns, end_ns, depth});
  } else {
    overflow_drops_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Telemetry::mark_step(int step, double sim_time, double dt) {
  FHP_REQUIRE(!par::region_active(),
              "Telemetry::mark_step: only between parallel regions");
  step_marks_.push_back({step, now_ns(), sim_time, dt});
}

const SpanRing& Telemetry::ring(int lane) const {
  FHP_REQUIRE(lane >= 0 && lane < lanes(), "Telemetry::ring: bad lane");
  return rings_[static_cast<std::size_t>(lane)];
}

std::uint64_t Telemetry::total_spans() const noexcept {
  std::uint64_t n = overflow_drops_.load(std::memory_order_relaxed);
  for (const SpanRing& ring : rings_) n += ring.pushed();
  return n;
}

std::uint64_t Telemetry::dropped_spans() const noexcept {
  std::uint64_t n = overflow_drops_.load(std::memory_order_relaxed);
  for (const SpanRing& ring : rings_) n += ring.dropped();
  return n;
}

std::string timeline_from_environment() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- read once at telemetry
  // setup, before any worker threads exist; nothing calls setenv.
  const char* raw = std::getenv(kTimelineEnvVar);
  return raw == nullptr ? std::string() : std::string(raw);
}

int sample_ms_from_environment(int fallback) {
  return positive_int_from_environment(kSampleMsEnvVar, fallback);
}

void declare_runtime_params(RuntimeParams& params) {
  params.declare_string("obs.timeline", timeline_from_environment(),
                        "chrome://tracing timeline output path "
                        "(FLASHHP_TELEMETRY; empty = telemetry off)");
  params.declare_int("obs.sample_ms", sample_ms_from_environment(10),
                     "background memory-sampler cadence in ms "
                     "(FLASHHP_SAMPLE_MS)");
}

}  // namespace fhp::obs
