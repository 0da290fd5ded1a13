/// \file test_obs.cpp
/// \brief Unit tests for the fhp::obs observability subsystem.
///
/// Everything here is deterministic by construction: span clocks are
/// injected fake counters, sampler procfs paths point at the checked-in
/// fixture trees (tests/fixtures/procfs), and the background-thread
/// tests assert only thread-safe invariants. The one global side effect
/// is the operator-new override at the bottom of this file, which backs
/// the zero-allocation guards on the unbound and runtime-bound span
/// paths.

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
#include "par/parallel.hpp"
#include "perf/perf_context.hpp"
#include "rt/runtime.hpp"
#include "sim/simulation.hpp"
#include "support/error.hpp"

// Allocation counter fed by the global operator-new override below.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

namespace fhp::obs {
namespace {

std::string fixture_root(const char* flavor) {
  return std::string(FHP_TEST_FIXTURE_DIR) + "/procfs/" + flavor;
}

/// A deterministic clock: starts at 1000 ns, advances 1 µs per reading.
class FakeClock {
 public:
  [[nodiscard]] std::function<std::uint64_t()> fn() {
    return [this] { return next_.fetch_add(1000, std::memory_order_relaxed); };
  }

 private:
  std::atomic<std::uint64_t> next_{1000};
};

/// Commit \p cycles as the machine-model replay does: one quantum
/// through the CounterSink interface, on the calling thread.
void commit_cycles(perf::PerfContext& perf, std::uint64_t cycles) {
  perf::CounterSet delta;
  delta[perf::Event::kCycles] = cycles;
  perf.sink_counters(delta);
}

// ----------------------------------------------------------------- ring

TEST(SpanRingTest, OverflowDropsOldestAndNeverBlocks) {
  SpanRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.push({"s", i, i + 1, 0});
  }
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.pushed(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(ring.size(), 4u);
  const auto records = ring.in_order();
  ASSERT_EQ(records.size(), 4u);
  // Oldest-dropped: the survivors are the last four, oldest first.
  EXPECT_EQ(records.front().begin_ns, 6u);
  EXPECT_EQ(records.back().begin_ns, 9u);
}

TEST(SpanRingTest, PartialFillKeepsInsertionOrder) {
  SpanRing ring(8);
  for (std::uint64_t i = 0; i < 3; ++i) ring.push({"s", i, i + 1, 0});
  EXPECT_EQ(ring.dropped(), 0u);
  const auto records = ring.in_order();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].begin_ns, 0u);
  EXPECT_EQ(records[2].begin_ns, 2u);
}

// ------------------------------------------------------------- telemetry

TEST(TelemetryTest, SpanNestingDepthsAreRecorded) {
  FakeClock clock;
  TelemetryOptions opts;
  opts.lanes = 1;
  opts.clock = clock.fn();
  Telemetry telemetry(opts);
  {
    const trace::SinkBinding bound(&telemetry);
    FHP_TRACE_SPAN("outer");
    {
      FHP_TRACE_SPAN("inner");
    }
  }
  const auto records = telemetry.ring(0).in_order();
  ASSERT_EQ(records.size(), 2u);
  // The inner span closes (and records) first.
  EXPECT_STREQ(records[0].name, "inner");
  EXPECT_EQ(records[0].depth, 1u);
  EXPECT_STREQ(records[1].name, "outer");
  EXPECT_EQ(records[1].depth, 0u);
  // Nesting in time: outer contains inner on the fake clock.
  EXPECT_LT(records[1].begin_ns, records[0].begin_ns);
  EXPECT_GT(records[1].end_ns, records[0].end_ns);
}

TEST(TelemetryTest, SecondInstallThrows) {
  rt::Runtime runtime;
  Telemetry a, b;
  a.install(runtime);
  EXPECT_THROW(b.install(runtime), ConfigError);
  a.uninstall();
  b.install(runtime);  // now free
  EXPECT_EQ(runtime.trace_sink(), &b);
  b.uninstall();
}

TEST(TelemetryTest, OutOfRangeLaneIsCountedNotStored) {
  TelemetryOptions opts;
  opts.lanes = 1;
  Telemetry telemetry(opts);
  telemetry.record_span(0, "ok", 1, 2, 0);
  telemetry.record_span(7, "lost", 1, 2, 0);
  EXPECT_EQ(telemetry.ring(0).pushed(), 1u);
  EXPECT_EQ(telemetry.total_spans(), 2u);
  EXPECT_EQ(telemetry.dropped_spans(), 1u);
}

TEST(TelemetryTest, CrossLaneHistogramMerge) {
  rt::Runtime runtime({.lanes = 2});
  TelemetryOptions opts;
  opts.lanes = 2;
  Telemetry telemetry(opts);
  telemetry.install(runtime);
  // Lane 0: three 100 ns spans; lane 1: two 100 ns and one 7000 ns span,
  // all under one name, plus a differently named span. The runtime's
  // reduction merges them; the telemetry receives every one downstream.
  perf::Timers& timers = runtime.timers();
  for (int i = 0; i < 3; ++i) timers.record_span(0, "kernel", 0, 100, 0);
  for (int i = 0; i < 2; ++i) timers.record_span(1, "kernel", 0, 100, 0);
  timers.record_span(1, "kernel", 0, 7000, 0);
  timers.record_span(1, "other", 0, 50, 0);
  telemetry.uninstall();
  EXPECT_EQ(telemetry.ring(0).pushed(), 3u);
  EXPECT_EQ(telemetry.ring(1).pushed(), 4u);
  const auto histograms = timers.histograms();
  ASSERT_EQ(histograms.size(), 2u);
  const perf::Histogram& kernel = histograms.at("kernel");
  EXPECT_EQ(kernel.count(), 6u);
  EXPECT_EQ(kernel.min(), 100u);
  EXPECT_EQ(kernel.max(), 7000u);
  EXPECT_EQ(kernel.sum(), 5u * 100u + 7000u);
  EXPECT_EQ(histograms.at("other").count(), 1u);
}

TEST(TelemetryTest, SpansFromParallelLanesLandInTheirRings) {
  rt::Runtime runtime({.lanes = 2});
  FakeClock clock;
  TelemetryOptions opts;
  opts.lanes = runtime.lanes();
  opts.clock = clock.fn();
  Telemetry telemetry(opts);
  telemetry.install(runtime);
  runtime.arena().parallel_for(64, [](int /*lane*/, std::size_t /*i*/) {
    FHP_TRACE_SPAN("par.item");
  });
  telemetry.uninstall();
  // Static chunking: each of the two lanes ran 32 items.
  EXPECT_EQ(telemetry.ring(0).pushed(), 32u);
  EXPECT_EQ(telemetry.ring(1).pushed(), 32u);
  EXPECT_EQ(telemetry.total_spans(), 64u);
  EXPECT_EQ(runtime.timers().calls("par.item"), 64u);
}

TEST(TelemetryTest, TracedSedovStepTimesEachScopeOnce) {
  // A task, the driver phase around it and the kernel inside it are
  // timed once: no span duplicates task.sweep_*, task.eos or
  // driver.compute_dt.
  rt::Runtime runtime({.lanes = 2});
  TelemetryOptions opts;
  opts.lanes = runtime.lanes();
  Telemetry telemetry(opts);
  telemetry.install(runtime);
  sim::SedovParams params;
  params.ndim = 2;
  params.nzb = 1;
  params.max_level = 2;
  params.maxblocks = 64;
  sim::Simulation simulation(
      params, runtime, {.nsteps = 1, .trace_sample = 2, .verbose = false});
  simulation.driver().evolve();
  telemetry.uninstall();
  const auto histograms = runtime.timers().histograms();
  for (const char* timed :
       {"driver.step", "driver.compute_dt", "task.sweep_x", "task.eos"}) {
    EXPECT_EQ(histograms.count(timed), 1u) << timed;
  }
  for (const char* duplicate :
       {"hydro.sweep_block", "eos.block", "hydro.compute_dt"}) {
    EXPECT_EQ(histograms.count(duplicate), 0u) << duplicate;
    for (int lane = 0; lane < telemetry.lanes(); ++lane) {
      for (const SpanRecord& rec : telemetry.ring(lane).in_order()) {
        EXPECT_STRNE(rec.name, duplicate);
      }
    }
  }
}

TEST(TelemetryTest, StepMarksCarryTheFakeClock) {
  FakeClock clock;
  TelemetryOptions opts;
  opts.lanes = 1;
  opts.clock = clock.fn();
  Telemetry telemetry(opts);
  telemetry.mark_step(1, 0.25, 0.25);
  telemetry.mark_step(2, 0.50, 0.25);
  ASSERT_EQ(telemetry.step_marks().size(), 2u);
  EXPECT_EQ(telemetry.step_marks()[0].t_ns, 1000u);
  EXPECT_EQ(telemetry.step_marks()[1].t_ns, 2000u);
  EXPECT_EQ(telemetry.step_marks()[1].step, 2);
  EXPECT_EQ(telemetry.step_marks()[1].sim_time, 0.50);
}

// ---------------------------------------------------- hot-path guards

TEST(TelemetryDisabledPath, RecordsNothingAndAllocatesNothing) {
  // The acceptance contract: with no sink bound, FHP_TRACE_SPAN is one
  // thread-local load + branch — no clock read, no allocation. The
  // operator-new override at the bottom of this file counts every
  // allocation in the process; the loop must add zero.
  ASSERT_EQ(trace::sink(), nullptr);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100000; ++i) {
    FHP_TRACE_SPAN("disabled.hot_path");
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
}

TEST(TelemetryBoundPath, RecordsIntoTheRuntimeWithoutAllocating) {
  // Bound to a runtime, a span is two clock reads and one table update
  // (plus a ring push with a telemetry installed): once each name has
  // its table slot, 1e5 spans of three names add no allocation.
  static constexpr const char* kNames[3] = {"bound.a", "bound.b", "bound.c"};
  rt::Runtime runtime({.lanes = 1});
  Telemetry telemetry;
  const auto record = [](int spans) {
    for (int i = 0; i < spans; ++i) {
      const trace::SpanScope span(kNames[i % 3]);
    }
  };
  const rt::Runtime::BindScope bound(runtime);
  for (const bool installed : {false, true}) {
    if (installed) telemetry.install(runtime);
    record(3);  // each name's first record
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    record(100000);
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before)
        << (installed ? "with" : "without") << " a telemetry";
  }
  telemetry.uninstall();
  EXPECT_EQ(telemetry.total_spans(), 100003u);
  EXPECT_EQ(runtime.timers().calls("bound.a"), 2u * 33335u);
  EXPECT_EQ(runtime.timers().calls("bound.c"), 2u * 33334u);
}

// ----------------------------------------------------------------- sampler

TEST(SamplerTest, FixtureCaptureIsDeterministic) {
  auto make = [](FakeClock& clock) {
    SamplerOptions opts = SamplerOptions::with_procfs_root(
        fixture_root("kernel-6.6"));
    opts.clock = clock.fn();
    return opts;
  };
  FakeClock c1, c2;
  Sampler a(make(c1)), b(make(c2));
  for (int i = 0; i < 3; ++i) {
    a.sample_once();
    b.sample_once();
  }
  std::ostringstream csv_a, csv_b;
  a.write_csv(csv_a);
  b.write_csv(csv_b);
  EXPECT_EQ(csv_a.str(), csv_b.str());  // bit-stable across runs

  const auto samples = a.samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].t_ns, 1000u);
  EXPECT_EQ(samples[1].t_ns, 2000u);
  EXPECT_EQ(samples[0].meminfo.anon_huge_pages, 3145728ull << 10);
  EXPECT_EQ(samples[0].smaps.file_pmd_mapped, 10240ull << 10);
  EXPECT_EQ(samples[0].vmstat.thp_fault_alloc, 44241u);
  EXPECT_EQ(a.errors(), 0u);
  EXPECT_FALSE(samples[0].have_counters);  // no PerfContext wired
}

TEST(SamplerTest, MissingProcFileIsCountedNotThrown) {
  // kernel-3.10 has no smaps_rollup (the file arrived in 4.14): each
  // sample records one capture error, and the run continues.
  FakeClock clock;
  SamplerOptions opts =
      SamplerOptions::with_procfs_root(fixture_root("kernel-3.10"));
  opts.clock = clock.fn();
  Sampler sampler(opts);
  sampler.sample_once();
  sampler.sample_once();
  EXPECT_EQ(sampler.errors(), 2u);
  EXPECT_EQ(sampler.taken(), 2u);
  const auto samples = sampler.samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_TRUE(samples[0].meminfo.anon_huge_pages.present());
  EXPECT_FALSE(samples[0].smaps.rss.present());  // the failed capture
  EXPECT_FALSE(samples[0].vmstat.thp_split_page.present());  // "thp_split"
}

TEST(SamplerTest, FullRingKeepsTheFirstHalfAndTheLatest) {
  FakeClock clock;
  SamplerOptions opts =
      SamplerOptions::with_procfs_root(fixture_root("kernel-6.6"));
  opts.clock = clock.fn();
  opts.ring_capacity = 4;
  Sampler sampler(opts);
  for (int i = 0; i < 7; ++i) sampler.sample_once();
  EXPECT_EQ(sampler.taken(), 7u);
  EXPECT_EQ(sampler.dropped(), 3u);
  const auto samples = sampler.samples();
  ASSERT_EQ(samples.size(), 4u);
  // The set-up (samples 1 and 2) stays; samples 3..5 were dropped.
  EXPECT_EQ(samples[0].t_ns, 1000u);
  EXPECT_EQ(samples[1].t_ns, 2000u);
  EXPECT_EQ(samples[2].t_ns, 6000u);
  EXPECT_EQ(samples[3].t_ns, 7000u);
}

TEST(SamplerTest, PublishedPerfCountersFlowIntoSamples) {
  perf::PerfContext perf;
  commit_cycles(perf, 12345);
  perf.publish();
  FakeClock clock;
  SamplerOptions opts =
      SamplerOptions::with_procfs_root(fixture_root("kernel-6.6"));
  opts.clock = clock.fn();
  opts.perf = &perf;
  Sampler sampler(opts);
  sampler.sample_once();
  commit_cycles(perf, 55);
  // Not yet published: the sampler must still see the old snapshot.
  sampler.sample_once();
  perf.publish();
  sampler.sample_once();
  const auto samples = sampler.samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_TRUE(samples[0].have_counters);
  EXPECT_EQ(samples[0].counters[perf::Event::kCycles], 12345u);
  EXPECT_EQ(samples[0].counter_seq, 1u);
  EXPECT_EQ(samples[1].counters[perf::Event::kCycles], 12345u);
  EXPECT_EQ(samples[2].counters[perf::Event::kCycles], 12400u);
  EXPECT_EQ(samples[2].counter_seq, 2u);
}

TEST(SamplerTest, CsvHasHeaderAndEmptyCellsForAbsentFields) {
  FakeClock clock;
  SamplerOptions opts =
      SamplerOptions::with_procfs_root(fixture_root("kernel-3.10"));
  opts.clock = clock.fn();
  Sampler sampler(opts);
  sampler.sample_once();
  std::ostringstream csv;
  sampler.write_csv(csv);
  const std::string text = csv.str();
  EXPECT_EQ(text.compare(0, 5, "t_ns,"), 0);
  // 3.10 reports no MemAvailable: the cell is empty, not "0".
  EXPECT_NE(text.find(",,"), std::string::npos);
}

TEST(SamplerTest, BackgroundThreadStartsSamplesAndStops) {
  SamplerOptions opts =
      SamplerOptions::with_procfs_root(fixture_root("kernel-6.6"));
  opts.cadence = std::chrono::milliseconds(1);
  Sampler sampler(opts);
  EXPECT_FALSE(sampler.running());
  sampler.start();
  EXPECT_TRUE(sampler.running());
  // The thread samples immediately on start; wait for proof of life.
  while (sampler.taken() == 0) std::this_thread::yield();
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  const auto n = sampler.taken();
  EXPECT_GE(n, 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(sampler.taken(), n);  // really stopped
}

TEST(SamplerTest, OverrunningCapturesSkipTicksOnAbsoluteDeadlines) {
  // The thread reads the clock as each capture starts and as it ends; a
  // clock that moves 1.5 cadences per read makes every capture take 3
  // cadences. Ticks sit on t0 + n * cadence: each capture after the first
  // finds two ticks already lost and one due, and the achieved period is
  // 3 cadences — not capture time plus a full cadence of waiting.
  constexpr std::uint64_t kCadenceNs = 2'000'000;
  std::atomic<std::uint64_t> now{0};
  SamplerOptions opts =
      SamplerOptions::with_procfs_root(fixture_root("kernel-6.6"));
  opts.cadence = std::chrono::milliseconds(2);
  opts.clock = [&now] {
    return now.fetch_add(kCadenceNs * 3 / 2, std::memory_order_relaxed);
  };
  Sampler sampler(opts);
  EXPECT_EQ(sampler.period_ns(), 0u);  // no captures yet
  sampler.start();
  while (sampler.taken() < 6) std::this_thread::yield();
  sampler.stop();
  const std::uint64_t taken = sampler.taken();
  EXPECT_EQ(sampler.missed(), 2 * (taken - 1));
  EXPECT_EQ(sampler.period_ns(), 3 * kCadenceNs);
  const auto samples = sampler.samples();
  for (std::size_t n = 1; n < samples.size(); ++n) {
    EXPECT_EQ(samples[n].t_ns - samples[n - 1].t_ns, 3 * kCadenceNs);
  }
}

TEST(SamplerTest, SamplerOverParallelSweepIsRaceFree) {
  // The tsan workload: a background sampler reading published counters
  // at 1 ms cadence while parallel lanes record spans and the driver
  // thread commits counters between regions, as the replay does. Any
  // read of unsynchronized state here is a tsan report.
  rt::Runtime runtime({.lanes = 2});
  perf::PerfContext perf;
  TelemetryOptions topts;
  topts.lanes = runtime.lanes();
  Telemetry telemetry(topts);
  telemetry.install(runtime);
  SamplerOptions opts =
      SamplerOptions::with_procfs_root(fixture_root("kernel-6.6"));
  opts.cadence = std::chrono::milliseconds(1);
  opts.perf = &perf;
  Sampler sampler(opts);
  sampler.start();
  for (int step = 0; step < 20; ++step) {
    runtime.arena().parallel_for(
        128, [](int, std::size_t) { FHP_TRACE_SPAN("load.item"); });
    commit_cycles(perf, 128 * 7);
    perf.publish();  // step boundary: legal snapshot point
  }
  sampler.stop();
  telemetry.uninstall();
  EXPECT_EQ(telemetry.total_spans(), 20u * 128u);
  EXPECT_EQ(perf.published().counters[perf::Event::kCycles],
            20u * 128u * 7u);
  EXPECT_GE(sampler.taken(), 1u);
}

// ---------------------------------------------------------------- timeline

TEST(TimelineTest, ExportContainsSpansMarksCountersAndHistograms) {
  FakeClock clock;
  TelemetryOptions topts;
  topts.lanes = 2;
  topts.clock = clock.fn();
  Telemetry telemetry(topts);
  perf::Timers timers(2);
  timers.set_downstream(&telemetry);
  timers.record_span(0, "driver.step", 1000, 9000, 0);
  timers.record_span(0, "hydro.sweep_x", 2000, 5000, 1);
  timers.record_span(1, "task.sweep_x", 2500, 2600, 0);
  timers.mark_step(1, 0.125, 0.125);

  SamplerOptions sopts =
      SamplerOptions::with_procfs_root(fixture_root("kernel-6.6"));
  sopts.clock = clock.fn();
  Sampler sampler(sopts);
  sampler.sample_once();

  std::ostringstream os;
  write_timeline(os, telemetry, timers, &sampler);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"driver.step\""), std::string::npos);
  EXPECT_NE(json.find("\"task.sweep_x\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // step mark
  EXPECT_NE(json.find("\"meminfo.AnonHugePages\""), std::string::npos);
  EXPECT_NE(json.find("\"vmstat.thp_fault_alloc\""), std::string::npos);
  EXPECT_NE(json.find("\"flashhpSummary\""), std::string::npos);
  EXPECT_NE(json.find("\"samplesMissed\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"samplePeriodNs\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"driver.step\": {\"count\":1,\"total_ns\":8000,"),
            std::string::npos);
  EXPECT_NE(json.find("\"spanOverflow\": 0"), std::string::npos);
  // ts values are normalized: the earliest event sits at 0.000 µs.
  EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos);
  // A deterministic export: same inputs, same bytes.
  std::ostringstream os2;
  write_timeline(os2, telemetry, timers, &sampler);
  EXPECT_EQ(json, os2.str());
}

TEST(TimelineTest, TotalsAreExactPastRingOverflow) {
  // The rings keep each lane's latest 64 records; the runtime's
  // reduction times every span, and the timeline's histograms read it.
  rt::Runtime runtime({.lanes = 2});
  TelemetryOptions opts;
  opts.lanes = runtime.lanes();
  opts.ring_capacity = 64;
  Telemetry telemetry(opts);
  telemetry.install(runtime);
  runtime.arena().parallel_for(10000, [](int /*lane*/, std::size_t /*i*/) {
    FHP_TRACE_SPAN("exact.item");
  });
  telemetry.uninstall();
  EXPECT_GT(telemetry.dropped_spans(), 0u);
  EXPECT_EQ(runtime.timers().calls("exact.item"), 10000u);
  std::ostringstream os;
  write_timeline(os, telemetry, runtime.timers());
  EXPECT_NE(os.str().find("\"exact.item\": {\"count\":10000,"),
            std::string::npos);
}

TEST(TimelineTest, CsvPathDerivation) {
  EXPECT_EQ(csv_path_for("timeline.json"), "timeline.csv");
  EXPECT_EQ(csv_path_for("out/trace.json"), "out/trace.csv");
  EXPECT_EQ(csv_path_for("trace"), "trace.csv");
}

TEST(TimelineTest, WriteFileThrowsOnUnwritablePath) {
  Telemetry telemetry;
  const perf::Timers timers;
  EXPECT_THROW(
      write_timeline_file("/nonexistent/dir/t.json", telemetry, timers),
      SystemError);
}

// ------------------------------------------------------------- environment

TEST(ObsEnvironment, SampleMsParsesAndValidates) {
  ::unsetenv(kSampleMsEnvVar);
  EXPECT_EQ(sample_ms_from_environment(10), 10);
  ::setenv(kSampleMsEnvVar, "25", 1);
  EXPECT_EQ(sample_ms_from_environment(10), 25);
  ::setenv(kSampleMsEnvVar, "0", 1);
  EXPECT_THROW(static_cast<void>(sample_ms_from_environment(10)), ConfigError);
  ::setenv(kSampleMsEnvVar, "fast", 1);
  EXPECT_THROW(static_cast<void>(sample_ms_from_environment(10)), ConfigError);
  // 2^32 + 1 ms must not truncate to a 1 ms cadence.
  ::setenv(kSampleMsEnvVar, "4294967297", 1);
  EXPECT_EQ(sample_ms_from_environment(10), INT_MAX);
  ::unsetenv(kSampleMsEnvVar);
}

TEST(ObsEnvironment, TimelinePathDefaultsToDisabled) {
  ::unsetenv(kTimelineEnvVar);
  EXPECT_TRUE(timeline_from_environment().empty());
  ::setenv(kTimelineEnvVar, "run.json", 1);
  EXPECT_EQ(timeline_from_environment(), "run.json");
  ::unsetenv(kTimelineEnvVar);
}

}  // namespace
}  // namespace fhp::obs

// ------------------------------------------------- allocation instrumentation
//
// Global operator-new override counting every allocation in the test
// binary; the hot-path guards above assert the count stays flat across
// 1e5 span scopes, unbound and bound to a runtime.

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
