/// \file test_perf.cpp
/// \brief Unit tests for the perf (PAPI-analog) library.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perf/events.hpp"
#include "perf/histogram.hpp"
#include "perf/perf_context.hpp"
#include "perf/perf_event_backend.hpp"
#include "perf/region.hpp"
#include "perf/report.hpp"
#include "perf/timers.hpp"
#include "support/error.hpp"
#include "support/trace.hpp"

namespace fhp::perf {
namespace {

/// Each test owns its own PerfContext — the redesign's point is that no
/// reset() hygiene against ambient global state is needed.
class PerfTest : public ::testing::Test {
 protected:
  PerfContext ctx_;
};

/// Commit \p amount of \p event as the machine-model replay does: one
/// quantum through the CounterSink interface.
void commit(PerfContext& ctx, Event event, std::uint64_t amount) {
  CounterSet delta;
  delta[event] = amount;
  ctx.sink_counters(delta);
}

// ------------------------------------------------------------------ events

TEST(Events, NamesAreUniqueAndPapiFlavoured) {
  EXPECT_EQ(event_name(Event::kCycles), "PAPI_TOT_CYC");
  EXPECT_EQ(event_name(Event::kDtlbMisses), "PAPI_TLB_DM");
  EXPECT_EQ(event_name(Event::kVectorOps), "PAPI_VEC_INS");
}

TEST(Events, CounterSetArithmetic) {
  CounterSet a, b;
  a[Event::kCycles] = 100;
  a[Event::kDtlbMisses] = 7;
  b[Event::kCycles] = 250;
  b[Event::kDtlbMisses] = 10;
  const CounterSet d = b.since(a);
  EXPECT_EQ(d[Event::kCycles], 150u);
  EXPECT_EQ(d[Event::kDtlbMisses], 3u);
  CounterSet sum = a;
  sum += d;
  EXPECT_EQ(sum[Event::kCycles], b[Event::kCycles]);
}

TEST(Events, DeriveMeasuresMatchesPaperDefinitions) {
  CounterSet delta;
  delta[Event::kCycles] = 1800000000ull;  // 1 second at 1.8 GHz
  delta[Event::kVectorOps] = 900000000ull;
  delta[Event::kDtlbMisses] = 2340000ull;
  delta[Event::kBytesRead] = 3000000000ull;
  delta[Event::kBytesWritten] = 1190000000ull;
  const MeasureSet m = derive_measures(delta, 1.8e9);
  EXPECT_DOUBLE_EQ(m.hardware_cycles, 1.8e9);
  EXPECT_DOUBLE_EQ(m.time_seconds, 1.0);
  EXPECT_DOUBLE_EQ(m.vector_per_cycle, 0.5);
  EXPECT_NEAR(m.memory_gbytes_per_s, 4.19, 1e-9);
  EXPECT_DOUBLE_EQ(m.dtlb_misses_per_s, 2.34e6);
}

TEST(Events, DeriveMeasuresZeroSafe) {
  const MeasureSet m = derive_measures(CounterSet{}, 1.8e9);
  EXPECT_EQ(m.time_seconds, 0.0);
  EXPECT_EQ(m.vector_per_cycle, 0.0);
  EXPECT_EQ(m.dtlb_misses_per_s, 0.0);
}

// ----------------------------------------------------------- perf context

TEST_F(PerfTest, ContextCountersAccumulate) {
  commit(ctx_, Event::kCycles, 10);
  commit(ctx_, Event::kCycles, 5);
  commit(ctx_, Event::kDtlbMisses, 2);
  const CounterSet s = ctx_.snapshot();
  EXPECT_EQ(s[Event::kCycles], 15u);
  EXPECT_EQ(s[Event::kDtlbMisses], 2u);
}

TEST_F(PerfTest, CommittedQuantaSum) {
  CounterSet first;
  first[Event::kBytesRead] = 123;
  first[Event::kCycles] = 9;
  CounterSet second;
  second[Event::kBytesRead] = 77;
  ctx_.sink_counters(first);
  ctx_.sink_counters(second);
  const CounterSet s = ctx_.snapshot();
  EXPECT_EQ(s[Event::kBytesRead], 200u);
  EXPECT_EQ(s[Event::kCycles], 9u);
}

TEST_F(PerfTest, ContextsAreIndependent) {
  PerfContext other;
  commit(ctx_, Event::kCycles, 42);
  EXPECT_EQ(other.snapshot()[Event::kCycles], 0u);
  EXPECT_EQ(ctx_.snapshot()[Event::kCycles], 42u);
}

// ----------------------------------------------------------------- regions

TEST_F(PerfTest, RegionCapturesCounterDelta) {
  {
    PerfRegion region(ctx_, "unit-test");
    commit(ctx_, Event::kCycles, 1000);
    commit(ctx_, Event::kDtlbMisses, 3);
  }
  const RegionStats stats = ctx_.regions().get("unit-test");
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.totals[Event::kCycles], 1000u);
  EXPECT_EQ(stats.totals[Event::kDtlbMisses], 3u);
  EXPECT_GT(stats.totals[Event::kWallNanos], 0u);
}

TEST_F(PerfTest, RegionAccumulatesAcrossEntries) {
  for (int i = 0; i < 3; ++i) {
    PerfRegion region(ctx_, "loop");
    commit(ctx_, Event::kCycles, 10);
  }
  const RegionStats stats = ctx_.regions().get("loop");
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.totals[Event::kCycles], 30u);
}

TEST_F(PerfTest, RegionsNestIndependently) {
  {
    PerfRegion outer(ctx_, "outer");
    commit(ctx_, Event::kCycles, 5);
    {
      PerfRegion inner(ctx_, "inner");
      commit(ctx_, Event::kCycles, 7);
    }
    commit(ctx_, Event::kCycles, 11);
  }
  // Nested counts land in both regions (like nested PAPI reads).
  EXPECT_EQ(ctx_.regions().get("inner").totals[Event::kCycles], 7u);
  EXPECT_EQ(ctx_.regions().get("outer").totals[Event::kCycles], 23u);
}

TEST_F(PerfTest, StopIsIdempotent) {
  PerfRegion region(ctx_, "stopped");
  commit(ctx_, Event::kCycles, 4);
  region.stop();
  commit(ctx_, Event::kCycles, 100);
  region.stop();  // no-op
  EXPECT_EQ(ctx_.regions().get("stopped").totals[Event::kCycles], 4u);
  EXPECT_EQ(ctx_.regions().get("stopped").entries, 1u);
}

TEST_F(PerfTest, UnknownRegionIsZeros) {
  const RegionStats stats = ctx_.regions().get("never-entered");
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.totals[Event::kCycles], 0u);
}

TEST_F(PerfTest, RegistryNamesSorted) {
  { PerfRegion r(ctx_, "zeta"); }
  { PerfRegion r(ctx_, "alpha"); }
  const auto names = ctx_.regions().names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

// --------------------------------------------------------------- hw backend

TEST(PerfEventBackendTest, ProbeNeverCrashes) {
  PerfEventBackend backend;
  // May or may not be available in a container; both are fine, but the
  // object must be safely usable either way.
  const CounterSet s = backend.read();
  if (!backend.available()) {
    EXPECT_EQ(s[Event::kCycles], 0u);
  }
}

TEST(PerfEventBackendTest, HardwareCaptureDegradesGracefully) {
  set_hardware_capture(true);
  // If the PMU is unavailable the flag silently stays off.
  if (!PerfEventBackend::paranoid_level().has_value()) {
    EXPECT_FALSE(hardware_capture_active());
  }
  set_hardware_capture(false);
  EXPECT_FALSE(hardware_capture_active());
}

// ---------------------------------------------------------------- histogram

TEST(HistogramTest, BucketMapping) {
  Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(4);
  EXPECT_EQ(h.bucket_count(0), 1u);  // v == 0
  EXPECT_EQ(h.bucket_count(1), 1u);  // v == 1
  EXPECT_EQ(h.bucket_count(2), 2u);  // v in [2, 4)
  EXPECT_EQ(h.bucket_count(3), 1u);  // v in [4, 8)
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 10u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 4u);
  EXPECT_EQ(Histogram::bucket_floor(0), 0u);
  EXPECT_EQ(Histogram::bucket_floor(1), 1u);
  EXPECT_EQ(Histogram::bucket_floor(10), 512u);
}

TEST(HistogramTest, QuantilesAreMonotonicAndBounded) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v * 17);
  const double p50 = h.quantile(0.5);
  const double p90 = h.quantile(0.9);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(h.quantile(0.0), p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, static_cast<double>(h.max()));
  // Log2 buckets are good to a factor of 2 around the true quantile.
  EXPECT_GT(p50, 0.25 * 500 * 17);
  EXPECT_LT(p50, 4.0 * 500 * 17);
  EXPECT_FALSE(h.summary().empty());
}

TEST(HistogramTest, EmptyHistogramIsWellDefined) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, MergeEqualsBulkAdd) {
  // Merging per-lane histograms must be exact: bucket-wise addition is
  // order-independent, so the merged result matches the single-histogram
  // scan bit for bit.
  Histogram lane0, lane1, all;
  for (std::uint64_t v = 1; v < 500; ++v) {
    const std::uint64_t sample = v * v + 3;
    ((v % 2 == 0) ? lane0 : lane1).add(sample);
    all.add(sample);
  }
  Histogram merged = lane0;
  merged.merge(lane1);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_EQ(merged.sum(), all.sum());
  EXPECT_EQ(merged.min(), all.min());
  EXPECT_EQ(merged.max(), all.max());
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(merged.bucket_count(i), all.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_EQ(merged.quantile(0.9), all.quantile(0.9));
}

// ------------------------------------------------------------------ timers
//
// Timers is the exact reduction of the spans closed on the threads that
// bind it (a runtime binds its own on its driver thread and lanes); here
// each test binds one directly.

TEST(TimersTest, AccumulatesNamedScopes) {
  Timers timers;
  {
    const trace::SinkBinding bound(&timers);
    FHP_TRACE_SPAN("evolution");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(timers.seconds("evolution"), 0.001);
  EXPECT_EQ(timers.calls("evolution"), 1u);
}

TEST(TimersTest, NestedTimersFormDistinctNodes) {
  // One row per name: a name timed nested and at the root sums both.
  Timers timers;
  const trace::SinkBinding bound(&timers);
  {
    FHP_TRACE_SPAN("hydro");
    FHP_TRACE_SPAN("riemann");
  }
  {
    FHP_TRACE_SPAN("riemann");
  }
  EXPECT_EQ(timers.calls("riemann"), 2u);
  EXPECT_EQ(timers.calls("hydro"), 1u);
}

TEST(TimersTest, SameNameNestsAsDistinctNode) {
  // FLASH allows recursive timers: a "y" inside "y" is counted twice.
  Timers timers;
  const trace::SinkBinding bound(&timers);
  {
    FHP_TRACE_SPAN("y");
    FHP_TRACE_SPAN("y");
  }
  EXPECT_EQ(timers.calls("y"), 2u);
}

TEST(TimersTest, ScopeIsExceptionSafe) {
  Timers timers;
  const trace::SinkBinding bound(&timers);
  try {
    FHP_TRACE_SPAN("guarded");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(timers.calls("guarded"), 1u);
}

TEST(TimersTest, SummaryListsTimers) {
  Timers timers;
  {
    const trace::SinkBinding bound(&timers);
    FHP_TRACE_SPAN("evolution");
    FHP_TRACE_SPAN("hydro");
  }
  std::ostringstream os;
  timers.summary(os);
  const std::string table = os.str();
  // Parent before child, the child indented by its depth.
  EXPECT_LT(table.find("evolution"), table.find("  hydro"));
  EXPECT_NE(table.find("elapsed"), std::string::npos);
}

TEST(TimersTest, LanesMergeByNameText) {
  // Entries are keyed by the literal's address; two literals with the
  // same text, on two lanes, read back as one name.
  const std::string text = "kernel";
  Timers timers(2);
  timers.record_span(0, "kernel", 0, 100, 0);
  timers.record_span(1, text.c_str(), 0, 300, 0);
  timers.record_span(1, "other", 0, 50, 0);
  EXPECT_EQ(timers.calls("kernel"), 2u);
  EXPECT_DOUBLE_EQ(timers.seconds("kernel"), 400e-9);
  const auto histograms = timers.histograms();
  ASSERT_EQ(histograms.size(), 2u);
  EXPECT_EQ(histograms.at("kernel").max(), 300u);
}

TEST(TimersTest, OverflowIsCountedNotDropped) {
  // Names beyond a lane's capacity and lanes beyond the table count are
  // counted, and the summary says so.
  std::vector<std::string> names;
  for (int i = 0; i <= Timers::kNameCapacity; ++i) {
    names.push_back("name" + std::to_string(i));
  }
  Timers timers(1);
  for (const std::string& name : names) {
    timers.record_span(0, name.c_str(), 0, 1, 0);
  }
  timers.record_span(3, "far lane", 0, 1, 0);
  EXPECT_EQ(timers.overflow(), 2u);
  EXPECT_EQ(timers.calls(names.back()), 0u);
  std::ostringstream os;
  timers.summary(os);
  EXPECT_NE(os.str().find("untimed spans (name or lane overflow): 2"),
            std::string::npos);
}

TEST(TimersTest, DownstreamSinkReceivesSpansAndTimesThem) {
  // An installed downstream sink sees every span and step mark, and its
  // clock times the reduction's spans.
  struct Downstream final : trace::Sink {
    std::uint64_t now_ns() const override { return ++ticks * 1000; }
    void record_span(int, const char*, std::uint64_t, std::uint64_t,
                     std::uint16_t) noexcept override {
      ++spans;
    }
    void mark_step(int, double, double) override { ++marks; }
    mutable std::uint64_t ticks = 0;
    int spans = 0;
    int marks = 0;
  } downstream;
  Timers timers;
  timers.set_downstream(&downstream);
  {
    const trace::SinkBinding bound(&timers);
    {
      FHP_TRACE_SPAN("timed");
    }
    trace::step_mark(1, 0.5, 0.5);
  }
  EXPECT_EQ(downstream.spans, 1);
  EXPECT_EQ(downstream.marks, 1);
  EXPECT_DOUBLE_EQ(timers.seconds("timed"), 1e-6);
}

// ------------------------------------------------------------------ report

TEST_F(PerfTest, RegionReportDerivesMeasures) {
  {
    PerfRegion region(ctx_, "report-me");
    commit(ctx_, Event::kCycles, 1800000000ull);
    commit(ctx_, Event::kDtlbMisses, 900000ull);
    commit(ctx_, Event::kVectorOps, 180000000ull);
  }
  const RegionReport report(ctx_, 1.8e9);
  const RegionMeasures rm = report.get("report-me");
  EXPECT_EQ(rm.entries, 1u);
  EXPECT_NEAR(rm.measures.time_seconds, 1.0, 1e-9);
  EXPECT_NEAR(rm.measures.dtlb_misses_per_s, 9.0e5, 1.0);
  EXPECT_NEAR(rm.measures.vector_per_cycle, 0.1, 1e-9);
  EXPECT_GT(rm.wall_seconds, 0.0);
}

TEST_F(PerfTest, RegionReportUnknownRegionIsZeros) {
  const RegionReport report(ctx_, 1.8e9);
  EXPECT_EQ(report.get("absent").entries, 0u);
}

TEST_F(PerfTest, RegionReportRenders) {
  { PerfRegion region(ctx_, "alpha"); }
  { PerfRegion region(ctx_, "beta"); }
  const RegionReport report(ctx_, 1.8e9);
  std::ostringstream os;
  report.render(os);
  EXPECT_NE(os.str().find("alpha"), std::string::npos);
  EXPECT_NE(os.str().find("beta"), std::string::npos);
  EXPECT_NE(os.str().find("DTLB/s"), std::string::npos);
}

}  // namespace
}  // namespace fhp::perf
