/// \file experiment_common.hpp
/// \brief Shared harness for the paper-reproduction benchmarks.
///
/// Each table/figure benchmark runs the same workload twice — without
/// huge pages (policy none) and with them (policy hugetlbfs, which falls
/// back to THP and then to base pages if the system provides no explicit
/// pool) — and derives the paper's five PAPI measures per instrumented
/// region plus the FLASH-timer analog. The harness also performs the
/// paper's §III node preparation (sizing the hugetlb pool, hugeadm-style)
/// and its verification step (watching /proc/meminfo and smaps).

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "mem/hugeadm.hpp"
#include "mem/huge_policy.hpp"
#include "mem/meminfo.hpp"
#include "mem/page_size.hpp"
#include "perf/events.hpp"
#include "perf/perf_context.hpp"
#include "perf/region.hpp"
#include "perf/timers.hpp"
#include "rt/runtime.hpp"
#include "sim/driver.hpp"
#include "support/string_util.hpp"
#include "support/table_writer.hpp"
#include "tlb/machine.hpp"

namespace fhp::bench {

/// Everything a table row needs for one experiment arm.
struct ArmResult {
  perf::MeasureSet measures;   ///< the instrumented region's five measures
  double flash_timer = 0;      ///< modeled total evolution time [s]
  double wall_seconds = 0;     ///< host wall clock (reported, not compared)
  std::string backing;         ///< what actually backed the big arrays
  std::uint64_t resident_huge = 0;  ///< bytes verified on huge pages
};

/// The modeled A64FX clock used to derive "Time (s)" from cycles.
inline constexpr double kClockHz = 1.8e9;

/// Prepare the node like the paper's §III: try to reserve a 2 MiB-page
/// pool big enough for \p bytes (plus slack). Returns true if a pool
/// exists afterwards. Prints what happened — verification, not assumption,
/// is the paper's methodological point.
inline bool prepare_huge_pool(std::size_t bytes) {
  const std::size_t pages = (bytes + mem::kPage2M - 1) / mem::kPage2M + 8;
  const auto granted = mem::ensure_hugetlb_pool(mem::kPage2M, pages);
  const auto snap = mem::MeminfoSnapshot::capture();
  std::printf("# hugetlb pool: requested %zu x 2 MiB pages, %s; %s\n", pages,
              granted ? (std::to_string(*granted) + " configured").c_str()
                      : "pool not configurable (not privileged?)",
              snap.summary().c_str());
  return granted.has_value() && *granted > 0;
}

/// One experiment arm's instrumentation bundle: its own rt::Runtime (so
/// arms cannot leak counters into each other through its perf() and no
/// reset() hygiene is needed), the machine model wired to that context,
/// the FLASH-style timers, and the host wall clock started at
/// construction. All three table/figure benches build their arms on this
/// so the per-arm boilerplate cannot drift between them.
class ExperimentArm {
 public:
  explicit ExperimentArm(const rt::RuntimeOptions& options)
      : runtime_(options), machine_({}, &runtime_.perf()) {}

  [[nodiscard]] rt::Runtime& runtime() noexcept { return runtime_; }
  [[nodiscard]] perf::PerfContext& perf() const noexcept {
    return runtime_.perf();
  }
  [[nodiscard]] tlb::Machine& machine() noexcept { return machine_; }
  [[nodiscard]] perf::Timers& timers() noexcept { return timers_; }

  /// DriverUnits with the runtime and machine pre-wired; callers add
  /// flame/gravity/eos_trace as the workload needs.
  [[nodiscard]] sim::DriverUnits units() noexcept {
    sim::DriverUnits u;
    u.machine = &machine_;
    u.runtime = &runtime_;
    return u;
  }

  /// Derive the arm's measures for \p region_name; stamps the wall clock.
  [[nodiscard]] ArmResult finish(const std::string& region_name) const {
    ArmResult arm;
    const perf::RegionStats stats = perf().regions().get(region_name);
    arm.measures = perf::derive_measures(stats.totals, kClockHz);
    const perf::CounterSet totals = perf().snapshot();
    arm.flash_timer =
        static_cast<double>(totals[perf::Event::kCycles]) / kClockHz;
    arm.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall0_)
            .count();
    return arm;
  }

 private:
  rt::Runtime runtime_;
  tlb::Machine machine_;
  perf::Timers timers_;
  std::chrono::steady_clock::time_point wall0_ =
      std::chrono::steady_clock::now();
};

/// Print the table in the paper's layout, with the published values as a
/// side-by-side reference, plus the ratio column of Figure 1.
inline void print_paper_table(const std::string& title,
                              const ArmResult& without, const ArmResult& with,
                              const double paper_without[6],
                              const double paper_with[6]) {
  TableWriter t(title);
  t.set_header({"Measure", "Without HPs", "With HPs", "Ratio",
                "Paper w/o", "Paper w/"});
  auto row = [&](const char* name, double a, double b, double pa, double pb) {
    t.add_row({name, format_measure(a), format_measure(b),
               b != 0 && a != 0 ? format_ratio(b / a) : "-",
               format_measure(pa), format_measure(pb)});
  };
  row("Hardware (cycles)", without.measures.hardware_cycles,
      with.measures.hardware_cycles, paper_without[0], paper_with[0]);
  row("Time (s)", without.measures.time_seconds, with.measures.time_seconds,
      paper_without[1], paper_with[1]);
  row("SVE Instructions/cycle", without.measures.vector_per_cycle,
      with.measures.vector_per_cycle, paper_without[2], paper_with[2]);
  row("Memory (Gbytes/s)", without.measures.memory_gbytes_per_s,
      with.measures.memory_gbytes_per_s, paper_without[3], paper_with[3]);
  row("DTLB misses (1/s)", without.measures.dtlb_misses_per_s,
      with.measures.dtlb_misses_per_s, paper_without[4], paper_with[4]);
  row("FLASH Timer (s)", without.flash_timer, with.flash_timer,
      paper_without[5], paper_with[5]);
  t.render(std::cout);
  std::printf("# backing: without = %s; with = %s (huge-resident %s)\n",
              without.backing.c_str(), with.backing.c_str(),
              format_bytes(with.resident_huge).c_str());
  std::printf("# host wall clock: without %.1f s, with %.1f s\n",
              without.wall_seconds, with.wall_seconds);
}

/// The published Tables I and II, for side-by-side printing and for the
/// reproduction-band checks in EXPERIMENTS.md.
/// Order: cycles, time, SVE/cycle, GB/s, DTLB/s, FLASH timer.
inline constexpr double kPaperEosWithout[6] = {1.25e11, 6.97e1, 0.47,
                                               4.19,    2.34e7, 339.032};
inline constexpr double kPaperEosWith[6] = {1.17e11, 6.52e1, 0.51,
                                            4.45,    1.10e6, 333.150};
inline constexpr double kPaperHydroWithout[6] = {1.21e12, 6.70e2, 0.11,
                                                 10.10,   2.42e6, 1203.616};
inline constexpr double kPaperHydroWith[6] = {1.20e12, 6.69e2, 0.11,
                                              10.09,   7.83e5, 1176.312};

// ------------------------------------------------------------- artifacts

/// Ordered JSON emitter for the CI --json=PATH artifacts. All benches
/// route their artifact through this one writer so the files keep one
/// convention (two-space indent, doubles at six decimals) instead of
/// each bench hand-rolling fprintf formats.
class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* f) : f_(f) {}

  void begin_object() { item(); open('{'); }
  void begin_object(const char* key) { item(key); open('{'); }
  void begin_array(const char* key) { item(key); open('['); }
  void end_object() { close('}'); }
  void end_array() { close(']'); }

  void field(const char* key, const std::string& v) {
    item(key);
    std::fprintf(f_, "\"%s\"", v.c_str());
  }
  void field(const char* key, const char* v) { field(key, std::string(v)); }
  void field(const char* key, double v) {
    item(key);
    std::fprintf(f_, "%.6f", v);
  }
  void field(const char* key, bool v) {
    item(key);
    std::fprintf(f_, "%s", v ? "true" : "false");
  }
  void field(const char* key, int v) {
    item(key);
    std::fprintf(f_, "%d", v);
  }
  void field(const char* key, std::uint64_t v) {
    item(key);
    std::fprintf(f_, "%llu", static_cast<unsigned long long>(v));
  }

 private:
  void indent() const {
    for (std::size_t d = 0; d < first_.size(); ++d) std::fputs("  ", f_);
  }
  /// Comma/newline/indent for a new item in the current container, then
  /// the key (if any — array elements and the root have none).
  void item(const char* key = nullptr) {
    if (!first_.empty()) {
      std::fputs(first_.back() ? "\n" : ",\n", f_);
      first_.back() = false;
      indent();
    }
    if (key != nullptr) std::fprintf(f_, "\"%s\": ", key);
  }
  void open(char c) {
    std::fputc(c, f_);
    first_.push_back(true);
  }
  void close(char c) {
    const bool empty = first_.back();
    first_.pop_back();
    if (!empty) {
      std::fputc('\n', f_);
      indent();
    }
    std::fputc(c, f_);
    if (first_.empty()) std::fputc('\n', f_);
  }

  std::FILE* f_;
  std::vector<bool> first_;
};

// ------------------------------------------------------------ thread scan

/// Shared --json=PATH lane-scan entry. Runs the workload \p run at 1, 2
/// and 4 lanes — `run(arm)` evolves it once on an arm built from
/// \p context at that lane count and returns the evolution wall time in
/// seconds — asserts the modeled counters (everything except wall time)
/// bit-identical across the three runs, the driver's determinism
/// contract, and writes the artifact through JsonWriter. \p header emits
/// bench-specific fields (nsteps, ...) into the top-level object.
/// Returns 0 iff the counters were identical and the file was written.
inline int run_thread_scan(const std::string& path, const char* bench,
                           rt::RuntimeOptions context,
                           const std::function<double(ExperimentArm&)>& run,
                           const std::function<void(JsonWriter&)>& header) {
  constexpr int kLanes[3] = {1, 2, 4};
  struct Run {
    double wall = 0;
    perf::CounterSet totals;
  };
  std::array<Run, 3> runs;
  for (std::size_t t = 0; t < runs.size(); ++t) {
    context.lanes = kLanes[t];
    ExperimentArm arm(context);
    runs[t].wall = run(arm);
    runs[t].totals = arm.perf().snapshot();
    std::printf("# lanes=%d wall=%.3f s cycles=%llu dtlb=%llu\n", kLanes[t],
                runs[t].wall,
                static_cast<unsigned long long>(
                    runs[t].totals[perf::Event::kCycles]),
                static_cast<unsigned long long>(
                    runs[t].totals[perf::Event::kDtlbMisses]));
  }

  bool identical = true;
  for (const Run& r : runs) {
    for (std::size_t e = 0; e < perf::kNumEvents; ++e) {
      if (e == static_cast<std::size_t>(perf::Event::kWallNanos)) continue;
      identical = identical && r.totals.values[e] == runs[0].totals.values[e];
    }
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  JsonWriter w(f);
  w.begin_object();
  w.field("bench", bench);
  header(w);
  w.begin_object("wall_seconds");
  for (std::size_t t = 0; t < runs.size(); ++t) {
    w.field(std::to_string(kLanes[t]).c_str(), runs[t].wall);
  }
  w.end_object();
  w.field("speedup_4_over_1",
          runs[2].wall > 0 ? runs[0].wall / runs[2].wall : 0.0);
  w.field("modeled_counters_identical", identical);
  w.end_object();
  std::fclose(f);
  std::printf("# wrote %s (counters identical across 1/2/4 lanes: %s)\n",
              path.c_str(), identical ? "yes" : "NO");
  return identical ? 0 : 1;
}

}  // namespace fhp::bench
