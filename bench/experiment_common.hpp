/// \file experiment_common.hpp
/// \brief Shared harness for the paper-reproduction benchmarks.
///
/// Each table benchmark runs the same workload twice — without huge
/// pages (policy none) and with them (policy hugetlbfs, which falls back
/// to THP and then to base pages when the host grants no explicit pool)
/// — and derives the paper's five PAPI measures per instrumented region
/// plus the FLASH-timer analog. Sizing the hugetlb pool is the paper's
/// §III node preparation, taken before the run (`hugectl pool N`); the
/// harness only prints the inventory it found and, per arm, the backing
/// it verified — verification, not assumption, is the paper's
/// methodological point. With --json=PATH a table bench writes the run's
/// modeled ledger (write_ledger), which CI diffs against the committed
/// BENCH_table1.json / BENCH_table2.json.

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "mem/meminfo.hpp"
#include "mem/thp.hpp"
#include "obs/recording.hpp"
#include "perf/events.hpp"
#include "perf/perf_context.hpp"
#include "perf/region.hpp"
#include "rt/runtime.hpp"
#include "support/runtime_params.hpp"
#include "support/string_util.hpp"
#include "support/table_writer.hpp"

namespace fhp::bench {

/// Everything a table row and the ledger need for one experiment arm.
struct ArmResult {
  perf::RegionStats region;    ///< the instrumented region's entries/counters
  perf::CounterSet totals;     ///< the whole run's counters
  perf::MeasureSet measures;   ///< the instrumented region's five measures
  double flash_timer = 0;      ///< modeled total evolution time [s]
  /// The page shift the machine model charged, per traced array.
  std::vector<std::pair<std::string, std::uint8_t>> page_shifts;
  double wall_seconds = 0;     ///< host wall clock (reported, not compared)
  std::string backing;         ///< what actually backed the big arrays
  std::uint64_t resident_huge = 0;  ///< bytes verified on huge pages
};

/// The modeled A64FX clock used to derive "Time (s)" from cycles.
inline constexpr double kClockHz = 1.8e9;

/// Print the huge-page inventory the host offers: the hugetlb pool and
/// the THP mode. The benches use what is there and never resize it.
inline void print_inventory() {
  std::printf("# inventory: %s; THP %s\n",
              mem::MeminfoSnapshot::capture().summary().c_str(),
              std::string(mem::to_string(mem::system_thp_mode())).c_str());
}

/// The timeline an arm writes under --obs.timeline=PATH: PATH with
/// ".without_hp" (policy none) or ".with_hp" before its ".json", e.g.
/// t.json -> t.without_hp.json and t.with_hp.json ("" stays off).
inline std::string arm_timeline(const std::string& path,
                                mem::HugePolicy policy) {
  if (path.empty()) return path;
  std::filesystem::path arm(path);
  return arm
      .replace_filename(
          arm.stem().string() +
          (policy == mem::HugePolicy::kNone ? ".without_hp" : ".with_hp") +
          arm.extension().string())
      .string();
}

/// One experiment arm's context: its own rt::Runtime (so arms cannot
/// leak counters into each other through its perf() and no reset()
/// hygiene is needed), the arm's obs::Recording when --obs.timeline is
/// set, and the host wall clock started at construction. The arm's
/// sim::Simulation builds the machine model.
class ExperimentArm {
 public:
  /// \p params carries `obs.timeline` / `obs.sample_ms`.
  ExperimentArm(const rt::RuntimeOptions& options,
                const RuntimeParams& params)
      : runtime_(options),
        recording_(runtime_,
                   arm_timeline(params.get_string("obs.timeline"),
                                runtime_.huge_policy()),
                   static_cast<int>(params.get_int("obs.sample_ms"))) {}

  [[nodiscard]] rt::Runtime& runtime() noexcept { return runtime_; }

  /// Derive the arm's measures for \p region_name; stamps the wall clock
  /// and writes the arm's timeline.
  [[nodiscard]] ArmResult finish(const std::string& region_name) {
    ArmResult arm;
    arm.region = runtime_.perf().regions().get(region_name);
    arm.measures = perf::derive_measures(arm.region.totals, kClockHz);
    arm.totals = runtime_.perf().snapshot();
    arm.flash_timer =
        static_cast<double>(arm.totals[perf::Event::kCycles]) / kClockHz;
    arm.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall0_)
            .count();
    if (recording_.active()) {
      std::printf("# %s\n", recording_.finish().c_str());
    }
    return arm;
  }

 private:
  rt::Runtime runtime_;
  obs::Recording recording_;
  std::chrono::steady_clock::time_point wall0_ =
      std::chrono::steady_clock::now();
};

/// Print the table in the paper's layout, with the published values as a
/// side-by-side reference. The two ratio columns (with ÷ without) are
/// Figure 1's bars, measured and published.
inline void print_paper_table(const std::string& title,
                              const ArmResult& without, const ArmResult& with,
                              const double paper_without[6],
                              const double paper_with[6]) {
  TableWriter t(title);
  t.set_header({"Measure", "Without HPs", "With HPs", "Ratio", "Paper w/o",
                "Paper w/", "Paper ratio"});
  auto ratio = [](double a, double b) {
    return b != 0 && a != 0 ? format_ratio(b / a) : "-";
  };
  auto row = [&](const char* name, double a, double b, double pa, double pb) {
    t.add_row({name, format_measure(a), format_measure(b), ratio(a, b),
               format_measure(pa), format_measure(pb), ratio(pa, pb)});
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

/// The published Tables I and II, for side-by-side printing.
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

// ---------------------------------------------------------------- ledger

/// What a table run was asked to do; the ledger's "config" object.
struct LedgerConfig {
  int nsteps = 0;
  int max_level = 0;
  int sample = 0;
};

/// Write every event except WALL_NS as an integer named by
/// perf::event_name.
inline void write_counters(JsonWriter& w, const char* key,
                           const perf::CounterSet& counters) {
  w.begin_object(key);
  for (std::size_t e = 0; e < perf::kNumEvents; ++e) {
    const auto event = static_cast<perf::Event>(e);
    if (event == perf::Event::kWallNanos) continue;
    w.field(std::string(perf::event_name(event)).c_str(), counters[event]);
  }
  w.end_object();
}

/// Write the run's modeled ledger to \p path (nothing if it is empty):
/// the config and, per arm, the instrumented region's entries and
/// counters, the whole run's counters, the modeled page shifts and the
/// six table measures. Backing names, addresses, wall times, the lane
/// count and the inventory stay on stdout, so the file is a pure function
/// of the code. Returns 0, or 1 if the file cannot be written.
inline int write_ledger(const std::string& path, const char* bench,
                        const LedgerConfig& config, const ArmResult& without,
                        const ArmResult& with) {
  if (path.empty()) return 0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  JsonWriter w(f);
  w.begin_object();
  w.field("bench", bench);
  w.begin_object("config");
  w.field("nsteps", config.nsteps);
  w.field("max_level", config.max_level);
  w.field("sample", config.sample);
  w.end_object();
  const std::pair<const char*, const ArmResult*> arms[] = {
      {"without_hp", &without}, {"with_hp", &with}};
  for (const auto& [name, arm] : arms) {
    w.begin_object(name);
    w.field("entries", arm->region.entries);
    write_counters(w, "region", arm->region.totals);
    write_counters(w, "run", arm->totals);
    w.begin_object("page_shift");
    for (const auto& [array, shift] : arm->page_shifts) {
      w.field(array.c_str(), int{shift});
    }
    w.end_object();
    const perf::MeasureSet& m = arm->measures;
    w.begin_object("measures");
    w.field("hardware_cycles", m.hardware_cycles);
    w.field("time_seconds", m.time_seconds);
    w.field("vector_per_cycle", m.vector_per_cycle);
    w.field("memory_gbytes_per_s", m.memory_gbytes_per_s);
    w.field("dtlb_misses_per_s", m.dtlb_misses_per_s);
    w.field("flash_timer_seconds", arm->flash_timer);
    w.end_object();
    w.end_object();
  }
  w.end_object();
  std::fclose(f);
  std::printf("# wrote %s\n", path.c_str());
  return 0;
}

}  // namespace fhp::bench
