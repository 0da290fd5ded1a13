/// \file sampler.hpp
/// \brief Background memory/THP sampler: meminfo + smaps_rollup + vmstat
/// + published perf counters, every N ms, into a bounded time-series.
///
/// The paper's methodology is watching /proc *while FLASH runs* — the
/// authors proved (and for GNU/Cray THP, disproved) huge-page backing by
/// observing HugePages_* and AnonHugePages move over the run. Sampler
/// automates that observation: a background thread captures the
/// huge-page state of the system, of this process, and of the THP event
/// machinery on a fixed cadence, timestamped on the same clock as the
/// span tracer so "when did THP kick in" lines up with "what was the
/// solver doing". Samples land in a bounded buffer and export as counter
/// tracks in the timeline JSON plus a CSV. A full buffer keeps its first
/// half — the set-up, where `unk` is faulted in and THP adoption shows —
/// and drops the oldest sample after it, so a long run keeps its start
/// and its latest samples (drops counted).
/// The thread ticks on absolute deadlines; captures that overrun later
/// ticks skip them, and the skipped ticks and the achieved mean period
/// are reported next to the samples, so a reader knows the resolution it
/// actually got (an `smaps_rollup` read walks every PTE of the process,
/// ~190 k on a base-page 740 MiB mesh).
///
/// Determinism for tests: the clock and every procfs path are
/// injectable, and sample_once() captures synchronously without a
/// thread, so a fake clock plus fixture files yields a bit-stable
/// sample series.
///
/// Thread safety: the sampler thread touches only procfs, its own ring
/// (mutex-guarded) and PerfContext::published() — the mutex-guarded
/// copy the driver publishes at step boundaries. It never reads the
/// counter totals the replay writes or the lanes' span rings, so it is
/// race-free against the running step (the tsan preset runs a sampler
/// over parallel span-recording regions to hold this).

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mem/meminfo.hpp"
#include "mem/vmstat.hpp"
#include "perf/perf_context.hpp"
#include "support/lane.hpp"

namespace fhp::obs {

/// Sampler knobs. Paths are injectable (fixture procfs for tests); the
/// clock mirrors TelemetryOptions::clock so both series share a timebase.
struct SamplerOptions {
  std::chrono::milliseconds cadence{10};
  /// Samples kept: the first ring_capacity / 2, then the latest.
  std::size_t ring_capacity = 4096;  // samples, not bytes — fhp-lint: allow(page-size-literal)
  std::string meminfo_path = "/proc/meminfo";
  std::string smaps_path = "/proc/self/smaps_rollup";
  std::string vmstat_path = "/proc/vmstat";
  std::function<std::uint64_t()> clock;  ///< ns; null = steady_clock
  perf::PerfContext* perf = nullptr;     ///< published() source (optional)

  /// Options with every procfs path rooted under \p root (which must
  /// mirror the /proc layout: root/meminfo, root/self/smaps_rollup,
  /// root/vmstat) — the fixture pattern tests use.
  [[nodiscard]] static SamplerOptions with_procfs_root(
      const std::string& root);
};

/// One captured time point.
struct Sample {
  std::uint64_t t_ns = 0;
  mem::MeminfoSnapshot meminfo;
  mem::SmapsRollup smaps;
  mem::VmstatSnapshot vmstat;
  perf::CounterSet counters;       ///< last published (zeros if none yet)
  std::uint64_t counter_seq = 0;   ///< publish sequence (0 = none yet)
  bool have_counters = false;      ///< a PerfContext was wired
};

/// The sampler. Construct, start() for the background thread (or drive
/// sample_once() manually), stop(), then read samples()/write_csv().
class Sampler {
 public:
  explicit Sampler(SamplerOptions options = {});
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Capture one sample now, on the calling thread. Procfs read errors
  /// are counted (errors()), never thrown — a sampler must not take the
  /// simulation down. Drains published() only — never the counter
  /// totals — so it must not run as a region lane (FHP_EXCLUDES_REGION).
  void sample_once() FHP_EXCLUDES_REGION;

  /// Launch the background thread (no-op if already running).
  void start();

  /// Stop and join the background thread (no-op if not running; the
  /// destructor calls it). Samples remain readable afterwards.
  void stop();

  [[nodiscard]] bool running() const noexcept;

  /// Copy of the retained samples, oldest first.
  [[nodiscard]] std::vector<Sample> samples() const FHP_EXCLUDES_REGION;

  /// Total samples ever captured (retained + dropped).
  [[nodiscard]] std::uint64_t taken() const;

  /// Samples dropped from the gap between the kept first half and the
  /// latest samples.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Procfs captures that failed (missing file, parse trouble).
  [[nodiscard]] std::uint64_t errors() const;

  /// Cadence ticks the background thread skipped because a capture ran
  /// past them. Ticks sit on absolute deadlines of the sampler's clock,
  /// so a slow capture costs whole ticks (counted here) instead of
  /// stretching every later period.
  [[nodiscard]] std::uint64_t missed() const;

  /// Achieved mean period between captures in clock ns:
  /// (last t_ns - first t_ns) / (taken - 1), or 0 before two captures.
  [[nodiscard]] std::uint64_t period_ns() const;

  [[nodiscard]] const SamplerOptions& options() const noexcept {
    return options_;
  }

  /// Dump the retained samples as CSV (header + one row per sample;
  /// absent /proc fields are empty cells, not zeros).
  void write_csv(std::ostream& os) const FHP_EXCLUDES_REGION;

 private:
  void thread_main();
  /// sample_once's body; returns the capture's t_ns.
  std::uint64_t capture() FHP_EXCLUDES_REGION;

  SamplerOptions options_;
  std::function<std::uint64_t()> clock_;

  mutable std::mutex mutex_;  // guards head_, ring_ + counts; cv waits on it
  std::condition_variable cv_;
  std::vector<Sample> head_;  ///< the first ring_capacity / 2 samples
  std::deque<Sample> ring_;   ///< the latest samples after them
  std::uint64_t taken_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t missed_ = 0;
  std::uint64_t first_t_ns_ = 0;  ///< t_ns of the first capture
  std::uint64_t last_t_ns_ = 0;   ///< t_ns of the latest capture
  bool stop_requested_ = false;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace fhp::obs
