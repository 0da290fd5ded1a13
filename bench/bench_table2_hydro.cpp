/// \file bench_table2_hydro.cpp
/// \brief Reproduces Table II: the 3-d Hydro problem with/without HPs.
///
/// Paper: "the 3-d Hydro test ran a Sedov explosion simulation for 200
/// time steps" with the hydrodynamics routines instrumented.
///
/// Usage: bench_table2_hydro [--nsteps=N] [--max_level=L] [--sample=S]
///                           [--par.threads=T] [--json=PATH]
///                           [--obs.timeline=PATH] [--obs.sample_ms=N]
///
/// With --json=PATH the paper table is skipped; instead the without-HP
/// workload runs at 1, 2 and 4 lanes through the shared
/// bench::run_thread_scan harness, and the wall times land in PATH as
/// JSON (the CI perf-trajectory artifact, BENCH_hydro.json). Modeled
/// counters are asserted bit-identical across the three runs: the
/// determinism contract says the lane count may not change the physics
/// or the published counters.
///
/// With --obs.timeline=PATH (or FLASHHP_TELEMETRY) the whole bench is
/// traced — per-lane spans plus a background memory/THP sampler — and
/// exported as a chrome://tracing JSON, so a wall-time gap between runs
/// can be read span by span instead of as one number.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "experiment_runners.hpp"
#include "obs/sampler.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
#include "rt/runtime.hpp"
#include "support/runtime_params.hpp"

namespace {

/// One scan run: the Sedov workload on \p arm's runtime. Returns the wall
/// time of the evolution loop only: mesh setup and the serial
/// tracing/commit work would otherwise dilute the reported parallel-step
/// speedup.
double run_hydro_scan(fhp::bench::ExperimentArm& arm, int nsteps,
                      int max_level, int sample) {
  using namespace fhp;
  rt::Runtime& runtime = arm.runtime();
  sim::SedovParams params;
  params.max_level = max_level;
  params.maxblocks = 700;
  sim::SedovSetup setup(params, runtime.huge_policy(), runtime);
  hydro::HydroOptions hopt;
  hopt.cfl = 0.6;
  hydro::HydroSolver hydro(setup.mesh(), setup.eos(), hopt);
  sim::DriverOptions dopt;
  dopt.nsteps = nsteps;
  dopt.trace_sample = sample;
  dopt.verbose = false;
  sim::DriverUnits units = arm.units();
  sim::Driver driver(setup.mesh(), hydro, arm.timers(), dopt, units);
  const auto t0 = std::chrono::steady_clock::now();
  driver.evolve();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fhp;
  RuntimeParams rp;
  rp.declare_int("nsteps", 200, "time steps per arm (paper: 200)");
  rp.declare_int("max_level", 3, "finest AMR level");
  rp.declare_int("sample", 4, "trace every Nth block");
  rp.declare_string("json", "", "write 1/2/4-thread wall times to this file");
  par::declare_runtime_params(rp);
  obs::declare_runtime_params(rp);
  rp.apply_command_line(argc, argv);
  const int nsteps = static_cast<int>(rp.get_int("nsteps"));
  const int max_level = static_cast<int>(rp.get_int("max_level"));
  const int sample = static_cast<int>(rp.get_int("sample"));

  // Every arm runs on its own runtime built from this context: one pool
  // shared by the arms, and the optional telemetry as each runtime's
  // trace sink.
  mem::PagePool pool;
  rt::RuntimeOptions context;
  context.lanes = static_cast<int>(rp.get_int("par.threads"));
  context.pool = &pool;

  // Optional run tracing; lanes cover the widest lane count the scan
  // uses. Each arm counts into its own runtime's perf(), so the sampler
  // records memory/THP state only (its perf columns stay empty).
  const std::string timeline_path = rp.get_string("obs.timeline");
  std::unique_ptr<obs::Telemetry> telemetry;
  std::unique_ptr<obs::Sampler> sampler;
  if (!timeline_path.empty()) {
    obs::TelemetryOptions topts;
    topts.lanes = std::max(context.lanes, 4);
    telemetry = std::make_unique<obs::Telemetry>(topts);
    context.trace_sink = telemetry.get();
    obs::SamplerOptions sopts;
    sopts.cadence =
        std::chrono::milliseconds(rp.get_int("obs.sample_ms"));
    sampler = std::make_unique<obs::Sampler>(sopts);
    sampler->start();
  }
  const auto finish_timeline = [&] {
    if (telemetry == nullptr) return;
    sampler->stop();
    obs::write_timeline_file(timeline_path, *telemetry, sampler.get());
    std::printf("# wrote %s (%llu spans, %llu samples)\n",
                timeline_path.c_str(),
                static_cast<unsigned long long>(telemetry->total_spans()),
                static_cast<unsigned long long>(sampler->taken()));
  };

  if (const std::string json = rp.get_string("json"); !json.empty()) {
    // The scan times the without-HP workload.
    context.policy = mem::HugePolicy::kNone;
    const int rc = bench::run_thread_scan(
        json, "table2_hydro", context,
        [&](bench::ExperimentArm& arm) {
          return run_hydro_scan(arm, nsteps, max_level, sample);
        },
        [&](bench::JsonWriter& w) {
          w.field("nsteps", nsteps);
          w.field("max_level", max_level);
        });
    finish_timeline();
    return rc;
  }

  std::printf(
      "== Table II: 3-d Hydro problem (Sedov, %d steps, hydro instrumented) "
      "==\n",
      nsteps);
  bench::prepare_huge_pool(800ull << 20);

  const auto without = bench::run_hydro_arm(context, mem::HugePolicy::kNone,
                                            nsteps, max_level, sample);
  const auto with = bench::run_hydro_arm(
      context, mem::HugePolicy::kHugetlbfs, nsteps, max_level, sample);

  bench::print_paper_table(
      "RESULTS FOR THE 3-D HYDRO PROBLEM (model: A64FX-like core, 1.8 GHz)",
      without, with, bench::kPaperHydroWithout, bench::kPaperHydroWith);

  const double dtlb_ratio = with.measures.dtlb_misses_per_s /
                            without.measures.dtlb_misses_per_s;
  const double time_ratio =
      with.measures.time_seconds / without.measures.time_seconds;
  std::printf(
      "# shape check: DTLB ratio %.3f (paper 0.324), time ratio %.3f "
      "(paper 0.998)\n",
      dtlb_ratio, time_ratio);
  finish_timeline();
  return 0;
}
