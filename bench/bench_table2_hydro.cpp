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
/// With --json=PATH the run's modeled ledger lands in PATH, as in
/// bench_table1_eos: `./build/bench/bench_table2_hydro
/// --json=BENCH_table2.json` from the repo root regenerates the committed
/// ledger, and the lane count may not change a byte of it.
///
/// With --obs.timeline=t.json (or FLASHHP_TELEMETRY) each arm is traced
/// — per-lane spans plus a background memory/THP sampler — on its own
/// runtime into its own chrome://tracing JSON, t.without_hp.json and
/// t.with_hp.json, each with its sampler CSV (t.without_hp.csv,
/// t.with_hp.csv), so a wall-time gap between the arms can be read span
/// by span instead of as one number.

#include <cstdio>
#include <string>

#include "experiment_runners.hpp"
#include "rt/runtime.hpp"
#include "support/runtime_params.hpp"

int main(int argc, char** argv) {
  using namespace fhp;
  RuntimeParams rp;
  rp.declare_int("nsteps", 200, "time steps per arm (paper: 200)");
  rp.declare_int("max_level", 3, "finest AMR level");
  rp.declare_int("sample", 4, "trace every Nth block");
  rp.declare_string("json", "", "write the run's modeled ledger to this file");
  par::declare_runtime_params(rp);
  obs::declare_runtime_params(rp);
  rp.apply_command_line(argc, argv);
  const bench::LedgerConfig config{static_cast<int>(rp.get_int("nsteps")),
                                   static_cast<int>(rp.get_int("max_level")),
                                   static_cast<int>(rp.get_int("sample"))};

  // Every arm runs on its own runtime built from this context: one pool
  // shared by the arms.
  mem::PagePool pool;
  rt::RuntimeOptions context;
  context.lanes = static_cast<int>(rp.get_int("par.threads"));
  context.pool = &pool;

  std::printf(
      "== Table II: 3-d Hydro problem (Sedov, %d steps, hydro instrumented) "
      "==\n",
      config.nsteps);
  bench::print_inventory();

  const auto without =
      bench::run_hydro_arm(context, mem::HugePolicy::kNone, config, rp);
  const auto with =
      bench::run_hydro_arm(context, mem::HugePolicy::kHugetlbfs, config, rp);

  bench::print_paper_table(
      "RESULTS FOR THE 3-D HYDRO PROBLEM (model: A64FX-like core, 1.8 GHz)",
      without, with, bench::kPaperHydroWithout, bench::kPaperHydroWith);

  return bench::write_ledger(rp.get_string("json"), "table2_hydro", config,
                             without, with);
}
