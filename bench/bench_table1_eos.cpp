/// \file bench_table1_eos.cpp
/// \brief Reproduces Table I: the EOS problem with/without huge pages.
///
/// Paper: "The EOS test ran a 2-d supernova simulation for 50 time steps"
/// with the (Helmholtz) EOS routines instrumented, compiled with the
/// Fujitsu compiler with large pages on vs. off (-Knolargepage).
/// Here: the same 2-d cylindrical deflagration, 50 steps, with the
/// huge-page policy of the mesh + EOS table flipped between arms.
///
/// Usage: bench_table1_eos [--nsteps=N] [--max_level=L] [--sample=S]
///                         [--par.threads=T] [--json=PATH]
///                         [--obs.timeline=PATH] [--obs.sample_ms=N]
///
/// With --json=PATH the run's modeled ledger lands in PATH. From the repo
/// root, `./build/bench/bench_table1_eos --json=BENCH_table1.json`
/// regenerates the committed ledger; at any lane count a plain `diff`
/// against it must be empty.
///
/// With --obs.timeline=t.json (or FLASHHP_TELEMETRY) each arm is traced
/// on its own runtime into its own timeline, t.without_hp.json and
/// t.with_hp.json, each with its sampler CSV (t.without_hp.csv,
/// t.with_hp.csv).

#include <cstdio>
#include <string>

#include "experiment_runners.hpp"
#include "support/runtime_params.hpp"

int main(int argc, char** argv) {
  using namespace fhp;
  RuntimeParams rp;
  rp.declare_int("nsteps", 50, "time steps per arm (paper: 50)");
  rp.declare_int("max_level", 4, "finest AMR level");
  rp.declare_int("sample", 4, "trace every Nth block");
  rp.declare_string("json", "", "write the run's modeled ledger to this file");
  par::declare_runtime_params(rp);
  obs::declare_runtime_params(rp);
  rp.apply_command_line(argc, argv);
  const bench::LedgerConfig config{static_cast<int>(rp.get_int("nsteps")),
                                   static_cast<int>(rp.get_int("max_level")),
                                   static_cast<int>(rp.get_int("sample"))};

  std::printf(
      "== Table I: EOS problem (2-d supernova, %d steps, EOS instrumented) "
      "==\n",
      config.nsteps);
  bench::print_inventory();

  mem::PagePool pool;
  rt::RuntimeOptions context;
  context.lanes = static_cast<int>(rp.get_int("par.threads"));
  context.pool = &pool;
  const auto without =
      bench::run_eos_arm(context, mem::HugePolicy::kNone, config, rp);
  const auto with =
      bench::run_eos_arm(context, mem::HugePolicy::kHugetlbfs, config, rp);

  bench::print_paper_table(
      "RESULTS FOR THE EOS PROBLEM (model: A64FX-like core, 1.8 GHz)",
      without, with, bench::kPaperEosWithout, bench::kPaperEosWith);
  return bench::write_ledger(rp.get_string("json"), "table1_eos", config,
                             without, with);
}
