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
///                         [--par.threads=T]

#include <cstdio>

#include "experiment_runners.hpp"
#include "support/runtime_params.hpp"

int main(int argc, char** argv) {
  using namespace fhp;
  RuntimeParams rp;
  rp.declare_int("nsteps", 50, "time steps per arm (paper: 50)");
  rp.declare_int("max_level", 4, "finest AMR level");
  rp.declare_int("sample", 4, "trace every Nth block");
  par::declare_runtime_params(rp);
  rp.apply_command_line(argc, argv);
  const int nsteps = static_cast<int>(rp.get_int("nsteps"));
  const int max_level = static_cast<int>(rp.get_int("max_level"));
  const int sample = static_cast<int>(rp.get_int("sample"));

  std::printf(
      "== Table I: EOS problem (2-d supernova, %d steps, EOS instrumented) "
      "==\n",
      nsteps);
  bench::prepare_huge_pool(512ull << 20);

  mem::PagePool pool;
  rt::RuntimeOptions context;
  context.lanes = static_cast<int>(rp.get_int("par.threads"));
  context.pool = &pool;
  const auto without = bench::run_eos_arm(context, mem::HugePolicy::kNone,
                                          nsteps, max_level, sample);
  const auto with = bench::run_eos_arm(context, mem::HugePolicy::kHugetlbfs,
                                       nsteps, max_level, sample);

  bench::print_paper_table(
      "RESULTS FOR THE EOS PROBLEM (model: A64FX-like core, 1.8 GHz)",
      without, with, bench::kPaperEosWithout, bench::kPaperEosWith);

  const double dtlb_ratio = with.measures.dtlb_misses_per_s /
                            without.measures.dtlb_misses_per_s;
  const double time_ratio =
      with.measures.time_seconds / without.measures.time_seconds;
  std::printf(
      "# shape check: DTLB ratio %.3f (paper 0.047), time ratio %.3f "
      "(paper 0.935)\n",
      dtlb_ratio, time_ratio);
  return 0;
}
