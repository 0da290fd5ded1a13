/// \file bench_fig1_ratios.cpp
/// \brief Reproduces Figure 1: the with/without-huge-pages ratio bar chart.
///
/// The figure plots, for the EOS (blue) and 3-d Hydro (red) tests, the
/// ratio of each performance measure with huge pages to the measure
/// without: all bars sit near one except the DTLB-miss bars (0.047 and
/// 0.324). This benchmark runs both experiments (reduced step counts by
/// default — the full tables are bench_table1/2) and renders the chart in
/// ASCII plus a CSV block for plotting.
///
/// Usage: bench_fig1_ratios [--eos_steps=N] [--hydro_steps=N]
///                          [--par.threads=T]

#include <cstdio>
#include <iostream>

#include "experiment_runners.hpp"
#include "support/runtime_params.hpp"

namespace {

using namespace fhp;

struct Series {
  const char* name;
  perf::MeasureRatios ratios;
};

void print_chart(const Series& eos, const Series& hydro) {
  struct Bar {
    const char* label;
    double paper_eos, paper_hydro;
    double perf::MeasureRatios::*member;
  };
  const Bar bars[] = {
      {"Hardware (cycles)", 0.936, 0.992, &perf::MeasureRatios::hardware_cycles},
      {"Time (s)", 0.935, 0.999, &perf::MeasureRatios::time_seconds},
      {"SVE instr/cycle", 1.085, 1.0, &perf::MeasureRatios::vector_per_cycle},
      {"Memory (GB/s)", 1.062, 0.999, &perf::MeasureRatios::memory_gbytes_per_s},
      {"DTLB misses", 0.047, 0.324, &perf::MeasureRatios::dtlb_misses_per_s},
      {"FLASH timer", 0.983, 0.977, &perf::MeasureRatios::flash_timer},
  };

  std::printf("\nFig. 1: ratios of measures with HPs to without HPs\n");
  std::printf("(each bar full width = ratio 1.2; paper values bracketed)\n\n");
  for (const Bar& bar : bars) {
    const double e = eos.ratios.*bar.member;
    const double h = hydro.ratios.*bar.member;
    std::printf("%-18s EOS   %-5s |%-36s| [paper %.3f]\n", bar.label,
                format_ratio(e).c_str(), ascii_bar(e, 1.2, 36).c_str(),
                bar.paper_eos);
    std::printf("%-18s Hydro %-5s |%-36s| [paper %.3f]\n", "",
                format_ratio(h).c_str(), ascii_bar(h, 1.2, 36).c_str(),
                bar.paper_hydro);
  }

  std::printf("\nCSV:\nmeasure,eos_ratio,hydro_ratio,paper_eos,paper_hydro\n");
  for (const Bar& bar : bars) {
    std::printf("%s,%.4f,%.4f,%.3f,%.3f\n", bar.label,
                eos.ratios.*bar.member, hydro.ratios.*bar.member,
                bar.paper_eos, bar.paper_hydro);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fhp;
  RuntimeParams rp;
  rp.declare_int("eos_steps", 25, "EOS-test steps per arm (table bench: 50)");
  rp.declare_int("hydro_steps", 60,
                 "hydro-test steps per arm (table bench: 200)");
  rp.declare_int("sample", 4, "trace every Nth block");
  par::declare_runtime_params(rp);
  rp.apply_command_line(argc, argv);
  const int eos_steps = static_cast<int>(rp.get_int("eos_steps"));
  const int hydro_steps = static_cast<int>(rp.get_int("hydro_steps"));
  const int sample = static_cast<int>(rp.get_int("sample"));

  std::printf("== Figure 1: with/without huge-page ratio bar chart ==\n");
  bench::prepare_huge_pool(800ull << 20);

  mem::PagePool pool;
  rt::RuntimeOptions context;
  context.lanes = static_cast<int>(rp.get_int("par.threads"));
  context.pool = &pool;
  std::printf("# running EOS arms (%d steps each)...\n", eos_steps);
  const auto eos_without = bench::run_eos_arm(context, mem::HugePolicy::kNone,
                                              eos_steps, 4, sample);
  const auto eos_with = bench::run_eos_arm(
      context, mem::HugePolicy::kHugetlbfs, eos_steps, 4, sample);
  std::printf("# running 3-d Hydro arms (%d steps each)...\n", hydro_steps);
  const auto hyd_without = bench::run_hydro_arm(
      context, mem::HugePolicy::kNone, hydro_steps, 3, sample);
  const auto hyd_with = bench::run_hydro_arm(
      context, mem::HugePolicy::kHugetlbfs, hydro_steps, 3, sample);

  Series eos{"EOS", perf::ratios(eos_with.measures, eos_with.flash_timer,
                                 eos_without.measures,
                                 eos_without.flash_timer)};
  Series hydro{"Hydro",
               perf::ratios(hyd_with.measures, hyd_with.flash_timer,
                            hyd_without.measures, hyd_without.flash_timer)};
  print_chart(eos, hydro);
  return 0;
}
