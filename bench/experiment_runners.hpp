/// \file experiment_runners.hpp
/// \brief The two experiment arms (EOS / 3-d Hydro) as reusable functions.
///
/// bench_table1_eos and bench_table2_hydro each run one of these two
/// workloads, once per arm. Each arm builds on ExperimentArm and runs as
/// a tenant: its own rt::Runtime built from \p context with the arm's
/// huge-page policy, whose lane count drives the block-parallel step,
/// whose perf() collects the arm's counters and whose shared pool lets
/// back-to-back arms reuse one huge-page inventory. A sim::Simulation
/// wires the problem on it, as it does for every other caller. Modeled
/// counters are bit-identical across lane counts because tracing replays
/// serially into the arm's machine model, so the ledger does not depend
/// on the lanes.

#pragma once

#include "experiment_common.hpp"
#include "rt/runtime.hpp"
#include "sim/simulation.hpp"

namespace fhp::bench {

/// One arm of the EOS experiment (2-d supernova, EOS instrumented).
/// \p params carries the obs.* parameters (see ExperimentArm).
inline ArmResult run_eos_arm(rt::RuntimeOptions context,
                             mem::HugePolicy policy,
                             const LedgerConfig& config,
                             const RuntimeParams& params) {
  context.policy = policy;
  ExperimentArm arm(context, params);

  sim::SupernovaParams problem;
  problem.max_level = config.max_level;
  problem.maxblocks = 1500;
  sim::Simulation simulation(problem, arm.runtime(),
                             {.nsteps = config.nsteps,
                              .trace_sample = config.sample,
                              .verbose = false});
  simulation.driver().evolve();

  ArmResult result = arm.finish("eos");
  const mesh::UnkContainer& unk = simulation.mesh().unk();
  const eos::HelmTable& table =
      simulation.setup<sim::SupernovaSetup>().table();
  result.backing =
      unk.region().describe() + " + table " + table.region().describe();
  result.resident_huge = unk.region().resident_huge_bytes() +
                         table.region().resident_huge_bytes();
  result.page_shifts = {{"unk", unk.page_shift()},
                        {"helm_table", table.page_shift()}};
  return result;
}

/// One arm of the 3-d Hydro experiment (Sedov, hydro instrumented).
/// \p params carries the obs.* parameters (see ExperimentArm).
inline ArmResult run_hydro_arm(rt::RuntimeOptions context,
                               mem::HugePolicy policy,
                               const LedgerConfig& config,
                               const RuntimeParams& params) {
  context.policy = policy;
  ExperimentArm arm(context, params);

  sim::SedovParams problem;
  problem.max_level = config.max_level;
  problem.maxblocks = 700;
  sim::Simulation simulation(problem, arm.runtime(),
                             {.nsteps = config.nsteps,
                              .trace_sample = config.sample,
                              .verbose = false},
                             hydro::HydroOptions{.cfl = 0.6});
  simulation.driver().evolve();

  ArmResult result = arm.finish("hydro");
  const mesh::UnkContainer& unk = simulation.mesh().unk();
  result.backing = unk.region().describe();
  result.resident_huge = unk.region().resident_huge_bytes();
  result.page_shifts = {{"unk", unk.page_shift()}};
  return result;
}

}  // namespace fhp::bench
