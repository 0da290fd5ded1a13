/// \file experiment_runners.hpp
/// \brief The two experiment arms (EOS / 3-d Hydro) as reusable functions.
///
/// bench_table1_eos and bench_table2_hydro each run one of these two
/// workloads, once per arm. Each arm builds on ExperimentArm and runs as
/// a tenant: its own rt::Runtime built from \p context with the arm's
/// huge-page policy, whose lane count drives the block-parallel step,
/// whose perf() collects the arm's counters and whose shared pool lets
/// back-to-back arms reuse one huge-page inventory. Modeled counters are
/// bit-identical across lane counts because tracing replays serially into
/// the arm's machine model, so the ledger does not depend on the lanes.

#pragma once

#include "experiment_common.hpp"
#include "hydro/hydro.hpp"
#include "rt/runtime.hpp"
#include "sim/sedov.hpp"
#include "sim/supernova.hpp"

namespace fhp::bench {

/// One arm of the EOS experiment (2-d supernova, EOS instrumented).
inline ArmResult run_eos_arm(rt::RuntimeOptions context,
                             mem::HugePolicy policy, int nsteps,
                             int max_level, int sample) {
  context.policy = policy;
  ExperimentArm arm(context);
  rt::Runtime& runtime = arm.runtime();

  sim::SupernovaParams params;
  params.max_level = max_level;
  params.maxblocks = 1500;
  params.table_cache = "helm_table.bin";
  sim::SupernovaSetup setup(params, runtime.huge_policy(), runtime);

  mesh::AmrMesh& mesh = setup.mesh();
  hydro::HydroOptions hopt;
  hopt.cfl = 0.6;
  hydro::HydroSolver hydro(mesh, setup.eos(), hopt);
  hydro.set_composition_fn(setup.composition_fn());

  sim::DriverOptions dopt;
  dopt.nsteps = nsteps;
  dopt.trace_sample = sample;
  dopt.verbose = false;
  dopt.refine_vars = {mesh::var::kDens,
                      mesh::var::kFirstScalar + sim::snvar::kPhi};
  sim::DriverUnits units = arm.units();
  units.flame = &setup.flame();
  units.gravity = &setup.gravity();
  units.eos_trace =
      [&setup](tlb::Tracer& t, int b) { setup.trace_eos_block(t, b); };
  sim::Driver driver(mesh, hydro, arm.timers(), dopt, units);

  driver.evolve();

  ArmResult result = arm.finish("eos");
  result.backing = mesh.unk().region().describe() + " + table " +
                   setup.table().region().describe();
  result.resident_huge = mesh.unk().region().resident_huge_bytes() +
                         setup.table().region().resident_huge_bytes();
  result.page_shifts = {{"unk", mesh.unk().page_shift()},
                        {"helm_table", setup.table().page_shift()}};
  return result;
}

/// One arm of the 3-d Hydro experiment (Sedov, hydro instrumented).
inline ArmResult run_hydro_arm(rt::RuntimeOptions context,
                               mem::HugePolicy policy, int nsteps,
                               int max_level, int sample) {
  context.policy = policy;
  ExperimentArm arm(context);
  rt::Runtime& runtime = arm.runtime();

  sim::SedovParams params;
  params.max_level = max_level;
  params.maxblocks = 700;
  sim::SedovSetup setup(params, runtime.huge_policy(), runtime);

  mesh::AmrMesh& mesh = setup.mesh();
  hydro::HydroOptions hopt;
  hopt.cfl = 0.6;
  hydro::HydroSolver hydro(mesh, setup.eos(), hopt);

  sim::DriverOptions dopt;
  dopt.nsteps = nsteps;
  dopt.trace_sample = sample;
  dopt.verbose = false;
  sim::DriverUnits units = arm.units();
  units.eos_trace = [&mesh](tlb::Tracer& t, int b) {
    const mesh::MeshConfig& c = mesh.config();
    mesh.unk().trace_sweep(t, b, c.ilo(), c.ihi(), c.jlo(), c.jhi(), c.klo(),
                           c.khi(), 8, 6);
    t.compute(static_cast<std::uint64_t>(c.nxb) * c.nyb * c.nzb * 40, 0);
  };
  sim::Driver driver(mesh, hydro, arm.timers(), dopt, units);

  driver.evolve();

  ArmResult result = arm.finish("hydro");
  result.backing = mesh.unk().region().describe();
  result.resident_huge = mesh.unk().region().resident_huge_bytes();
  result.page_shifts = {{"unk", mesh.unk().page_shift()}};
  return result;
}

}  // namespace fhp::bench
