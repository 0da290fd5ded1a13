/// \file driver.hpp
/// \brief The evolution driver — FLASH's Driver_evolveFlash.
///
/// Runs the time loop: CFL time step, hydro sweeps, flame and gravity
/// operator-split sources, periodic re-gridding, and the instrumentation
/// the paper describes: named PerfRegions around each physics unit fed by
/// the machine model through sampled address-stream replays, and one span
/// per phase (driver.step, .compute_dt, .step_graph, .gravity, .trace,
/// .remesh), which the runtime reduces into its FLASH-style timer table,
/// `runtime.timers()`. The regions and the step-boundary publish() always
/// land in the runtime's PerfContext, `runtime.perf()`.
///
/// The sweeps and the flame stage of every step run as one block-task
/// DAG (sim::StepGraph on par::TaskGraph). It reproduces the bulk
/// sequence `HydroSolver::step(dt)`, then `fill_guardcells()`,
/// `AdrFlame::advance(dt)` and `eos_update()` when a flame is wired, bit
/// for bit — tests/test_taskgraph.cpp holds that at 1/2/4 lanes across
/// both layouts — and overlaps guard fill, sweep, flux fixup and
/// EOS across blocks instead of draining the lanes between phases.
///
/// Sampling: every `trace_sample`-th leaf block (round-robin offset per
/// step) is replayed into the machine model; commit() scales the counts
/// back up. The physics itself always runs on every block.

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "flame/adr.hpp"
#include "gravity/monopole.hpp"
#include "hydro/hydro.hpp"
#include "mesh/amr_mesh.hpp"
#include "sim/step_graph.hpp"
#include "tlb/machine.hpp"

namespace fhp::perf {
class Timers;  // perf/timers.hpp — the unused constructor parameter
}

namespace fhp::rt {
class Runtime;  // rt/runtime.hpp — non-owning pointer only
}

namespace fhp::sim {

/// Driver controls (FLASH's flash.par driver section).
struct DriverOptions {
  int nsteps = 50;                ///< step budget (paper: 50 EOS, 200 hydro)
  double tmax = 1.0e30;           ///< simulated-time budget [s]
  int remesh_interval = 4;        ///< steps between Grid_updateRefinement
  double refine_cut = 0.8;        ///< Löhner refine threshold
  double derefine_cut = 0.2;      ///< Löhner derefine threshold
  std::vector<int> refine_vars;   ///< variables driving refinement (required)
  int trace_sample = 4;           ///< replay every Nth leaf block (0 = off)
  bool verbose = true;            ///< log step lines
};

/// Per-block EOS trace hook: replay the memory behaviour of one
/// Eos_wrapped pass over block \p b (the table gathers for the Helmholtz
/// path, pure arithmetic for gamma). Invoked ndim times per step —
/// matching the per-sweep EOS calls.
using EosTraceFn = std::function<void(tlb::Tracer&, int block)>;

/// The optional units wired into a Driver, passed at construction so a
/// driver is fully wired the moment it exists. All pointers are
/// non-owning; every one but `runtime`, the context the driver executes
/// in, may be null (the constructor throws ConfigError without it).
/// sim::Simulation fills these the way each problem runs: the mesh from
/// the runtime's pool and arena, a machine sinking into its `perf()`.
struct DriverUnits {
  flame::AdrFlame* flame = nullptr;          ///< operator-split burning
  gravity::MonopoleGravity* gravity = nullptr;  ///< monopole gravity
  tlb::Machine* machine = nullptr;  ///< machine model (enables tracing)
  EosTraceFn eos_trace;             ///< per-block EOS replay hook
  rt::Runtime* runtime = nullptr;   ///< execution context (required)
  // Timing needs no wiring beyond the runtime: the driver binds the
  // runtime's span sink around each step — sim does not depend on the
  // obs layer.
};

/// The driver. Non-owning references, wired through DriverUnits at
/// construction; sim::Simulation is the one place that wires a problem.
class Driver {
 public:
  /// The perf::Timers parameter is unused — the phases are spans, which
  /// land in `units.runtime->timers()` — and remains only for callers
  /// that still wire a Driver by hand and pass one.
  Driver(mesh::AmrMesh& mesh, hydro::HydroSolver& hydro,
         perf::Timers& timers, DriverOptions options,
         DriverUnits units = {});

  /// Run the evolution loop (step_once until the budgets are spent).
  void evolve();

  /// Advance exactly one time step; returns false (and does nothing)
  /// once the step or simulated-time budget is spent. This is the unit
  /// multi-tenant schedulers interleave: each call binds the runtime's
  /// span sink and log tag, runs entirely on the runtime's arena, and
  /// leaves the lanes quiescent, so calls on different Drivers (even
  /// concurrently from two threads, one thread per driver) produce the
  /// same physics and published counters as each driver running solo.
  bool step_once();

  [[nodiscard]] const DriverOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] double sim_time() const noexcept { return time_; }
  [[nodiscard]] int steps() const noexcept { return step_; }

 private:
  void trace_regions();

  mesh::AmrMesh& mesh_;
  hydro::HydroSolver& hydro_;
  DriverOptions options_;
  DriverUnits units_;
  rt::Runtime& runtime_;
  StepGraph step_graph_;

  double time_ = 0.0;
  int step_ = 0;
};

}  // namespace fhp::sim
