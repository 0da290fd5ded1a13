#include "sim/driver.hpp"

#include <algorithm>
#include <utility>

#include "perf/perf_context.hpp"
#include "perf/region.hpp"
#include "rt/runtime.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/trace.hpp"

namespace fhp::sim {

namespace {

rt::Runtime& required_runtime(const DriverUnits& units) {
  if (units.runtime == nullptr) {
    throw ConfigError("sim::Driver: DriverUnits::runtime is required");
  }
  return *units.runtime;
}

}  // namespace

Driver::Driver(mesh::AmrMesh& mesh, hydro::HydroSolver& hydro,
               perf::Timers& /*unused*/, DriverOptions options,
               DriverUnits units)
    : mesh_(mesh),
      hydro_(hydro),
      options_(std::move(options)),
      units_(std::move(units)),
      runtime_(required_runtime(units_)),
      step_graph_(mesh_, hydro_, units_.flame) {
  if (options_.refine_vars.empty()) {
    throw ConfigError("sim::Driver: DriverOptions::refine_vars is empty");
  }
  step_graph_.rebuild();
}

// Tracing replays sampled blocks into the (stateful, warm) machine model
// and therefore always runs serially on the driver thread, independent
// of FLASHHP_THREADS — this is what keeps modeled counters bit-identical
// across thread counts.
void Driver::trace_regions() {
  if (units_.machine == nullptr || options_.trace_sample <= 0) return;
  tlb::Tracer tracer(units_.machine);
  perf::PerfContext& perf = runtime_.perf();
  const auto scale = static_cast<std::uint64_t>(options_.trace_sample);
  const std::vector<int> leaves = mesh_.tree().leaves_morton();
  // Round-robin the sampled subset so every block is eventually modeled.
  const int offset = step_ % options_.trace_sample;

  // --- hydro sweeps (the "3-d Hydro" instrumented region) ---------------
  {
    perf::PerfRegion region(perf, "hydro");
    for (std::size_t n = static_cast<std::size_t>(offset); n < leaves.size();
         n += static_cast<std::size_t>(options_.trace_sample)) {
      hydro_.trace_step_block(tracer, leaves[n]);
    }
    units_.machine->commit(scale);
  }

  // --- EOS (the "EOS" instrumented region): ndim per-sweep passes -------
  if (units_.eos_trace) {
    perf::PerfRegion region(perf, "eos");
    for (int sweep = 0; sweep < mesh_.config().ndim; ++sweep) {
      for (std::size_t n = static_cast<std::size_t>(offset);
           n < leaves.size();
           n += static_cast<std::size_t>(options_.trace_sample)) {
        units_.eos_trace(tracer, leaves[n]);
      }
    }
    units_.machine->commit(scale);
  }

  // --- flame -------------------------------------------------------------
  if (units_.flame != nullptr) {
    perf::PerfRegion region(perf, "flame");
    for (std::size_t n = static_cast<std::size_t>(offset); n < leaves.size();
         n += static_cast<std::size_t>(options_.trace_sample)) {
      units_.flame->trace_advance_block(tracer, leaves[n]);
    }
    units_.machine->commit(scale);
  }

  // --- guard fill + bookkeeping ("grid") ----------------------------------
  {
    perf::PerfRegion region(perf, "grid");
    const mesh::MeshConfig& c = mesh_.config();
    const auto& unk = mesh_.unk();
    for (std::size_t n = static_cast<std::size_t>(offset); n < leaves.size();
         n += static_cast<std::size_t>(options_.trace_sample)) {
      // Guard exchange touches roughly one block surface shell per
      // neighbour: model as one read+write pass over the interior once
      // per step (conservative; guard volume ~ interior volume at 16^d
      // with 4 guards).
      unk.trace_sweep(tracer, leaves[n], c.ilo(), c.ihi(), c.jlo(), c.jhi(),
                      c.klo(), c.khi(), c.nvar(), c.nvar());
    }
    units_.machine->commit(scale);
  }
}

void Driver::evolve() {
  while (step_once()) {
  }
}

bool Driver::step_once() {
  if (step_ >= options_.nsteps || time_ >= options_.tmax) return false;
  // Everything this step does — spans closed on the driver thread, log
  // lines, and (via the arena's LaneEnv) work on pool lanes — is
  // attributed to this driver's runtime.
  const rt::Runtime::BindScope bound(runtime_);
  {
    FHP_TRACE_SPAN("driver.step");
    double dt = 0.0;
    {
      FHP_TRACE_SPAN("driver.compute_dt");
      dt = hydro_.compute_dt();
    }
    if (time_ + dt > options_.tmax) dt = options_.tmax - time_;

    {
      // Fused step: every sweep plus the flame stage as one block-task
      // DAG — no barriers between guard fill, sweep, flux fixup and EOS.
      FHP_TRACE_SPAN("driver.step_graph");
      step_graph_.run_step(dt);
    }

    if (units_.gravity != nullptr) {
      FHP_TRACE_SPAN("driver.gravity");
      units_.gravity->update(mesh_);
      units_.gravity->apply_source(mesh_, dt);
      hydro_.eos_update();
    }

    {
      FHP_TRACE_SPAN("driver.trace");
      trace_regions();
    }

    time_ += dt;
    ++step_;

    // Step boundary: the replay has committed this step's counters, so
    // publish them for asynchronous observers (the sampler thread only
    // ever reads this published copy) and stamp the step mark onto the
    // timeline.
    runtime_.perf().publish();
    trace::step_mark(step_, time_, dt);

    if (options_.remesh_interval > 0 &&
        step_ % options_.remesh_interval == 0) {
      FHP_TRACE_SPAN("driver.remesh");
      const int changes = mesh_.remesh(options_.refine_vars,
                                       options_.refine_cut,
                                       options_.derefine_cut);
      if (changes > 0) {
        // The block tree changed: the task graphs' block ids, guard
        // dependencies and flux sources are stale. Rebuild (setup-time
        // allocation, amortized over remesh_interval steps).
        step_graph_.rebuild();
      }
      if (options_.verbose && changes > 0) {
        FHP_LOG(kDebug) << "step " << step_ << ": remesh changed " << changes
                        << " blocks (" << mesh_.tree().num_allocated()
                        << " allocated)";
      }
    }

    if (options_.verbose && (step_ % 10 == 0 || step_ == 1)) {
      FHP_LOG(kInfo) << "step " << step_ << "  t=" << time_ << "  dt=" << dt
                     << "  leaves=" << mesh_.tree().leaves_morton().size();
    }
  }
  return true;
}

}  // namespace fhp::sim
