#include "sim/simulation.hpp"

#include <utility>
#include <vector>

namespace fhp::sim {

Simulation::Simulation(const ProblemParams& problem, rt::Runtime& runtime,
                       DriverOptions options,
                       std::optional<hydro::HydroOptions> hydro) {
  using mesh::var::kDens;
  using mesh::var::kFirstScalar;
  units_.runtime = &runtime;
  if (options.trace_sample > 0) {
    machine_.emplace(tlb::MachineParams{}, &runtime.perf());
    units_.machine = &*machine_;
  }
  const mem::HugePolicy policy = runtime.huge_policy();
  std::vector<int> refine_vars;
  if (const auto* sedov = std::get_if<SedovParams>(&problem)) {
    SedovSetup& setup = setup_.emplace<SedovSetup>(*sedov, policy, runtime);
    mesh_ = &setup.mesh();
    hydro_.emplace(*mesh_, setup.eos(), hydro.value_or(hydro::HydroOptions{}));
    units_.eos_trace = [&setup](tlb::Tracer& t, int b) {
      setup.trace_eos_block(t, b);
    };
    refine_vars = {kDens, mesh::var::kPres};
  } else if (const auto* cellular = std::get_if<CellularParams>(&problem)) {
    CellularSetup& setup =
        setup_.emplace<CellularSetup>(*cellular, policy, runtime);
    mesh_ = &setup.mesh();
    hydro_.emplace(*mesh_, setup.eos(), hydro.value_or(hydro::HydroOptions{}));
    units_.flame = &setup.flame();
    refine_vars = {kDens, kFirstScalar + cvar::kPhi};
  } else {
    SupernovaSetup& setup = setup_.emplace<SupernovaSetup>(
        std::get<SupernovaParams>(problem), policy, runtime);
    mesh_ = &setup.mesh();
    hydro_.emplace(*mesh_, setup.eos(),
                   hydro.value_or(hydro::HydroOptions{.cfl = 0.6}));
    hydro_->set_composition_fn(setup.composition_fn());
    units_.flame = &setup.flame();
    units_.gravity = &setup.gravity();
    units_.eos_trace = [&setup](tlb::Tracer& t, int b) {
      setup.trace_eos_block(t, b);
    };
    refine_vars = {kDens, kFirstScalar + snvar::kPhi};
  }
  if (options.refine_vars.empty()) options.refine_vars = std::move(refine_vars);
  driver_.emplace(*mesh_, *hydro_, runtime.timers(), std::move(options),
                  units_);
}

}  // namespace fhp::sim
