/// \file cellular2d.cpp
/// \brief The cellular-detonation scenario: a perturbed planar burning
///        front growing transverse cells in a uniform fuel bed.
///
/// The cheap flame-bearing workload (arXiv 2408.16084 flavor): gamma-law
/// EOS + ADR model flame, no tabulated EOS, no gravity, no progenitor —
/// the service's middle job class, and a fast way to watch the flame
/// module without building the full supernova.
///
/// Usage: cellular2d [--nsteps=N] [--max_level=L]
///                   [--mem.hpage_type=none|thp|hugetlbfs] [--par.threads=T]
///                   [--obs.timeline=timeline.json] [--obs.sample_ms=N]
///
/// With --obs.timeline (or FLASHHP_TELEMETRY) the run is traced, as in
/// sedov3d: a chrome://tracing JSON plus a sampler CSV next to it.

#include <iostream>

#include "mem/huge_policy.hpp"
#include "obs/recording.hpp"
#include "rt/runtime.hpp"
#include "sim/simulation.hpp"
#include "support/error.hpp"
#include "support/runtime_params.hpp"

int main(int argc, char** argv) try {
  using namespace fhp;
  RuntimeParams rp;
  rp.declare_int("nsteps", 24, "number of time steps");
  rp.declare_int("max_level", 2, "finest AMR level");
  rt::declare_runtime_params(rp);
  obs::declare_runtime_params(rp);
  rp.apply_command_line(argc, argv);
  rt::Runtime runtime(rt::apply_runtime_params(rp));
  obs::Recording recording(runtime, rp);

  sim::CellularParams params;
  params.max_level = static_cast<int>(rp.get_int("max_level"));
  sim::DriverOptions opts;
  opts.nsteps = static_cast<int>(rp.get_int("nsteps"));
  opts.trace_sample = 0;
  sim::Simulation simulation(params, runtime, opts);
  mesh::AmrMesh& m = simulation.mesh();

  const mem::MappedRegion& unk = m.unk().region();
  std::cout << "unk: " << unk.describe() << " requested "
            << mem::to_string(unk.requested_policy()) << "\n";

  const int vphi = mesh::var::kFirstScalar + sim::cvar::kPhi;
  const double burned0 = m.integrate_product(mesh::var::kDens, vphi);
  sim::Driver& driver = simulation.driver();
  driver.evolve();
  if (recording.active()) std::cout << recording.finish() << "\n";
  const double burned1 = m.integrate_product(mesh::var::kDens, vphi);

  std::cout << "\nt = " << driver.sim_time() << " s after " << driver.steps()
            << " steps\n";
  std::cout << "burned mass: " << burned0 << " -> " << burned1 << " g\n";
  std::cout << "nuclear energy released: "
            << simulation.flame()->energy_released() << " erg\n";
  simulation.timers().summary(std::cout);
  return 0;
} catch (const fhp::ConfigError& e) {
  std::cerr << "cellular2d: " << e.what() << "\n";
  return 2;
}
