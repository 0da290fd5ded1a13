/// \file supernova2d.cpp
/// \brief The paper's "EOS" workload: a 2-d Type Iax deflagration.
///
/// Builds the hybrid white dwarf in hydrostatic equilibrium, ignites an
/// off-center flame bubble, and evolves it with the tabulated Helmholtz
/// EOS, ADR flame, and monopole gravity. Reports the burned mass and
/// nuclear energy release and writes a radial profile of the star.
///
/// Usage: supernova2d [--nsteps=N] [--max_level=L]
///                    [--mem.hpage_type=none|thp|hugetlbfs] [--rho_c=2e9]
///                    [--par.threads=T]
///                    [--obs.timeline=timeline.json] [--obs.sample_ms=N]
///
/// With --obs.timeline (or FLASHHP_TELEMETRY) the run is traced, as in
/// sedov3d: a chrome://tracing JSON plus a sampler CSV next to it.

#include <fstream>
#include <iostream>

#include "mem/huge_policy.hpp"
#include "obs/recording.hpp"
#include "rt/runtime.hpp"
#include "sim/profiles.hpp"
#include "sim/simulation.hpp"
#include "support/error.hpp"
#include "support/runtime_params.hpp"

int main(int argc, char** argv) try {
  using namespace fhp;
  RuntimeParams rp;
  rp.declare_int("nsteps", 50, "number of time steps (paper: 50)");
  rp.declare_int("max_level", 4, "finest AMR level");
  rp.declare_real("rho_c", 2.0e9, "central density [g/cc]");
  rp.declare_string("outfile", "wd_profile.csv", "profile output path");
  rt::declare_runtime_params(rp);
  obs::declare_runtime_params(rp);
  rp.apply_command_line(argc, argv);
  const rt::RuntimeOptions runtime_options = rt::apply_runtime_params(rp);

  // The execution context: its lane count honors --par.threads /
  // FLASHHP_THREADS, its layout --mesh.layout / FLASHHP_LAYOUT and its
  // page policy --mem.hpage_type / FLASHHP_HPAGE_TYPE.
  rt::Runtime runtime(runtime_options);
  obs::Recording recording(runtime, rp);

  sim::SupernovaParams params;
  params.central_density = rp.get_real("rho_c");
  params.max_level = static_cast<int>(rp.get_int("max_level"));
  params.maxblocks = 1500;
  sim::DriverOptions opts;
  opts.nsteps = static_cast<int>(rp.get_int("nsteps"));
  opts.trace_sample = 0;
  sim::Simulation simulation(params, runtime, opts);
  const sim::SupernovaSetup& setup =
      simulation.setup<sim::SupernovaSetup>();
  mesh::AmrMesh& m = simulation.mesh();

  std::cout << "white dwarf: R = " << setup.wd().radius() / 1e5
            << " km, M = " << setup.wd().mass() / 1.98847e33 << " Msun\n";
  const mem::MappedRegion& unk = m.unk().region();
  std::cout << "unk: " << unk.describe() << " requested "
            << mem::to_string(unk.requested_policy()) << "\n";
  std::cout << "helm table: " << setup.table().region().describe() << "\n";

  const double mass0 = m.integrate(mesh::var::kDens);
  sim::Driver& driver = simulation.driver();
  driver.evolve();
  if (recording.active()) std::cout << recording.finish() << "\n";
  const double mass1 = m.integrate(mesh::var::kDens);

  const int vphi = mesh::var::kFirstScalar + sim::snvar::kPhi;
  const double burned_mass = m.integrate_product(mesh::var::kDens, vphi);
  std::cout << "\nt = " << driver.sim_time() << " s after " << driver.steps()
            << " steps\n";
  std::cout << "burned mass: " << burned_mass / 1.98847e33 << " Msun\n";
  std::cout << "nuclear energy released: "
            << simulation.flame()->energy_released() << " erg\n";
  std::cout << "mass conservation drift: " << (mass1 - mass0) / mass0
            << "\n";

  sim::RadialProfile profile(
      m, {0.0, 0.0, 0.0}, 200,
      {mesh::var::kDens, mesh::var::kTemp, mesh::var::kPres, vphi});
  const std::string outfile = rp.get_string("outfile");
  std::ofstream out(outfile);
  profile.write_csv(out);
  std::cout << "profile written to " << outfile << "\n";
  simulation.timers().summary(std::cout);
  return 0;
} catch (const fhp::ConfigError& e) {
  std::cerr << "supernova2d: " << e.what() << "\n";
  return 2;
}
