/// \file sedov3d.cpp
/// \brief The paper's "3-d Hydro" workload as a standalone application.
///
/// Runs the 3-d Sedov explosion on the AMR mesh, validates the shock
/// position against the analytic similarity solution, and writes the
/// spherically averaged density/pressure profile to sedov_profile.csv.
///
/// Usage: sedov3d [--nsteps=N] [--max_level=L] [--outfile=PATH]
///                [--mem.hpage_type=none|thp|hugetlbfs] [--par.threads=T]
///                [--obs.timeline=timeline.json] [--obs.sample_ms=N]
///
/// With --obs.timeline (or FLASHHP_TELEMETRY=timeline.json) the run is
/// traced: per-lane spans, step marks, and a background memory/THP
/// sampler, exported as a chrome://tracing JSON plus a sampler CSV next
/// to it. An --outfile that resolves to either of those two files exits
/// 2 before the run starts.

#include <filesystem>
#include <fstream>
#include <iostream>

#include "mem/huge_policy.hpp"
#include "obs/recording.hpp"
#include "perf/report.hpp"
#include "rt/runtime.hpp"
#include "sim/profiles.hpp"
#include "sim/simulation.hpp"
#include "support/error.hpp"
#include "support/runtime_params.hpp"

int main(int argc, char** argv) try {
  using namespace fhp;
  RuntimeParams rp;
  rp.declare_int("nsteps", 120, "number of time steps");
  rp.declare_int("max_level", 3, "finest AMR level");
  rp.declare_string("outfile", "sedov_profile.csv", "profile output path");
  rp.declare_bool("trace", false, "feed the machine model and print a report");
  rt::declare_runtime_params(rp);
  obs::declare_runtime_params(rp);
  rp.apply_command_line(argc, argv);
  const rt::RuntimeOptions runtime_options = rt::apply_runtime_params(rp);

  // The execution context: its lane count honors --par.threads /
  // FLASHHP_THREADS, its layout --mesh.layout / FLASHHP_LAYOUT and its
  // page policy --mem.hpage_type / FLASHHP_HPAGE_TYPE.
  rt::Runtime runtime(runtime_options);
  // Span timeline + background memory/THP sampler when --obs.timeline /
  // FLASHHP_TELEMETRY names a path.
  obs::Recording recording(runtime, rp);

  // The profile may not land on a file the recording writes.
  const std::string outfile = rp.get_string("outfile");
  const auto resolved = [](const std::string& path) {
    return std::filesystem::weakly_canonical(path);
  };
  for (const std::string& written :
       {recording.timeline_path(), recording.csv_path()}) {
    if (!written.empty() && resolved(outfile) == resolved(written)) {
      throw ConfigError("--outfile=" + outfile + " is " + written +
                        ", which the timeline --obs.timeline=" +
                        recording.timeline_path() + " writes");
    }
  }

  sim::SedovParams params;
  params.max_level = static_cast<int>(rp.get_int("max_level"));
  params.maxblocks = 700;
  sim::DriverOptions opts;
  opts.nsteps = static_cast<int>(rp.get_int("nsteps"));
  const bool trace = rp.get_bool("trace");
  opts.trace_sample = trace ? 4 : 0;
  sim::Simulation simulation(params, runtime, opts);
  const mem::MappedRegion& unk = simulation.mesh().unk().region();
  std::cout << "unk: " << unk.describe() << " requested "
            << mem::to_string(unk.requested_policy()) << "\n";

  sim::Driver& driver = simulation.driver();
  driver.evolve();
  if (trace) perf::RegionReport(runtime.perf(), 1.8e9).render(std::cout);
  if (recording.active()) std::cout << recording.finish() << "\n";

  // Validate against the similarity solution.
  sim::RadialProfile profile(simulation.mesh(), {0.5, 0.5, 0.5}, 120,
                             {mesh::var::kDens, mesh::var::kPres});
  const double r_measured = profile.peak_radius(0);
  const double r_exact = sim::SedovSetup::shock_radius(
      params.energy, params.rho_ambient, driver.sim_time(), params.gamma);
  std::cout << "t = " << driver.sim_time() << ": shock at r = " << r_measured
            << " (analytic " << r_exact << ", error "
            << 100.0 * (r_measured - r_exact) / r_exact << "%)\n";
  std::cout << "peak density " << profile.peak_value(0)
            << " (strong-shock limit " << (params.gamma + 1) / (params.gamma - 1)
            << ")\n";

  std::ofstream out(outfile);
  profile.write_csv(out);
  std::cout << "profile written to " << outfile << "\n";
  simulation.timers().summary(std::cout);
  return 0;
} catch (const fhp::ConfigError& e) {
  std::cerr << "sedov3d: " << e.what() << "\n";
  return 2;
}
