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
#include <memory>

#include "mem/huge_policy.hpp"
#include "obs/sampler.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
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

  // The profile may not land on a file the telemetry writes.
  const std::string outfile = rp.get_string("outfile");
  const std::string timeline_path = rp.get_string("obs.timeline");
  if (!timeline_path.empty()) {
    const auto resolved = [](const std::string& path) {
      return std::filesystem::weakly_canonical(path);
    };
    for (const std::string& written :
         {timeline_path, obs::csv_path_for(timeline_path)}) {
      if (resolved(outfile) == resolved(written)) {
        throw ConfigError("--outfile=" + outfile + " is " + written +
                          ", which the timeline --obs.timeline=" +
                          timeline_path + " writes");
      }
    }
  }

  // The execution context: its lane count honors --par.threads /
  // FLASHHP_THREADS, its layout --mesh.layout / FLASHHP_LAYOUT and its
  // page policy --mem.hpage_type / FLASHHP_HPAGE_TYPE.
  rt::Runtime runtime(runtime_options);

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

  // Telemetry: span tracer + background memory/THP sampler, exported as
  // a chrome://tracing timeline when a path is configured.
  std::unique_ptr<obs::Telemetry> telemetry;
  std::unique_ptr<obs::Sampler> sampler;
  if (!timeline_path.empty()) {
    obs::TelemetryOptions topts;
    topts.lanes = runtime.lanes();
    telemetry = std::make_unique<obs::Telemetry>(topts);
    telemetry->install(runtime);  // per-runtime: steps + lanes route here
    obs::SamplerOptions sopts;
    sopts.cadence =
        std::chrono::milliseconds(rp.get_int("obs.sample_ms"));
    sopts.perf = &runtime.perf();
    sampler = std::make_unique<obs::Sampler>(sopts);
    sampler->start();
  }

  sim::Driver& driver = simulation.driver();
  driver.evolve();
  if (trace) perf::RegionReport(runtime.perf(), 1.8e9).render(std::cout);

  if (telemetry) {
    sampler->stop();
    telemetry->uninstall();
    obs::write_timeline_file(timeline_path, *telemetry, sampler.get());
    const std::string csv_path = obs::csv_path_for(timeline_path);
    std::ofstream csv(csv_path);
    sampler->write_csv(csv);
    std::cout << "timeline written to " << timeline_path << " (sampler CSV: "
              << csv_path << ", " << telemetry->total_spans() << " spans, "
              << sampler->taken() << " samples)\n";
  }

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
