/// \file quickstart.cpp
/// \brief First contact with flashhp: huge-page memory + a tiny simulation.
///
/// Demonstrates the core loop of the library in ~60 lines of user code:
///   1. build the rt::Runtime execution context the simulation runs in
///      (lane count from FLASHHP_THREADS, layout from FLASHHP_LAYOUT,
///      huge-page policy from FLASHHP_HPAGE_TYPE — environment-driven,
///      like the Fujitsu runtime's XOS_MMM_L_HPAGE_TYPE),
///   2. allocate a mesh under the runtime's policy and *verify* the
///      backing via /proc (the paper's methodology),
///   3. run a small Sedov explosion and print the FLASH-style timer
///      summary.
///
/// Try: FLASHHP_HPAGE_TYPE=hugetlbfs FLASHHP_THREADS=4 ./quickstart

#include <iostream>

#include "mem/huge_policy.hpp"
#include "mem/meminfo.hpp"
#include "rt/runtime.hpp"
#include "sim/simulation.hpp"
#include "support/error.hpp"

int main() try {
  using namespace fhp;

  // 1. The execution context: lane count from FLASHHP_THREADS (defaults
  //    to 1 = serial), mesh layout from FLASHHP_LAYOUT, huge-page policy
  //    from FLASHHP_HPAGE_TYPE (none | thp | hugetlbfs) and a page pool
  //    of its own. Every service the simulation uses hangs off this one
  //    object — a second Runtime would be a second, independent tenant.
  rt::Runtime runtime;
  std::cout << "huge-page policy: " << mem::to_string(runtime.huge_policy())
            << "\n";

  // 2. A small 2-d Sedov problem, wired into a Driver by one
  //    sim::Simulation; the mesh's unk container lives on the runtime's
  //    policy, carved from the runtime's pool.
  sim::SedovParams params;
  params.ndim = 2;
  params.nzb = 1;
  params.max_level = 3;
  params.maxblocks = 300;
  sim::DriverOptions opts;
  opts.nsteps = 30;
  opts.trace_sample = 0;  // no machine model in the quickstart
  opts.verbose = false;
  sim::Simulation simulation(params, runtime, opts);

  const mem::MappedRegion& region = simulation.mesh().unk().region();
  std::cout << "unk: " << region.describe() << " requested "
            << mem::to_string(region.requested_policy()) << "\n";
  std::cout << "verified on huge pages: "
            << region.resident_huge_bytes() / (1 << 20) << " MiB\n";
  std::cout << "system: " << mem::MeminfoSnapshot::capture().summary()
            << "\n";

  //    The leaf-block sweeps run block-parallel on the runtime's lanes;
  //    results are bit-identical to the serial run at any lane count.
  std::cout << "sweep threads: " << runtime.lanes() << "\n";

  // 3. Evolve 30 steps and report.
  sim::Driver& driver = simulation.driver();
  driver.evolve();

  std::cout << "\nran " << driver.steps() << " steps to t = "
            << driver.sim_time() << "; "
            << simulation.mesh().tree().leaves_morton().size()
            << " leaf blocks\n\n";
  simulation.timers().summary(std::cout);
  return 0;
} catch (const fhp::ConfigError& e) {
  std::cerr << "quickstart: " << e.what() << "\n";
  return 2;
}
