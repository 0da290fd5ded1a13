/// \file state_hash.cpp
/// \brief The end-state ledger: four small problems under both unk
///        layouts, each run reduced to one line of hashes.
///
/// Runs a refining 2-d Sedov, the off-centre 3-d Sedov with fine-coarse
/// faces, the cellular front and the supernova (the tests' small Helm
/// table) under var_major and zone_major. Each line holds the steps, the
/// leaves before -> after, the simulated time in `%a`, an FNV-1a hash of
/// svc::canonical_state plus the flame energy, and one of every published
/// counter but wall time. unk is pinned to base pages, because the
/// replay's counters follow its page size, so the output does not depend
/// on the host's huge-page settings or the lane count. STATE_HASH.txt is
/// the committed output; ctest compares runs at 1, 2 and 3 lanes with it
/// (state_hash_ledger_lanes1, state_hash_ledger, state_hash_ledger_lanes3).
///
/// Usage: state_hash [--par.threads=T]
/// Exits 1 if the two layouts' state hashes of a problem differ.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "mem/huge_policy.hpp"
#include "mesh/layout.hpp"
#include "par/parallel.hpp"
#include "rt/runtime.hpp"
#include "sim/simulation.hpp"
#include "support/error.hpp"
#include "support/runtime_params.hpp"
#include "svc/service.hpp"

namespace {

using namespace fhp;

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

/// FNV-1a, 64 bit, continuing from \p hash.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash = kFnvOffsetBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t n = 0; n < bytes; ++n) {
    hash = (hash ^ p[n]) * 0x100000001b3ULL;
  }
  return hash;
}

struct Problem {
  const char* name;
  sim::ProblemParams params;
  int nsteps;
};

std::vector<Problem> problems() {
  sim::SedovParams sedov2d;  // refines as the blast grows: 40 -> 88 leaves
  sedov2d.ndim = 2;
  sedov2d.nzb = 1;
  sedov2d.max_level = 5;
  sedov2d.maxblocks = 400;
  sedov2d.spike_radius = 0.1;
  sim::SedovParams sedov3d;  // level-3 leaves abut level-2 ones
  sedov3d.ndim = 3;
  sedov3d.nxb = sedov3d.nyb = sedov3d.nzb = 8;
  sedov3d.max_level = 3;
  sedov3d.maxblocks = 80;
  sedov3d.center = {0.3, 0.2, 0.25};
  sim::CellularParams cellular;  // remeshes under the flame: 22 -> 25
  cellular.max_level = 3;
  cellular.maxblocks = 256;
  sim::SupernovaParams supernova;
  supernova.max_level = 3;
  supernova.maxblocks = 400;
  supernova.table_spec = {-4.0, 10.0, 141, 5.0, 10.0, 51};
  return {{"sedov2d", sedov2d, 40},
          {"sedov3d", sedov3d, 8},
          {"cellular", cellular, 24},
          {"supernova", supernova, 4}};
}

/// One run; prints its line and returns its state hash.
std::uint64_t run(const Problem& problem, mesh::LayoutKind layout,
                  int lanes) {
  rt::Runtime runtime(
      {.lanes = lanes, .layout = layout, .policy = mem::HugePolicy::kNone});
  sim::Simulation simulation(
      problem.params, runtime,
      {.nsteps = problem.nsteps, .trace_sample = 4, .verbose = false});
  const mesh::BlockTree& tree = simulation.mesh().tree();
  const std::size_t leaves_before = tree.leaves_morton().size();
  sim::Driver& driver = simulation.driver();
  driver.evolve();

  std::vector<double> state =
      svc::canonical_state(simulation.mesh(), driver.sim_time());
  if (simulation.flame() != nullptr) {
    state.push_back(simulation.flame()->energy_released());
  }
  const std::uint64_t state_hash =
      fnv1a(state.data(), state.size() * sizeof(double));
  const perf::CounterSet counters = runtime.perf().published().counters;
  std::uint64_t counter_hash = kFnvOffsetBasis;
  for (std::size_t e = 0; e < perf::kNumEvents; ++e) {
    if (e == static_cast<std::size_t>(perf::Event::kWallNanos)) continue;
    counter_hash =
        fnv1a(&counters.values[e], sizeof(std::uint64_t), counter_hash);
  }
  std::printf("%-9s %-10s steps=%d leaves=%zu->%zu t=%a state=%016" PRIx64
              " counters=%016" PRIx64 "\n",
              problem.name, std::string(mesh::to_string(layout)).c_str(),
              driver.steps(), leaves_before, tree.leaves_morton().size(),
              driver.sim_time(), state_hash, counter_hash);
  return state_hash;
}

}  // namespace

int main(int argc, char** argv) try {
  fhp::RuntimeParams rp;
  fhp::par::declare_runtime_params(rp);
  rp.apply_command_line(argc, argv);
  const int lanes = static_cast<int>(rp.get_int("par.threads"));
  int status = 0;
  for (const Problem& problem : problems()) {
    const std::uint64_t var_major =
        run(problem, fhp::mesh::LayoutKind::kVarMajor, lanes);
    if (run(problem, fhp::mesh::LayoutKind::kZoneMajor, lanes) != var_major) {
      std::fprintf(stderr, "state_hash: %s end states differ by layout\n",
                   problem.name);
      status = 1;
    }
  }
  return status;
} catch (const fhp::ConfigError& e) {
  std::fprintf(stderr, "state_hash: %s\n", e.what());
  return 2;
}
