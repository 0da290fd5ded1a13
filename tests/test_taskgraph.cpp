/// \file test_taskgraph.cpp
/// \brief Tests for the par::TaskGraph DAG executor and the task-graph
/// execution mode of the driver.
///
/// Three layers:
///   1. construction contracts — cycle rejection, self/duplicate edges,
///      freeze discipline;
///   2. dependency ordering under an adversarial scheduler — run_serial
///      executes ready tasks in reverse or seeded-random order, so any
///      missing edge shows up as an ordering violation without needing a
///      lucky thread interleaving;
///   3. executor equivalence — the Driver's task-graph step must leave
///      Sedov (2-d, and 3-d with fine-coarse faces), cellular (2-d
///      fine-coarse faces under the flame stage) and supernova end
///      states *and* every published counter bit for bit where the
///      bulk-synchronous per-unit sequence it stands in for leaves them,
///      at 1/2/4 lanes across both unk layouts; whole steps replayed
///      under adversarial serial schedules must reach the same end
///      states; nothing may read the edge and corner guard zones or the
///      non-leaf blocks the fills leave stale; plus a tsan workload with
///      the sampler running over Driver steps.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "eos/eos_table.hpp"
#include "hydro/hydro.hpp"
#include "mem/huge_policy.hpp"
#include "mem/page_pool.hpp"
#include "mesh/amr_mesh.hpp"
#include "mesh/config.hpp"
#include "mesh/guard_plan.hpp"
#include "mesh/layout.hpp"
#include "obs/sampler.hpp"
#include "obs/telemetry.hpp"
#include "par/parallel.hpp"
#include "par/task_graph.hpp"
#include "perf/events.hpp"
#include "perf/perf_context.hpp"
#include "perf/region.hpp"
#include "rt/runtime.hpp"
#include "sim/simulation.hpp"
#include "sim/step_graph.hpp"
#include "support/error.hpp"
#include "svc/service.hpp"
#include "tlb/machine.hpp"

namespace fhp::par {
namespace {

// ------------------------------------------------- construction contracts

TEST(TaskGraphBuild, CycleRejectedWithTaskNames) {
  ExecArena arena(1);
  TaskGraph g(arena);
  const auto a = g.add_task("alpha", [](int) {});
  const auto b = g.add_task("beta", [](int) {});
  const auto c = g.add_task("gamma", [](int) {});
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(c, a);
  try {
    g.freeze();
    FAIL() << "freeze() accepted a cyclic graph";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cycle"), std::string::npos) << what;
    EXPECT_NE(what.find("alpha"), std::string::npos) << what;
    EXPECT_NE(what.find("beta"), std::string::npos) << what;
  }
}

TEST(TaskGraphBuild, SelfEdgeRejected) {
  ExecArena arena(1);
  TaskGraph g(arena);
  const auto a = g.add_task("self", [](int) {});
  EXPECT_THROW(g.add_edge(a, a), ConfigError);
}

TEST(TaskGraphBuild, DuplicateEdgeRejected) {
  ExecArena arena(1);
  TaskGraph g(arena);
  const auto a = g.add_task("a", [](int) {});
  const auto b = g.add_task("b", [](int) {});
  g.add_edge(a, b);
  EXPECT_THROW(g.add_edge(a, b), ConfigError);
}

TEST(TaskGraphBuild, MutationAfterFreezeRejected) {
  ExecArena arena(1);
  TaskGraph g(arena);
  const auto a = g.add_task("a", [](int) {});
  const auto b = g.add_task("b", [](int) {});
  g.add_edge(a, b);
  g.freeze();
  EXPECT_TRUE(g.frozen());
  EXPECT_THROW(g.add_task("late", [](int) {}), ConfigError);
  EXPECT_THROW(g.add_edge(a, b), ConfigError);
  g.clear();
  EXPECT_FALSE(g.frozen());
  EXPECT_EQ(g.size(), 0u);
}

TEST(TaskGraphBuild, RunRequiresFreeze) {
  ExecArena arena(1);
  TaskGraph g(arena);
  g.add_task("a", [](int) {});
  EXPECT_THROW(g.run(), ConfigError);
  EXPECT_THROW(g.run_serial(TaskGraph::Schedule::kFifo), ConfigError);
}

TEST(TaskGraphBuild, EmptyGraphRunsAsNoOp) {
  ExecArena arena(1);
  TaskGraph g(arena);
  g.freeze();
  g.run();
}

// --------------------------------------------------- parallel execution

TEST(TaskGraphRun, EveryTaskExecutesExactlyOnce) {
  constexpr int kTasks = 96;
  ExecArena arena(4);
  TaskGraph g(arena);
  std::vector<std::atomic<int>> hits(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    g.add_task("work", [&hits, i](int) {
      hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                  std::memory_order_relaxed);
    });
  }
  g.freeze();
  g.run();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  // Graphs are reusable: a second run re-executes everything.
  g.run();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
}

TEST(TaskGraphRun, ExceptionAbortsRunAndRethrows) {
  ExecArena arena(2);
  TaskGraph g(arena);
  std::atomic<int> ran{0};
  const auto boom = g.add_task("boom", [](int) {
    throw NumericsError("deliberate task failure");
  });
  const auto after = g.add_task("after", [&ran](int) { ran.fetch_add(1); });
  g.add_edge(boom, after);
  for (int i = 0; i < 8; ++i) {
    g.add_task("bystander", [&ran](int) { ran.fetch_add(1); });
  }
  g.freeze();
  EXPECT_THROW(g.run(), NumericsError);
  // Termination is guaranteed (completions propagate even on abort), and
  // the graph is reusable afterwards: a run with no throwing body works.
  ran.store(0);
  EXPECT_THROW(g.run(), NumericsError);
}

// ------------------------------------------- adversarial ready orders

/// A graph with a known dependency relation: diamond over a chain.
///
///    0 ──► 1 ──► 3 ──► 5
///    │      ╲          ▲
///    └─► 2 ──► 4 ──────┘     (plus 6, 7 independent)
struct OrderedGraph {
  ExecArena arena{1};
  TaskGraph g{arena};
  std::vector<int> order;  // completion sequence of task ids
  std::vector<std::pair<int, int>> edges;

  OrderedGraph() {
    for (int i = 0; i < 8; ++i) {
      // fhp-analyze: allow(alloc-in-region) -- test harness recording the
      // completion order under single-threaded serial replay
      g.add_task("node", [this, i](int) { order.push_back(i); });
    }
    edges = {{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 4}, {3, 5}, {4, 5}};
    for (const auto& [a, b] : edges) g.add_edge(a, b);
    g.freeze();
  }

  void expect_respects_dependencies(const char* what) {
    ASSERT_EQ(order.size(), 8u) << what;
    auto position = [&](int id) {
      for (std::size_t p = 0; p < order.size(); ++p) {
        if (order[p] == id) return p;
      }
      return order.size();
    };
    for (const auto& [a, b] : edges) {
      EXPECT_LT(position(a), position(b))
          << what << ": task " << b << " ran before its dependency " << a;
    }
  }
};

TEST(TaskGraphAdversarial, ReverseScheduleRespectsDependencies) {
  OrderedGraph og;
  og.g.run_serial(TaskGraph::Schedule::kReverse);
  og.expect_respects_dependencies("reverse");
}

TEST(TaskGraphAdversarial, RandomSchedulesRespectDependencies) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    OrderedGraph og;
    og.g.run_serial(TaskGraph::Schedule::kRandom, seed);
    og.expect_respects_dependencies(
        ("random seed " + std::to_string(seed)).c_str());
  }
}

TEST(TaskGraphAdversarial, FifoScheduleIsSubmissionOrderForFreeTasks) {
  ExecArena arena(1);
  TaskGraph g(arena);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    // fhp-analyze: allow(alloc-in-region) -- test harness recording the
    // completion order under single-threaded serial replay
    g.add_task("free", [&order, i](int) { order.push_back(i); });
  }
  g.freeze();
  g.run_serial(TaskGraph::Schedule::kFifo);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace fhp::par

// ===================================================================
// Executor equivalence: the Driver's task graph vs the bulk sequence.
// ===================================================================

namespace fhp::sim {
namespace {

using mesh::LayoutKind;

constexpr LayoutKind kAllLayouts[] = {LayoutKind::kVarMajor,
                                      LayoutKind::kZoneMajor};

/// Canonical end state: every leaf interior zone vector in Morton order,
/// the final time (plus, with a flame, its serial leaf-order energy
/// reduction), and the full counter set — both the live snapshot and the
/// last published one.
struct RunResult {
  std::vector<double> state;
  perf::CounterSet counters;
  perf::CounterSet published;
};

/// One problem on its own runtime (\p layout, \p lanes), as a Simulation
/// wires it with modeled counters on. The bulk reference below replays
/// the same solver, units and flame without stepping the Simulation's
/// Driver.
struct Problem {
  rt::Runtime runtime;
  perf::PerfContext& perf = runtime.perf();
  Simulation sim;

  Problem(const ProblemParams& params, int nsteps, LayoutKind layout,
          int lanes)
      : runtime({.lanes = lanes, .layout = layout}),
        sim(params, runtime,
            DriverOptions{.nsteps = nsteps, .trace_sample = 2,
                          .verbose = false}) {}

  [[nodiscard]] RunResult result(double time) {
    RunResult r;
    r.state = svc::canonical_state(sim.mesh(), time);
    if (sim.flame() != nullptr) {
      r.state.push_back(sim.flame()->energy_released());
    }
    r.counters = perf.snapshot();
    r.published = perf.published().counters;
    return r;
  }
};

std::unique_ptr<Problem> sedov_problem(LayoutKind layout, int lanes) {
  SedovParams params;
  params.ndim = 2;
  params.nzb = 1;
  params.max_level = 2;
  params.maxblocks = 128;
  return std::make_unique<Problem>(params, 12, layout, lanes);
}

/// A small 3-d Sedov whose spike sits off-centre inside one level-2
/// octant, so only that octant refines and level-3 leaves abut level-2
/// ones: fine-coarse faces in 3-d, with covers and restricted parents.
std::unique_ptr<Problem> sedov3d_problem(LayoutKind layout, int lanes) {
  SedovParams params;
  params.ndim = 3;
  params.nxb = params.nyb = params.nzb = 8;
  params.max_level = 3;
  params.maxblocks = 80;
  params.center = {0.3, 0.2, 0.25};
  return std::make_unique<Problem>(params, 8, layout, lanes);
}

/// The cellular front refined to level 3 along a periodic transverse
/// axis: 2-d fine-coarse faces under the flame stage, whose plan gives
/// every leaf every face.
std::unique_ptr<Problem> cellular_problem(LayoutKind layout, int lanes) {
  CellularParams params;
  params.max_level = 3;
  params.maxblocks = 256;
  return std::make_unique<Problem>(params, 12, layout, lanes);
}

/// True if some leaf face abuts a coarser block.
bool has_fine_coarse_face(const mesh::AmrMesh& m) {
  const mesh::BlockTree& tree = m.tree();
  for (const int b : tree.leaves_morton()) {
    for (int axis = 0; axis < m.config().ndim; ++axis) {
      for (int side = 0; side < 2; ++side) {
        const mesh::NeighborQuery q =
            tree.neighbor(b, mesh::face_step(axis, side));
        if (!q.outside_domain && q.id < 0) return true;
      }
    }
  }
  return false;
}

constexpr eos::HelmTableSpec kSupernovaTableSpec{-4.0, 10.0, 141,
                                                 5.0, 10.0, 51};

std::unique_ptr<Problem> supernova_problem(LayoutKind layout, int lanes) {
  SupernovaParams params;
  params.max_level = 3;
  params.maxblocks = 400;
  params.table_spec = kSupernovaTableSpec;
  return std::make_unique<Problem>(params, 4, layout, lanes);
}

/// The Driver under test: its task-graph step, to the step budget.
RunResult run_driver(Problem& p) {
  Driver& driver = p.sim.driver();
  driver.evolve();
  return p.result(driver.sim_time());
}

/// The modeled replay of one step, as Driver::trace_regions does it:
/// every trace_sample-th leaf (round-robin offset per step) into the
/// machine model, one PerfRegion and one scaled commit per unit.
void replay_step(Problem& p, int step) {
  const mesh::AmrMesh& m = p.sim.mesh();
  const DriverUnits& units = p.sim.units();
  tlb::Tracer tracer(units.machine);
  const auto sample =
      static_cast<std::size_t>(p.sim.driver().options().trace_sample);
  const std::vector<int> leaves = m.tree().leaves_morton();
  const auto each_sampled = [&](const std::function<void(int)>& fn) {
    for (std::size_t n = static_cast<std::size_t>(step) % sample;
         n < leaves.size(); n += sample) {
      fn(leaves[n]);
    }
  };
  {
    perf::PerfRegion region(p.perf, "hydro");
    each_sampled([&](int b) { p.sim.hydro().trace_step_block(tracer, b); });
    units.machine->commit(sample);
  }
  if (units.eos_trace) {
    perf::PerfRegion region(p.perf, "eos");
    for (int s = 0; s < m.config().ndim; ++s) {
      each_sampled([&](int b) { units.eos_trace(tracer, b); });
    }
    units.machine->commit(sample);
  }
  if (units.flame != nullptr) {
    perf::PerfRegion region(p.perf, "flame");
    each_sampled([&](int b) { units.flame->trace_advance_block(tracer, b); });
    units.machine->commit(sample);
  }
  {
    perf::PerfRegion region(p.perf, "grid");
    const mesh::MeshConfig& c = m.config();
    each_sampled([&](int b) {
      m.unk().trace_sweep(tracer, b, c.ilo(), c.ihi(), c.jlo(), c.jhi(),
                          c.klo(), c.khi(), c.nvar(), c.nvar());
    });
    units.machine->commit(sample);
  }
}

/// The reference: the bulk-synchronous per-unit sequence the step graph
/// stands in for — HydroSolver::step, then guard fill, flame and EOS when
/// a flame is wired — wrapped in the same dt, gravity, replay, publish
/// and remesh steps as Driver::step_once.
RunResult run_bulk(Problem& p) {
  mesh::AmrMesh& m = p.sim.mesh();
  hydro::HydroSolver& hydro = p.sim.hydro();
  const DriverUnits& units = p.sim.units();
  const DriverOptions& opts = p.sim.driver().options();
  double time = 0.0;
  for (int step = 0; step < opts.nsteps; ++step) {
    const double dt = hydro.compute_dt();
    hydro.step(dt);
    if (units.flame != nullptr) {
      m.fill_guardcells();
      units.flame->advance(dt);
      hydro.eos_update();
    }
    if (units.gravity != nullptr) {
      units.gravity->update(m);
      units.gravity->apply_source(m, dt);
      hydro.eos_update();
    }
    replay_step(p, step);
    time += dt;
    p.perf.publish();
    if ((step + 1) % opts.remesh_interval == 0) {
      (void)m.remesh(opts.refine_vars, opts.refine_cut, opts.derefine_cut);
    }
  }
  return p.result(time);
}

/// The Driver's step loop with the step graph run through
/// par::TaskGraph::run_serial in an adversarial ready order. Physics
/// only: the replay and its counters are the same serial pass as in the
/// Driver and have no edges to get wrong.
std::vector<double> run_serial_schedule(Problem& p,
                                        par::TaskGraph::Schedule schedule,
                                        std::uint64_t seed) {
  mesh::AmrMesh& m = p.sim.mesh();
  hydro::HydroSolver& hydro = p.sim.hydro();
  const DriverUnits& units = p.sim.units();
  const DriverOptions& opts = p.sim.driver().options();
  StepGraph graph(m, hydro, units.flame);
  graph.rebuild();
  double time = 0.0;
  for (int step = 0; step < opts.nsteps; ++step) {
    const double dt = hydro.compute_dt();
    graph.run_step_serial(dt, schedule, seed);
    if (units.gravity != nullptr) {
      units.gravity->update(m);
      units.gravity->apply_source(m, dt);
      hydro.eos_update();
    }
    time += dt;
    if ((step + 1) % opts.remesh_interval == 0 &&
        m.remesh(opts.refine_vars, opts.refine_cut, opts.derefine_cut) > 0) {
      graph.rebuild();
    }
  }
  return p.result(time).state;
}

/// The bulk reference at one lane against the step graph under the
/// reverse schedule and three seeded random ones.
template <typename Build>
void expect_serial_schedules_match_bulk(Build build) {
  const std::vector<double> bulk =
      run_bulk(*build(LayoutKind::kVarMajor, 1)).state;
  ASSERT_GT(bulk.size(), 1u);
  const std::pair<par::TaskGraph::Schedule, std::uint64_t> schedules[] = {
      {par::TaskGraph::Schedule::kReverse, 0},
      {par::TaskGraph::Schedule::kRandom, 1},
      {par::TaskGraph::Schedule::kRandom, 0x5eed},
      {par::TaskGraph::Schedule::kRandom, 20261019}};
  for (const auto& [schedule, seed] : schedules) {
    const std::vector<double> serial =
        run_serial_schedule(*build(LayoutKind::kVarMajor, 1), schedule, seed);
    ASSERT_EQ(serial.size(), bulk.size());
    EXPECT_EQ(std::memcmp(serial.data(), bulk.data(),
                          bulk.size() * sizeof(double)),
              0)
        << "schedule " << static_cast<int>(schedule) << " seed " << seed
        << ": end state differs from the bulk reference";
  }
}

void expect_identical(const RunResult& bulk, const RunResult& driver,
                      const std::string& what) {
  ASSERT_EQ(bulk.state.size(), driver.state.size()) << what;
  ASSERT_EQ(std::memcmp(bulk.state.data(), driver.state.data(),
                        bulk.state.size() * sizeof(double)),
            0)
      << what << ": physics state differs";
  for (std::size_t e = 0; e < perf::kNumEvents; ++e) {
    if (e == static_cast<std::size_t>(perf::Event::kWallNanos)) continue;
    EXPECT_EQ(bulk.counters.values[e], driver.counters.values[e])
        << what << ": counter " << perf::event_name(static_cast<perf::Event>(e))
        << " differs";
    EXPECT_EQ(bulk.published.values[e], driver.published.values[e])
        << what << ": published counter "
        << perf::event_name(static_cast<perf::Event>(e)) << " differs";
  }
}

/// For each layout: the bulk sequence at one lane is the reference (and
/// its physics is layout-invariant), and the Driver at 1/2/4 lanes must
/// match it bit for bit — state and counters. Modeled counters are a
/// function of the layout (that is the paper's point), so the counter
/// invariant holds within each layout.
template <typename Build>
void expect_driver_matches_bulk(Build build) {
  std::vector<double> var_major_state;
  for (const LayoutKind layout : kAllLayouts) {
    const RunResult bulk = run_bulk(*build(layout, 1));
    ASSERT_GT(bulk.state.size(), 1u);
    if (var_major_state.empty()) var_major_state = bulk.state;
    ASSERT_EQ(bulk.state, var_major_state)
        << mesh::to_string(layout) << ": bulk state differs across layouts";
    for (const int lanes : {1, 2, 4}) {
      expect_identical(bulk, run_driver(*build(layout, lanes)),
                       std::string(mesh::to_string(layout)) + " x " +
                           std::to_string(lanes) + " lanes");
    }
  }
}

TEST(TaskGraphPhysics, SedovBitIdenticalAcrossModesLanesAndLayouts) {
  expect_driver_matches_bulk(sedov_problem);
}

TEST(TaskGraphPhysics, Sedov3dFineCoarseBitIdenticalAcrossLanesAndLayouts) {
  ASSERT_TRUE(has_fine_coarse_face(
      sedov3d_problem(LayoutKind::kVarMajor, 1)->sim.mesh()));
  expect_driver_matches_bulk(sedov3d_problem);
}

/// Build (or load) the Helm table cache before the first measured run,
/// so every run loads the identical table file.
void prepare_supernova_table() {
  mem::PagePool pool;
  (void)eos::HelmTable::build_or_load(kSupernovaTableSpec,
                                      mem::HugePolicy::kNone, pool);
}

TEST(TaskGraphPhysics, SupernovaBitIdenticalAcrossModesLanesAndLayouts) {
  prepare_supernova_table();
  expect_driver_matches_bulk(supernova_problem);
}

// The step graph's edges under adversarial serial schedules: a missing
// edge lets some ready order read a zone before its write (or after its
// overwrite), which changes the end state.

TEST(TaskGraphPhysics, Sedov3dSerialSchedulesMatchBulk) {
  ASSERT_TRUE(has_fine_coarse_face(
      sedov3d_problem(LayoutKind::kVarMajor, 1)->sim.mesh()));
  expect_serial_schedules_match_bulk(sedov3d_problem);
}

TEST(TaskGraphPhysics, CellularFineCoarseFlameMatchesBulk) {
  ASSERT_TRUE(has_fine_coarse_face(
      cellular_problem(LayoutKind::kVarMajor, 1)->sim.mesh()));
  expect_driver_matches_bulk(cellular_problem);
  expect_serial_schedules_match_bulk(cellular_problem);
}

TEST(TaskGraphPhysics, SupernovaSerialSchedulesMatchBulk) {
  prepare_supernova_table();
  expect_serial_schedules_match_bulk(supernova_problem);
}

// ------------------------------------------------ stale guard zones
//
// Every fill — each step-graph stage's plan and fill_guardcells() —
// writes leaf faces only, so edge and corner guard zones and non-leaf
// blocks stay stale. Nothing may read them: a run whose stale zones are
// poisoned before every step must end where a clean run does, state and
// counters bit for bit. The poison is finite because a NaN can hide
// behind std::max / std::min.

/// Overwrite every edge and corner guard zone (outside the interior
/// along two or more axes) of every block and every zone of every
/// non-leaf block with \p poison.
void poison_stale_zones(mesh::AmrMesh& m, double poison) {
  const mesh::MeshConfig& c = m.config();
  const mesh::BlockTree& tree = m.tree();
  for (int level = 1; level <= tree.finest_level(); ++level) {
    for (const int b : tree.blocks_at_level(level)) {
      const bool leaf = tree.info(b).is_leaf;
      for (int k = 0; k < c.nk(); ++k) {
        for (int j = 0; j < c.nj(); ++j) {
          for (int i = 0; i < c.ni(); ++i) {
            int outside = 0;
            if (i < c.ilo() || i >= c.ihi()) ++outside;
            if (j < c.jlo() || j >= c.jhi()) ++outside;
            if (k < c.klo() || k >= c.khi()) ++outside;
            if (leaf && outside < 2) continue;
            for (int v = 0; v < c.nvar(); ++v) {
              m.unk().at(v, i, j, k, b) = poison;
            }
          }
        }
      }
    }
  }
}

/// A 2-d Sedov whose wide spike refines to level 5 and keeps refining
/// as the blast grows (40 -> 88 leaves over 40 steps).
std::unique_ptr<Problem> refining_sedov_problem(LayoutKind layout,
                                                int lanes) {
  SedovParams params;
  params.ndim = 2;
  params.nzb = 1;
  params.max_level = 5;
  params.maxblocks = 400;
  params.spike_radius = 0.1;
  return std::make_unique<Problem>(params, 40, layout, lanes);
}

/// The cellular front over 24 steps, whose remeshes change the mesh
/// under the flame stage (22 -> 25 leaves).
std::unique_ptr<Problem> remeshing_cellular_problem(LayoutKind layout,
                                                    int lanes) {
  CellularParams params;
  params.max_level = 3;
  params.maxblocks = 256;
  return std::make_unique<Problem>(params, 24, layout, lanes);
}

/// At 1 and 2 lanes: the Driver on a clean copy and on a copy poisoned
/// before every step_once().
template <typename Build>
void expect_stale_zones_unread(Build build) {
  for (const int lanes : {1, 2}) {
    const std::unique_ptr<Problem> clean = build(LayoutKind::kVarMajor, lanes);
    const std::unique_ptr<Problem> poisoned =
        build(LayoutKind::kVarMajor, lanes);
    Driver& reference = clean->sim.driver();
    Driver& driver = poisoned->sim.driver();
    while (reference.step_once()) {
      poison_stale_zones(poisoned->sim.mesh(), 1e30);
      ASSERT_TRUE(driver.step_once());
    }
    EXPECT_FALSE(driver.step_once());
    expect_identical(clean->result(reference.sim_time()),
                     poisoned->result(driver.sim_time()),
                     "poisoned x " + std::to_string(lanes) + " lanes");
  }
}

TEST(GuardReads, NoStepReadsEdgesCornersOrNonLeafBlocks) {
  ASSERT_TRUE(has_fine_coarse_face(
      remeshing_cellular_problem(LayoutKind::kVarMajor, 1)->sim.mesh()));
  expect_stale_zones_unread(remeshing_cellular_problem);
  expect_stale_zones_unread(sedov3d_problem);
  expect_stale_zones_unread(refining_sedov_problem);
  prepare_supernova_table();
  expect_stale_zones_unread(supernova_problem);
}

// --------------------------------------------------- tsan workload

TEST(TaskGraphSampler, SamplerOverTaskGraphStepsIsRaceFree) {
  // The tsan preset's task-graph workload: a background sampler reading
  // published counters at 1 ms cadence while four work-stealing lanes run
  // a full Driver Sedov evolution, closing spans into the runtime's
  // reduction and the installed telemetry. Any read of unsynchronized
  // scheduler, shard or reduction state is a tsan report.
  SedovParams params;
  params.ndim = 2;
  params.nzb = 1;
  params.max_level = 2;
  params.maxblocks = 128;
  Problem p(params, 10, LayoutKind::kVarMajor, 4);
  obs::TelemetryOptions topts;
  topts.lanes = p.runtime.lanes();
  obs::Telemetry telemetry(topts);
  telemetry.install(p.runtime);
  obs::SamplerOptions sopts = obs::SamplerOptions::with_procfs_root(
      std::string(FHP_TEST_FIXTURE_DIR) + "/procfs/kernel-6.6");
  sopts.cadence = std::chrono::milliseconds(1);
  sopts.perf = &p.perf;
  obs::Sampler sampler(sopts);
  sampler.start();

  Driver& driver = p.sim.driver();
  driver.evolve();

  sampler.stop();
  telemetry.uninstall();
  EXPECT_EQ(driver.steps(), 10);
  EXPECT_GT(telemetry.total_spans(), 0u);
  EXPECT_EQ(p.runtime.timers().calls("driver.step"), 10u);
  EXPECT_EQ(p.runtime.timers().overflow(), 0u);
  EXPECT_GE(sampler.taken(), 1u);
  EXPECT_GT(p.perf.published().seq, 0u);
}

}  // namespace
}  // namespace fhp::sim
