#include "sim/step_graph.hpp"

#include <algorithm>
#include <functional>
#include <span>

#include "par/parallel.hpp"
#include "support/error.hpp"

namespace fhp::sim {

StepGraph::StepGraph(mesh::AmrMesh& mesh, hydro::HydroSolver& hydro,
                     flame::AdrFlame* flame)
    : mesh_(mesh), hydro_(hydro), flame_(flame) {}

void StepGraph::rebuild() {
  leaves_ = mesh_.tree().leaves_morton();
  forward_.clear();
  backward_.clear();
  // One plan per stage: each sweep axis reads its two faces, the flame
  // reads every face. The task bodies hold spans into these plans.
  const int ndim = mesh_.config().ndim;
  plans_.clear();
  for (int axis = 0; axis < ndim; ++axis) {
    plans_.push_back(mesh::plan_guards(mesh_.tree(), mesh::axis_faces(axis)));
  }
  if (flame_ != nullptr) {
    plans_.push_back(mesh::plan_guards(mesh_.tree(), mesh::all_faces(ndim)));
  }
  build(forward_, /*forward=*/true);
  build(backward_, /*forward=*/false);
  forward_.freeze();
  backward_.freeze();
}

void StepGraph::build(par::TaskGraph& graph, bool forward) {
  using TaskId = par::TaskGraph::TaskId;
  const int ndim = mesh_.config().ndim;
  const auto nslots = static_cast<std::size_t>(mesh_.tree().capacity());

  // Local out-degree bookkeeping for the stage-chaining barrier (the
  // graph itself rejects duplicate edges, so every edge goes through
  // link() exactly once).
  std::vector<int> out_degree;
  const auto add = [&](const char* name, std::function<void(int)> body) {
    const TaskId id = graph.add_task(name, std::move(body));
    out_degree.push_back(0);
    return id;
  };
  const auto link = [&](TaskId before, TaskId after) {
    graph.add_edge(before, after);
    ++out_degree[static_cast<std::size_t>(before)];
  };

  // [prev_begin, prev_end): task ids of the previous stage. A new
  // stage's restrict root depends on every task of the previous stage
  // that has no successor — and, transitively, on the whole stage.
  std::size_t prev_begin = 0;
  std::size_t prev_end = 0;

  // Guard sub-stage, shared by the sweep and flame stages: the restrict
  // root, then one guard task per planned fill, each after the fills of
  // the coarse covers whose face guards it interpolates from. Fills
  // `guard_task` (block -> task id), which link_guard_deps reuses.
  std::vector<TaskId> guard_task(nslots, -1);
  const auto build_guard_stage = [&](const mesh::GuardPlan& plan) {
    const std::size_t stage_begin = out_degree.size();
    const std::span<const int> parents(plan.restricts);
    const TaskId restrict_task =
        add("task.restrict", [this, parents](int /*lane*/) {
          mesh_.restrict_parents(parents);
        });
    for (std::size_t id = prev_begin; id < prev_end; ++id) {
      if (out_degree[id] == 0) link(static_cast<TaskId>(id), restrict_task);
    }
    std::fill(guard_task.begin(), guard_task.end(), -1);
    for (const mesh::GuardFill& fill : plan.fills) {
      const int b = fill.block;
      const mesh::FaceMask faces = fill.faces;
      const TaskId gb = add("task.guard", [this, b, faces](int /*lane*/) {
        RegionWitness witness;  // task body: lane writer role
        mesh_.fill_block_faces(b, faces);
      });
      guard_task[static_cast<std::size_t>(b)] = gb;
      link(restrict_task, gb);
      // Plan order is coarse to fine, so every cover's task exists.
      for (const int cb : fill.covers) {
        const TaskId gc = guard_task[static_cast<std::size_t>(cb)];
        FHP_CHECK(gc >= 0, "coarse cover without a planned fill");
        link(gc, gb);
      }
    }
    prev_begin = stage_begin;  // provisional; caller extends prev_end
  };

  // guard(b) -> task(b), plus the anti-dependency guard(b) -> task(s)
  // for every leaf s whose interior b's fill reads (task(s) overwrites
  // it). \p task_of maps a leaf to its sweep or flame task.
  const auto link_guard_deps = [&](const mesh::GuardPlan& plan,
                                   const std::vector<TaskId>& task_of) {
    for (const mesh::GuardFill& fill : plan.fills) {
      const TaskId gb = guard_task[static_cast<std::size_t>(fill.block)];
      link(gb, task_of[static_cast<std::size_t>(fill.block)]);
      for (const int s : fill.reads) {
        link(gb, task_of[static_cast<std::size_t>(s)]);
      }
    }
  };

  // --- one stage per directional sweep, in Strang order ------------------
  std::vector<TaskId> task_of(nslots, -1);
  for (int s = 0; s < ndim; ++s) {
    const int axis = forward ? s : ndim - 1 - s;
    const mesh::GuardPlan& plan = plans_[static_cast<std::size_t>(axis)];
    build_guard_stage(plan);
    for (const int b : leaves_) {
      // Span names are static-storage literals (the trace ring keeps the
      // pointer), so the per-axis name is a table lookup.
      static constexpr const char* kSweepNames[3] = {
          "task.sweep_x", "task.sweep_y", "task.sweep_z"};
      task_of[static_cast<std::size_t>(b)] =
          add(kSweepNames[axis], [this, axis, b](int lane) {
            RegionWitness witness;  // task body: lane writer role
            hydro_.sweep_block_task(axis, dt_, b, lane);
          });
    }
    link_guard_deps(plan, task_of);
    for (const int b : leaves_) {
      const TaskId sweep = task_of[static_cast<std::size_t>(b)];
      TaskId last = sweep;
      const std::vector<int> fine = hydro_.flux_sources(axis, b);
      if (!fine.empty()) {
        const TaskId flux =
            add("task.flux", [this, axis, b](int /*lane*/) {
              RegionWitness witness;  // task body: lane writer role
              hydro_.apply_flux_correction_block(axis, dt_, b);
            });
        link(sweep, flux);
        for (const int f : fine) {
          const TaskId fs = task_of[static_cast<std::size_t>(f)];
          FHP_CHECK(fs >= 0, "flux source is not a swept leaf");
          link(fs, flux);
        }
        last = flux;
      }
      const TaskId eos = add("task.eos", [this, b](int lane) {
        RegionWitness witness;  // task body: lane writer role
        hydro_.eos_update_block_task(b, lane);
      });
      link(last, eos);
    }
    prev_end = out_degree.size();
  }

  // --- flame stage (guard fill, per-block ADR update, EOS) ---------------
  if (flame_ != nullptr) {
    const mesh::GuardPlan& plan = plans_.back();
    build_guard_stage(plan);
    for (std::size_t n = 0; n < leaves_.size(); ++n) {
      const int b = leaves_[n];
      task_of[static_cast<std::size_t>(b)] =
          add("task.flame", [this, n, b](int lane) {
            RegionWitness witness;  // task body: lane writer role
            flame_->advance_block_task(n, b, dt_, lane);
          });
    }
    link_guard_deps(plan, task_of);
    for (const int b : leaves_) {
      const TaskId eos = add("task.eos", [this, b](int lane) {
        RegionWitness witness;  // task body: lane writer role
        hydro_.eos_update_block_task(b, lane);
      });
      link(task_of[static_cast<std::size_t>(b)], eos);
    }
    prev_end = out_degree.size();
  }
}

void StepGraph::run_step(double dt) {
  par::TaskGraph& graph = begin_step(dt);
  graph.run();
  end_step();
}

void StepGraph::run_step_serial(double dt, par::TaskGraph::Schedule schedule,
                                std::uint64_t seed) {
  par::TaskGraph& graph = begin_step(dt);
  graph.run_serial(schedule, seed);
  end_step();
}

par::TaskGraph& StepGraph::begin_step(double dt) {
  dt_ = dt;
  if (flame_ != nullptr) flame_->begin_advance(leaves_.size());
  return hydro_.forward_order() ? forward_ : backward_;
}

void StepGraph::end_step() {
  if (flame_ != nullptr) flame_->finish_advance();
  hydro_.advance_step_count();
}

}  // namespace fhp::sim
