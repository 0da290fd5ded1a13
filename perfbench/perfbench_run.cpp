/// \file perfbench_run.cpp
/// \brief The measuring half of the end-to-end benchmark.
///
/// run.py builds this program, then runs one workload per invocation:
///
///   perfbench_run --prepare --cache-dir DIR
///   perfbench_run --workload sedov3d|supernova2d|service_mix --seed N
///                 --seconds S --trace 0|1 --cache-dir DIR [--rate R]
///
/// `--prepare` builds the Helm-table caches so no timed window pays for
/// them. A workload run prints one JSON record as its last stdout line:
/// raw samples (set-up times, step times, job latencies), scalar values,
/// correctness verdicts and provenance. run.py reduces the samples to the
/// metrics named in BENCHMARK.json.
///
/// Timed runs (trace 0) drive the stock sim::Driver / svc::Service. Traced
/// runs (trace 1) add a second pass that reproduces Driver::step_once
/// (bulk-sync) from public calls and times each one; its canonical end
/// state and published counters must equal the timed pass's bit for bit,
/// or its per-layer numbers are marked untrustworthy.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eos/eos_table.hpp"
#include "hydro/hydro.hpp"
#include "mem/mapped_region.hpp"
#include "mem/page_pool.hpp"
#include "perf/perf_context.hpp"
#include "perf/region.hpp"
#include "perf/timers.hpp"
#include "rt/runtime.hpp"
#include "sim/cellular.hpp"
#include "sim/driver.hpp"
#include "sim/profiles.hpp"
#include "sim/sedov.hpp"
#include "sim/supernova.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"
#include "svc/service.hpp"
#include "tlb/machine.hpp"

namespace {

using namespace fhp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Modeled A64FX clock (the paper's "Time (s)" = cycles / 1.8 GHz).
constexpr double kModelClockHz = 1.8e9;

// ------------------------------------------------------------------ JSON

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

/// Insertion-ordered JSON object built from already-encoded values.
class JsonObject {
 public:
  void raw(const std::string& key, std::string encoded) {
    fields_.emplace_back(key, std::move(encoded));
  }
  void num(const std::string& key, double v) { raw(key, json_number(v)); }
  void count(const std::string& key, std::uint64_t v) {
    raw(key, std::to_string(v));
  }
  void str(const std::string& key, const std::string& v) {
    raw(key, json_string(v));
  }
  void flag(const std::string& key, bool v) { raw(key, v ? "true" : "false"); }
  void list(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ",";
      out += json_number(values[i]);
    }
    raw(key, out + "]");
  }
  [[nodiscard]] std::string encode() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += json_string(fields_[i].first) + ":" + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ------------------------------------------------------------ process use

struct Usage {
  double maxrss_mib = 0;
  std::uint64_t minflt = 0;
};

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {static_cast<double>(ru.ru_maxrss) / 1024.0,
          static_cast<std::uint64_t>(ru.ru_minflt)};
}

// --------------------------------------------------------------- problems

enum class Kind { kSedov, kCellular, kSupernova };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kSedov: return "sedov";
    case Kind::kCellular: return "cellular";
    case Kind::kSupernova: return "supernova";
  }
  return "?";
}

/// Everything that defines one simulation problem, wired the way
/// svc::Service wires a tenant.
struct ProblemSpec {
  Kind kind = Kind::kSedov;
  int lanes = 1;
  mem::HugePolicy policy = mem::HugePolicy::kNone;
  int nsteps = 8;
  int trace_sample = 0;
  double cfl = 0.8;
  /// Replay a gamma-law EOS pass per block (the Table II hydro arm's
  /// hook); the supernova problem replays its Helm-table gathers instead.
  bool gamma_eos_trace = false;
  sim::SedovParams sedov{};
  sim::CellularParams cellular{};
  sim::SupernovaParams supernova{};
};

/// One constructed problem. Declaration order is the destruction
/// contract: the pool outlives the runtime, which outlives everything
/// built on it.
struct Problem {
  std::unique_ptr<mem::PagePool> pool;
  std::unique_ptr<rt::Runtime> runtime;
  std::unique_ptr<sim::SedovSetup> sedov;
  std::unique_ptr<sim::CellularSetup> cellular;
  std::unique_ptr<sim::SupernovaSetup> supernova;
  std::unique_ptr<hydro::HydroSolver> hydro;
  std::unique_ptr<tlb::Machine> machine;
  perf::Timers timers;
  sim::DriverOptions options;
  sim::DriverUnits units;
  std::unique_ptr<sim::Driver> driver;

  double runtime_init_s = 0;  ///< pool init + Runtime construction
  double setup_init_s = 0;    ///< problem setup (mesh, tables, initial data)
  double setup_s = 0;         ///< everything up to a runnable Driver
  std::uint64_t setup_minflt = 0;

  [[nodiscard]] mesh::AmrMesh& mesh() const {
    if (sedov) return sedov->mesh();
    if (cellular) return cellular->mesh();
    return supernova->mesh();
  }
};

mem::PagePoolConfig pool_config() {
  // An explicit config with no reservations: the benchmark reads the
  // system's hugetlb inventory and never resizes vm.nr_hugepages.
  return mem::PagePoolConfig{};
}

/// Build a problem on a fresh pool of its own, so every repetition sees
/// the same inventory.
std::unique_ptr<Problem> build_problem(const ProblemSpec& spec) {
  auto p = std::make_unique<Problem>();
  const Usage u0 = usage();
  const Clock::time_point t0 = Clock::now();
  p->pool = std::make_unique<mem::PagePool>();
  p->pool->init(pool_config());
  rt::RuntimeOptions ropts;
  ropts.lanes = spec.lanes;
  ropts.policy = spec.policy;
  ropts.pool = p->pool.get();
  p->runtime = std::make_unique<rt::Runtime>(ropts);
  rt::Runtime& runtime = *p->runtime;
  p->runtime_init_s = seconds_since(t0);

  const Clock::time_point t1 = Clock::now();
  hydro::HydroOptions hopts;
  hopts.cfl = spec.cfl;
  p->options.nsteps = spec.nsteps;
  p->options.trace_sample = spec.trace_sample;
  p->options.verbose = false;
  p->units.runtime = &runtime;
  switch (spec.kind) {
    case Kind::kSedov: {
      p->sedov =
          std::make_unique<sim::SedovSetup>(spec.sedov, spec.policy, runtime);
      p->hydro = std::make_unique<hydro::HydroSolver>(p->sedov->mesh(),
                                                      p->sedov->eos(), hopts);
      p->options.refine_vars = {mesh::var::kDens, mesh::var::kPres};
      break;
    }
    case Kind::kCellular: {
      p->cellular = std::make_unique<sim::CellularSetup>(spec.cellular,
                                                         spec.policy, runtime);
      p->hydro = std::make_unique<hydro::HydroSolver>(
          p->cellular->mesh(), p->cellular->eos(), hopts);
      p->units.flame = &p->cellular->flame();
      p->options.refine_vars = {mesh::var::kDens,
                                mesh::var::kFirstScalar + sim::cvar::kPhi};
      break;
    }
    case Kind::kSupernova: {
      p->supernova = std::make_unique<sim::SupernovaSetup>(
          spec.supernova, spec.policy, runtime);
      p->hydro = std::make_unique<hydro::HydroSolver>(
          p->supernova->mesh(), p->supernova->eos(), hopts);
      p->hydro->set_composition_fn(p->supernova->composition_fn());
      p->units.flame = &p->supernova->flame();
      p->units.gravity = &p->supernova->gravity();
      p->units.eos_trace = [setup = p->supernova.get()](tlb::Tracer& t,
                                                        int b) {
        setup->trace_eos_block(t, b);
      };
      p->options.refine_vars = {mesh::var::kDens,
                                mesh::var::kFirstScalar + sim::snvar::kPhi};
      break;
    }
  }
  p->setup_init_s = seconds_since(t1);

  if (spec.gamma_eos_trace) {
    p->units.eos_trace = [&mesh = p->mesh()](tlb::Tracer& t, int b) {
      const mesh::MeshConfig& c = mesh.config();
      mesh.unk().trace_sweep(t, b, c.ilo(), c.ihi(), c.jlo(), c.jhi(),
                             c.klo(), c.khi(), 8, 6);
      t.compute(static_cast<std::uint64_t>(c.nxb) * c.nyb * c.nzb * 40, 0);
    };
  }
  if (spec.trace_sample > 0) {
    p->machine =
        std::make_unique<tlb::Machine>(tlb::MachineParams{}, &runtime.perf());
    p->units.machine = p->machine.get();
  }
  p->driver = std::make_unique<sim::Driver>(p->mesh(), *p->hydro, p->timers,
                                            p->options, p->units);
  p->setup_s = seconds_since(t0);
  p->setup_minflt = usage().minflt - u0.minflt;
  return p;
}

/// What one pass over a problem's step budget produced.
struct Outcome {
  std::vector<double> step_s;  ///< wall time of each step
  double run_s = 0;            ///< wall time of the whole budget
  std::uint64_t run_minflt = 0;
  double sim_time = 0;
  std::vector<double> state;  ///< canonical end state (+ flame energy)
  perf::CounterSet counters;  ///< last published counter set
};

void finish_outcome(const Problem& p, double sim_time, Outcome& out) {
  out.sim_time = sim_time;
  out.state = svc::canonical_state(p.mesh(), sim_time);
  if (p.units.flame != nullptr) {
    out.state.push_back(p.units.flame->energy_released());
  }
  out.counters = p.runtime->perf().published().counters;
}

/// Timed pass: the stock Driver, one step_once() per timed step.
Outcome run_timed(Problem& p) {
  Outcome out;
  const Usage u0 = usage();
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    const Clock::time_point ts = Clock::now();
    if (!p.driver->step_once()) break;
    out.step_s.push_back(seconds_since(ts));
  }
  out.run_s = seconds_since(t0);
  out.run_minflt = usage().minflt - u0.minflt;
  finish_outcome(p, p.driver->sim_time(), out);
  return out;
}

/// Busy time and work counts of each layer over a traced pass.
struct Layers {
  double compute_dt = 0, guardfill = 0, sweep = 0, eos = 0, flame = 0;
  double gravity_update = 0, gravity_source = 0, replay = 0, remesh = 0;
  std::uint64_t zone_sweeps = 0, zone_evals = 0, remesh_changes = 0;

  [[nodiscard]] double total() const {
    return compute_dt + guardfill + sweep + eos + flame + gravity_update +
           gravity_source + replay + remesh;
  }
};

template <typename F>
void timed(double& acc, F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  acc += seconds_since(t0);
}

/// The model replay of one step, as Driver::trace_regions does it: every
/// trace_sample-th leaf (round-robin offset per step) into the machine
/// model, one PerfRegion and one scaled commit per modeled unit.
void replay_step(Problem& p, int step) {
  if (p.machine == nullptr || p.options.trace_sample <= 0) return;
  tlb::Machine& machine = *p.machine;
  perf::PerfContext& perf = p.runtime->perf();
  const mesh::AmrMesh& mesh = p.mesh();
  tlb::Tracer tracer(&machine);
  const auto sample = static_cast<std::size_t>(p.options.trace_sample);
  const auto scale = static_cast<std::uint64_t>(p.options.trace_sample);
  const std::vector<int> leaves = mesh.tree().leaves_morton();
  const auto offset = static_cast<std::size_t>(step % p.options.trace_sample);
  {
    perf::PerfRegion region(perf, "hydro");
    for (std::size_t n = offset; n < leaves.size(); n += sample) {
      p.hydro->trace_step_block(tracer, leaves[n]);
    }
    machine.commit(scale);
  }
  if (p.units.eos_trace) {
    perf::PerfRegion region(perf, "eos");
    for (int sweep = 0; sweep < mesh.config().ndim; ++sweep) {
      for (std::size_t n = offset; n < leaves.size(); n += sample) {
        p.units.eos_trace(tracer, leaves[n]);
      }
    }
    machine.commit(scale);
  }
  if (p.units.flame != nullptr) {
    perf::PerfRegion region(perf, "flame");
    for (std::size_t n = offset; n < leaves.size(); n += sample) {
      p.units.flame->trace_advance_block(tracer, leaves[n]);
    }
    machine.commit(scale);
  }
  {
    perf::PerfRegion region(perf, "grid");
    const mesh::MeshConfig& c = mesh.config();
    for (std::size_t n = offset; n < leaves.size(); n += sample) {
      mesh.unk().trace_sweep(tracer, leaves[n], c.ilo(), c.ihi(), c.jlo(),
                             c.jhi(), c.klo(), c.khi(), c.nvar(), c.nvar());
    }
    machine.commit(scale);
  }
}

/// Traced pass: Driver::step_once (bulk-sync) reproduced call by call,
/// each call timed into its layer. The Driver built with the problem is
/// never stepped.
Outcome run_traced(Problem& p, Layers& layers) {
  Outcome out;
  mesh::AmrMesh& mesh = p.mesh();
  hydro::HydroSolver& hydro = *p.hydro;
  const sim::DriverOptions& opts = p.options;
  const mesh::MeshConfig& c = mesh.config();
  const auto block_zones = static_cast<std::uint64_t>(c.nxb) *
                           static_cast<std::uint64_t>(c.nyb) *
                           static_cast<std::uint64_t>(c.nzb);
  double time = 0.0;
  int step = 0;
  const Usage u0 = usage();
  const Clock::time_point t0 = Clock::now();
  while (step < opts.nsteps && time < opts.tmax) {
    const Clock::time_point ts = Clock::now();
    {
      const rt::Runtime::BindScope bound(*p.runtime);
      double dt = 0.0;
      timed(layers.compute_dt, [&] { dt = hydro.compute_dt(); });
      if (time + dt > opts.tmax) dt = opts.tmax - time;

      const std::uint64_t leaf_zones =
          mesh.tree().leaves_morton().size() * block_zones;
      const bool forward = hydro.forward_order();
      for (int s = 0; s < c.ndim; ++s) {
        const int axis = forward ? s : c.ndim - 1 - s;
        timed(layers.guardfill, [&] { mesh.fill_guardcells(); });
        timed(layers.sweep, [&] { hydro.sweep(axis, dt); });
        timed(layers.eos, [&] { hydro.eos_update(); });
        layers.zone_sweeps += leaf_zones;
        layers.zone_evals += leaf_zones;
      }
      hydro.advance_step_count();

      if (p.units.flame != nullptr) {
        timed(layers.guardfill, [&] { mesh.fill_guardcells(); });
        timed(layers.flame, [&] { p.units.flame->advance(dt); });
        timed(layers.eos, [&] { hydro.eos_update(); });
        layers.zone_evals += leaf_zones;
      }
      if (p.units.gravity != nullptr) {
        timed(layers.gravity_update, [&] { p.units.gravity->update(mesh); });
        timed(layers.gravity_source,
              [&] { p.units.gravity->apply_source(mesh, dt); });
        timed(layers.eos, [&] { hydro.eos_update(); });
        layers.zone_evals += leaf_zones;
      }
      timed(layers.replay, [&] { replay_step(p, step); });

      time += dt;
      ++step;
      p.runtime->perf().publish();
      trace::step_mark(step, time, dt);

      if (opts.remesh_interval > 0 && step % opts.remesh_interval == 0) {
        timed(layers.remesh, [&] {
          layers.remesh_changes += static_cast<std::uint64_t>(mesh.remesh(
              opts.refine_vars, opts.refine_cut, opts.derefine_cut));
        });
      }
    }
    out.step_s.push_back(seconds_since(ts));
  }
  out.run_s = seconds_since(t0);
  out.run_minflt = usage().minflt - u0.minflt;
  finish_outcome(p, time, out);
  return out;
}

/// Bit-for-bit comparison of two passes: end state and counters.
std::string fidelity_mismatch(const Outcome& timed_pass,
                              const Outcome& traced_pass) {
  if (timed_pass.state.size() != traced_pass.state.size() ||
      std::memcmp(timed_pass.state.data(), traced_pass.state.data(),
                  timed_pass.state.size() * sizeof(double)) != 0) {
    return "canonical end state differs";
  }
  for (std::size_t e = 0; e < perf::kNumEvents; ++e) {
    if (timed_pass.counters.values[e] != traced_pass.counters.values[e]) {
      return "published counter " +
             std::string(perf::event_name(static_cast<perf::Event>(e))) +
             " differs: " + std::to_string(timed_pass.counters.values[e]) +
             " vs " + std::to_string(traced_pass.counters.values[e]);
    }
  }
  return {};
}

// ---------------------------------------------------------- the record

/// Accumulates what run.py needs: samples, scalars, checks, provenance.
struct Record {
  JsonObject samples;
  JsonObject values;
  JsonObject provenance;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }

  [[nodiscard]] std::string encode(const std::string& workload) const {
    JsonObject out;
    out.str("workload", workload);
    out.count("attempted", attempted);
    out.count("failed", failures.size());
    std::string list = "[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      if (i > 0) list += ",";
      list += json_string(failures[i]);
    }
    out.raw("failures", list + "]");
    out.raw("samples", samples.encode());
    out.raw("values", values.encode());
    out.raw("provenance", provenance.encode());
    return out.encode();
  }
};

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool pmu_available() {
  perf::set_hardware_capture(true);
  const bool active = perf::hardware_capture_active();
  perf::set_hardware_capture(false);
  return active;
}

void describe_problem(const Problem& p, Record& rec) {
  const mem::MappedRegion& unk = p.mesh().unk().region();
  rec.provenance.count("lanes", static_cast<std::uint64_t>(p.runtime->lanes()));
  rec.provenance.str("layout", std::string(mesh::to_string(p.runtime->layout())));
  rec.provenance.str("policy_requested",
                     std::string(mem::to_string(p.runtime->huge_policy())));
  rec.provenance.str("unk_backing", std::string(mem::to_string(unk.backing())));
  rec.provenance.str("unk_region", unk.describe());
  std::uint64_t working_set = p.mesh().unk().bytes();
  if (p.supernova) {
    const mem::MappedRegion& table = p.supernova->table().region();
    rec.provenance.str("table_region", table.describe());
    working_set += table.size();
  }
  rec.provenance.count("working_set_bytes", working_set);
}

double huge_resident_frac(const Problem& p) {
  const mem::MappedRegion& unk = p.mesh().unk().region();
  return unk.size() > 0 ? static_cast<double>(unk.resident_huge_bytes()) /
                              static_cast<double>(unk.size())
                        : 0.0;
}

double model_seconds(const perf::CounterSet& c) {
  return static_cast<double>(c[perf::Event::kCycles]) / kModelClockHz;
}

/// Per-layer metrics of a traced pass (summed over \p layers), plus the
/// replay's per-region modeled measures from \p problems' perf contexts.
void put_layers(const Layers& L, const Outcome& timed_pass,
                const Outcome& traced_pass,
                const std::vector<const Problem*>& problems, Record& rec) {
  JsonObject& v = rec.values;
  v.num("hydro.compute_dt_s", L.compute_dt);
  v.num("hydro.sweep_s", L.sweep);
  v.count("hydro.zone_sweeps", L.zone_sweeps);
  v.num("hydro.zones_per_s",
        L.sweep > 0 ? static_cast<double>(L.zone_sweeps) / L.sweep : 0.0);
  v.num("eos.update_s", L.eos);
  v.count("eos.zone_evals", L.zone_evals);
  v.num("eos.zones_per_s",
        L.eos > 0 ? static_cast<double>(L.zone_evals) / L.eos : 0.0);
  v.num("mesh.guardfill_s", L.guardfill);
  v.num("mesh.remesh_s", L.remesh);
  v.count("mesh.remesh_changes", L.remesh_changes);
  v.num("flame.advance_s", L.flame);
  v.num("gravity.update_s", L.gravity_update);
  v.num("gravity.source_s", L.gravity_source);
  v.num("tlb.replay_s", L.replay);

  perf::CounterSet all;
  for (const char* region : {"hydro", "eos", "flame", "grid"}) {
    perf::CounterSet sum;
    for (const Problem* p : problems) {
      sum += p->runtime->perf().regions().get(region).totals;
    }
    all += sum;
    const std::string r(region);
    v.count("tlb.model_cycles." + r, sum[perf::Event::kCycles]);
    v.count("tlb.model_dtlb_misses." + r, sum[perf::Event::kDtlbMisses]);
    v.count("tlb.model_bytes." + r,
            sum[perf::Event::kBytesRead] + sum[perf::Event::kBytesWritten]);
  }
  v.num("tlb.model_s", model_seconds(all));
  v.count("tlb.model_dtlb_misses", all[perf::Event::kDtlbMisses]);
  const double traced = traced_pass.run_s;
  v.num("bench.trace_overhead_frac",
        timed_pass.run_s > 0 ? (traced - timed_pass.run_s) / timed_pass.run_s
                             : 0.0);
  v.num("bench.unattributed_frac",
        traced > 0 ? (traced - L.total()) / traced : 0.0);
}

void put_zero(JsonObject& v, std::initializer_list<const char*> names) {
  for (const char* n : names) v.num(n, 0.0);
}

// ------------------------------------------------------------ sim workloads

struct SimWorkload {
  ProblemSpec spec;
  /// Nominal wall time of one repetition (set-up + step budget) on a
  /// 4-core x86 VM; fixes the repetition count for a given --seconds so
  /// the number of repetitions each step's best time is taken from never
  /// depends on how fast a particular run happens to be.
  double nominal_rep_s = 1.0;
};

SimWorkload sedov3d_workload(std::uint64_t seed) {
  Rng rng(seed);
  SimWorkload w;
  ProblemSpec& s = w.spec;
  s.kind = Kind::kSedov;
  // 2 lanes, not 4: the memory-bound sweeps run only 1.25x faster on 4,
  // and 4 lanes on 4 cores felt every slow spell of the shared host
  // (run-to-run spread 0.11 against 0.07 on 2, in alternating runs).
  s.lanes = 2;
  s.policy = mem::HugePolicy::kHugetlbfs;
  s.nsteps = 16;
  s.trace_sample = 4;
  s.cfl = 0.6;
  s.gamma_eos_trace = true;
  s.sedov.max_level = 3;
  s.sedov.maxblocks = 700;
  // The seed varies the explosion energy by +-2 %: a different input with
  // the same mesh and work, checked against its own analytic radius.
  s.sedov.energy = 1.0 + rng.uniform(-0.02, 0.02);
  w.nominal_rep_s = 5.6;
  return w;
}

SimWorkload supernova2d_workload(std::uint64_t seed,
                                 const std::string& cache_dir) {
  Rng rng(seed);
  SimWorkload w;
  ProblemSpec& s = w.spec;
  s.kind = Kind::kSupernova;
  s.lanes = 1;
  s.policy = mem::HugePolicy::kNone;
  s.nsteps = 16;
  s.trace_sample = 4;
  s.cfl = 0.6;
  s.supernova.max_level = 4;
  s.supernova.maxblocks = 1500;
  s.supernova.table_cache = cache_dir + "/helm_table.bin";
  // +-0.5 % in the central density: a different star, same table.
  s.supernova.central_density = 2.0e9 * (1.0 + rng.uniform(-0.005, 0.005));
  w.nominal_rep_s = 4.5;
  return w;
}

/// Correctness of one finished repetition; returns a failure text or "".
std::string check_sim(const Problem& p, const Outcome& o, double mass0) {
  if (o.step_s.size() != static_cast<std::size_t>(p.options.nsteps)) {
    return "ran " + std::to_string(o.step_s.size()) + " of " +
           std::to_string(p.options.nsteps) + " steps";
  }
  for (const double x : o.state) {
    if (!std::isfinite(x)) return "non-finite end state";
  }
  if (p.sedov) {
    const sim::SedovParams& sp = p.sedov->params();
    sim::RadialProfile profile(p.mesh(), sp.center, 120, {mesh::var::kDens});
    const double r = profile.peak_radius(0);
    const double r_exact = sim::SedovSetup::shock_radius(
        sp.energy, sp.rho_ambient, o.sim_time, sp.gamma);
    const double err = std::abs(r - r_exact) / r_exact;
    if (!(err < 0.10)) {
      return "shock radius " + std::to_string(r) + " vs analytic " +
             std::to_string(r_exact);
    }
  }
  if (p.supernova) {
    const double mass1 = p.mesh().integrate(mesh::var::kDens);
    const double drift = std::abs(mass1 - mass0) / mass0;
    const double burned = p.mesh().integrate_product(
        mesh::var::kDens, mesh::var::kFirstScalar + sim::snvar::kPhi);
    if (!(drift < 5e-3)) return "mass drift " + std::to_string(drift);
    if (!(burned > 0.0)) return "no burned mass";
  }
  return {};
}

double initial_mass(const Problem& p) {
  return p.supernova ? p.mesh().integrate(mesh::var::kDens) : 0.0;
}

/// Set-up samples a timed sim run takes at least.
constexpr int kMinSetups = 9;

int run_sim(const std::string& name, const SimWorkload& w, double seconds,
            bool trace, Record& rec) {
  rec.provenance.str("helm_cache",
                     w.spec.kind != Kind::kSupernova ? "none"
                     : std::filesystem::exists(w.spec.supernova.table_cache)
                         ? "loaded"
                         : "built");
  rec.provenance.flag("pmu_available", pmu_available());
  rec.provenance.count("nsteps", static_cast<std::uint64_t>(w.spec.nsteps));
  rec.provenance.count("trace_sample",
                       static_cast<std::uint64_t>(w.spec.trace_sample));

  const int reps =
      trace ? 1
            : std::max(2, static_cast<int>(std::lround(seconds /
                                                       w.nominal_rep_s)));
  std::vector<double> setup_s, runtime_init_s, setup_init_s, run_s, step_s;
  // Set-up-only builds first, so setup_s is a median of at least
  // kMinSetups samples; they also warm the allocator and page cache.
  for (int s = reps; !trace && s < kMinSetups; ++s) {
    setup_s.push_back(build_problem(w.spec)->setup_s);
  }
  Outcome last_timed;
  std::uint64_t setup_minflt = 0;
  for (int r = 0; r < reps; ++r) {
    std::unique_ptr<Problem> p = build_problem(w.spec);
    setup_s.push_back(p->setup_s);
    runtime_init_s.push_back(p->runtime_init_s);
    setup_init_s.push_back(p->setup_init_s);
    setup_minflt = p->setup_minflt;
    if (r == 0) describe_problem(*p, rec);
    const double mass0 = initial_mass(*p);
    Outcome o = run_timed(*p);
    const std::string bad = check_sim(*p, o, mass0);
    rec.check(bad.empty(), name + " repetition " + std::to_string(r) + ": " +
                               bad);
    run_s.push_back(o.run_s);
    step_s.insert(step_s.end(), o.step_s.begin(), o.step_s.end());
    if (r == reps - 1) {
      rec.values.num("mem.huge_resident_frac", huge_resident_frac(*p));
      const mem::PoolCounters pc = p->runtime->page_pool().counters();
      rec.values.count("mem.pool_huge_allocs", pc.huge_allocs);
      rec.values.count("mem.pool_thp_fallbacks", pc.thp_fallbacks);
      rec.values.count("mem.pool_base_fallbacks", pc.base_fallbacks);
    }
    last_timed = std::move(o);
  }
  rec.samples.list("setup_s", setup_s);
  rec.samples.list("run_s", run_s);
  rec.samples.list("latency_s", step_s);
  rec.values.num("peak_rss_mib", usage().maxrss_mib);
  rec.values.num("mem.setup_minflt", static_cast<double>(setup_minflt));
  rec.values.num("mem.run_minflt", static_cast<double>(last_timed.run_minflt));
  rec.values.num("rt.runtime_init_s", median_of(runtime_init_s));
  rec.values.num("sim.setup_init_s", median_of(setup_init_s));
  if (!trace) return 0;

  // Traced pass on a fresh copy of the same problem.
  std::unique_ptr<Problem> p = build_problem(w.spec);
  const double mass0 = initial_mass(*p);
  Layers layers;
  const Outcome traced = run_traced(*p, layers);
  const std::string bad = check_sim(*p, traced, mass0);
  rec.check(bad.empty(), name + " traced pass: " + bad);
  const std::string mismatch = fidelity_mismatch(last_timed, traced);
  rec.check(mismatch.empty(),
            "FIDELITY: traced pass does not reproduce the Driver (" +
                mismatch + "); per-layer numbers withheld");
  if (!mismatch.empty()) {
    std::fprintf(stderr,
                 "\n*** perfbench: %s traced pass does not reproduce the "
                 "Driver run: %s.\n*** Per-layer numbers are withheld "
                 "(correct=false); end-to-end metrics are unaffected.\n\n",
                 name.c_str(), mismatch.c_str());
  }
  rec.provenance.flag("traced_matches_driver", mismatch.empty());
  put_layers(layers, last_timed, traced, {p.get()}, rec);
  put_zero(rec.values,
           {"sim.setup_solo_s.sedov", "sim.setup_solo_s.cellular",
            "sim.setup_solo_s.supernova", "svc.queue_p50_s", "svc.exec_p50_s",
            "svc.queue_depth_max", "svc.backpressure_retries",
            "svc.generator_lag_p90_s", "svc.batch_p50_s"});
  return 0;
}

// --------------------------------------------------------- service workload

/// Offered load of service_mix [jobs/s]: 0.23 x the saturation throughput
/// of 3 single-lane workers on this job mix (53 jobs/s on a 4-core x86
/// VM, measured with `--rate 1000 --seconds 0.25`, a burst the service
/// drains at capacity). Queueing amplifies host noise: the run-to-run
/// spread of the median latency was 0.38 at 0.7 x, and that of the p90
/// 0.23 at 0.4 x and 0.15 at 0.23 x (seven runs each).
constexpr double kServiceRate = 12.0;

svc::JobSpec service_job(Kind kind, const std::string& cache_dir) {
  svc::JobSpec spec;
  spec.lanes = 1;
  spec.policy = mem::HugePolicy::kHugetlbfs;
  spec.trace_sample = 0;
  switch (kind) {
    case Kind::kSedov:
      spec.kind = svc::JobKind::kSedov;
      spec.deadline = svc::DeadlineClass::kInteractive;
      spec.nsteps = 8;
      spec.sedov.ndim = 2;
      spec.sedov.nzb = 1;
      spec.sedov.max_level = 3;
      spec.sedov.maxblocks = 256;
      break;
    case Kind::kCellular:
      spec.kind = svc::JobKind::kCellular;
      spec.deadline = svc::DeadlineClass::kBatch;
      spec.nsteps = 5;
      spec.cellular.max_level = 2;
      spec.cellular.maxblocks = 128;
      break;
    case Kind::kSupernova:
      spec.kind = svc::JobKind::kSupernova;
      spec.deadline = svc::DeadlineClass::kBatch;
      spec.nsteps = 2;
      spec.supernova.max_level = 3;
      spec.supernova.maxblocks = 400;
      spec.supernova.table_spec = {-4.0, 10.0, 141, 5.0, 10.0, 51};
      spec.supernova.table_cache = cache_dir + "/helm_table_service.bin";
      break;
  }
  return spec;
}

/// The same job as a solo problem (the service's tenant wiring).
ProblemSpec solo_spec(Kind kind, const svc::JobSpec& job) {
  ProblemSpec s;
  s.kind = kind;
  s.lanes = job.lanes;
  s.policy = job.policy;
  s.nsteps = job.nsteps;
  s.trace_sample = job.trace_sample;
  s.cfl = kind == Kind::kSupernova ? 0.6 : 0.8;
  s.sedov = job.sedov;
  s.cellular = job.cellular;
  s.supernova = job.supernova;
  return s;
}

std::string check_job(const svc::JobResult& r, int nsteps) {
  if (r.status != svc::JobStatus::kDone) {
    return std::string("job resolved ") + svc::to_string(r.status) + ": " +
           r.error;
  }
  if (r.steps != nsteps) {
    return "job took " + std::to_string(r.steps) + " of " +
           std::to_string(nsteps) + " steps";
  }
  return {};
}

constexpr Kind kKinds[] = {Kind::kSedov, Kind::kCellular, Kind::kSupernova};

/// Two interactive Sedov jobs for each batch job of either class.
constexpr Kind kMixPattern[] = {Kind::kSedov,    Kind::kSedov,
                                Kind::kCellular, Kind::kSedov,
                                Kind::kSedov,    Kind::kSupernova};

int run_service(std::uint64_t seed, double seconds, double rate, bool trace,
                const std::string& cache_dir, Record& rec) {
  constexpr int kWorkers = 3;
  constexpr int kSetups = 25;
  rec.provenance.str("helm_cache",
                     std::filesystem::exists(cache_dir +
                                             "/helm_table_service.bin")
                         ? "loaded"
                         : "built");
  rec.provenance.flag("pmu_available", pmu_available());
  rec.provenance.count("workers", kWorkers);
  rec.provenance.count("lanes", 1);
  rec.provenance.str("policy_requested", "hugetlbfs");
  rec.provenance.num("offered_rate_per_s", rate);

  // Set-up: what the service does under its setup mutex before a job can
  // step -- one tenant of each class built solo (runtime, problem, solver,
  // driver) -- timed kSetups times.
  std::vector<double> setup_s, runtime_init_s, setup_init_s;
  std::vector<double> solo_setup_s[std::size(kKinds)];
  const Usage u_setup = usage();
  for (int s = 0; s < kSetups; ++s) {
    double total = 0;
    for (std::size_t k = 0; k < std::size(kKinds); ++k) {
      const std::unique_ptr<Problem> p = build_problem(
          solo_spec(kKinds[k], service_job(kKinds[k], cache_dir)));
      total += p->setup_s;
      solo_setup_s[k].push_back(p->setup_s);
      runtime_init_s.push_back(p->runtime_init_s);
      setup_init_s.push_back(p->setup_init_s);
    }
    setup_s.push_back(total);
  }
  const std::uint64_t setup_minflt = usage().minflt - u_setup.minflt;

  // The service on one shared pool, warmed by one job of each class.
  mem::PagePool pool;
  pool.init(pool_config());
  svc::ServiceOptions sopts;
  sopts.workers = kWorkers;
  sopts.pool = &pool;
  auto service = std::make_unique<svc::Service>(sopts);
  {
    std::vector<std::pair<svc::JobId, int>> warm;
    for (const Kind k : kKinds) {
      const svc::JobSpec spec = service_job(k, cache_dir);
      const svc::Submission sub = service->submit(spec);
      if (!sub.accepted()) {
        throw std::runtime_error(std::string("warm-up submit rejected: ") +
                                 svc::to_string(sub.reason));
      }
      warm.emplace_back(sub.id, spec.nsteps);
    }
    for (const auto& [id, nsteps] : warm) {
      const std::string bad = check_job(service->wait(id), nsteps);
      rec.check(bad.empty(), "warm-up " + bad);
    }
  }

  // The stream: Poisson arrivals at `rate` conditioned on exactly njobs
  // of them in [0, njobs / rate) -- i.i.d. uniform due times, sorted --
  // so the run's length and sample counts do not depend on the seed; the
  // class order is a seed shuffle of fixed proportions.
  const int njobs = std::max(
      static_cast<int>(std::size(kMixPattern)),
      static_cast<int>(std::lround(rate * seconds / 6.0)) * 6);
  Rng rng(seed);
  std::vector<double> due(static_cast<std::size_t>(njobs));
  for (double& d : due) d = rng.uniform(0.0, njobs / rate);
  std::sort(due.begin(), due.end());
  std::vector<Kind> kinds(static_cast<std::size_t>(njobs));
  for (std::size_t j = 0; j < kinds.size(); ++j) {
    kinds[j] = kMixPattern[j % std::size(kMixPattern)];
  }
  for (std::size_t j = kinds.size(); j > 1; --j) {
    std::swap(kinds[j - 1], kinds[rng.uniform_index(j)]);
  }

  struct Issued {
    svc::JobId id = 0;
    Kind kind = Kind::kSedov;
    int nsteps = 0;
    Clock::time_point due_at{};
    Clock::time_point submitted_at{};
  };
  std::vector<Issued> issued;
  issued.reserve(kinds.size());
  std::uint64_t retries = 0;
  std::atomic<bool> sampling{true};
  int depth_max = 0;
  const mem::PoolCounters pool0 = pool.counters();
  const Usage u_run = usage();
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  {
    // Samples Service::stats() while the stream runs; joined at scope end.
    std::jthread sampler([&] {
      while (sampling.load(std::memory_order_relaxed)) {
        depth_max = std::max(depth_max, service->stats().queued);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    for (std::size_t j = 0; j < kinds.size(); ++j) {
      const svc::JobSpec spec = service_job(kinds[j], cache_dir);
      Issued is;
      is.kind = kinds[j];
      is.nsteps = spec.nsteps;
      is.due_at = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(due[j]));
      // Open loop on absolute due times: a late submit does not delay the
      // schedule of the jobs after it.
      std::this_thread::sleep_until(is.due_at);
      for (;;) {
        const svc::Submission sub = service->submit(spec);
        if (sub.accepted()) {
          is.id = sub.id;
          is.submitted_at = Clock::now();
          break;
        }
        if (sub.reason != svc::RejectReason::kQueueFull) {
          throw std::runtime_error(std::string("submit rejected: ") +
                                   svc::to_string(sub.reason));
        }
        ++retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      issued.push_back(is);
    }
    std::vector<double> interactive, batch, queue, exec, lag;
    Clock::time_point last_done = start;
    for (const Issued& is : issued) {
      const svc::JobResult r = service->wait(is.id);
      const std::string bad = check_job(r, is.nsteps);
      rec.check(bad.empty(), std::string(kind_name(is.kind)) + " " + bad);
      const double late =
          std::chrono::duration<double>(is.submitted_at - is.due_at).count();
      const double latency = late + r.wall_seconds;
      (is.kind == Kind::kSedov ? interactive : batch).push_back(latency);
      queue.push_back(r.queue_seconds);
      exec.push_back(r.wall_seconds - r.queue_seconds);
      lag.push_back(late);
      last_done = std::max(
          last_done, is.submitted_at +
                         std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(r.wall_seconds)));
    }
    sampling.store(false, std::memory_order_relaxed);
    rec.samples.list("latency_s", interactive);
    rec.samples.list("batch_latency_s", batch);
    rec.samples.list("queue_s", queue);
    rec.samples.list("exec_s", exec);
    rec.samples.list("generator_lag_s", lag);
    rec.samples.list(
        "run_s",
        {std::chrono::duration<double>(last_done - issued.front().due_at)
             .count()});
  }
  const mem::PoolCounters pool1 = pool.counters();
  rec.samples.list("setup_s", setup_s);
  rec.values.num("peak_rss_mib", usage().maxrss_mib);
  rec.values.num("mem.setup_minflt", static_cast<double>(setup_minflt));
  rec.values.num("mem.run_minflt",
                 static_cast<double>(usage().minflt - u_run.minflt));
  rec.values.count("mem.pool_huge_allocs",
                   pool1.huge_allocs - pool0.huge_allocs);
  rec.values.count("mem.pool_thp_fallbacks",
                   pool1.thp_fallbacks - pool0.thp_fallbacks);
  rec.values.count("mem.pool_base_fallbacks",
                   pool1.base_fallbacks - pool0.base_fallbacks);
  rec.values.count("svc.queue_depth_max", static_cast<std::uint64_t>(depth_max));
  rec.values.count("svc.backpressure_retries", retries);
  rec.provenance.count("jobs", static_cast<std::uint64_t>(njobs));
  rec.values.num("rt.runtime_init_s", median_of(runtime_init_s));
  rec.values.num("sim.setup_init_s", median_of(setup_init_s));
  for (std::size_t k = 0; k < std::size(kKinds); ++k) {
    rec.values.num(std::string("sim.setup_solo_s.") + kind_name(kKinds[k]),
                   median_of(solo_setup_s[k]));
  }
  service.reset();
  if (!trace) return 0;

  // Per-layer split of the job mix: each class solo, timed then traced.
  Layers layers;
  Outcome timed_sum, traced_sum;
  std::vector<std::unique_ptr<Problem>> solo;
  double frac_sum = 0;
  bool all_match = true;
  for (const Kind k : kKinds) {
    const ProblemSpec spec = solo_spec(k, service_job(k, cache_dir));
    const Outcome timed_pass = run_timed(*build_problem(spec));
    std::unique_ptr<Problem> p = build_problem(spec);
    const Outcome traced = run_traced(*p, layers);
    const std::string mismatch = fidelity_mismatch(timed_pass, traced);
    rec.check(mismatch.empty(),
              std::string("FIDELITY: ") + kind_name(k) +
                  " traced pass does not reproduce the Driver (" + mismatch +
                  "); per-layer numbers withheld");
    if (!mismatch.empty()) {
      std::fprintf(stderr,
                   "\n*** perfbench: %s traced pass does not reproduce the "
                   "Driver run: %s.\n*** Per-layer numbers are withheld "
                   "(correct=false).\n\n",
                   kind_name(k), mismatch.c_str());
    }
    all_match = all_match && mismatch.empty();
    timed_sum.run_s += timed_pass.run_s;
    traced_sum.run_s += traced.run_s;
    frac_sum += huge_resident_frac(*p);
    solo.push_back(std::move(p));
  }
  rec.provenance.flag("traced_matches_driver", all_match);
  std::vector<const Problem*> views;
  for (const auto& p : solo) views.push_back(p.get());
  put_layers(layers, timed_sum, traced_sum, views, rec);
  rec.values.num("mem.huge_resident_frac",
                 frac_sum / static_cast<double>(std::size(kKinds)));
  return 0;
}

// ------------------------------------------------------------------ main

int prepare(const std::string& cache_dir) {
  std::filesystem::create_directories(cache_dir);
  mem::PagePool pool;
  pool.init(pool_config());
  const sim::SupernovaParams full;
  const svc::JobSpec small = service_job(Kind::kSupernova, cache_dir);
  const std::pair<eos::HelmTableSpec, std::string> tables[] = {
      {full.table_spec, cache_dir + "/helm_table.bin"},
      {small.supernova.table_spec, small.supernova.table_cache},
  };
  for (const auto& [spec, path] : tables) {
    const bool existed = std::filesystem::exists(path);
    const Clock::time_point t0 = Clock::now();
    (void)eos::HelmTable::build_or_load(spec, mem::HugePolicy::kNone, pool,
                                        path);
    std::fprintf(stderr, "perfbench: %s %s in %.1f s\n", path.c_str(),
                 existed ? "loaded" : "built", seconds_since(t0));
  }
  return 0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool prepare = false;
  std::string cache_dir = ".bench_build/cache";
  double rate = kServiceRate;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = next();
    } else if (flag == "--seed") {
      a.seed = std::stoull(next());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(next());
    } else if (flag == "--trace") {
      a.trace = std::stoi(next()) != 0;
    } else if (flag == "--cache-dir") {
      a.cache_dir = next();
    } else if (flag == "--rate") {
      a.rate = std::stod(next());
    } else if (flag == "--prepare") {
      a.prepare = true;
    } else {
      throw std::invalid_argument("unknown argument " + flag);
    }
  }
  if (!(a.seconds > 0) || !(a.rate > 0)) {
    throw std::invalid_argument("--seconds and --rate must be positive");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Logger::instance().set_level(LogLevel::kWarn);
    if (args.prepare) return prepare(args.cache_dir);
    Record rec;
    int rc = 0;
    if (args.workload == "sedov3d") {
      rc = run_sim(args.workload, sedov3d_workload(args.seed), args.seconds,
                   args.trace, rec);
    } else if (args.workload == "supernova2d") {
      rc = run_sim(args.workload,
                   supernova2d_workload(args.seed, args.cache_dir),
                   args.seconds, args.trace, rec);
    } else if (args.workload == "service_mix") {
      rc = run_service(args.seed, args.seconds, args.rate, args.trace,
                       args.cache_dir, rec);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    if (rc != 0) return rc;
    std::cout << rec.encode(args.workload) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 1;
  }
}
