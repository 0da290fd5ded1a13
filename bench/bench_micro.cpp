/// \file bench_micro.cpp
/// \brief google-benchmark microbenchmarks of the library's hot paths.
///
/// Covers the allocator (A3), the machine model's per-access cost and
/// its replay of the benchmark workloads' address streams, the EOS paths
/// (direct Fermi-Dirac vs table interpolation — the ~10^3 gap that makes
/// the table the production path), the Riemann solvers, mesh
/// guard-cell filling, and the cost of one span.

#include <benchmark/benchmark.h>

#include <cmath>
#include <optional>
#include <vector>

#include "eos/eos_table.hpp"
#include "eos/fermi_dirac.hpp"
#include "eos/gamma_eos.hpp"
#include "eos/helmholtz_eos.hpp"
#include "hydro/riemann.hpp"
#include "mem/mapped_region.hpp"
#include "mem/meminfo.hpp"
#include "mem/page_size.hpp"
#include "mesh/amr_mesh.hpp"
#include "mesh/unk.hpp"
#include "obs/recording.hpp"
#include "rt/runtime.hpp"
#include "tlb/machine.hpp"
#include "tlb/trace.hpp"

namespace {

using namespace fhp;

void BM_MappedRegion(benchmark::State& state) {
  const auto policy = static_cast<mem::HugePolicy>(state.range(0));
  for (auto _ : state) {
    mem::MapRequest req;
    req.bytes = 8ull << 20;
    req.policy = policy;
    req.hugetlb_page = mem::kPage2M;  // the hugetlbfs arm's page size
    req.prefault = false;
    mem::MappedRegion region(req);
    benchmark::DoNotOptimize(region.data());
  }
}
BENCHMARK(BM_MappedRegion)
    ->Arg(static_cast<int>(mem::HugePolicy::kNone))
    ->Arg(static_cast<int>(mem::HugePolicy::kThp))
    ->Arg(static_cast<int>(mem::HugePolicy::kHugetlbfs));

void BM_MeminfoParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem::MeminfoSnapshot::capture());
  }
}
BENCHMARK(BM_MeminfoParse);

void BM_TlbTouch(benchmark::State& state) {
  tlb::Machine machine;
  std::uint64_t addr = 0;
  for (auto _ : state) {
    machine.touch(reinterpret_cast<void*>(addr), 8, false, tlb::kShift4K);
    addr += 4096;  // miss-heavy stream
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbTouch);

void BM_FermiDiracAll(benchmark::State& state) {
  double eta = 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eos::fd_all(eta, 0.02));
    eta += 1e-9;
  }
}
BENCHMARK(BM_FermiDiracAll);

void BM_HelmholtzDirect(benchmark::State& state) {
  const eos::HelmholtzEos direct;
  eos::State s;
  s.abar = 13.714;
  s.zbar = 6.857;
  s.rho = 2.0e9;
  s.temp = 1.0e8;
  for (auto _ : state) {
    direct.eval_one(eos::Mode::kDensTemp, s);
    benchmark::DoNotOptimize(s.pres);
    s.temp += 1.0;  // defeat any memoization
  }
}
BENCHMARK(BM_HelmholtzDirect);

std::shared_ptr<const eos::HelmTable> micro_table() {
  static mem::PagePool pool;  // constructed first, so it outlives the table
  static auto table = std::make_shared<eos::HelmTable>(
      eos::HelmTable::build_or_load(eos::HelmTableSpec{},
                                    mem::HugePolicy::kNone, pool));
  return table;
}

void BM_HelmTableInterpolate(benchmark::State& state) {
  auto table = micro_table();
  double rho = 2.0e9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->interpolate(rho, 1.0e8));
    rho *= 1.0000001;
  }
}
BENCHMARK(BM_HelmTableInterpolate);

void BM_HelmTableEosDensEner(benchmark::State& state) {
  const eos::HelmTableEos eos(micro_table());
  eos::State s;
  s.abar = 13.714;
  s.zbar = 6.857;
  s.rho = 2.0e9;
  s.temp = 1.0e8;
  eos.eval_one(eos::Mode::kDensTemp, s);
  const double e0 = s.ener;
  for (auto _ : state) {
    s.ener = e0;
    s.temp = 9.0e7;  // warm-ish start, forces a few Newton steps
    eos.eval_one(eos::Mode::kDensEner, s);
    benchmark::DoNotOptimize(s.temp);
  }
}
BENCHMARK(BM_HelmTableEosDensEner);

/// The machine-model replay on the streams the benchmark workloads spend
/// it on, in modeled cache lines per second. Unlike BM_TlbTouch, most
/// lines hit the L1 DTLB and the L1D here, as in the real replay; the
/// miss shares are reported beside the rate.
enum class ReplayStream {
  kHelmRow,     ///< supernova2d: EOS rows of Helm-table gathers, 4 KiB pages
  kUnkYPencil,  ///< sedov3d: var_major 3-d y-pencil sweeps, 2 MiB pages
};

void BM_MachineReplay(benchmark::State& state, ReplayStream stream) {
  tlb::Machine machine;
  tlb::Tracer tracer(&machine);
  std::uint64_t lines = 0, l1_dtlb_misses = 0, l1d_misses = 0;
  auto commit = [&] {
    lines += machine.quantum().accesses;
    l1_dtlb_misses += machine.quantum().l1_tlb_misses;
    l1d_misses += machine.quantum().l1d_misses;
    benchmark::DoNotOptimize(machine.commit());
  };
  if (stream == ReplayStream::kHelmRow) {
    // Rows of 16 neighbouring zones, each row at its own point of the
    // supernova's density and temperature range; each zone is a (rho, e)
    // Newton inversion, the EOS mode the hydro update calls.
    const eos::HelmTableEos helm(micro_table());
    std::vector<std::vector<eos::State>> rows(64,
                                              std::vector<eos::State>(16));
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (auto& row : rows) {
      h ^= h << 13;
      h ^= h >> 7;
      h ^= h << 17;
      const double log_rho = 5.0 + 4.4e-3 * static_cast<double>(h % 1000);
      const double log_temp =
          7.0 + 2.7e-3 * static_cast<double>(h / 1000 % 1000);
      for (std::size_t i = 0; i < row.size(); ++i) {
        const auto x = static_cast<double>(i);
        row[i].abar = 13.714;
        row[i].zbar = 6.857;
        row[i].rho = std::pow(10.0, log_rho - 0.01 * x);
        row[i].temp = std::pow(10.0, log_temp + 0.005 * x);
      }
    }
    std::size_t r = 0;
    for (auto _ : state) {
      helm.trace_eval(tracer, eos::Mode::kDensEner, rows[r]);
      r = (r + 1) % rows.size();
      commit();
    }
  } else {
    mesh::MeshConfig c;
    c.ndim = 3;
    c.nxb = c.nyb = c.nzb = 16;
    c.maxblocks = 8;
    mem::PagePool pool;
    const mesh::UnkContainer unk(c, mem::HugePolicy::kNone,
                                 mesh::LayoutKind::kVarMajor, pool);
    int b = 0;
    for (auto _ : state) {
      unk.trace_sweep_axis(tracer, b, 1, c.ilo(), c.ihi(), c.jlo(), c.jhi(),
                           c.klo(), c.khi(), c.nvar(), 5, tlb::kShift2M);
      b = (b + 1) % c.maxblocks;
      commit();
    }
  }
  const double n = static_cast<double>(lines);
  state.counters["lines"] = benchmark::Counter(n, benchmark::Counter::kIsRate);
  state.counters["l1_dtlb_miss_share"] =
      static_cast<double>(l1_dtlb_misses) / n;
  state.counters["l1d_miss_share"] = static_cast<double>(l1d_misses) / n;
}
BENCHMARK_CAPTURE(BM_MachineReplay, helm_row_4k, ReplayStream::kHelmRow);
BENCHMARK_CAPTURE(BM_MachineReplay, unk_ypencil_2m, ReplayStream::kUnkYPencil);

void BM_Hllc(benchmark::State& state) {
  hydro::PrimState left{1.0, 0.75, 0.0, 0.0, 1.0, 1.4, 1.4};
  hydro::PrimState right{0.125, 0.0, 0.0, 0.0, 0.1, 1.4, 1.4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(hydro::hllc(left, right));
  }
}
BENCHMARK(BM_Hllc);

void BM_ExactRiemann(benchmark::State& state) {
  const hydro::ExactRiemann solver(1.4);
  hydro::PrimState left{1.0, 0.0, 0.0, 0.0, 1.0, 1.4, 1.4};
  hydro::PrimState right{0.125, 0.0, 0.0, 0.0, 0.1, 1.4, 1.4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(left, right));
  }
}
BENCHMARK(BM_ExactRiemann);

void BM_GuardcellFill(benchmark::State& state) {
  mesh::MeshConfig config;
  config.ndim = 2;
  config.nscalars = 2;
  config.maxblocks = 128;
  config.max_level = 3;
  rt::Runtime runtime;
  mesh::AmrMesh mesh(config, mem::HugePolicy::kNone, runtime.layout(),
                     runtime.page_pool(), runtime.arena());
  for (int b : mesh.tree().leaves_morton()) mesh.refine_block(b);
  for (auto _ : state) {
    mesh.fill_guardcells();
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(mesh.tree().leaves_morton().size()));
}
BENCHMARK(BM_GuardcellFill);

/// One FHP_TRACE_SPAN opened and closed: on a thread bound to no runtime,
/// under a runtime (its span reduction), and with a telemetry installed
/// downstream of the reduction (a recording that is never finished
/// writes no file).
void BM_Span(benchmark::State& state, int bound) {
  rt::Runtime runtime({.lanes = 1});
  const obs::Recording recording(runtime, bound == 2 ? "bm_span.json" : "");
  std::optional<rt::Runtime::BindScope> scope;
  if (bound > 0) scope.emplace(runtime);
  for (auto _ : state) {
    FHP_TRACE_SPAN("bench.span");
    benchmark::ClobberMemory();
  }
}
BENCHMARK_CAPTURE(BM_Span, unbound, 0);
BENCHMARK_CAPTURE(BM_Span, runtime, 1);
BENCHMARK_CAPTURE(BM_Span, runtime_telemetry, 2);

}  // namespace

BENCHMARK_MAIN();
