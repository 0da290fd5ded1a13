/// \file bench_ablate_pagesize.cpp
/// \brief Ablation A1: DTLB misses vs page size, plus pool placement arms.
///
/// Part 1 — the paper's motivation: sweep the translation page size
/// (4 KiB / 64 KiB / 2 MiB / 512 MiB — the sizes Ookami's kernel was
/// booted with) over the same traced sweep kernels and report the modeled
/// L1-DTLB misses and page walks: misses should fall monotonically until
/// the working set's page count fits the TLB.
///
/// Part 2 — the RemoteHugePages ablation: a two-node machine whose
/// *local* hugetlb pool has run dry (node0 free=0) while the remote pool
/// has capacity (node1). Under kLocalFirst the PagePool degrades every
/// block to local base pages; under kRemoteHugeFirst it places them on
/// remote huge pages, paying the NUMA surcharge but dodging the page
/// walks. In the regime where walks are poorly hidden (the paper's
/// A64FX-with-4K case), remote-huge beats local-small — the claim this
/// arm pair measures. Exhaustion handling is exercised end to end: the
/// pool never crashes, it degrades and counts.
///
/// With --json=PATH both parts are written through bench::JsonWriter.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "experiment_common.hpp"
#include "mem/huge_policy.hpp"
#include "mem/page_pool.hpp"
#include "mesh/amr_mesh.hpp"
#include "rt/runtime.hpp"
#include "support/table_writer.hpp"
#include "tlb/machine.hpp"
#include "tlb/trace.hpp"

namespace {

using namespace fhp;

struct SweepRow {
  const char* name;
  std::uint64_t accesses = 0;
  std::uint64_t l1_tlb_misses = 0;
  std::uint64_t walks = 0;
};

struct PlacementRow {
  const char* name;
  mem::PlacementPolicy policy{};
  int blocks = 0;
  int huge_blocks = 0;
  int remote_blocks = 0;
  std::uint64_t l1_tlb_misses = 0;
  std::uint64_t walks = 0;
  double modeled_cycles = 0;
  mem::PoolCounters counters;
};

/// The two-node exhaustion inventory: local pool dry, remote pool full.
std::vector<mem::NodeHugePools> two_node_inventory() {
  mem::HugetlbPool dry;
  dry.page_bytes = mem::kPage2M;
  dry.nr_hugepages = 256;
  dry.free_hugepages = 0;
  mem::HugetlbPool full = dry;
  full.free_hugepages = 256;
  return {{0, {dry}}, {1, {full}}};
}

/// Machine parameters for the placement arms: the regime where page
/// walks are poorly hidden (walk_overlap 0.5 instead of the calibrated
/// 0.97) and the inter-node link is a modest surcharge — an
/// A64FX-CMG-like setting where the RemoteHugePages trade pays off.
tlb::MachineParams placement_machine_params() {
  tlb::MachineParams p;
  p.walk_overlap = 0.5;
  p.numa.local_node = 0;
  p.numa.remote_mem_extra_cycles = 40;
  p.numa.remote_walk_extra_cycles = 120;
  p.numa.remote_bandwidth_factor = 0.9;
  return p;
}

/// Trace the full-mesh hydro-shaped sweep with per-block pool placement:
/// every block is planned through \p pool and the machine charged on the
/// node (and at the page size) the pool decided.
PlacementRow run_placement_arm(const char* name, mesh::AmrMesh& mesh,
                               mem::PlacementPolicy policy) {
  mem::PagePoolConfig cfg;
  cfg.inventory = two_node_inventory();
  cfg.local_node = 0;
  cfg.placement = policy;
  // No THP tier: exhaustion must degrade all the way to base pages.
  cfg.thp_root = "/flashhp-nonexistent";
  cfg.hugepages_root = "/flashhp-nonexistent";
  mem::PagePool pool;
  pool.init(cfg);

  tlb::Machine machine(placement_machine_params());
  tlb::Tracer tracer(&machine);
  const mesh::MeshConfig& c = mesh.config();
  const std::size_t block_bytes =
      mesh.unk().block_stride() * sizeof(double);

  PlacementRow row;
  row.name = name;
  row.policy = policy;
  for (int b : mesh.tree().leaves_morton()) {
    const mem::PoolDecision d =
        pool.plan(block_bytes, mem::HugePolicy::kHugetlbfs);
    machine.apply_placement(d);
    const std::uint8_t shift = d.tier == mem::Backing::kHugetlbfs
                                   ? tlb::kShift2M
                                   : tlb::kShift4K;
    ++row.blocks;
    if (d.tier == mem::Backing::kHugetlbfs) ++row.huge_blocks;
    if (d.remote) ++row.remote_blocks;
    for (int axis = 0; axis < c.ndim; ++axis) {
      mesh.unk().trace_sweep_axis(tracer, b, axis, c.ilo(), c.ihi(), c.jlo(),
                                  c.jhi(), c.klo(), c.khi(), c.nvar(),
                                  /*nwrite=*/7, shift);
    }
  }
  const auto& q = machine.quantum();
  row.l1_tlb_misses = q.l1_tlb_misses;
  row.walks = q.walks;
  row.modeled_cycles = machine.model_cycles(q);
  row.counters = pool.counters();
  pool.fini();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fhp;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  std::printf("== Ablation A1: DTLB misses vs page size (unk sweeps) ==\n");

  mesh::MeshConfig config;
  config.ndim = 3;
  config.nzb = 16;
  config.nscalars = 2;
  config.maxblocks = 80;
  config.max_level = 2;
  config.nroot = {2, 2, 2};
  rt::Runtime runtime;
  mesh::AmrMesh mesh(config, mem::HugePolicy::kNone, runtime.layout(),
                     runtime.page_pool(), runtime.arena());
  // Refine everything once so the mesh has 64 leaves (~75 MiB of unk).
  for (int b : mesh.tree().leaves_morton()) {
    mesh.refine_block(b);
  }

  TableWriter t("modeled translation behaviour of full-mesh hydro sweeps");
  t.set_header({"Page size", "Accesses", "L1 DTLB misses", "Walks",
                "Miss rate"});

  struct Case {
    const char* name;
    std::uint8_t shift;
  };
  const Case cases[] = {{"4 KiB", tlb::kShift4K},
                        {"64 KiB", tlb::kShift64K},
                        {"2 MiB", tlb::kShift2M},
                        {"512 MiB", tlb::kShift512M}};

  std::vector<SweepRow> sweep;
  std::uint64_t prev = ~0ull;
  bool monotone = true;
  for (const Case& cs : cases) {
    // Same hydro-shaped sweep at every page size: the explicit-shift
    // trace_sweep_axis overload models one address stream under several
    // translation regimes without remapping the arena.
    tlb::Machine machine;
    tlb::Tracer tracer(&machine);
    const mesh::MeshConfig& c = mesh.config();
    for (int b : mesh.tree().leaves_morton()) {
      for (int axis = 0; axis < c.ndim; ++axis) {
        mesh.unk().trace_sweep_axis(tracer, b, axis, c.ilo(), c.ihi(),
                                    c.jlo(), c.jhi(), c.klo(), c.khi(),
                                    c.nvar(), /*nwrite=*/7, cs.shift);
      }
    }
    const auto& q = machine.quantum();
    t.add_row({cs.name, format_measure(static_cast<double>(q.accesses)),
               format_measure(static_cast<double>(q.l1_tlb_misses)),
               format_measure(static_cast<double>(q.walks)),
               format_ratio(static_cast<double>(q.l1_tlb_misses) /
                            static_cast<double>(q.accesses))});
    sweep.push_back({cs.name, q.accesses, q.l1_tlb_misses, q.walks});
    if (q.l1_tlb_misses > prev) monotone = false;
    prev = q.l1_tlb_misses;
  }
  t.render(std::cout);
  std::printf("# misses monotone non-increasing with page size: %s\n",
              monotone ? "YES" : "NO");

  // ---- Part 2: pool placement under local-pool exhaustion --------------
  std::printf("\n== Ablation A2: remote-huge vs local-small placement ==\n");
  const PlacementRow local =
      run_placement_arm("static_local", mesh, mem::PlacementPolicy::kLocalFirst);
  const PlacementRow remote = run_placement_arm(
      "remote_huge_first", mesh, mem::PlacementPolicy::kRemoteHugeFirst);

  TableWriter pt("two-node machine, local 2 MiB pool exhausted");
  pt.set_header({"Arm", "Huge blocks", "Remote blocks", "L1 DTLB misses",
                 "Walks", "Modeled cycles"});
  for (const PlacementRow* r : {&local, &remote}) {
    pt.add_row({r->name, std::to_string(r->huge_blocks),
                std::to_string(r->remote_blocks),
                format_measure(static_cast<double>(r->l1_tlb_misses)),
                format_measure(static_cast<double>(r->walks)),
                format_measure(r->modeled_cycles)});
  }
  pt.render(std::cout);
  const bool remote_wins = remote.modeled_cycles < local.modeled_cycles;
  std::printf("# remote-huge beats local-small: %s (%.3fx)\n",
              remote_wins ? "YES" : "NO",
              remote.modeled_cycles > 0
                  ? local.modeled_cycles / remote.modeled_cycles
                  : 0.0);
  std::printf(
      "# degradation accounting: local arm exhausted=%llu base-fallback=%llu;"
      " remote arm remote-huge=%llu\n",
      static_cast<unsigned long long>(local.counters.exhausted_events),
      static_cast<unsigned long long>(local.counters.base_fallbacks),
      static_cast<unsigned long long>(remote.counters.remote_huge_allocs));

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    bench::JsonWriter w(f);
    w.begin_object();
    w.field("bench", "ablate_pagesize");
    w.begin_array("page_size_sweep");
    for (const SweepRow& r : sweep) {
      w.begin_object();
      w.field("page", r.name);
      w.field("accesses", r.accesses);
      w.field("l1_tlb_misses", r.l1_tlb_misses);
      w.field("walks", r.walks);
      w.end_object();
    }
    w.end_array();
    w.field("misses_monotone", monotone);
    w.begin_object("placement");
    w.field("local_node", 0);
    w.field("thp_available", false);
    w.begin_array("arms");
    for (const PlacementRow* r : {&local, &remote}) {
      w.begin_object();
      w.field("name", r->name);
      w.field("policy", std::string(mem::to_string(r->policy)));
      w.field("blocks", r->blocks);
      w.field("huge_blocks", r->huge_blocks);
      w.field("remote_blocks", r->remote_blocks);
      w.field("l1_tlb_misses", r->l1_tlb_misses);
      w.field("walks", r->walks);
      w.field("modeled_cycles", r->modeled_cycles);
      w.field("pool_exhausted_events", r->counters.exhausted_events);
      w.field("pool_base_fallbacks", r->counters.base_fallbacks);
      w.field("pool_remote_huge_allocs", r->counters.remote_huge_allocs);
      w.end_object();
    }
    w.end_array();
    w.field("remote_huge_beats_local_small", remote_wins);
    w.end_object();  // placement
    w.end_object();  // root
    std::fclose(f);
    std::printf("# wrote %s\n", json_path.c_str());
  }

  return monotone && remote_wins ? 0 : 1;
}
