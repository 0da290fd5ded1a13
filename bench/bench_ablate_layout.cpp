/// \file bench_ablate_layout.cpp
/// \brief Ablation A2: block-data layout x page size, on the real library.
///
/// PARAMESH stores unk(nvar, i, j, k, blk) with the variable index
/// fastest; the library's BlockLayout policy also offers zone-major
/// (contiguous per-variable planes). This ablation traces the same
/// per-variable sweep — read one variable across every zone, the access
/// shape of single-variable kernels like the Löhner estimator, which
/// reads guard zones too — through *real UnkContainers* under every
/// layout x page-size arm, showing how much of the paper's TLB problem is
/// layout-induced rather than page-size-induced.
///
/// Usage: bench_ablate_layout [--json=PATH]
///
/// With --json=PATH the grid additionally lands in PATH as JSON
/// (BENCH_layout.json, the CI artifact; same convention as
/// bench_table2_hydro) and the exit status asserts the headline claim:
/// at 4 KiB pages, zone-major takes >= 10x fewer modeled L1 DTLB misses
/// than variable-major.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "experiment_common.hpp"
#include "mem/huge_policy.hpp"
#include "mem/page_pool.hpp"
#include "mesh/config.hpp"
#include "mesh/layout.hpp"
#include "mesh/unk.hpp"
#include "support/runtime_params.hpp"
#include "support/table_writer.hpp"
#include "tlb/machine.hpp"
#include "tlb/trace.hpp"

namespace {

using namespace fhp;

/// The paper's block shape: 16^3 interior + 4 guards, 15 variables.
mesh::MeshConfig bench_config() {
  mesh::MeshConfig c;
  c.ndim = 3;
  c.nxb = c.nyb = c.nzb = 16;
  c.nguard = 4;
  c.nscalars = 5;  // nvar = 10 + 5 = 15, as in the hydro experiments
  c.maxblocks = 64;
  return c;
}

/// Read every variable at every zone (guards included — analysis kernels
/// like the Löhner estimator consume the padded block) of every block,
/// variable loop outermost: one variable at a time.
tlb::QuantumStats sweep(const mesh::UnkContainer& unk, std::uint8_t shift) {
  tlb::Machine machine;
  tlb::Tracer tracer(&machine);
  for (int v = 0; v < unk.nvar(); ++v) {
    for (int b = 0; b < unk.maxblocks(); ++b) {
      unk.trace_sweep_var(tracer, b, v, 0, unk.ni(), 0, unk.nj(), 0,
                          unk.nk(), /*write=*/false, shift);
    }
  }
  return machine.quantum();
}

struct Cell {
  mesh::LayoutKind layout;
  std::uint8_t shift;
  const char* page;
  tlb::QuantumStats q;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace fhp;
  RuntimeParams rp;
  rp.declare_string("json", "",
                    "write the layout x page-size grid to this file");
  rp.apply_command_line(argc, argv);
  const std::string json = rp.get_string("json");

  std::printf(
      "== Ablation A2: block layout x page size (real containers) ==\n");

  const mesh::MeshConfig config = bench_config();
  constexpr mesh::LayoutKind kLayouts[] = {mesh::LayoutKind::kVarMajor,
                                           mesh::LayoutKind::kZoneMajor};
  struct Page {
    const char* name;
    std::uint8_t shift;
  };
  constexpr Page kPages[] = {{"4 KiB", tlb::kShift4K},
                             {"64 KiB", tlb::kShift64K},
                             {"2 MiB", tlb::kShift2M}};

  TableWriter t("per-variable full-block sweep, modeled translation traffic");
  t.set_header({"Layout", "Page size", "Accesses", "L1 DTLB misses", "Walks",
                "Miss rate"});

  std::vector<Cell> cells;
  std::uint64_t vm_4k = 0, zm_4k = 0;
  mem::PagePool pool;
  for (const mesh::LayoutKind layout : kLayouts) {
    const mesh::UnkContainer unk(config, mem::HugePolicy::kNone, layout, pool);
    for (const Page& page : kPages) {
      const tlb::QuantumStats q = sweep(unk, page.shift);
      if (page.shift == tlb::kShift4K) {
        if (layout == mesh::LayoutKind::kVarMajor) vm_4k = q.l1_tlb_misses;
        if (layout == mesh::LayoutKind::kZoneMajor) zm_4k = q.l1_tlb_misses;
      }
      cells.push_back({layout, page.shift, page.name, q});
      t.add_row({std::string(mesh::to_string(layout)), page.name,
                 format_measure(static_cast<double>(q.accesses)),
                 format_measure(static_cast<double>(q.l1_tlb_misses)),
                 format_measure(static_cast<double>(q.walks)),
                 format_ratio(static_cast<double>(q.l1_tlb_misses) /
                              static_cast<double>(q.accesses))});
    }
  }
  t.render(std::cout);

  const double miss_ratio =
      zm_4k > 0 ? static_cast<double>(vm_4k) / static_cast<double>(zm_4k)
                : 0.0;
  const bool claim_holds = miss_ratio >= 10.0;
  std::printf(
      "# variable-major pays %.1fx the zone-major L1 DTLB misses at 4 KiB "
      "pages (claim: >= 10x %s)\n",
      miss_ratio, claim_holds ? "holds" : "FAILS");

  if (json.empty()) return 0;

  std::FILE* f = std::fopen(json.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json.c_str());
    return 1;
  }
  bench::JsonWriter w(f);
  w.begin_object();
  w.field("bench", "ablate_layout");
  w.begin_object("block");
  w.field("nvar", config.nvar());
  w.field("padded_extent", config.ni());
  w.field("blocks", config.maxblocks);
  w.end_object();
  w.begin_array("grid");
  for (const Cell& c : cells) {
    w.begin_object();
    w.field("layout", std::string(mesh::to_string(c.layout)));
    w.field("page_shift", static_cast<int>(c.shift));
    w.field("page", c.page);
    w.field("accesses", c.q.accesses);
    w.field("l1_dtlb_misses", c.q.l1_tlb_misses);
    w.field("walks", c.q.walks);
    w.end_object();
  }
  w.end_array();
  w.field("var_major_over_zone_major_4k_misses", miss_ratio);
  w.field("zone_major_10x_claim_holds", claim_holds);
  w.end_object();
  std::fclose(f);
  std::printf("# wrote %s\n", json.c_str());
  return claim_holds ? 0 : 1;
}
