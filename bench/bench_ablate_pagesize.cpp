/// \file bench_ablate_pagesize.cpp
/// \brief Ablation A1: DTLB misses vs page size.
///
/// The paper's motivation: sweep the translation page size (4 KiB /
/// 64 KiB / 2 MiB / 512 MiB — the sizes Ookami's kernel was booted with)
/// over the same traced sweep kernels and report the modeled L1-DTLB
/// misses and page walks: misses should fall monotonically until the
/// working set's page count fits the TLB. Exits nonzero if they do not.
///
/// With --json=PATH the sweep is written through bench::JsonWriter.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "experiment_common.hpp"
#include "mem/huge_policy.hpp"
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
    w.end_object();  // root
    std::fclose(f);
    std::printf("# wrote %s\n", json_path.c_str());
  }

  return monotone ? 0 : 1;
}
