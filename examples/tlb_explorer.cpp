/// \file tlb_explorer.cpp
/// \brief Interactive exploration of the machine model: stride vs TLB.
///
/// Sweeps the access stride over a large array for each page size and
/// prints the modeled L1-DTLB miss rate — a compact way to see the
/// mechanism behind the paper's Tables: FLASH's unk strides put it on the
/// steep part of the 4 KiB curve, and 2 MiB pages flatten it.
///
/// Usage: tlb_explorer [--bytes=268435456]

#include <cstdio>
#include <iostream>
#include <vector>

#include "support/error.hpp"
#include "support/runtime_params.hpp"
#include "support/table_writer.hpp"
#include "tlb/machine.hpp"

int main(int argc, char** argv) try {
  using namespace fhp;
  RuntimeParams rp;
  rp.declare_int("bytes", 256ll << 20, "array size to stride over");
  rp.apply_command_line(argc, argv);
  const auto bytes = static_cast<std::size_t>(rp.get_int("bytes"));

  std::printf("== TLB explorer: strided reads over %zu MiB ==\n",
              bytes >> 20);
  std::printf("A64FX-like model: 48-entry L1 DTLB + 1024-entry 4-way L2 "
              "TLB\n\n");

  TableWriter t("modeled L1-DTLB miss rate per access");
  t.set_header({"Stride (B)", "4 KiB pages", "64 KiB pages", "2 MiB pages"});

  const std::uint8_t shifts[] = {tlb::kShift4K, tlb::kShift64K,
                                 tlb::kShift2M};
  for (std::size_t stride = 64; stride <= (1u << 20); stride *= 4) {
    std::vector<std::string> row{std::to_string(stride)};
    for (const std::uint8_t shift : shifts) {
      tlb::Machine machine;
      const std::size_t naccess = 200000;
      std::uint64_t addr = 0x10000000;
      for (std::size_t n = 0; n < naccess; ++n) {
        machine.touch(reinterpret_cast<const void*>(addr), 8, false, shift);
        addr += stride;
        if (addr > 0x10000000 + bytes) addr = 0x10000000;
      }
      const auto& q = machine.quantum();
      row.push_back(format_ratio(static_cast<double>(q.l1_tlb_misses) /
                                 static_cast<double>(q.accesses)));
    }
    t.add_row(std::move(row));
  }
  t.render(std::cout);

  std::printf(
      "\nFLASH context: a 3-d unk block row advances %d bytes per zone in a\n"
      "z-pencil (nvar*ni*nj*8) — deep into the saturated 4 KiB region.\n",
      15 * 24 * 24 * 8);
  return 0;
} catch (const fhp::ConfigError& e) {
  std::fprintf(stderr, "tlb_explorer: %s\n", e.what());
  return 2;
}
