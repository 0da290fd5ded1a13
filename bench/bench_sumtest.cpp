/// \file bench_sumtest.cpp
/// \brief The paper's §IV diagnostic: static vs dynamic 2-d array sums.
///
/// "We wrote two simple Fortran test programs, one statically allocating
/// memory for a 2-d array and one dynamically allocating memory for a 2-d
/// array, and then just repeated calculating sums over the arrays. As
/// expected, the program with the dynamically allocated array was able to
/// use huge pages ... while the statically allocated array version could
/// not" — transparent huge pages only map anonymous regions.
///
/// This benchmark does the same: sums a statically allocated (BSS) array
/// and a dynamically allocated one (under the huge-page policy), reports
/// wall time, what the kernel says about the backing (the paper's
/// /proc-based verification), and the machine model's DTLB misses for a
/// column-major traversal (the stride case that hurts).

#include <chrono>
#include <cstdio>
#include <iostream>

#include "experiment_common.hpp"
#include "mem/meminfo.hpp"
#include "mem/page_pool.hpp"
#include "support/string_util.hpp"
#include "support/table_writer.hpp"
#include "tlb/machine.hpp"

namespace {

using namespace fhp;

constexpr int kRows = 1024;
constexpr int kCols = 2048;  // 16 MiB of doubles

// The "statically allocated" array of the paper's first test program.
double g_static_array[kRows][kCols];

double sum_rowwise(const double* data) {
  double total = 0.0;
  for (int r = 0; r < kRows; ++r) {
    for (int c = 0; c < kCols; ++c) {
      total += data[static_cast<std::size_t>(r) * kCols + c];
    }
  }
  return total;
}

/// Column-major traversal: stride kCols*8 = one page per element at 4 KiB.
double sum_columnwise(const double* data) {
  double total = 0.0;
  for (int c = 0; c < kCols; ++c) {
    for (int r = 0; r < kRows; ++r) {
      total += data[static_cast<std::size_t>(r) * kCols + c];
    }
  }
  return total;
}

struct SumResult {
  double row_seconds = 0;
  double col_seconds = 0;
  std::uint64_t huge_bytes = 0;
  std::uint64_t model_misses_4k = 0;
  std::uint64_t model_misses_2m = 0;
};

SumResult run(const double* data, std::uint64_t huge_bytes) {
  SumResult out;
  out.huge_bytes = huge_bytes;
  volatile double sink = 0.0;

  auto time_it = [&](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < 20; ++rep) sink = fn(data);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
               .count() /
           20.0;
  };
  out.row_seconds = time_it(sum_rowwise);
  out.col_seconds = time_it(sum_columnwise);
  (void)sink;

  // Model DTLB misses of one column-major pass at both page sizes.
  for (const std::uint8_t shift : {tlb::kShift4K, tlb::kShift2M}) {
    tlb::Machine machine;
    for (int c = 0; c < kCols; c += 16) {  // sampled columns
      for (int r = 0; r < kRows; ++r) {
        machine.touch(data + static_cast<std::size_t>(r) * kCols + c, 8,
                      false, shift);
      }
    }
    const auto misses = machine.quantum().l1_tlb_misses * 16;
    if (shift == tlb::kShift4K) {
      out.model_misses_4k = misses;
    } else {
      out.model_misses_2m = misses;
    }
  }
  return out;
}

}  // namespace

int main() {
  using namespace fhp;
  std::printf("== Sum test: static vs dynamic allocation (paper SIV) ==\n");
  bench::print_inventory();

  // Static array: the loader placed it in BSS — no huge pages possible.
  for (auto& row : g_static_array) {
    for (double& v : row) v = 1.0;
  }
  const auto static_result =
      run(&g_static_array[0][0],
          mem::range_huge_bytes(g_static_array, sizeof g_static_array));

  // Dynamic array under the huge-page policy, carved from a page pool
  // (configured from FLASHHP_PAGE_POOL) like every large allocation.
  mem::PagePool pool;
  const mem::PoolAllocation allocation =
      pool.alloc(sizeof g_static_array, mem::HugePolicy::kHugetlbfs);
  const mem::MappedRegion& region = allocation.region();
  auto* dynamic_array = static_cast<double*>(region.data());
  for (std::size_t i = 0; i < sizeof g_static_array / 8; ++i) {
    dynamic_array[i] = 1.0;
  }
  const auto dynamic_result =
      run(dynamic_array, region.resident_huge_bytes());

  TableWriter t("static vs dynamic 16 MiB array, 20-pass average");
  t.set_header({"Allocation", "Backing", "Huge bytes", "Row sum (s)",
                "Col sum (s)", "Model col misses 4K", "Model col misses 2M"});
  t.add_row({"static (BSS)", "base pages",
             format_bytes(static_result.huge_bytes),
             format_measure(static_result.row_seconds),
             format_measure(static_result.col_seconds),
             format_measure(static_cast<double>(static_result.model_misses_4k)),
             "-"});
  t.add_row({"dynamic", std::string(to_string(region.backing())),
             format_bytes(dynamic_result.huge_bytes),
             format_measure(dynamic_result.row_seconds),
             format_measure(dynamic_result.col_seconds),
             format_measure(static_cast<double>(dynamic_result.model_misses_4k)),
             format_measure(
                 static_cast<double>(dynamic_result.model_misses_2m))});
  t.render(std::cout);

  const bool expectation =
      static_result.huge_bytes == 0 &&
      (region.backing() == mem::Backing::kSmallPages ||
       dynamic_result.huge_bytes > 0);
  std::printf("# paper expectation (dynamic can get HPs, static cannot): %s\n",
              expectation ? "HOLDS" : "VIOLATED");
  return expectation ? 0 : 1;
}
