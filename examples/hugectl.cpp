/// \file hugectl.cpp
/// \brief A hugectl-like administration and inspection tool.
///
/// The paper drove huge pages with libhugetlbfs' `hugectl` and `hugeadm`
/// utilities and verified usage in /proc/meminfo. This example packages
/// the same operations over the flashhp mem library:
///
///   hugectl status            show THP mode, pools, meminfo fields
///   hugectl pool <n>          resize the 2 MiB pool to n pages (root)
///   hugectl pool-status       init a PagePool from the environment
///                             (FLASHHP_PAGE_POOL) and print the pools
///                             as the kernel reports them and its
///                             degradation counters
///   hugectl probe <policy>    carve 64 MiB under none|thp|hugetlbfs from
///                             such a pool, prefaulted, and print what the
///                             pool planned and what the kernel actually
///                             granted; exits 1 if the two differ
///
/// A bad setting (FLASHHP_PAGE_POOL=junk) is one line on stderr, exit 2.

#include <cstdio>
#include <cstring>
#include <string>

#include "mem/hugeadm.hpp"
#include "mem/meminfo.hpp"
#include "mem/page_pool.hpp"
#include "mem/page_size.hpp"
#include "mem/thp.hpp"
#include "mem/vmstat.hpp"
#include "support/error.hpp"
#include "support/string_util.hpp"

namespace {

using namespace fhp;

int cmd_status() {
  std::printf("base page size:   %zu B\n", mem::base_page_size());
  std::printf("THP system mode:  %s\n",
              std::string(to_string(mem::system_thp_mode())).c_str());
  if (const auto pmd = mem::thp_pmd_size()) {
    std::printf("THP PMD size:     %s\n", format_bytes(*pmd).c_str());
  }
  std::printf("hugetlb pools:\n");
  const auto pools = mem::hugetlb_pools();
  if (pools.empty()) std::printf("  (none configured)\n");
  for (const auto& p : pools) {
    std::printf("  %-10s total %5zu  free %5zu  resv %5zu  surp %5zu\n",
                format_bytes(p.page_bytes).c_str(), p.nr_hugepages,
                p.free_hugepages, p.resv_hugepages, p.surplus_hugepages);
  }
  std::printf("meminfo:          %s\n",
              mem::MeminfoSnapshot::capture().summary().c_str());
  std::printf("vmstat:           %s\n",
              mem::VmstatSnapshot::capture().summary().c_str());
  return 0;
}

int cmd_pool(const std::string& count_text) {
  const auto count = parse_int(count_text);
  if (!count || *count < 0) {
    std::fprintf(stderr, "bad page count '%s'\n", count_text.c_str());
    return 2;
  }
  const auto granted =
      mem::ensure_hugetlb_pool(mem::kPage2M, static_cast<std::size_t>(*count));
  if (!granted) {
    std::fprintf(stderr,
                 "cannot resize the pool (no hugetlb support or not root)\n");
    return 1;
  }
  std::printf("2 MiB pool now holds %zu pages (requested %lld)\n", *granted,
              *count);
  return 0;
}

int cmd_pool_status() {
  // A pool configured the way a runtime's private pool would be
  // (FLASHHP_PAGE_POOL), reporting the pools as the kernel reports them.
  mem::PagePool pool;
  pool.init(mem::config_from_environment());
  std::fputs(pool.status_text().c_str(), stdout);
  return 0;
}

int cmd_probe(const std::string& policy_text) {
  const auto policy = mem::parse_huge_policy(policy_text);
  if (!policy) {
    std::fprintf(stderr, "bad policy '%s' (none|thp|hugetlbfs)\n",
                 policy_text.c_str());
    return 2;
  }
  // The pool plans the mapping from the kernel's pools, as a runtime's
  // private pool would (FLASHHP_PAGE_POOL), and prefaults it.
  mem::PagePool pool;
  pool.init(mem::config_from_environment());

  const auto before = mem::MeminfoSnapshot::capture();
  const auto vm_before = mem::VmstatSnapshot::capture();
  const mem::PoolAllocation allocation = pool.alloc(64ull << 20, *policy);
  const auto after = mem::MeminfoSnapshot::capture();
  const auto vm_after = mem::VmstatSnapshot::capture();
  const mem::PoolDecision& plan = allocation.decision();
  const mem::MappedRegion& region = allocation.region();

  std::printf("requested: 64 MiB under policy '%s'\n",
              std::string(to_string(*policy)).c_str());
  std::printf("planned:   %s (%s)\n", std::string(to_string(plan.tier)).c_str(),
              plan.reason);
  std::printf("obtained:  %s\n", region.describe().c_str());
  std::printf("verified:  %s resident on huge pages (via smaps)\n",
              format_bytes(region.resident_huge_bytes()).c_str());
  const auto delta = after.since(before);
  std::printf("meminfo:   AnonHugePages %+lld B, HugePages_Free %+lld, "
              "Hugetlb %+lld B\n",
              static_cast<long long>(delta.anon_huge_pages),
              static_cast<long long>(delta.huge_pages_free),
              static_cast<long long>(delta.hugetlb));
  const auto vm_delta = vm_after.since(vm_before);
  std::printf("vmstat:    thp_fault_alloc %+lld, thp_fault_fallback %+lld, "
              "thp_collapse_alloc %+lld\n",
              static_cast<long long>(vm_delta.thp_fault_alloc),
              static_cast<long long>(vm_delta.thp_fault_fallback),
              static_cast<long long>(vm_delta.thp_collapse_alloc));
  return allocation.backing() == plan.tier ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) try {
  const std::string cmd = argc >= 2 ? argv[1] : "status";
  if (cmd == "status") return cmd_status();
  if (cmd == "pool" && argc >= 3) return cmd_pool(argv[2]);
  if (cmd == "pool-status") return cmd_pool_status();
  if (cmd == "probe" && argc >= 3) return cmd_probe(argv[2]);
  std::fprintf(stderr,
               "usage: hugectl [status | pool <npages> | pool-status | "
               "probe <none|thp|hugetlbfs>]\n");
  return 2;
} catch (const fhp::ConfigError& e) {
  std::fprintf(stderr, "hugectl: %s\n", e.what());
  return 2;
}
