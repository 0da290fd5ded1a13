/// \file test_mem.cpp
/// \brief Unit tests for the huge-page memory library.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include "mem/allocator.hpp"
#include "mem/huge_policy.hpp"
#include "mem/hugeadm.hpp"
#include "mem/mapped_region.hpp"
#include "mem/meminfo.hpp"
#include "mem/page_pool.hpp"
#include "mem/page_size.hpp"
#include "mem/procfs.hpp"
#include "mem/thp.hpp"
#include "mem/vmstat.hpp"
#include "support/error.hpp"

namespace fhp::mem {
namespace {

// ------------------------------------------------------------- page sizes

TEST(PageSize, BasePageIsSane) {
  const std::size_t base = base_page_size();
  EXPECT_GE(base, 4096u);
  EXPECT_TRUE(is_pow2(base));
}

TEST(PageSize, RoundUp) {
  EXPECT_EQ(round_up(1, kPage4K), kPage4K);
  EXPECT_EQ(round_up(kPage4K, kPage4K), kPage4K);
  EXPECT_EQ(round_up(kPage4K + 1, kPage4K), 2 * kPage4K);
  EXPECT_EQ(round_up(3u << 20, kPage2M), 4u << 20);
}

TEST(PageSize, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(kPage2M));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(kPage2M + 1));
}

TEST(PageSize, Log2Pow2) {
  EXPECT_EQ(log2_pow2(kPage4K), 12u);
  EXPECT_EQ(log2_pow2(kPage2M), 21u);
  EXPECT_EQ(log2_pow2(kPage512M), 29u);
}

TEST(PageSize, ParseHugepagesDirname) {
  EXPECT_EQ(parse_hugepages_dirname("hugepages-2048kB"), kPage2M);
  EXPECT_EQ(parse_hugepages_dirname("hugepages-1048576kB"), kPage1G);
  EXPECT_FALSE(parse_hugepages_dirname("hugepages-").has_value());
  EXPECT_FALSE(parse_hugepages_dirname("transparent_hugepage").has_value());
  EXPECT_FALSE(parse_hugepages_dirname("hugepages-abckB").has_value());
}

TEST(PageSize, HugetlbPoolsEnumerationDoesNotThrow) {
  // Presence depends on the kernel; the call must degrade gracefully.
  const auto pools = hugetlb_pools();
  for (const auto& p : pools) {
    EXPECT_TRUE(is_pow2(p.page_bytes));
  }
  // A bogus root yields an empty list, not an error.
  EXPECT_TRUE(hugetlb_pools("/nonexistent/sysfs").empty());
}

TEST(PageSize, PickHugetlbPoolRule) {
  const auto pool = [](std::size_t page, std::size_t free) {
    HugetlbPool p;
    p.page_bytes = page;
    p.nr_hugepages = free + 2;
    p.free_hugepages = free;
    return p;
  };
  struct Case {
    const char* name;
    std::vector<HugetlbPool> pools;
    std::size_t bytes;
    std::size_t page;  ///< the chosen pool's page size; 0 = none
  };
  const Case cases[] = {
      {"empty list", {}, kPage2M, 0},
      {"exact fit", {pool(kPage2M, 4)}, 4 * kPage2M, kPage2M},
      {"one page short", {pool(kPage2M, 3)}, 4 * kPage2M, 0},
      {"40 MiB beside a free 1 GiB page",
       {pool(kPage2M, 32), pool(kPage1G, 1)}, 40ull << 20, kPage2M},
      {"40 MiB against a lone 1 GiB pool", {pool(kPage1G, 1)}, 40ull << 20,
       kPage1G},
      {"dry smaller pool, free larger one",
       {pool(kPage2M, 0), pool(kPage1G, 1)}, 40ull << 20, kPage1G},
      {"largest page <= request", {pool(kPage2M, 512), pool(kPage1G, 1)},
       kPage1G, kPage1G},
  };
  for (const Case& c : cases) {
    const auto i = pick_hugetlb_pool(c.pools, c.bytes);
    EXPECT_EQ(i ? c.pools[*i].page_bytes : 0, c.page) << c.name;
  }
}

// ----------------------------------------------------------------- policy

TEST(HugePolicy, ParseAcceptsAliases) {
  EXPECT_EQ(parse_huge_policy("none"), HugePolicy::kNone);
  EXPECT_EQ(parse_huge_policy("THP"), HugePolicy::kThp);
  EXPECT_EQ(parse_huge_policy("hugetlbfs"), HugePolicy::kHugetlbfs);
  EXPECT_EQ(parse_huge_policy(" hugetlb "), HugePolicy::kHugetlbfs);
  EXPECT_FALSE(parse_huge_policy("bogus").has_value());
}

TEST(HugePolicy, ToStringRoundTrips) {
  for (auto p : {HugePolicy::kNone, HugePolicy::kThp, HugePolicy::kHugetlbfs}) {
    EXPECT_EQ(parse_huge_policy(to_string(p)), p);
  }
}

TEST(HugePolicy, EnvironmentVariableWins) {
  ::setenv(kPolicyEnvVar, "thp", 1);
  EXPECT_EQ(policy_from_environment(HugePolicy::kNone), HugePolicy::kThp);
  ::unsetenv(kPolicyEnvVar);
}

TEST(HugePolicy, FujitsuVariableHonoured) {
  ::unsetenv(kPolicyEnvVar);
  ::setenv(kFujitsuPolicyEnvVar, "hugetlbfs", 1);
  EXPECT_EQ(policy_from_environment(HugePolicy::kNone),
            HugePolicy::kHugetlbfs);
  ::unsetenv(kFujitsuPolicyEnvVar);
}

TEST(HugePolicy, BadEnvironmentValueThrows) {
  ::setenv(kPolicyEnvVar, "gibberish", 1);
  EXPECT_THROW(static_cast<void>(policy_from_environment()), ConfigError);
  ::unsetenv(kPolicyEnvVar);
}

TEST(HugePolicy, EnvironmentFallback) {
  ::unsetenv(kPolicyEnvVar);
  ::unsetenv(kFujitsuPolicyEnvVar);
  EXPECT_EQ(policy_from_environment(HugePolicy::kThp), HugePolicy::kThp);
}

// -------------------------------------------------------------------- thp

TEST(Thp, ParseEnabledBracketFormat) {
  EXPECT_EQ(parse_thp_enabled("[always] madvise never"), ThpMode::kAlways);
  EXPECT_EQ(parse_thp_enabled("always [madvise] never"), ThpMode::kMadvise);
  EXPECT_EQ(parse_thp_enabled("always madvise [never]"), ThpMode::kNever);
  EXPECT_EQ(parse_thp_enabled("garbage"), ThpMode::kUnknown);
  EXPECT_EQ(parse_thp_enabled(""), ThpMode::kUnknown);
  EXPECT_EQ(parse_thp_enabled("[]"), ThpMode::kUnknown);
}

TEST(Thp, SystemModeFromMissingFileIsUnknown) {
  EXPECT_EQ(system_thp_mode("/nonexistent"), ThpMode::kUnknown);
  EXPECT_FALSE(thp_available("/nonexistent"));
}

TEST(Thp, AdviseOnFreshMappingSucceedsOrFailsCleanly) {
  MapRequest req;
  req.bytes = 4u << 20;
  req.policy = HugePolicy::kNone;
  MappedRegion region(req);
  // These must never crash regardless of kernel support.
  advise_huge(region.data(), region.size());
  advise_no_huge(region.data(), region.size());
}

// ---------------------------------------------------------------- meminfo

constexpr const char* kMeminfoFixture =
    "MemTotal:       16461744 kB\n"
    "MemFree:        15037352 kB\n"
    "MemAvailable:   15925052 kB\n"
    "AnonHugePages:     43008 kB\n"
    "ShmemHugePages:        0 kB\n"
    "FileHugePages:      2048 kB\n"
    "HugePages_Total:      16\n"
    "HugePages_Free:        8\n"
    "HugePages_Rsvd:        2\n"
    "HugePages_Surp:        1\n"
    "Hugepagesize:       2048 kB\n"
    "Hugetlb:           32768 kB\n";

TEST(Meminfo, ParsesThePapersFields) {
  const auto s = MeminfoSnapshot::parse(kMeminfoFixture);
  EXPECT_EQ(s.anon_huge_pages, 43008ull << 10);
  EXPECT_EQ(s.shmem_huge_pages, 0u);
  EXPECT_EQ(s.file_huge_pages, 2048ull << 10);
  EXPECT_EQ(s.huge_pages_total, 16u);
  EXPECT_EQ(s.huge_pages_free, 8u);
  EXPECT_EQ(s.huge_pages_rsvd, 2u);
  EXPECT_EQ(s.huge_pages_surp, 1u);
  EXPECT_EQ(s.hugepagesize, kPage2M);
  EXPECT_EQ(s.hugetlb, 32768ull << 10);
  EXPECT_EQ(s.mem_total, 16461744ull << 10);
}

TEST(Meminfo, DeltaSince) {
  auto before = MeminfoSnapshot::parse(kMeminfoFixture);
  auto after = before;
  after.anon_huge_pages = after.anon_huge_pages.value() + (4ull << 20);
  after.huge_pages_free = after.huge_pages_free.value() - 3;
  const auto d = after.since(before);
  EXPECT_EQ(d.anon_huge_pages, 4ll << 20);
  EXPECT_EQ(d.huge_pages_free, -3);
}

TEST(Meminfo, CaptureRealProcFile) {
  const auto s = MeminfoSnapshot::capture();
  EXPECT_GT(s.mem_total.value_or(), 0u);
  EXPECT_FALSE(s.summary().empty());
}

TEST(ProcFieldTest, DistinguishesZeroFromAbsent) {
  const ProcField absent;
  const ProcField zero{0};
  EXPECT_FALSE(absent.present());
  EXPECT_TRUE(zero.present());
  EXPECT_NE(absent, zero);  // "cannot say" != "observed zero"
  EXPECT_EQ(absent, ProcField{});
  EXPECT_EQ(absent.value_or(7), 7u);
  EXPECT_EQ(zero.value_or(7), 0u);
  EXPECT_THROW(static_cast<void>(absent.value()), ConfigError);
}

TEST(Meminfo, MissingFileThrows) {
  EXPECT_THROW(MeminfoSnapshot::capture("/nonexistent/meminfo"), SystemError);
}

TEST(SmapsRollupTest, ParsesFixture) {
  const auto s = SmapsRollup::parse(
      "55d0a0000000-7ffd2c1f3000 ---p 00000000 00:00 0    [rollup]\n"
      "Rss:              123456 kB\n"
      "AnonHugePages:      4096 kB\n"
      "ShmemPmdMapped:        0 kB\n"
      "Shared_Hugetlb:        0 kB\n"
      "Private_Hugetlb:   16384 kB\n");
  EXPECT_EQ(s.rss, 123456ull << 10);
  EXPECT_EQ(s.anon_huge_pages, 4096ull << 10);
  EXPECT_EQ(s.private_hugetlb, 16384ull << 10);
  EXPECT_FALSE(s.file_pmd_mapped.present());  // pre-4.20 rollup
  EXPECT_EQ(s.total_huge_bytes(), (4096ull + 16384ull) << 10);
}

// --------------------------------------------------- kernel-flavor fixtures
//
// Three generations of /proc, as checked-in fixture trees (see
// tests/fixtures/procfs/README.md): the field sets really do differ, and
// parsing must report absence, not zero.

namespace {
std::string fixture_procfs(const char* flavor) {
  return std::string(FHP_TEST_FIXTURE_DIR) + "/procfs/" + flavor;
}
}  // namespace

TEST(MeminfoFlavors, Kernel310LacksModernFields) {
  const auto s =
      MeminfoSnapshot::capture(fixture_procfs("kernel-3.10") + "/meminfo");
  EXPECT_TRUE(s.anon_huge_pages.present());
  EXPECT_TRUE(s.huge_pages_total.present());
  EXPECT_FALSE(s.mem_available.present());    // 3.14+
  EXPECT_FALSE(s.shmem_huge_pages.present()); // 4.8+
  EXPECT_FALSE(s.hugetlb.present());          // 4.19+
  EXPECT_FALSE(s.file_huge_pages.present());  // 5.4+
  EXPECT_EQ(s.anon_huge_pages, 6512640ull << 10);
  // total_huge_bytes-style sums must still work on the reduced set.
  EXPECT_EQ(s.hugetlb.value_or() + s.anon_huge_pages.value_or(),
            6512640ull << 10);
}

TEST(MeminfoFlavors, Kernel414MiddleGround) {
  const auto s =
      MeminfoSnapshot::capture(fixture_procfs("kernel-4.14") + "/meminfo");
  EXPECT_TRUE(s.mem_available.present());
  EXPECT_TRUE(s.shmem_huge_pages.present());
  EXPECT_FALSE(s.hugetlb.present());
  EXPECT_FALSE(s.file_huge_pages.present());
}

TEST(MeminfoFlavors, Kernel66HasEverything) {
  const auto s =
      MeminfoSnapshot::capture(fixture_procfs("kernel-6.6") + "/meminfo");
  EXPECT_TRUE(s.mem_available.present());
  EXPECT_TRUE(s.shmem_huge_pages.present());
  EXPECT_TRUE(s.file_huge_pages.present());
  EXPECT_TRUE(s.hugetlb.present());
  EXPECT_EQ(s.huge_pages_total, 512u);
  EXPECT_EQ(s.hugetlb, 1048576ull << 10);
}

TEST(SmapsFlavors, FilePmdMappedOnlyOnModernKernels) {
  const auto old = SmapsRollup::capture(fixture_procfs("kernel-4.14") +
                                        "/self/smaps_rollup");
  EXPECT_FALSE(old.file_pmd_mapped.present());
  EXPECT_TRUE(old.anon_huge_pages.present());

  const auto modern = SmapsRollup::capture(fixture_procfs("kernel-6.6") +
                                           "/self/smaps_rollup");
  EXPECT_TRUE(modern.file_pmd_mapped.present());
  EXPECT_EQ(modern.file_pmd_mapped, 10240ull << 10);
  EXPECT_EQ(modern.total_huge_bytes(),
            modern.anon_huge_pages.value() + modern.shmem_pmd_mapped.value() +
                modern.file_pmd_mapped.value() +
                modern.private_hugetlb.value() +
                modern.shared_hugetlb.value());
}

// ------------------------------------------------------------------ vmstat

TEST(Vmstat, ParsesThpCounters) {
  const auto s = VmstatSnapshot::parse(
      "nr_free_pages 11420726\n"
      "pgfault 181203981\n"
      "thp_fault_alloc 12793\n"
      "thp_fault_fallback 184\n"
      "thp_collapse_alloc 812\n"
      "thp_split_page 441\n");
  EXPECT_TRUE(s.thp_accounting_present());
  EXPECT_EQ(s.thp_fault_alloc, 12793u);
  EXPECT_EQ(s.thp_fault_fallback, 184u);
  EXPECT_EQ(s.thp_collapse_alloc, 812u);
  EXPECT_EQ(s.thp_split_page, 441u);
  EXPECT_EQ(s.pgfault, 181203981u);
}

TEST(Vmstat, Kernel310UsesThpSplitSpelling) {
  // 3.10 spells the split counter "thp_split"; our field tracks the
  // modern "thp_split_page" and must come back absent, not zero.
  const auto s =
      VmstatSnapshot::capture(fixture_procfs("kernel-3.10") + "/vmstat");
  EXPECT_TRUE(s.thp_fault_alloc.present());
  EXPECT_FALSE(s.thp_split_page.present());
  EXPECT_TRUE(s.thp_accounting_present());
}

TEST(Vmstat, DeltaAndSummary) {
  const auto before =
      VmstatSnapshot::capture(fixture_procfs("kernel-6.6") + "/vmstat");
  auto after = before;
  after.thp_fault_alloc = after.thp_fault_alloc.value() + 25;
  const auto d = after.since(before);
  EXPECT_EQ(d.thp_fault_alloc, 25);
  EXPECT_EQ(d.thp_fault_fallback, 0);
  EXPECT_FALSE(after.summary().empty());
}

TEST(Vmstat, MissingFileThrows) {
  EXPECT_THROW(VmstatSnapshot::capture("/nonexistent/vmstat"), SystemError);
}

// ---------------------------------------------------------- mapped region

TEST(MappedRegion, NonePolicyGivesSmallPages) {
  MapRequest req;
  req.bytes = 1u << 20;
  req.policy = HugePolicy::kNone;
  MappedRegion region(req);
  ASSERT_TRUE(region.valid());
  EXPECT_EQ(region.backing(), Backing::kSmallPages);
  EXPECT_EQ(region.page_bytes(), base_page_size());
  EXPECT_GE(region.size(), req.bytes);
  EXPECT_EQ(region.resident_huge_bytes(), 0u);
}

TEST(MappedRegion, MemoryIsZeroInitialized) {
  MapRequest req;
  req.bytes = 1u << 20;
  req.policy = HugePolicy::kNone;
  MappedRegion region(req);
  const auto* bytes = static_cast<const unsigned char*>(region.data());
  // prefault() wrote 1 to the first byte of each page; check others.
  for (std::size_t i = 1; i < region.size(); i += 4099) {
    if (i % base_page_size() == 0) continue;
    ASSERT_EQ(bytes[i], 0u) << "offset " << i;
  }
}

TEST(MappedRegion, ThpPolicyIsPmdAligned) {
  MapRequest req;
  req.bytes = 5u << 20;
  req.policy = HugePolicy::kThp;
  MappedRegion region(req);
  ASSERT_TRUE(region.valid());
  EXPECT_EQ(region.backing(), Backing::kThp);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(region.data()) %
                region.page_bytes(),
            0u);
  EXPECT_EQ(region.size() % region.page_bytes(), 0u);
}

TEST(MappedRegion, ZeroBytesRejected) {
  MapRequest req;
  req.bytes = 0;
  EXPECT_THROW(MappedRegion{req}, ConfigError);
}

TEST(MappedRegion, MoveTransfersOwnership) {
  MapRequest req;
  req.bytes = 1u << 20;
  MappedRegion a(req);
  void* data = a.data();
  MappedRegion b(std::move(a));
  EXPECT_EQ(b.data(), data);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  MappedRegion c;
  c = std::move(b);
  EXPECT_EQ(c.data(), data);
  EXPECT_FALSE(b.valid());  // NOLINT(bugprone-use-after-move)
}

TEST(MappedRegion, ResetIsIdempotent) {
  MapRequest req;
  req.bytes = 1u << 20;
  MappedRegion region(req);
  region.reset();
  EXPECT_FALSE(region.valid());
  region.reset();
  EXPECT_EQ(region.describe(), "<unmapped>");
}

TEST(MappedRegion, ResetClearsMetadata) {
  // Regression: reset() used to unmap but leave backing/page_bytes/
  // requested_policy describing the dead mapping, so a reused region
  // reported stale page accounting.
  MapRequest req;
  req.bytes = 4u << 20;
  req.policy = HugePolicy::kThp;
  MappedRegion region(req);
  region.reset();
  EXPECT_EQ(region.backing(), Backing::kSmallPages);
  EXPECT_EQ(region.requested_policy(), HugePolicy::kNone);
  EXPECT_EQ(region.page_bytes(), 0u);
  EXPECT_EQ(region.size(), 0u);
}

TEST(MappedRegion, MovedFromRegionClearsMetadata) {
  // Regression: the move operations transferred the mapping but left the
  // source's metadata intact, so describe()/page_bytes() on the husk
  // claimed pages it no longer owned.
  MapRequest req;
  req.bytes = 4u << 20;
  req.policy = HugePolicy::kThp;
  MappedRegion a(req);
  MappedRegion b(std::move(a));
  // NOLINTBEGIN(bugprone-use-after-move) -- the moved-from state is the
  // contract under test.
  EXPECT_EQ(a.backing(), Backing::kSmallPages);
  EXPECT_EQ(a.requested_policy(), HugePolicy::kNone);
  EXPECT_EQ(a.page_bytes(), 0u);
  EXPECT_EQ(a.describe(), "<unmapped>");
  MappedRegion c;
  c = std::move(b);
  EXPECT_EQ(b.backing(), Backing::kSmallPages);
  EXPECT_EQ(b.requested_policy(), HugePolicy::kNone);
  EXPECT_EQ(b.page_bytes(), 0u);
  // NOLINTEND(bugprone-use-after-move)
  EXPECT_EQ(c.requested_policy(), HugePolicy::kThp);
}

TEST(MappedRegion, HugetlbfsFallsBackWhenNoPool) {
  // Request an absurd hugetlb preference that no pool satisfies: the
  // region must still come back usable (THP or base pages).
  MapRequest req;
  req.bytes = 2u << 20;
  req.policy = HugePolicy::kHugetlbfs;
  req.hugetlb_page = kPage1G;  // pool almost certainly empty
  MappedRegion region(req);
  ASSERT_TRUE(region.valid());
  static_cast<char*>(region.data())[0] = 1;  // usable memory
}

TEST(MappedRegion, HugetlbfsUsesPoolWhenAvailable) {
  // Maps from the 2 MiB pages the host already has free. Sizing the pool
  // is the administrator's step (CI's hugepages action, `hugectl pool N`);
  // the suite never resizes it (the host_hugepages fixtures check that).
  constexpr std::size_t kPages = 4;
  const auto before = MeminfoSnapshot::capture();
  if (before.hugepagesize.value_or() != kPage2M ||
      before.huge_pages_free.value_or() < kPages) {
    GTEST_SKIP() << "fewer than " << kPages
                 << " free 2 MiB hugetlb pages on this host";
  }
  MapRequest req;
  req.bytes = kPages * kPage2M;
  req.policy = HugePolicy::kHugetlbfs;
  MappedRegion region(req);
  ASSERT_TRUE(region.valid());
  EXPECT_EQ(region.backing(), Backing::kHugetlbfs);
  EXPECT_EQ(region.page_bytes(), kPage2M);
  EXPECT_EQ(region.resident_huge_bytes(), region.size());
  // The paper's verification: the pool's free count drops while mapped.
  const auto snap = MeminfoSnapshot::capture();
  EXPECT_LT(snap.huge_pages_free.value_or(),
            snap.huge_pages_total.value_or());
}

// ------------------------------------------------------------- HugeBuffer

TEST(HugeBufferTest, SizeAndZeroInit) {
  PagePool pool;
  HugeBuffer<double> buf(1000, HugePolicy::kNone, pool);
  EXPECT_EQ(buf.size(), 1000u);
  EXPECT_EQ(buf.span().size(), 1000u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    ASSERT_EQ(buf[i], 0.0);
  }
  buf[500] = 3.5;
  EXPECT_DOUBLE_EQ(buf.span()[500], 3.5);
}

// ---------------------------------------------------------------- hugeadm

TEST(Hugeadm, MissingSysfsYieldsNullopt) {
  EXPECT_FALSE(ensure_hugetlb_pool(kPage2M, 1, "/nonexistent").has_value());
  EXPECT_FALSE(release_hugetlb_pool(kPage2M, 0, "/nonexistent"));
}

/// A temporary directory laid out like /sys/kernel/mm/hugepages with one
/// 2 MiB pool of \p pages: the write path's target, so the tests never
/// touch the host's pool.
class FakeHugepagesRoot {
 public:
  explicit FakeHugepagesRoot(std::size_t pages) {
    std::string templ =
        (std::filesystem::temp_directory_path() / "fhp_hugeadm_XXXXXX")
            .string();
    FHP_CHECK(::mkdtemp(templ.data()) != nullptr, "mkdtemp failed");
    root_ = templ;
    std::filesystem::create_directory(root_ / "hugepages-2048kB");
    std::ofstream(nr_path()) << pages << '\n';
  }
  ~FakeHugepagesRoot() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }
  FakeHugepagesRoot(const FakeHugepagesRoot&) = delete;
  FakeHugepagesRoot& operator=(const FakeHugepagesRoot&) = delete;

  [[nodiscard]] std::string root() const { return root_.string(); }
  [[nodiscard]] std::size_t pages() const {
    std::size_t n = 0;
    std::ifstream(nr_path()) >> n;
    return n;
  }

 private:
  [[nodiscard]] std::filesystem::path nr_path() const {
    return root_ / "hugepages-2048kB" / "nr_hugepages";
  }
  std::filesystem::path root_;
};

TEST(Hugeadm, EnsureIsMonotoneNonDestructive) {
  FakeHugepagesRoot sysfs(6);
  // Asking for no more pages than exist must not shrink the pool.
  EXPECT_EQ(ensure_hugetlb_pool(kPage2M, 0, sysfs.root()), 6u);
  EXPECT_EQ(ensure_hugetlb_pool(kPage2M, 4, sysfs.root()), 6u);
  EXPECT_EQ(sysfs.pages(), 6u);
  // Asking for more grows it to exactly the request.
  EXPECT_EQ(ensure_hugetlb_pool(kPage2M, 10, sysfs.root()), 10u);
  EXPECT_EQ(sysfs.pages(), 10u);
  // No pool of that page size under the root.
  EXPECT_FALSE(ensure_hugetlb_pool(kPage1G, 1, sysfs.root()).has_value());
}

TEST(Hugeadm, ReleaseShrinksThePool) {
  FakeHugepagesRoot sysfs(8);
  EXPECT_TRUE(release_hugetlb_pool(kPage2M, 2, sysfs.root()));
  EXPECT_EQ(sysfs.pages(), 2u);
  EXPECT_TRUE(release_hugetlb_pool(kPage2M, 0, sysfs.root()));
  EXPECT_EQ(sysfs.pages(), 0u);
}

}  // namespace
}  // namespace fhp::mem
