/// \file test_page_pool.cpp
/// \brief mem::PagePool: lifecycle contracts, exhaustion degradation,
///        page-size choice, status reporting, decision counters.
///
/// All sysfs-derived state comes from fixture trees (injectable roots):
/// the committed system-wide tree, or a temporary one a test writes and
/// rewrites (tests/fake_hugepages.hpp), so every decision test runs
/// unprivileged and deterministically. Decisions are asserted via plan();
/// the real-mapping truthfulness tests use alloc() and only assert
/// invariants that hold whatever the kernel grants (never a crash,
/// shortfalls counted), except ReleasedHugePagesArePlannedAgain, which
/// maps from the host's own pool and skips when it has too few pages.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "mem/allocator.hpp"
#include "mem/meminfo.hpp"
#include "mem/page_pool.hpp"
#include "support/error.hpp"

#include "fake_hugepages.hpp"

namespace fhp::mem {
namespace {

using test::FakeHugepagesRoot;

std::string sysfs_fixture(const std::string& rel) {
  return std::string(FHP_TEST_FIXTURE_DIR) + "/sysfs/" + rel;
}

/// Config over \p tree; the THP tier is present via the fixture.
PagePoolConfig tree_config(const FakeHugepagesRoot& tree, bool thp = true) {
  PagePoolConfig cfg;
  cfg.hugepages_root = tree.root();
  cfg.thp_root = thp ? sysfs_fixture("thp") : "/flashhp-nonexistent";
  return cfg;
}

/// Config over the system-wide fixture tree (2 MiB: 32/68 free, 1 GiB:
/// 1/2 free), read the way the pool reads /sys/kernel/mm/hugepages.
PagePoolConfig fixture_tree_config() {
  PagePoolConfig cfg;
  cfg.hugepages_root = sysfs_fixture("hugepages");
  cfg.thp_root = sysfs_fixture("thp");
  return cfg;
}

// ---------------------------------------------------------- pool spec knob

TEST(PoolSpec, CountsAndExplicitSizes) {
  EXPECT_TRUE(parse_pool_spec("").empty());

  std::vector<PoolReservation> res = parse_pool_spec("16");
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].page_bytes, kPage2M);
  EXPECT_EQ(res[0].pages, 16u);

  res = parse_pool_spec("2M:4,1G:1");
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0].page_bytes, kPage2M);
  EXPECT_EQ(res[0].pages, 4u);
  EXPECT_EQ(res[1].page_bytes, kPage1G);
  EXPECT_EQ(res[1].pages, 1u);
}

TEST(PoolSpec, JunkThrowsConfigError) {
  for (const char* junk : {"off", "0", "2M", "2M:x", "3Q:4"}) {
    EXPECT_THROW((void)parse_pool_spec(junk), ConfigError) << junk;
  }
}

// ------------------------------------------------------- lifecycle contracts

TEST(PagePoolLifecycle, DoubleInitThrows) {
  FakeHugepagesRoot tree;
  tree.set(kPage2M, 4, 4);
  PagePool pool;
  pool.init(tree_config(tree));
  EXPECT_THROW(pool.init(tree_config(tree)), ConfigError);
}

TEST(PagePoolLifecycle, StatusValidInAnyState) {
  FakeHugepagesRoot tree;
  tree.set(kPage2M, 4, 4);
  PagePool pool;
  EXPECT_EQ(pool.status().state, "idle");
  pool.init(tree_config(tree));
  EXPECT_EQ(pool.status().state, "ready");
}

// ------------------------------------------------------- degradation ladder

TEST(PagePoolDegradation, HealthyPoolPlacesHuge) {
  FakeHugepagesRoot tree;
  tree.set(kPage2M, 4, 4);
  PagePool pool;
  pool.init(tree_config(tree));
  const PoolDecision d = pool.plan(kPage2M, HugePolicy::kHugetlbfs);
  EXPECT_EQ(d.tier, Backing::kHugetlbfs);
  EXPECT_EQ(d.page_bytes, kPage2M);
  EXPECT_STREQ(d.reason, "pool-huge");
  EXPECT_EQ(pool.counters().huge_allocs, 1u);
  EXPECT_EQ(pool.counters().exhausted_events, 0u);
}

TEST(PagePoolDegradation, ExhaustedPoolFallsToThpThenBase) {
  FakeHugepagesRoot tree;
  tree.set(kPage2M, 4, 0);
  // THP tier available: exhaustion degrades to THP.
  PagePool with_thp;
  with_thp.init(tree_config(tree, /*thp=*/true));
  const PoolDecision d1 = with_thp.plan(kPage2M, HugePolicy::kHugetlbfs);
  EXPECT_EQ(d1.tier, Backing::kThp);
  EXPECT_STREQ(d1.reason, "pool-exhausted->thp");
  EXPECT_EQ(with_thp.counters().exhausted_events, 1u);
  EXPECT_EQ(with_thp.counters().thp_fallbacks, 1u);
  EXPECT_EQ(with_thp.counters().base_fallbacks, 0u);

  // No THP tier: exhaustion degrades all the way to base pages.
  PagePool no_thp;
  no_thp.init(tree_config(tree, /*thp=*/false));
  const PoolDecision d2 = no_thp.plan(kPage2M, HugePolicy::kHugetlbfs);
  EXPECT_EQ(d2.tier, Backing::kSmallPages);
  EXPECT_STREQ(d2.reason, "pool-exhausted->base");
  EXPECT_EQ(no_thp.counters().exhausted_events, 1u);
  EXPECT_EQ(no_thp.counters().base_fallbacks, 1u);
}

TEST(PagePoolDegradation, DecisionsFollowTheKernelsFreePages) {
  // Every hugetlbfs decision reads the tree as it is now: pages another
  // mapping took are gone, pages a released mapping gave back are free
  // again, and reserved pages are not free to a new mapping.
  FakeHugepagesRoot tree;
  tree.set(kPage2M, 4, 2);
  PagePool pool;
  pool.init(tree_config(tree));
  EXPECT_EQ(pool.plan(4 * kPage2M, HugePolicy::kHugetlbfs).tier,
            Backing::kThp);
  EXPECT_EQ(pool.plan(2 * kPage2M, HugePolicy::kHugetlbfs).tier,
            Backing::kHugetlbfs);

  tree.set(kPage2M, 4, 0);  // taken
  EXPECT_EQ(pool.plan(2 * kPage2M, HugePolicy::kHugetlbfs).tier,
            Backing::kThp);

  tree.set(kPage2M, 4, 4);  // free again
  EXPECT_EQ(pool.plan(4 * kPage2M, HugePolicy::kHugetlbfs).tier,
            Backing::kHugetlbfs);

  tree.set(kPage2M, 4, 4, /*resv=*/1);  // one page short
  EXPECT_EQ(pool.plan(4 * kPage2M, HugePolicy::kHugetlbfs).tier,
            Backing::kThp);

  EXPECT_EQ(pool.counters().huge_allocs, 2u);
  EXPECT_EQ(pool.counters().exhausted_events, 3u);
}

TEST(PagePoolDegradation, ExplicitPoliciesBypassThePools) {
  FakeHugepagesRoot tree;
  tree.set(kPage2M, 4, 4);
  PagePool pool;
  pool.init(tree_config(tree));
  const PoolDecision none = pool.plan(kPage2M, HugePolicy::kNone);
  EXPECT_EQ(none.tier, Backing::kSmallPages);
  EXPECT_STREQ(none.reason, "policy=none");
  const PoolDecision thp = pool.plan(kPage2M, HugePolicy::kThp);
  EXPECT_EQ(thp.tier, Backing::kThp);
  // Neither counted a hugetlb decision.
  EXPECT_EQ(pool.counters().huge_allocs, 0u);
}

// ------------------------------------------------------- inventory, page size

TEST(PoolInventory, ReadsTheSystemWideFixtureTree) {
  const std::vector<HugetlbPool> pools =
      hugetlb_pools(sysfs_fixture("hugepages"));
  ASSERT_EQ(pools.size(), 2u);  // sorted by page size: 2M then 1G
  EXPECT_EQ(pools[0].page_bytes, kPage2M);
  EXPECT_EQ(pools[0].nr_hugepages, 68u);
  EXPECT_EQ(pools[0].free_hugepages, 32u);
  EXPECT_EQ(pools[0].resv_hugepages, 0u);
  EXPECT_EQ(pools[1].page_bytes, kPage1G);
  EXPECT_EQ(pools[1].nr_hugepages, 2u);
  EXPECT_EQ(pools[1].free_hugepages, 1u);

  // A ready pool's status reports that tree as it reads now.
  PagePool pool;
  pool.init(fixture_tree_config());
  const std::vector<HugetlbPool> inventory = pool.status().inventory;
  ASSERT_EQ(inventory.size(), pools.size());
  for (std::size_t i = 0; i < pools.size(); ++i) {
    EXPECT_EQ(inventory[i].page_bytes, pools[i].page_bytes);
    EXPECT_EQ(inventory[i].nr_hugepages, pools[i].nr_hugepages);
    EXPECT_EQ(inventory[i].free_hugepages, pools[i].free_hugepages);
    EXPECT_EQ(inventory[i].resv_hugepages, pools[i].resv_hugepages);
  }
}

TEST(PagePoolPageSize, LargeRequestUsesTheGiganticPool) {
  PagePool pool;
  pool.init(fixture_tree_config());
  // 40 MiB takes 20 of the 32 free 2 MiB pages, not the free 1 GiB page.
  const PoolDecision small = pool.plan(40ull << 20, HugePolicy::kHugetlbfs);
  EXPECT_EQ(small.tier, Backing::kHugetlbfs);
  EXPECT_EQ(small.page_bytes, kPage2M);
  // 1 GiB needs 512 x 2 MiB (32 free) but fits the one free 1 GiB page.
  const PoolDecision large = pool.plan(kPage1G, HugePolicy::kHugetlbfs);
  EXPECT_EQ(large.tier, Backing::kHugetlbfs);
  EXPECT_EQ(large.page_bytes, kPage1G);
}

// ------------------------------------------------------------ status report

TEST(PagePoolStatus, HugectlStyleText) {
  PagePool pool;
  pool.init(fixture_tree_config());
  (void)pool.plan(kPage2M, HugePolicy::kHugetlbfs);

  const std::string expected =
      "page pool: ready thp=available\n"
      "  2.0 MiB pages: 32/68 free\n"
      "  1.0 GiB pages: 1/2 free\n"
      "  allocs: huge=1 thp-fallback=0 base-fallback=0 exhausted=0 "
      "shortfall=0\n";
  EXPECT_EQ(pool.status_text(), expected);
}

TEST(PagePoolStatus, EmptyInventoryText) {
  const FakeHugepagesRoot tree;  // no pools
  PagePool pool;
  pool.init(tree_config(tree));
  const std::string text = pool.status_text();
  EXPECT_NE(text.find("(no hugetlb pools configured)"), std::string::npos);
}

// ----------------------------------------------------------- counter events

TEST(PagePoolEvents, CountedInPoolCounters) {
  FakeHugepagesRoot tree;
  tree.set(kPage2M, 2, 2);
  PagePool pool;
  pool.init(tree_config(tree));

  (void)pool.plan(kPage2M, HugePolicy::kHugetlbfs);  // huge
  (void)pool.plan(kPage2M, HugePolicy::kHugetlbfs);  // huge
  tree.set(kPage2M, 2, 0);
  (void)pool.plan(kPage2M, HugePolicy::kHugetlbfs);  // exhausted -> thp

  const PoolCounters counters = pool.counters();
  EXPECT_EQ(counters.huge_allocs, 2u);
  EXPECT_EQ(counters.thp_fallbacks, 1u);
  EXPECT_EQ(counters.base_fallbacks, 0u);
}

// ------------------------------------------------- real mappings (alloc())

TEST(PagePoolAlloc, NeverCrashesAndCountsShortfalls) {
  // The fake tree claims free 2 MiB pages; a host without them refuses
  // MAP_HUGETLB. The contract: the allocation still succeeds (degraded
  // by MappedRegion's own ladder), and the decision/backing mismatch is
  // counted, never hidden.
  FakeHugepagesRoot tree;
  tree.set(kPage2M, 4, 4);
  PagePool pool;
  pool.init(tree_config(tree));
  PoolAllocation a = pool.alloc(kPage2M, HugePolicy::kHugetlbfs);
  ASSERT_TRUE(a.valid());
  ASSERT_NE(a.data(), nullptr);
  EXPECT_GE(a.size(), kPage2M);
  EXPECT_EQ(a.decision().tier, Backing::kHugetlbfs);
  static_cast<char*>(a.data())[0] = 1;  // writable
  if (a.backing() != Backing::kHugetlbfs) {
    EXPECT_EQ(pool.counters().backing_shortfalls, 1u);
  } else {
    EXPECT_EQ(pool.counters().backing_shortfalls, 0u);
  }
}

TEST(PagePoolAlloc, DecidedFallbackSkipsTheHugetlbAttempt) {
  FakeHugepagesRoot tree;
  tree.set(kPage2M, 4, 0);  // dry -> decided THP
  PagePool pool;
  pool.init(tree_config(tree));
  PoolAllocation a = pool.alloc(kPage2M, HugePolicy::kHugetlbfs);
  ASSERT_TRUE(a.valid());
  EXPECT_EQ(a.decision().tier, Backing::kThp);
  // The mapping was requested as THP, not hugetlbfs: requested_policy
  // records what was actually asked of the kernel.
  EXPECT_EQ(a.region().requested_policy(), HugePolicy::kThp);
}

TEST(PagePoolAlloc, ReleasedHugePagesArePlannedAgain) {
  // On the host's own pool, as sized (no reservation): each allocation
  // is released before the next, so every one is planned and granted on
  // hugetlb pages, more pages in all than were free at init.
  const MeminfoSnapshot host = MeminfoSnapshot::capture();
  const std::size_t free_pages = host.huge_pages_free.value_or();
  if (host.hugepagesize.value_or() != kPage2M || free_pages < 8) {
    GTEST_SKIP() << "fewer than 8 free 2 MiB hugetlb pages on this host";
  }
  PagePool pool;
  pool.init(PagePoolConfig{});
  const std::size_t rounds = free_pages / 2 + 1;
  for (std::size_t n = 0; n < rounds; ++n) {
    const PoolAllocation a = pool.alloc(2 * kPage2M, HugePolicy::kHugetlbfs);
    EXPECT_EQ(a.decision().tier, Backing::kHugetlbfs) << "allocation " << n;
    EXPECT_EQ(a.backing(), Backing::kHugetlbfs) << "allocation " << n;
  }
  EXPECT_EQ(pool.counters().exhausted_events, 0u);
  EXPECT_EQ(pool.counters().backing_shortfalls, 0u);
}

TEST(PagePoolAlloc, MovedFromAllocationIsEmpty) {
  FakeHugepagesRoot tree;
  tree.set(kPage2M, 4, 4);
  PagePool pool;
  pool.init(tree_config(tree));
  PoolAllocation a = pool.alloc(kPage2M, HugePolicy::kNone);
  PoolAllocation b = std::move(a);
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move) -- contract
  EXPECT_STREQ(a.decision().reason, "");
  EXPECT_EQ(a.decision().tier, Backing::kSmallPages);
}

// ------------------------------------------------------ carving (HugeBuffer)

TEST(PagePoolCarving, HugeBufferExposesItsDecision) {
  FakeHugepagesRoot tree;
  tree.set(kPage2M, 16, 16);
  PagePool pool;
  pool.init(tree_config(tree));
  HugeBuffer<double> buf(1024, HugePolicy::kHugetlbfs, pool);
  EXPECT_EQ(buf.size(), 1024u);
  buf[0] = 1.5;
  EXPECT_EQ(buf[0], 1.5);
  EXPECT_EQ(buf.allocation().decision().tier, Backing::kHugetlbfs);
  EXPECT_TRUE(buf.region().valid());
}

}  // namespace
}  // namespace fhp::mem
