/// \file test_page_pool.cpp
/// \brief mem::PagePool: lifecycle contracts, exhaustion degradation,
///        page-size choice, status reporting, decision counters.
///
/// All sysfs-derived state comes from fixture trees (injectable roots) or
/// explicit synthetic inventories, so every test runs unprivileged and
/// deterministically. Decisions are asserted via plan(); the real-mapping
/// truthfulness tests use alloc() and only assert invariants that hold
/// whatever the kernel grants (never a crash, shortfalls counted).

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "mem/allocator.hpp"
#include "mem/page_pool.hpp"
#include "support/error.hpp"

namespace fhp::mem {
namespace {

std::string sysfs_fixture(const std::string& rel) {
  return std::string(FHP_TEST_FIXTURE_DIR) + "/sysfs/" + rel;
}

/// A synthetic inventory with one 2 MiB pool.
std::vector<HugetlbPool> one_2m_pool(std::size_t nr, std::size_t free) {
  HugetlbPool p;
  p.page_bytes = kPage2M;
  p.nr_hugepages = nr;
  p.free_hugepages = free;
  return {p};
}

/// Config over synthetic inventory; THP tier present via the fixture.
PagePoolConfig synthetic_config(std::vector<HugetlbPool> inventory,
                                bool thp = true) {
  PagePoolConfig cfg;
  cfg.inventory = std::move(inventory);
  cfg.hugepages_root = "/flashhp-nonexistent";
  cfg.thp_root = thp ? sysfs_fixture("thp") : "/flashhp-nonexistent";
  return cfg;
}

/// Config over the system-wide fixture tree (2 MiB: 32/68 free, 1 GiB:
/// 1/2 free), read the way the pool reads /sys/kernel/mm/hugepages.
PagePoolConfig fixture_tree_config() {
  PagePoolConfig cfg = synthetic_config({});
  cfg.hugepages_root = sysfs_fixture("hugepages");
  return cfg;
}

// ---------------------------------------------------------- pool spec knob

TEST(PoolSpec, OffAndCountsAndExplicitSizes) {
  bool enabled = true;
  std::vector<PoolReservation> res;

  parse_pool_spec("off", enabled, res);
  EXPECT_FALSE(enabled);
  EXPECT_TRUE(res.empty());

  parse_pool_spec("16", enabled, res);
  EXPECT_TRUE(enabled);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].page_bytes, kPage2M);
  EXPECT_EQ(res[0].pages, 16u);

  parse_pool_spec("2M:4,1G:1", enabled, res);
  EXPECT_TRUE(enabled);
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0].page_bytes, kPage2M);
  EXPECT_EQ(res[0].pages, 4u);
  EXPECT_EQ(res[1].page_bytes, kPage1G);
  EXPECT_EQ(res[1].pages, 1u);
}

TEST(PoolSpec, JunkThrowsConfigError) {
  bool enabled = true;
  std::vector<PoolReservation> res;
  EXPECT_THROW(parse_pool_spec("2M", enabled, res), ConfigError);
  EXPECT_THROW(parse_pool_spec("2M:x", enabled, res), ConfigError);
  EXPECT_THROW(parse_pool_spec("3Q:4", enabled, res), ConfigError);
}

// ------------------------------------------------------- lifecycle contracts

TEST(PagePoolLifecycle, DoubleInitThrows) {
  PagePool pool;
  pool.init(synthetic_config(one_2m_pool(4, 4)));
  EXPECT_THROW(pool.init(synthetic_config(one_2m_pool(4, 4))), ConfigError);
}

TEST(PagePoolLifecycle, UseAfterFiniThrows) {
  PagePool pool;
  pool.init(synthetic_config(one_2m_pool(4, 4)));
  pool.fini();
  EXPECT_THROW((void)pool.plan(kPage2M, HugePolicy::kHugetlbfs), ConfigError);
  EXPECT_THROW((void)pool.alloc(kPage2M, HugePolicy::kNone), ConfigError);
  EXPECT_THROW(pool.init(synthetic_config(one_2m_pool(4, 4))), ConfigError);
}

TEST(PagePoolLifecycle, FiniContracts) {
  PagePool never_inited;
  EXPECT_THROW(never_inited.fini(), ConfigError);

  PagePool pool;
  pool.init(synthetic_config(one_2m_pool(4, 4)));
  pool.fini();
  EXPECT_NO_THROW(pool.fini());  // idempotent once finished
}

TEST(PagePoolLifecycle, StatusValidInAnyState) {
  PagePool pool;
  EXPECT_EQ(pool.status().state, "idle");
  pool.init(synthetic_config(one_2m_pool(4, 4)));
  EXPECT_EQ(pool.status().state, "ready");
  pool.fini();
  EXPECT_EQ(pool.status().state, "finished");
}

// ------------------------------------------------------- degradation ladder

TEST(PagePoolDegradation, HealthyPoolPlacesHuge) {
  PagePool pool;
  pool.init(synthetic_config(one_2m_pool(4, 4)));
  const PoolDecision d = pool.plan(kPage2M, HugePolicy::kHugetlbfs);
  EXPECT_EQ(d.tier, Backing::kHugetlbfs);
  EXPECT_EQ(d.page_bytes, kPage2M);
  EXPECT_STREQ(d.reason, "pool-huge");
  EXPECT_EQ(pool.counters().huge_allocs, 1u);
  EXPECT_EQ(pool.counters().exhausted_events, 0u);
}

TEST(PagePoolDegradation, ExhaustedPoolFallsToThpThenBase) {
  // THP tier available: exhaustion degrades to THP.
  PagePool with_thp;
  with_thp.init(synthetic_config(one_2m_pool(4, 0), /*thp=*/true));
  const PoolDecision d1 = with_thp.plan(kPage2M, HugePolicy::kHugetlbfs);
  EXPECT_EQ(d1.tier, Backing::kThp);
  EXPECT_STREQ(d1.reason, "pool-exhausted->thp");
  EXPECT_EQ(with_thp.counters().exhausted_events, 1u);
  EXPECT_EQ(with_thp.counters().thp_fallbacks, 1u);
  EXPECT_EQ(with_thp.counters().base_fallbacks, 0u);

  // No THP tier: exhaustion degrades all the way to base pages.
  PagePool no_thp;
  no_thp.init(synthetic_config(one_2m_pool(4, 0), /*thp=*/false));
  const PoolDecision d2 = no_thp.plan(kPage2M, HugePolicy::kHugetlbfs);
  EXPECT_EQ(d2.tier, Backing::kSmallPages);
  EXPECT_STREQ(d2.reason, "pool-exhausted->base");
  EXPECT_EQ(no_thp.counters().exhausted_events, 1u);
  EXPECT_EQ(no_thp.counters().base_fallbacks, 1u);
}

TEST(PagePoolDegradation, MirrorDecrementsUntilExhaustion) {
  PagePool pool;
  pool.init(synthetic_config(one_2m_pool(2, 2)));
  EXPECT_EQ(pool.plan(kPage2M, HugePolicy::kHugetlbfs).tier,
            Backing::kHugetlbfs);
  EXPECT_EQ(pool.plan(kPage2M, HugePolicy::kHugetlbfs).tier,
            Backing::kHugetlbfs);
  // Third request: mirror is dry even though sysfs never changed.
  const PoolDecision d = pool.plan(kPage2M, HugePolicy::kHugetlbfs);
  EXPECT_EQ(d.tier, Backing::kThp);
  EXPECT_EQ(pool.counters().huge_allocs, 2u);
  EXPECT_EQ(pool.counters().exhausted_events, 1u);
  EXPECT_EQ(pool.status().inventory[0].free_hugepages, 0u);
}

TEST(PagePoolDegradation, MultiPageRequestsAccountCorrectly) {
  PagePool pool;
  pool.init(synthetic_config(one_2m_pool(8, 3)));
  // 5 MiB needs 3 x 2 MiB pages: exactly drains the pool.
  const PoolDecision d = pool.plan(5ull << 20, HugePolicy::kHugetlbfs);
  EXPECT_EQ(d.tier, Backing::kHugetlbfs);
  EXPECT_EQ(pool.status().inventory[0].free_hugepages, 0u);
  EXPECT_EQ(pool.plan(kPage2M, HugePolicy::kHugetlbfs).tier, Backing::kThp);
}

TEST(PagePoolDegradation, ExplicitPoliciesBypassThePools) {
  PagePool pool;
  pool.init(synthetic_config(one_2m_pool(4, 4)));
  const PoolDecision none = pool.plan(kPage2M, HugePolicy::kNone);
  EXPECT_EQ(none.tier, Backing::kSmallPages);
  EXPECT_STREQ(none.reason, "policy=none");
  const PoolDecision thp = pool.plan(kPage2M, HugePolicy::kThp);
  EXPECT_EQ(thp.tier, Backing::kThp);
  // Neither touched the hugetlb mirror or the counters.
  EXPECT_EQ(pool.counters().huge_allocs, 0u);
  EXPECT_EQ(pool.status().inventory[0].free_hugepages, 4u);
}

TEST(PagePoolDegradation, DisabledPoolIsPassThrough) {
  PagePoolConfig cfg = synthetic_config(one_2m_pool(4, 4));
  cfg.enabled = false;
  PagePool pool;
  pool.init(cfg);
  const PoolDecision d = pool.plan(kPage2M, HugePolicy::kHugetlbfs);
  EXPECT_STREQ(d.reason, "pool-disabled");
  EXPECT_EQ(pool.counters().huge_allocs, 0u);
  EXPECT_EQ(pool.status().inventory[0].free_hugepages, 4u);
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

  // With no explicit inventory the pool's mirror is that tree.
  PagePool pool;
  pool.init(fixture_tree_config());
  const std::vector<HugetlbPool> mirror = pool.status().inventory;
  ASSERT_EQ(mirror.size(), pools.size());
  for (std::size_t i = 0; i < pools.size(); ++i) {
    EXPECT_EQ(mirror[i].page_bytes, pools[i].page_bytes);
    EXPECT_EQ(mirror[i].nr_hugepages, pools[i].nr_hugepages);
    EXPECT_EQ(mirror[i].free_hugepages, pools[i].free_hugepages);
  }
}

TEST(PagePoolPageSize, LargeRequestUsesTheGiganticPool) {
  PagePool pool;
  pool.init(fixture_tree_config());
  // 40 MiB takes 20 of the 32 free 2 MiB pages, not the free 1 GiB page.
  const PoolDecision small = pool.plan(40ull << 20, HugePolicy::kHugetlbfs);
  EXPECT_EQ(small.tier, Backing::kHugetlbfs);
  EXPECT_EQ(small.page_bytes, kPage2M);
  // 1 GiB needs 512 x 2 MiB (12 left) but fits the one free 1 GiB page.
  const PoolDecision large = pool.plan(kPage1G, HugePolicy::kHugetlbfs);
  EXPECT_EQ(large.tier, Backing::kHugetlbfs);
  EXPECT_EQ(large.page_bytes, kPage1G);
  const std::vector<HugetlbPool> mirror = pool.status().inventory;
  ASSERT_EQ(mirror.size(), 2u);
  EXPECT_EQ(mirror[0].free_hugepages, 12u);
  EXPECT_EQ(mirror[1].free_hugepages, 0u);
}

// ------------------------------------------------------------ status report

TEST(PagePoolStatus, HugectlStyleText) {
  PagePool pool;
  pool.init(fixture_tree_config());
  (void)pool.plan(kPage2M, HugePolicy::kHugetlbfs);

  const std::string expected =
      "page pool: ready thp=available\n"
      "  2.0 MiB pages: 31/68 free\n"
      "  1.0 GiB pages: 1/2 free\n"
      "  allocs: huge=1 thp-fallback=0 base-fallback=0 exhausted=0 "
      "shortfall=0\n";
  EXPECT_EQ(pool.status_text(), expected);
}

TEST(PagePoolStatus, EmptyInventoryText) {
  PagePool pool;
  pool.init(synthetic_config({}));
  const std::string text = pool.status_text();
  EXPECT_NE(text.find("(no hugetlb pools configured)"), std::string::npos);
}

// ----------------------------------------------------------- counter events

TEST(PagePoolEvents, CountedInPoolCounters) {
  PagePool pool;
  pool.init(synthetic_config(one_2m_pool(2, 2)));

  (void)pool.plan(kPage2M, HugePolicy::kHugetlbfs);  // huge
  (void)pool.plan(kPage2M, HugePolicy::kHugetlbfs);  // huge
  (void)pool.plan(kPage2M, HugePolicy::kHugetlbfs);  // exhausted -> thp

  const PoolCounters counters = pool.counters();
  EXPECT_EQ(counters.huge_allocs, 2u);
  EXPECT_EQ(counters.thp_fallbacks, 1u);
  EXPECT_EQ(counters.base_fallbacks, 0u);
}

// ------------------------------------------------- real mappings (alloc())

TEST(PagePoolAlloc, NeverCrashesAndCountsShortfalls) {
  // The synthetic inventory claims free 2 MiB pages; on an unprivileged
  // container the kernel will refuse MAP_HUGETLB. The contract: the
  // allocation still succeeds (degraded by MappedRegion's own ladder),
  // and the decision/backing mismatch is counted, never hidden.
  PagePool pool;
  pool.init(synthetic_config(one_2m_pool(4, 4)));
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
  PagePool pool;
  pool.init(synthetic_config(one_2m_pool(4, 0)));  // dry -> decided THP
  PoolAllocation a = pool.alloc(kPage2M, HugePolicy::kHugetlbfs);
  ASSERT_TRUE(a.valid());
  EXPECT_EQ(a.decision().tier, Backing::kThp);
  // The mapping was requested as THP, not hugetlbfs: requested_policy
  // records what was actually asked of the kernel.
  EXPECT_EQ(a.region().requested_policy(), HugePolicy::kThp);
}

TEST(PagePoolAlloc, MovedFromAllocationIsEmpty) {
  PagePool pool;
  pool.init(synthetic_config(one_2m_pool(4, 4)));
  PoolAllocation a = pool.alloc(kPage2M, HugePolicy::kNone);
  PoolAllocation b = std::move(a);
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move) -- contract
  EXPECT_STREQ(a.decision().reason, "");
  EXPECT_EQ(a.decision().tier, Backing::kSmallPages);
}

// ------------------------------------------------------ carving (HugeBuffer)

TEST(PagePoolCarving, HugeBufferExposesItsDecision) {
  PagePool pool;
  pool.init(synthetic_config(one_2m_pool(16, 16)));
  HugeBuffer<double> buf(1024, HugePolicy::kHugetlbfs, pool);
  EXPECT_EQ(buf.size(), 1024u);
  buf[0] = 1.5;
  EXPECT_EQ(buf[0], 1.5);
  EXPECT_EQ(buf.allocation().decision().tier, Backing::kHugetlbfs);
  EXPECT_TRUE(buf.region().valid());
}

}  // namespace
}  // namespace fhp::mem
