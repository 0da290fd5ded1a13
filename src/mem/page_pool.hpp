/// \file page_pool.hpp
/// \brief mem::PagePool — an explicit huge-page pool manager with a
///        contract-enforced degradation ladder.
///
/// The paper's Ookami runs worked because an administrator pre-reserved
/// hugetlb pools (`hugeadm`, boot parameters) and the Fujitsu runtime
/// then carved every large allocation from them. MappedRegion gives us
/// the per-mapping mechanics; PagePool adds the *management* layer on
/// top:
///
///   - an init → alloc → status → fini lifecycle with hard contracts
///     (double-init and alloc-after-fini throw fhp::ConfigError — a pool
///     misused is a configuration bug, not a soft failure),
///   - capacity/free accounting read from the system-wide sysfs hugetlb
///     tree — the pools the kernel serves MAP_HUGETLB from, on any NUMA
///     node — with an injectable root so tests run unprivileged against
///     fixtures; a decision is a tier and a page size, never a node,
///   - graceful, *logged and counted* degradation when pools are
///     exhausted: hugetlbfs → THP → base pages, never a crash and never
///     a silent page-size change. Every decision is queryable
///     (PoolDecision) and every shortfall between the decision and what
///     the kernel actually granted is counted — verify, don't assume.
///     PoolCounters is the one tally of those decisions; svc and the
///     benchmark read it through counters().
///
/// A pool's configuration is fixed when it is initialized: from an
/// explicit PagePoolConfig (RuntimeOptions::pool_config,
/// ServiceOptions::pool_config), else from the environment on first use.
/// Nothing configures pools process-wide.
///
/// PagePool does not mmap anything itself: all mappings go through
/// MappedRegion, which owns the one raw-mmap seam in the library
/// (tools/flashhp_lint.py enforces that scoping).

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/mapped_region.hpp"
#include "mem/page_size.hpp"
#include "support/mutex.hpp"

namespace fhp {
class RuntimeParams;
}  // namespace fhp

namespace fhp::mem {

/// One pool reservation request: "hold N pages of this size".
struct PoolReservation {
  std::size_t page_bytes = 0;
  std::size_t pages = 0;
};

/// What the pool decided for one allocation: the page-size tier, the
/// chosen pool page, and a static reason string for logs and reports.
/// The decision is what the pool planned from its inventory; the
/// MappedRegion records what the kernel actually granted, and PagePool
/// counts any shortfall between the two — verify, don't assume.
struct PoolDecision {
  Backing tier = Backing::kSmallPages;
  std::size_t page_bytes = 0;  ///< pool page size for kHugetlbfs, else 0
  const char* reason = "";     ///< e.g. "pool-huge", "pool-exhausted->thp"
};

/// Configuration for PagePool::init(). All sysfs roots are injectable so
/// tests (and CI containers without privilege) run against fixture trees.
struct PagePoolConfig {
  /// System-wide hugetlb tree: the pool inventory and reservation writes.
  std::string hugepages_root = "/sys/kernel/mm/hugepages";
  /// THP tree; hpage_pmd_size decides whether the THP fallback tier exists.
  std::string thp_root = "/sys/kernel/mm/transparent_hugepage";

  /// false = pass-through mode: alloc() forwards to MappedRegion without
  /// consulting any inventory (FLASHHP_PAGE_POOL=off).
  bool enabled = true;

  /// Best-effort pool sizing performed at init() (requires privilege;
  /// failure is logged, not fatal — the inventory then reports whatever
  /// the system already had).
  std::vector<PoolReservation> reservations;

  /// Non-empty: use these pools (sorted by page size) verbatim instead of
  /// reading hugepages_root. This is how tests model a given inventory
  /// deterministically.
  std::vector<HugetlbPool> inventory;
};

/// Running totals of pool decisions (monotonic over the pool's lifetime).
struct PoolCounters {
  std::uint64_t huge_allocs = 0;       ///< placed on a hugetlb pool
  std::uint64_t thp_fallbacks = 0;     ///< degraded to THP
  std::uint64_t base_fallbacks = 0;    ///< degraded to base pages
  std::uint64_t exhausted_events = 0;  ///< no pool could satisfy a request
  /// Decisions the kernel did not honour (decided tier != actual backing).
  std::uint64_t backing_shortfalls = 0;

  /// Field-wise this - earlier: the decisions made since \p earlier.
  [[nodiscard]] PoolCounters since(const PoolCounters& earlier) const noexcept {
    return {huge_allocs - earlier.huge_allocs,
            thp_fallbacks - earlier.thp_fallbacks,
            base_fallbacks - earlier.base_fallbacks,
            exhausted_events - earlier.exhausted_events,
            backing_shortfalls - earlier.backing_shortfalls};
  }
};

/// Snapshot returned by PagePool::status().
struct PoolStatus {
  bool enabled = true;
  std::string_view state = "idle";  ///< "idle" | "ready" | "finished"
  bool thp_available = false;
  /// The pool mirror: free_hugepages reflects pages the pool has handed
  /// out, not necessarily what sysfs says right now.
  std::vector<HugetlbPool> inventory;
  PoolCounters counters;
};

/// One allocation carved from the pool: the mapping plus the pool
/// decision that produced it. Move-only, releases on destruction.
class PoolAllocation {
 public:
  PoolAllocation() = default;
  PoolAllocation(MappedRegion region, const PoolDecision& decision)
      : region_(std::move(region)), decision_(decision) {}

  PoolAllocation(PoolAllocation&& other) noexcept
      : region_(std::move(other.region_)), decision_(other.decision_) {
    other.decision_ = PoolDecision{};
  }
  PoolAllocation& operator=(PoolAllocation&& other) noexcept {
    if (this != &other) {
      region_ = std::move(other.region_);
      decision_ = other.decision_;
      other.decision_ = PoolDecision{};
    }
    return *this;
  }
  PoolAllocation(const PoolAllocation&) = delete;
  PoolAllocation& operator=(const PoolAllocation&) = delete;

  [[nodiscard]] void* data() const noexcept { return region_.data(); }
  [[nodiscard]] std::size_t size() const noexcept { return region_.size(); }
  [[nodiscard]] bool valid() const noexcept { return region_.valid(); }

  /// The underlying mapping (kernel truth: backing(), page_bytes(), ...).
  [[nodiscard]] const MappedRegion& region() const noexcept { return region_; }

  /// What the pool *decided* (policy truth; may differ from region()'s
  /// backing — PagePool counts such shortfalls).
  [[nodiscard]] const PoolDecision& decision() const noexcept {
    return decision_;
  }

  /// Shorthand for region().backing().
  [[nodiscard]] Backing backing() const noexcept { return region_.backing(); }

 private:
  MappedRegion region_;
  PoolDecision decision_;
};

/// The environment knob honoured by config_from_environment():
///   FLASHHP_PAGE_POOL = off | 0        disable the pool (pass-through)
///                     | <N>            reserve N 2 MiB pages at init
///                     | 2M:<N>,1G:<M>  explicit per-size reservations
inline constexpr const char* kPoolEnvVar = "FLASHHP_PAGE_POOL";

/// Parse a FLASHHP_PAGE_POOL spec into (enabled, reservations). Throws
/// fhp::ConfigError on junk — silent misconfiguration is the failure mode
/// this library exists to eliminate.
void parse_pool_spec(std::string_view spec, bool& enabled,
                     std::vector<PoolReservation>& reservations);

/// The config FLASHHP_PAGE_POOL describes (defaults where unset). Throws
/// ConfigError on junk.
[[nodiscard]] PagePoolConfig config_from_environment();

/// The pool manager. All entry points are thread-safe (one internal
/// mutex); allocations themselves are serialized, which is fine — flashhp
/// carves arenas at setup time, not in inner loops.
class PagePool {
 public:
  PagePool() = default;
  ~PagePool() = default;
  PagePool(const PagePool&) = delete;
  PagePool& operator=(const PagePool&) = delete;

  /// Reserve pools (best-effort), read the inventory, and arm the pool.
  /// Throws ConfigError if already initialized (double-init) or already
  /// finished.
  void init(PagePoolConfig config);

  /// Decide a tier and page size for \p bytes under \p policy without
  /// mapping anything: consults and decrements the inventory mirror and
  /// updates counters(). Auto-initializes from the environment on first
  /// use; throws ConfigError after fini().
  [[nodiscard]] PoolDecision plan(std::size_t bytes, HugePolicy policy);

  /// plan() + carve the mapping through MappedRegion, honouring the
  /// decided tier (a decided THP fallback skips the doomed MAP_HUGETLB
  /// attempt entirely). Records a backing shortfall if the kernel did
  /// not honour the decision. Never crashes on exhaustion — the ladder
  /// ends at base pages, and base-page mmap failure is an out-of-memory
  /// SystemError from MappedRegion, not a pool bug.
  [[nodiscard]] PoolAllocation alloc(std::size_t bytes, HugePolicy policy);

  /// Snapshot of state, inventory mirror, and counters. Valid in any
  /// lifecycle state.
  [[nodiscard]] PoolStatus status() const;

  /// `hugectl --pool-list` style human-readable report of status().
  [[nodiscard]] std::string status_text() const;

  [[nodiscard]] PoolCounters counters() const;

  /// Retire the pool: further plan()/alloc() throw ConfigError.
  /// Idempotent once finished; throws ConfigError if never initialized.
  void fini();

 private:
  enum class State { kIdle, kReady, kFinished };

  void init_locked(PagePoolConfig config) FHP_REQUIRES(mutex_);
  void ensure_ready_locked() FHP_REQUIRES(mutex_);
  [[nodiscard]] PoolDecision plan_locked(std::size_t bytes, HugePolicy policy)
      FHP_REQUIRES(mutex_);

  mutable Mutex mutex_;
  State state_ FHP_GUARDED_BY(mutex_) = State::kIdle;
  PagePoolConfig config_ FHP_GUARDED_BY(mutex_);
  std::vector<HugetlbPool> inventory_ FHP_GUARDED_BY(mutex_);
  bool thp_available_ FHP_GUARDED_BY(mutex_) = false;
  PoolCounters counters_ FHP_GUARDED_BY(mutex_);
};

/// Name of the runtime parameter declared by declare_page_pool_params().
inline constexpr const char* kPoolParamName = "mem.page_pool";

/// Declare "mem.page_pool" (default "": defer to the environment). Called
/// from mem::declare_runtime_params().
void declare_page_pool_params(RuntimeParams& params);

/// The pool config the parameter above describes; nullopt when it is
/// unset. Throws ConfigError on junk. rt::apply_runtime_params() stores
/// it in RuntimeOptions::pool_config.
[[nodiscard]] std::optional<PagePoolConfig> pool_config_from_params(
    const RuntimeParams& params);

}  // namespace fhp::mem
