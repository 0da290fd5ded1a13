#include "mem/page_pool.hpp"

#include <cstdlib>
#include <optional>
#include <sstream>
#include <utility>

#include "mem/huge_policy.hpp"
#include "mem/hugeadm.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/runtime_params.hpp"
#include "support/string_util.hpp"

namespace fhp::mem {

namespace {

std::string_view state_name(int state) noexcept {
  switch (state) {
    case 0: return "idle";
    case 1: return "ready";
    case 2: return "finished";
  }
  return "?";
}

/// The config a pool spec describes ("" keeps the defaults).
PagePoolConfig make_config(std::string_view spec) {
  PagePoolConfig config;
  parse_pool_spec(spec, config.enabled, config.reservations);
  return config;
}

}  // namespace

void parse_pool_spec(std::string_view spec, bool& enabled,
                     std::vector<PoolReservation>& reservations) {
  enabled = true;
  reservations.clear();
  const std::string v = to_lower(trim(spec));
  if (v.empty()) return;
  if (v == "off" || v == "0" || v == "none" || v == "false") {
    enabled = false;
    return;
  }
  // Bare count: reserve that many pages of the paper's default 2 MiB size.
  if (const auto n = parse_int(v); n && *n > 0) {
    reservations.push_back({kPage2M, static_cast<std::size_t>(*n)});
    return;
  }
  // "2M:4,1G:1" style explicit per-size reservations.
  for (const auto& field : split(v, ',')) {
    const auto parts = split(trim(field), ':');
    const auto fail = [&spec, &field]() -> void {
      throw ConfigError("bad page-pool spec '" + std::string(spec) +
                        "' (field '" + field +
                        "'): expected off | <pages> | <size>:<pages>[,...]");
    };
    if (parts.size() != 2) fail();
    const auto size = parse_size_bytes(trim(parts[0]));
    const auto count = parse_int(trim(parts[1]));
    if (!size || !is_pow2(*size) || !count || *count < 0) fail();
    reservations.push_back(
        {static_cast<std::size_t>(*size), static_cast<std::size_t>(*count)});
  }
}

PagePoolConfig config_from_environment() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- read when a pool is
  // configured at setup; nothing in-process calls setenv.
  const char* spec = std::getenv(kPoolEnvVar);
  return make_config(spec == nullptr ? "" : spec);
}

void PagePool::init(PagePoolConfig config) {
  MutexLock lock(mutex_);
  init_locked(std::move(config));
}

void PagePool::init_locked(PagePoolConfig config) {
  if (state_ == State::kReady) {
    throw ConfigError("PagePool::init() called twice (pool is ready; call "
                      "fini() first if reconfiguration is intended)");
  }
  if (state_ == State::kFinished) {
    throw ConfigError("PagePool::init() called on a finished pool");
  }

  // Best-effort pool sizing — exactly what `hugeadm --pool-pages-min`
  // would do. Unprivileged (tests, CI containers) this fails and we run
  // with whatever the system already reserved.
  for (const auto& r : config.reservations) {
    const auto got =
        ensure_hugetlb_pool(r.page_bytes, r.pages, config.hugepages_root);
    if (!got) {
      FHP_LOG(kInfo) << "cannot reserve " << r.pages << " x "
                     << format_bytes(r.page_bytes)
                     << " hugetlb pages (no privilege or no such pool); "
                        "using existing reservation";
    } else if (*got < r.pages) {
      FHP_LOG(kWarn) << "hugetlb pool " << format_bytes(r.page_bytes)
                     << " granted only " << *got << '/' << r.pages
                     << " pages (fragmentation?)";
    }
  }

  // Inventory: explicit override, else the system-wide tree — the pools
  // MAP_HUGETLB draws from, whichever node their pages sit on.
  inventory_ = config.inventory.empty() ? hugetlb_pools(config.hugepages_root)
                                        : config.inventory;
  thp_available_ = thp_pmd_size(config.thp_root).has_value();
  config_ = std::move(config);
  counters_ = PoolCounters{};
  state_ = State::kReady;
}

void PagePool::ensure_ready_locked() {
  if (state_ == State::kIdle) {
    init_locked(config_from_environment());
    return;
  }
  if (state_ == State::kFinished) {
    throw ConfigError("PagePool used after fini()");
  }
}

PoolDecision PagePool::plan(std::size_t bytes, HugePolicy policy) {
  MutexLock lock(mutex_);
  ensure_ready_locked();
  return plan_locked(bytes, policy);
}

PoolDecision PagePool::plan_locked(std::size_t bytes, HugePolicy policy) {
  PoolDecision d;
  if (!config_.enabled) {
    // Pass-through: MappedRegion's own ladder governs; nothing is counted.
    d.tier = policy == HugePolicy::kHugetlbfs ? Backing::kHugetlbfs
             : policy == HugePolicy::kThp     ? Backing::kThp
                                              : Backing::kSmallPages;
    d.reason = "pool-disabled";
    return d;
  }
  switch (policy) {
    case HugePolicy::kNone:
      d.tier = Backing::kSmallPages;
      d.reason = "policy=none";
      return d;
    case HugePolicy::kThp:
      if (thp_available_) {
        d.tier = Backing::kThp;
        d.reason = "policy=thp";
      } else {
        d.tier = Backing::kSmallPages;
        d.reason = "thp-unavailable->base";
        ++counters_.base_fallbacks;
      }
      return d;
    case HugePolicy::kHugetlbfs:
      break;
  }

  if (const auto i = pick_hugetlb_pool(inventory_, bytes)) {
    HugetlbPool& pool = inventory_[*i];
    pool.free_hugepages -= pages_to_cover(bytes, pool.page_bytes);
    d.tier = Backing::kHugetlbfs;
    d.page_bytes = pool.page_bytes;
    d.reason = "pool-huge";
    ++counters_.huge_allocs;
    return d;
  }

  // Exhausted: degrade, loudly.
  ++counters_.exhausted_events;
  if (thp_available_) {
    d.tier = Backing::kThp;
    d.reason = "pool-exhausted->thp";
    ++counters_.thp_fallbacks;
  } else {
    d.tier = Backing::kSmallPages;
    d.reason = "pool-exhausted->base";
    ++counters_.base_fallbacks;
  }
  FHP_LOG(kInfo) << "page pool exhausted for " << format_bytes(bytes)
                 << "; degrading to "
                 << (d.tier == Backing::kThp ? "THP" : "base pages");
  return d;
}

PoolAllocation PagePool::alloc(std::size_t bytes, HugePolicy policy) {
  const PoolDecision d = plan(bytes, policy);

  MapRequest req;
  req.bytes = bytes;
  switch (d.tier) {
    case Backing::kHugetlbfs:
      req.policy = HugePolicy::kHugetlbfs;
      req.hugetlb_page = d.page_bytes;
      break;
    case Backing::kThp:
      // A decided THP fallback skips the doomed MAP_HUGETLB attempt.
      req.policy = HugePolicy::kThp;
      break;
    case Backing::kSmallPages:
      req.policy = HugePolicy::kNone;
      break;
  }
  MappedRegion region(req);

  if (region.backing() != d.tier) {
    {
      MutexLock lock(mutex_);
      ++counters_.backing_shortfalls;
    }
    FHP_LOG(kInfo) << "pool decided " << to_string(d.tier) << " ("
                   << d.reason << ") but the kernel granted "
                   << to_string(region.backing()) << " for "
                   << format_bytes(bytes);
  }
  return {std::move(region), d};
}

PoolStatus PagePool::status() const {
  MutexLock lock(mutex_);
  PoolStatus s;
  s.enabled = config_.enabled;
  s.state = state_name(static_cast<int>(state_));
  s.thp_available = thp_available_;
  s.inventory = inventory_;
  s.counters = counters_;
  return s;
}

std::string PagePool::status_text() const {
  const PoolStatus s = status();
  std::ostringstream os;
  os << "page pool: " << s.state << (s.enabled ? "" : " (disabled)")
     << " thp=" << (s.thp_available ? "available" : "unavailable") << '\n';
  if (s.inventory.empty()) {
    os << "  (no hugetlb pools configured)\n";
  }
  for (const auto& p : s.inventory) {
    os << "  " << format_bytes(p.page_bytes) << " pages: " << p.free_hugepages
       << '/' << p.nr_hugepages << " free";
    if (p.surplus_hugepages != 0) {
      os << " (" << p.surplus_hugepages << " surplus)";
    }
    os << '\n';
  }
  os << "  allocs: huge=" << s.counters.huge_allocs
     << " thp-fallback=" << s.counters.thp_fallbacks
     << " base-fallback=" << s.counters.base_fallbacks
     << " exhausted=" << s.counters.exhausted_events
     << " shortfall=" << s.counters.backing_shortfalls << '\n';
  return os.str();
}

PoolCounters PagePool::counters() const {
  MutexLock lock(mutex_);
  return counters_;
}

void PagePool::fini() {
  MutexLock lock(mutex_);
  if (state_ == State::kIdle) {
    throw ConfigError("PagePool::fini() called on an uninitialized pool");
  }
  state_ = State::kFinished;  // idempotent from kFinished
}

void declare_page_pool_params(RuntimeParams& params) {
  params.declare_string(kPoolParamName, "",
                        "page-pool reservation spec (off | <pages> | "
                        "<size>:<pages>[,...]; empty: resolve from " +
                            std::string(kPoolEnvVar) + ")");
}

std::optional<PagePoolConfig> pool_config_from_params(
    const RuntimeParams& params) {
  const std::string spec = params.get_string(kPoolParamName);
  if (spec.empty()) return std::nullopt;
  return make_config(spec);
}

}  // namespace fhp::mem
