#include "mem/mapped_region.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "mem/meminfo.hpp"
#include "mem/page_size.hpp"
#include "mem/thp.hpp"
#include "support/contracts.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/string_util.hpp"

#ifndef MAP_HUGE_SHIFT
#define MAP_HUGE_SHIFT 26
#endif
#ifndef MAP_HUGETLB
#define MAP_HUGETLB 0x40000
#endif

namespace fhp::mem {

std::string_view to_string(Backing backing) noexcept {
  switch (backing) {
    case Backing::kSmallPages: return "small-pages";
    case Backing::kThp: return "thp";
    case Backing::kHugetlbfs: return "hugetlbfs";
  }
  return "?";
}

namespace {

void* try_mmap(std::size_t bytes, int extra_flags) noexcept {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | extra_flags, -1, 0);
  return p == MAP_FAILED ? nullptr : p;
}

/// Pick a hugetlb pool size for \p bytes: the caller's preference if that
/// pool exists and can cover the request, else pick_hugetlb_pool()'s
/// choice. Pools whose free pages cannot cover the rounded-up request are
/// skipped: MAP_HUGETLB against an exhausted pool is a doomed syscall,
/// and burning it would turn "the pool ran dry" into a silent THP
/// fallback instead of a logged decision.
std::size_t choose_hugetlb_page(std::size_t bytes, std::size_t preferred) {
  const auto pools = hugetlb_pools();
  if (pools.empty()) return 0;
  if (preferred != 0) {
    for (const auto& p : pools) {
      if (p.page_bytes != preferred) continue;
      if (p.free_hugepages >= pages_to_cover(bytes, p.page_bytes)) {
        return preferred;
      }
      FHP_LOG(kInfo) << "hugetlb pool " << format_bytes(p.page_bytes)
                     << " cannot cover " << format_bytes(bytes) << " ("
                     << p.free_hugepages << '/' << p.nr_hugepages
                     << " pages free); falling back";
      return 0;
    }
    return 0;  // explicit preference not configured -> let caller fall back
  }
  const auto best = pick_hugetlb_pool(pools, bytes);
  if (!best) {
    FHP_LOG(kInfo) << "no hugetlb pool has enough free pages for "
                   << format_bytes(bytes) << "; falling back";
    return 0;
  }
  return pools[*best].page_bytes;
}

}  // namespace

MappedRegion::MappedRegion(const MapRequest& request) {
  FHP_PRECONDITION(request.bytes > 0, "cannot map zero bytes");
  FHP_PRECONDITION(request.hugetlb_page == 0 || is_pow2(request.hugetlb_page),
                   "hugetlb page preference must be a power of two");
  requested_ = request.policy;
  const std::size_t base = base_page_size();

  // --- Explicit hugetlbfs path -------------------------------------------
  if (request.policy == HugePolicy::kHugetlbfs) {
    const std::size_t hp =
        choose_hugetlb_page(request.bytes, request.hugetlb_page);
    if (hp != 0) {
      const std::size_t len = round_up(request.bytes, hp);
      const int flags =
          MAP_HUGETLB |
          static_cast<int>(log2_pow2(hp) << MAP_HUGE_SHIFT);
      if (void* p = try_mmap(len, flags)) {
        addr_ = p;
        size_ = len;
        page_bytes_ = hp;
        backing_ = Backing::kHugetlbfs;
        if (request.prefault) prefault();
        return;
      }
      // Capture errno before the log stream runs: format_bytes and the
      // stream machinery may make calls that clobber it.
      const int err = errno;
      FHP_LOG(kInfo) << "MAP_HUGETLB(" << format_bytes(hp)
                     << ") failed (errno=" << err
                     << "); falling back to THP";
    } else {
      FHP_LOG(kInfo) << "no hugetlb pool can back "
                     << format_bytes(request.bytes)
                     << "; falling back to THP";
    }
  }

  // --- THP path (also the hugetlbfs fallback) ---------------------------
  if (request.policy == HugePolicy::kThp ||
      request.policy == HugePolicy::kHugetlbfs) {
    const std::size_t pmd = thp_pmd_size().value_or(kPage2M);
    // Over-allocate so we can hand back a PMD-aligned region; an unaligned
    // region can never be promoted to huge pages.
    const std::size_t len = round_up(request.bytes, pmd);
    const std::size_t padded = len + pmd;
    if (void* raw = try_mmap(padded, 0)) {
      auto addr = reinterpret_cast<std::uintptr_t>(raw);
      const std::uintptr_t aligned = (addr + pmd - 1) & ~(pmd - 1);
      // Trim the unaligned head and surplus tail.
      if (aligned > addr) {
        ::munmap(raw, aligned - addr);
      }
      const std::uintptr_t end = addr + padded;
      const std::uintptr_t keep_end = aligned + len;
      if (end > keep_end) {
        ::munmap(reinterpret_cast<void*>(keep_end), end - keep_end);
      }
      addr_ = reinterpret_cast<void*>(aligned);
      size_ = len;
      page_bytes_ = pmd;
      backing_ = Backing::kThp;
      if (!advise_huge(addr_, size_)) {
        const int err = errno;
        FHP_LOG(kDebug) << "madvise(MADV_HUGEPAGE) rejected (errno=" << err
                        << "); region stays THP-eligible only if policy is "
                           "'always'";
      }
      if (request.prefault) prefault();
      return;
    }
    // Even plain mmap failed at the padded size; fall through to base pages
    // at the unpadded size (the padded request may simply not fit).
  }

  // --- Base-page path ----------------------------------------------------
  const std::size_t len = round_up(request.bytes, base);
  void* p = try_mmap(len, 0);
  if (p == nullptr) {
    // errno first: the string concatenation below allocates and may
    // clobber it before SystemError reads its second argument.
    const int err = errno;
    throw SystemError(
        "mmap of " + format_bytes(len) + " anonymous memory failed", err);
  }
  addr_ = p;
  size_ = len;
  page_bytes_ = base;
  backing_ = Backing::kSmallPages;
  // Keep the no-huge-pages arm honest even under THP policy `always`.
  if (!advise_no_huge(addr_, size_)) {
    const int err = errno;
    FHP_LOG(kDebug) << "madvise(MADV_NOHUGEPAGE) rejected (errno=" << err
                    << ')';
  }
  if (request.prefault) prefault();
}

MappedRegion::~MappedRegion() { reset(); }

MappedRegion::MappedRegion(MappedRegion&& other) noexcept
    : addr_(std::exchange(other.addr_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      page_bytes_(std::exchange(other.page_bytes_, 0)),
      backing_(std::exchange(other.backing_, Backing::kSmallPages)),
      requested_(std::exchange(other.requested_, HugePolicy::kNone)) {}

MappedRegion& MappedRegion::operator=(MappedRegion&& other) noexcept {
  if (this != &other) {
    reset();
    addr_ = std::exchange(other.addr_, nullptr);
    size_ = std::exchange(other.size_, 0);
    page_bytes_ = std::exchange(other.page_bytes_, 0);
    backing_ = std::exchange(other.backing_, Backing::kSmallPages);
    requested_ = std::exchange(other.requested_, HugePolicy::kNone);
  }
  return *this;
}

void MappedRegion::prefault() noexcept {
  if (addr_ == nullptr) return;
  // Write one byte per backing page. volatile prevents the compiler from
  // eliding the stores.
  volatile char* p = static_cast<char*>(addr_);
  const std::size_t step = page_bytes_ != 0 ? page_bytes_ : base_page_size();
  // Touch at base-page granularity for THP regions: promotion happens per
  // PMD range at fault, but faulting only one byte per 2 MiB leaves the
  // rest unpopulated if promotion was declined.
  const std::size_t touch = backing_ == Backing::kHugetlbfs
                                ? step
                                : base_page_size();
  for (std::size_t off = 0; off < size_; off += touch) {
    // Write back the byte we read: a write access populates the page
    // without altering the zero-filled contents.
    p[off] = p[off];
  }
}

std::uint64_t MappedRegion::resident_huge_bytes() const {
  if (addr_ == nullptr) return 0;
  if (backing_ == Backing::kHugetlbfs) return size_;
  return range_huge_bytes(addr_, size_);
}

void MappedRegion::reset() noexcept {
  if (addr_ != nullptr) {
    ::munmap(addr_, size_);
  }
  // Restore the full default-constructed state: a reset (or moved-from)
  // region must not keep reporting the old backing()/requested_policy()
  // through the verification API.
  addr_ = nullptr;
  size_ = 0;
  page_bytes_ = 0;
  backing_ = Backing::kSmallPages;
  requested_ = HugePolicy::kNone;
}

std::string MappedRegion::describe() const {
  std::ostringstream os;
  if (!valid()) return "<unmapped>";
  os << format_bytes(size_) << ' ' << to_string(backing_) << '('
     << format_bytes(page_bytes_) << " pages) @" << addr_;
  return os.str();
}

}  // namespace fhp::mem
