#include "mem/arena.hpp"

#include <algorithm>
#include <sstream>

#include "mem/page_size.hpp"
#include "support/contracts.hpp"
#include "support/mutex.hpp"
#include "support/string_util.hpp"

namespace fhp::mem {

Arena::Arena(PagePool& pool, HugePolicy policy, std::size_t chunk_bytes)
    : policy_(policy), chunk_bytes_(chunk_bytes), pool_(pool) {
  FHP_PRECONDITION(chunk_bytes_ >= kPage2M,
                   "arena chunk size must be at least one huge page (2 MiB)");
}

void Arena::add_chunk(std::size_t min_bytes) {
  PoolAllocation chunk =
      pool_.alloc(std::max(min_bytes, chunk_bytes_), policy_);
  switch (chunk.backing()) {
    case Backing::kHugetlbfs: ++stats_.hugetlb_chunks; break;
    case Backing::kThp: ++stats_.thp_chunks; break;
    case Backing::kSmallPages: ++stats_.small_chunks; break;
  }
  if (chunk.decision().remote) ++stats_.remote_chunks;
  stats_.bytes_reserved += chunk.size();
  ++stats_.chunk_count;
  cursor_ = static_cast<std::byte*>(chunk.data());
  chunk_end_ = cursor_ + chunk.size();
  chunks_.push_back(std::move(chunk));
}

void* Arena::allocate(std::size_t bytes, std::size_t alignment) {
  FHP_PRECONDITION(bytes > 0, "zero-byte arena allocation");
  FHP_PRECONDITION(is_pow2(alignment), "alignment must be a power of two");
  MutexLock lock(mutex_);

  auto align_up = [alignment](std::byte* p) {
    auto v = reinterpret_cast<std::uintptr_t>(p);
    v = (v + alignment - 1) & ~(alignment - 1);
    return reinterpret_cast<std::byte*>(v);
  };

  std::byte* aligned = align_up(cursor_);
  if (cursor_ == nullptr ||
      aligned + bytes > chunk_end_) {
    add_chunk(bytes + alignment);
    aligned = align_up(cursor_);
    FHP_ASSERT(aligned + bytes <= chunk_end_, "fresh chunk too small");
  }
  cursor_ = aligned + bytes;
  stats_.bytes_requested += bytes;
  ++stats_.allocation_count;
  return aligned;
}

void Arena::release() noexcept {
  MutexLock lock(mutex_);
  chunks_.clear();
  cursor_ = nullptr;
  chunk_end_ = nullptr;
  stats_ = ArenaStats{};
}

ArenaStats Arena::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

std::uint64_t Arena::resident_huge_bytes() const {
  MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& chunk : chunks_) {
    total += chunk.region().resident_huge_bytes();
  }
  return total;
}

std::string Arena::report() const {
  MutexLock lock(mutex_);
  std::ostringstream os;
  os << "Arena[policy=" << to_string(policy_) << "] " << chunks_.size()
     << " chunk(s), " << format_bytes(stats_.bytes_reserved) << " reserved, "
     << format_bytes(stats_.bytes_requested) << " allocated in "
     << stats_.allocation_count << " allocation(s)\n";
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    const auto& region = chunks_[i].region();
    const auto& decision = chunks_[i].decision();
    os << "  chunk " << i << ": " << region.describe() << ", huge-resident "
       << format_bytes(region.resident_huge_bytes()) << ", pool decision "
       << decision.reason;
    if (decision.node >= 0) os << " node" << decision.node;
    os << '\n';
  }
  return os.str();
}

}  // namespace fhp::mem
