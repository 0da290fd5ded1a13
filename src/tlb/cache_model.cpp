#include "tlb/cache_model.hpp"

#include <algorithm>
#include <bit>

#include "support/error.hpp"

namespace fhp::tlb {

CacheModel::CacheModel(const CacheGeometry& geometry) {
  FHP_REQUIRE(std::has_single_bit(geometry.line_bytes),
              "cache line size must be a power of two");
  FHP_REQUIRE(geometry.ways > 0, "cache must have at least one way");
  const std::size_t total_lines = geometry.capacity_bytes / geometry.line_bytes;
  FHP_REQUIRE(total_lines >= geometry.ways,
              "cache capacity smaller than one set");
  line_ = geometry.line_bytes;
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(line_));
  sets_ = static_cast<std::uint32_t>(total_lines / geometry.ways);
  FHP_REQUIRE(std::has_single_bit(sets_),
              "cache set count must be a power of two");
  set_shift_ = static_cast<std::uint32_t>(std::countr_zero(sets_));
  FHP_REQUIRE(line_shift_ + set_shift_ > 0,
              "a one-set cache needs lines of at least 2 bytes");
  ways_ = geometry.ways;
  const std::size_t lines = static_cast<std::size_t>(sets_) * ways_;
  tags_.assign(lines, kNoTag);
  last_use_.assign(lines, 0);
  dirty_.assign(lines, 0);
  fill_.assign(sets_, 0);
}

FHP_NO_ALLOC CacheResult CacheModel::install(std::uint32_t set,
                                             std::uint64_t tag,
                                             bool write) noexcept {
  ++misses_;
  const std::size_t row = static_cast<std::size_t>(set) * ways_;
  std::uint32_t way;
  if (fill_[set] < ways_) {
    way = ways_ - ++fill_[set];
  } else {
    // LRU: the first way with the oldest stamp (stamps are unique).
    const std::uint64_t* stamps = last_use_.data() + row;
    way = 0;
    std::uint64_t oldest = stamps[0];
    for (std::uint32_t w = 1; w < ways_; ++w) {
      const bool older = stamps[w] < oldest;
      oldest = older ? stamps[w] : oldest;
      way = older ? w : way;
    }
  }
  const std::size_t line = row + way;
  const bool writeback = dirty_[line] != 0;
  writebacks_ += writeback;
  tags_[line] = tag;
  last_use_[line] = clock_;
  dirty_[line] = static_cast<std::uint8_t>(write);
  return {false, writeback};
}

void CacheModel::flush() noexcept {
  std::fill(tags_.begin(), tags_.end(), kNoTag);
  std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{0});
  std::fill(fill_.begin(), fill_.end(), 0u);
}

}  // namespace fhp::tlb
