/// \file cache_model.hpp
/// \brief Set-associative write-back, write-allocate cache model.
///
/// Used for the paper's "Memory (Gbytes/s)" measure: the bytes that cross
/// each level boundary are counted (line-granular), including write-back
/// traffic from dirty evictions. LRU replacement; one level per instance —
/// Machine chains an L1 and an L2.
///
/// Tags, last-use stamps and dirty bits are flat per-set arrays; a free
/// way holds a tag no address can produce, so matching a set is a
/// branch-free select over its ways, as is picking the LRU victim.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/contracts.hpp"
#include "tlb/geometry.hpp"

namespace fhp::tlb {

/// Result of one cache access.
struct CacheResult {
  bool hit = false;
  bool writeback = false;  ///< a dirty victim was evicted
};

/// One cache level.
class CacheModel {
 public:
  explicit CacheModel(const CacheGeometry& geometry);

  /// Access the line containing \p addr. Misses install the line.
  FHP_NO_ALLOC CacheResult access(std::uint64_t addr, bool write) noexcept {
    const std::uint64_t block = addr >> line_shift_;
    const std::uint32_t set = static_cast<std::uint32_t>(block & (sets_ - 1));
    const std::size_t row = static_cast<std::size_t>(set) * ways_;
    const std::uint64_t tag = block >> set_shift_;
    ++clock_;
    const std::uint32_t way = find(row, tag);
    if (way == ways_) return install(set, tag, write);
    last_use_[row + way] = clock_;
    dirty_[row + way] |= static_cast<std::uint8_t>(write);
    ++hits_;
    return {true, false};
  }

  /// Probe without side effects.
  [[nodiscard]] bool contains(std::uint64_t addr) const noexcept {
    const std::uint64_t block = addr >> line_shift_;
    const std::uint32_t set = static_cast<std::uint32_t>(block & (sets_ - 1));
    return find(static_cast<std::size_t>(set) * ways_, block >> set_shift_) !=
           ways_;
  }

  void flush() noexcept;

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t writebacks() const noexcept { return writebacks_; }
  [[nodiscard]] std::uint32_t line_bytes() const noexcept { return line_; }
  [[nodiscard]] std::uint32_t sets() const noexcept { return sets_; }

 private:
  /// Tag of a free way. A real tag has line_shift_ + set_shift_ >= 1
  /// high bits clear (the constructor checks the sum), so none is ~0.
  static constexpr std::uint64_t kNoTag = ~std::uint64_t{0};

  /// The way of the set starting at \p row that holds \p tag, or ways_.
  [[nodiscard]] std::uint32_t find(std::size_t row,
                                   std::uint64_t tag) const noexcept {
    const std::uint64_t* tags = tags_.data() + row;
    std::uint32_t way = ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      way = tags[w] == tag ? w : way;
    }
    return way;
  }

  /// The miss path: choose the victim, write it back if dirty, fill.
  FHP_NO_ALLOC CacheResult install(std::uint32_t set, std::uint64_t tag,
                                   bool write) noexcept;

  std::uint32_t line_ = 0;
  std::uint32_t line_shift_ = 0;
  std::uint32_t sets_ = 0;
  std::uint32_t set_shift_ = 0;
  std::uint32_t ways_ = 0;
  /// sets_ x ways_ per-line state, row-major by set. Fills take the *last*
  /// free way and nothing frees a single line, so a set's valid lines are
  /// always its last fill_[set] ways.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> last_use_;
  std::vector<std::uint8_t> dirty_;  ///< 0 on every free way
  std::vector<std::uint32_t> fill_;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t writebacks_ = 0;
};

}  // namespace fhp::tlb
