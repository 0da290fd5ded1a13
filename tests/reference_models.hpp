/// \file reference_models.hpp
/// \brief Reference TLB and cache models for differential tests.
///
/// These are the scanning implementations of tlb::TlbModel and
/// tlb::CacheModel that the hashed/branch-free models replaced, kept
/// unchanged apart from being header-only in their own namespace. They
/// define the modeled behaviour: tests/test_tlb.cpp replays long mixed
/// streams through both and requires every hit, writeback, probe and
/// final count to agree. Test-only; nothing in src/ includes this.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/error.hpp"
#include "tlb/geometry.hpp"

namespace fhp::tlb::reference {

/// One translation lookaside buffer level (scanning reference).
///
/// Replacement is pseudo-random (deterministic xorshift): on a miss the
/// translation goes to the set's first invalid way, or, in a full set,
/// over way `prng % ways`.
class TlbModel {
 public:
  explicit TlbModel(const TlbGeometry& geometry) {
    FHP_REQUIRE(geometry.entries > 0, "TLB must have at least one entry");
    if (geometry.ways == 0 || geometry.ways >= geometry.entries) {
      sets_ = 1;
      ways_ = geometry.entries;
    } else {
      FHP_REQUIRE(geometry.entries % geometry.ways == 0,
                  "TLB entries must divide evenly into ways");
      sets_ = geometry.entries / geometry.ways;
      ways_ = geometry.ways;
      FHP_REQUIRE(is_pow2_u32(sets_), "TLB set count must be a power of two");
    }
    entries_.resize(static_cast<std::size_t>(sets_) * ways_);
  }

  bool access(std::uint64_t addr, std::uint8_t page_shift) noexcept {
    const std::uint64_t vpn = addr >> page_shift;
    const std::uint32_t set =
        sets_ == 1 ? 0 : static_cast<std::uint32_t>(vpn & (sets_ - 1));
    Entry* row = &entries_[static_cast<std::size_t>(set) * ways_];
    ++clock_;

    Entry* victim = nullptr;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      Entry& e = row[w];
      if (e.valid && e.vpn == vpn && e.page_shift == page_shift) {
        e.last_use = clock_;
        ++hits_;
        return true;
      }
      if (victim == nullptr && !e.valid) victim = &e;
    }
    ++misses_;
    if (victim == nullptr) {
      // Pseudo-random replacement (deterministic xorshift64).
      prng_ ^= prng_ << 13;
      prng_ ^= prng_ >> 7;
      prng_ ^= prng_ << 17;
      victim = &row[prng_ % ways_];
    }
    victim->valid = true;
    victim->vpn = vpn;
    victim->page_shift = page_shift;
    victim->last_use = clock_;
    return false;
  }

  [[nodiscard]] bool contains(std::uint64_t addr,
                              std::uint8_t page_shift) const noexcept {
    const std::uint64_t vpn = addr >> page_shift;
    const std::uint32_t set =
        sets_ == 1 ? 0 : static_cast<std::uint32_t>(vpn & (sets_ - 1));
    const Entry* row = &entries_[static_cast<std::size_t>(set) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      const Entry& e = row[w];
      if (e.valid && e.vpn == vpn && e.page_shift == page_shift) return true;
    }
    return false;
  }

  void flush() noexcept {
    for (Entry& e : entries_) e.valid = false;
  }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint32_t sets() const noexcept { return sets_; }
  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_; }

 private:
  static constexpr bool is_pow2_u32(std::uint32_t v) {
    return v != 0 && (v & (v - 1)) == 0;
  }

  struct Entry {
    std::uint64_t vpn = 0;
    std::uint64_t last_use = 0;
    std::uint8_t page_shift = 0;
    bool valid = false;
  };

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::vector<Entry> entries_;  // sets_ x ways_, row-major by set
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t prng_ = 0x2545f4914f6cdd1dull;  // xorshift64 state
};

/// Result of one cache access.
struct CacheResult {
  bool hit = false;
  bool writeback = false;  ///< a dirty victim was evicted
};

/// One cache level (scanning reference): write-back, write-allocate, LRU.
class CacheModel {
 public:
  explicit CacheModel(const CacheGeometry& geometry) {
    FHP_REQUIRE(geometry.line_bytes != 0 &&
                    (geometry.line_bytes & (geometry.line_bytes - 1)) == 0,
                "cache line size must be a power of two");
    FHP_REQUIRE(geometry.ways > 0, "cache must have at least one way");
    const std::size_t total_lines =
        geometry.capacity_bytes / geometry.line_bytes;
    FHP_REQUIRE(total_lines >= geometry.ways,
                "cache capacity smaller than one set");
    line_ = geometry.line_bytes;
    line_shift_ = log2_u32(geometry.line_bytes);
    sets_ = static_cast<std::uint32_t>(total_lines / geometry.ways);
    FHP_REQUIRE(sets_ != 0 && (sets_ & (sets_ - 1)) == 0,
                "cache set count must be a power of two");
    set_shift_ = log2_u32(sets_);
    ways_ = geometry.ways;
    lines_.resize(static_cast<std::size_t>(sets_) * ways_);
  }

  CacheResult access(std::uint64_t addr, bool write) noexcept {
    const std::uint64_t block = addr >> line_shift_;
    const std::uint32_t set = static_cast<std::uint32_t>(block & (sets_ - 1));
    const std::uint64_t tag = block >> set_shift_;
    Line* row = &lines_[static_cast<std::size_t>(set) * ways_];
    ++clock_;

    Line* victim = &row[0];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      Line& l = row[w];
      if (l.valid && l.tag == tag) {
        l.last_use = clock_;
        l.dirty = l.dirty || write;
        ++hits_;
        return {true, false};
      }
      if (!l.valid) {
        victim = &l;
      } else if (victim->valid && l.last_use < victim->last_use) {
        victim = &l;
      }
    }
    ++misses_;
    CacheResult result{false, victim->valid && victim->dirty};
    if (result.writeback) ++writebacks_;
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = write;
    victim->last_use = clock_;
    return result;
  }

  [[nodiscard]] bool contains(std::uint64_t addr) const noexcept {
    const std::uint64_t block = addr >> line_shift_;
    const std::uint32_t set = static_cast<std::uint32_t>(block & (sets_ - 1));
    const std::uint64_t tag = block >> set_shift_;
    const Line* row = &lines_[static_cast<std::size_t>(set) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (row[w].valid && row[w].tag == tag) return true;
    }
    return false;
  }

  void flush() noexcept {
    for (Line& l : lines_) {
      l.valid = false;
      l.dirty = false;
    }
  }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t writebacks() const noexcept {
    return writebacks_;
  }
  [[nodiscard]] std::uint32_t line_bytes() const noexcept { return line_; }
  [[nodiscard]] std::uint32_t sets() const noexcept { return sets_; }

 private:
  static constexpr std::uint32_t log2_u32(std::uint32_t v) {
    std::uint32_t n = 0;
    while (v > 1) {
      v >>= 1;
      ++n;
    }
    return n;
  }

  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
    bool dirty = false;
  };

  std::uint32_t line_ = 0;
  std::uint32_t line_shift_ = 0;
  std::uint32_t sets_ = 0;
  std::uint32_t set_shift_ = 0;
  std::uint32_t ways_ = 0;
  std::vector<Line> lines_;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t writebacks_ = 0;
};

}  // namespace fhp::tlb::reference
