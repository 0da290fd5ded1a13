/// \file tlb_model.hpp
/// \brief Set-associative TLB with mixed page sizes and pseudo-random
///        replacement.
///
/// Entries tag the virtual page number *and* the page size: a translation
/// cached for a 4 KiB page cannot serve a 2 MiB lookup and vice versa.
/// Set indexing uses the VPN low bits (as real L2 TLBs do); a fully
/// associative geometry (ways == 0) is a single set — the A64FX L1 DTLB
/// shape.
///
/// A lookup never scans a set. Each resident translation is one 64-bit
/// key, (vpn << 6) | page_shift, and every key is also held in one
/// open-addressed hash set (linear probing, load at most 1/4), so a hit
/// or a miss costs one hashed probe at any associativity. The per-set key
/// table is touched only on a miss, to choose and evict the victim.

#pragma once

#include <cstdint>
#include <vector>

#include "support/contracts.hpp"
#include "tlb/geometry.hpp"

namespace fhp::tlb {

/// One translation lookaside buffer level.
///
/// Replacement is pseudo-random (deterministic xorshift), matching ARM
/// TLB behaviour: a cyclic working set slightly larger than the capacity
/// degrades gracefully instead of the 100%-miss pathology of true LRU —
/// the regime FLASH's EOS table gathers live in on the A64FX.
class TlbModel {
 public:
  /// Page shifts a lookup accepts: the key keeps the shift in its low 6
  /// bits, so the VPN must fit in the other 58.
  static constexpr std::uint8_t kMinPageShift = 6;
  static constexpr std::uint8_t kMaxPageShift = 63;

  explicit TlbModel(const TlbGeometry& geometry);

  /// Look up the page containing \p addr on pages of 2^page_shift bytes
  /// (shift in [kMinPageShift, kMaxPageShift]). On hit returns true. On
  /// miss returns false and installs the translation: in the set's first
  /// free way while it has one, else over a pseudo-random way.
  FHP_NO_ALLOC bool access(std::uint64_t addr, std::uint8_t page_shift) {
    const std::uint64_t key = key_of(addr, page_shift);
    if (indexed(key)) {
      ++hits_;
      return true;
    }
    install(key);
    return false;
  }

  /// Look up without installing (for tests / probing).
  [[nodiscard]] bool contains(std::uint64_t addr,
                              std::uint8_t page_shift) const {
    return indexed(key_of(addr, page_shift));
  }

  /// Drop all entries (context switch / between experiment arms).
  void flush() noexcept;

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint32_t sets() const noexcept { return sets_; }
  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_; }

 private:
  static constexpr int kShiftBits = 6;
  /// Marks a free index slot. Real keys carry a shift >= 6 in their low
  /// bits, so none is zero.
  static constexpr std::uint64_t kNoKey = 0;

  [[nodiscard]] static std::uint64_t key_of(std::uint64_t addr,
                                            std::uint8_t page_shift) {
    FHP_PRECONDITION(
        page_shift >= kMinPageShift && page_shift <= kMaxPageShift,
        "TLB page shift must lie in [6, 63]");
    return (addr >> page_shift) << kShiftBits | page_shift;
  }

  /// Home slot of \p key in the index (Fibonacci hashing).
  [[nodiscard]] std::uint64_t home(std::uint64_t key) const noexcept {
    return (key * 0x9e3779b97f4a7c15ull) >> index_shift_;
  }

  [[nodiscard]] bool indexed(std::uint64_t key) const noexcept {
    for (std::uint64_t i = home(key);; i = (i + 1) & index_mask_) {
      if (index_[i] == key) return true;
      if (index_[i] == kNoKey) return false;
    }
  }

  /// The miss path: pick the victim way, swap the keys in the index.
  FHP_NO_ALLOC void install(std::uint64_t key) noexcept;
  FHP_NO_ALLOC void index_insert(std::uint64_t key) noexcept;
  FHP_NO_ALLOC void index_erase(std::uint64_t key) noexcept;

  std::uint32_t sets_;
  std::uint32_t ways_;
  /// sets_ x ways_ keys, row-major by set. Installs take the first free
  /// way and nothing frees a single entry, so a set's valid keys are
  /// always its first fill_[set] ways.
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> fill_;
  /// Every valid key, open-addressed; kNoKey marks a free slot.
  std::vector<std::uint64_t> index_;
  std::uint64_t index_mask_ = 0;
  int index_shift_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t prng_ = 0x2545f4914f6cdd1dull;  // xorshift64 state
};

}  // namespace fhp::tlb
