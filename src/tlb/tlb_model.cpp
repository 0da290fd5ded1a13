#include "tlb/tlb_model.hpp"

#include <algorithm>
#include <bit>

#include "support/error.hpp"

namespace fhp::tlb {

TlbModel::TlbModel(const TlbGeometry& geometry) {
  FHP_REQUIRE(geometry.entries > 0, "TLB must have at least one entry");
  if (geometry.ways == 0 || geometry.ways >= geometry.entries) {
    sets_ = 1;
    ways_ = geometry.entries;
  } else {
    FHP_REQUIRE(geometry.entries % geometry.ways == 0,
                "TLB entries must divide evenly into ways");
    sets_ = geometry.entries / geometry.ways;
    ways_ = geometry.ways;
    FHP_REQUIRE(std::has_single_bit(sets_),
                "TLB set count must be a power of two");
  }
  keys_.resize(static_cast<std::size_t>(sets_) * ways_);
  fill_.resize(sets_);
  // At least four slots per entry keeps linear-probe runs short.
  const std::uint64_t slots =
      std::bit_ceil(std::uint64_t{4} * geometry.entries);
  index_.assign(slots, kNoKey);
  index_mask_ = slots - 1;
  index_shift_ = 64 - std::countr_zero(slots);
}

FHP_NO_ALLOC void TlbModel::install(std::uint64_t key) noexcept {
  ++misses_;
  const std::uint32_t set =
      static_cast<std::uint32_t>((key >> kShiftBits) & (sets_ - 1));
  std::uint64_t* row = &keys_[static_cast<std::size_t>(set) * ways_];
  std::uint32_t& fill = fill_[set];
  std::uint32_t way;
  if (fill < ways_) {
    way = fill++;
  } else {
    // Pseudo-random replacement (deterministic xorshift64).
    prng_ ^= prng_ << 13;
    prng_ ^= prng_ >> 7;
    prng_ ^= prng_ << 17;
    way = static_cast<std::uint32_t>(prng_ % ways_);
    index_erase(row[way]);
  }
  row[way] = key;
  index_insert(key);
}

FHP_NO_ALLOC void TlbModel::index_insert(std::uint64_t key) noexcept {
  std::uint64_t i = home(key);
  while (index_[i] != kNoKey) i = (i + 1) & index_mask_;
  index_[i] = key;
}

FHP_NO_ALLOC void TlbModel::index_erase(std::uint64_t key) noexcept {
  std::uint64_t hole = home(key);
  while (index_[hole] != key) hole = (hole + 1) & index_mask_;
  // Backward-shift deletion: pull each later key of the probe run into
  // the hole unless that would move it in front of its home slot.
  for (std::uint64_t i = (hole + 1) & index_mask_; index_[i] != kNoKey;
       i = (i + 1) & index_mask_) {
    const std::uint64_t from_home = (i - home(index_[i])) & index_mask_;
    if (from_home >= ((i - hole) & index_mask_)) {
      index_[hole] = index_[i];
      hole = i;
    }
  }
  index_[hole] = kNoKey;
}

void TlbModel::flush() noexcept {
  std::fill(fill_.begin(), fill_.end(), 0u);
  std::fill(index_.begin(), index_.end(), kNoKey);
}

}  // namespace fhp::tlb
