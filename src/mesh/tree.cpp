#include "mesh/tree.hpp"

#include <algorithm>

namespace fhp::mesh {

BlockTree::BlockTree(const MeshConfig& config) : config_(config) {
  config_.validate();
  blocks_.resize(static_cast<std::size_t>(config_.maxblocks));
  free_list_.reserve(blocks_.size());
  for (int id = config_.maxblocks - 1; id >= 0; --id) {
    free_list_.push_back(id);
  }
}

std::uint64_t BlockTree::key(int level,
                             const std::array<std::int32_t, 3>& c) const {
  // 5 bits of level, 19 bits per coordinate (plenty: level 16 of a 8-root
  // grid is 2^18 blocks per axis).
  return (static_cast<std::uint64_t>(level) << 57) |
         (static_cast<std::uint64_t>(c[0] & 0x7ffff) << 38) |
         (static_cast<std::uint64_t>(c[1] & 0x7ffff) << 19) |
         static_cast<std::uint64_t>(c[2] & 0x7ffff);
}

int BlockTree::allocate_slot() {
  if (free_list_.empty()) {
    throw SystemError(
        "maxblocks (" + std::to_string(config_.maxblocks) +
            ") exhausted — increase MeshConfig::maxblocks",
        0);
  }
  const int id = free_list_.back();
  free_list_.pop_back();
  blocks_[static_cast<std::size_t>(id)] = BlockInfo{};
  blocks_[static_cast<std::size_t>(id)].in_use = true;
  ++allocated_;
  return id;
}

void BlockTree::create_roots() {
  FHP_REQUIRE(allocated_ == 0, "create_roots called on a non-empty tree");
  const auto& nr = config_.nroot;
  const int nz = config_.ndim >= 3 ? nr[2] : 1;
  for (std::int32_t kz = 0; kz < nz; ++kz) {
    for (std::int32_t jy = 0; jy < nr[1]; ++jy) {
      for (std::int32_t ix = 0; ix < nr[0]; ++ix) {
        const int id = allocate_slot();
        BlockInfo& b = blocks_[static_cast<std::size_t>(id)];
        b.level = 1;
        b.coord = {ix, jy, kz};
        b.is_leaf = true;
        index_[key(1, b.coord)] = id;
      }
    }
  }
}

std::vector<int> BlockTree::leaves_morton() const {
  struct Item {
    std::uint64_t morton;
    int level;
    int id;
  };
  std::vector<Item> items;
  items.reserve(static_cast<std::size_t>(allocated_));
  const int finest = finest_level();
  for (int id = 0; id < capacity(); ++id) {
    const BlockInfo& b = blocks_[static_cast<std::size_t>(id)];
    if (!b.in_use || !b.is_leaf) continue;
    // Scale coordinates to the finest level, then interleave bits.
    const int shift = finest - b.level;
    std::uint64_t m = 0;
    for (int bit = 0; bit < 21; ++bit) {
      for (int d = 0; d < 3; ++d) {
        const std::uint64_t c = static_cast<std::uint64_t>(
                                    b.coord[static_cast<std::size_t>(d)])
                                << shift;
        m |= ((c >> bit) & 1ull) << (3 * bit + d);
      }
    }
    items.push_back({m, b.level, id});
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.morton != b.morton ? a.morton < b.morton : a.level < b.level;
  });
  std::vector<int> out;
  out.reserve(items.size());
  for (const Item& it : items) out.push_back(it.id);
  return out;
}

std::vector<int> BlockTree::blocks_at_level(int level) const {
  std::vector<int> out;
  for (int id = 0; id < capacity(); ++id) {
    const BlockInfo& b = blocks_[static_cast<std::size_t>(id)];
    if (b.in_use && b.level == level) out.push_back(id);
  }
  return out;
}

int BlockTree::finest_level() const noexcept {
  int finest = 0;
  for (const BlockInfo& b : blocks_) {
    if (b.in_use) finest = std::max(finest, b.level);
  }
  return finest;
}

int BlockTree::find(int level,
                    const std::array<std::int32_t, 3>& coord) const {
  const auto it = index_.find(key(level, coord));
  return it == index_.end() ? -1 : it->second;
}

NeighborQuery BlockTree::neighbor(int id,
                                  const std::array<int, 3>& step) const {
  const BlockInfo& b = info(id);
  std::array<std::int32_t, 3> c = b.coord;
  for (int d = 0; d < config_.ndim; ++d) {
    c[static_cast<std::size_t>(d)] += step[static_cast<std::size_t>(d)];
    const std::int32_t extent = level_extent(b.level, d);
    if (c[static_cast<std::size_t>(d)] < 0 ||
        c[static_cast<std::size_t>(d)] >= extent) {
      const int side = step[static_cast<std::size_t>(d)] < 0 ? 0 : 1;
      if (config_.bc[static_cast<std::size_t>(d)]
                    [static_cast<std::size_t>(side)] == Bc::kPeriodic) {
        c[static_cast<std::size_t>(d)] =
            (c[static_cast<std::size_t>(d)] + extent) % extent;
      } else {
        return {-1, true};
      }
    }
  }
  return {find(b.level, c), false};
}

std::array<double, 3> BlockTree::block_lo(int id) const {
  const BlockInfo& b = info(id);
  std::array<double, 3> lo = config_.lo;
  for (int d = 0; d < config_.ndim; ++d) {
    const auto dd = static_cast<std::size_t>(d);
    const double width = (config_.hi[dd] - config_.lo[dd]) /
                         level_extent(b.level, d);
    lo[dd] = config_.lo[dd] + width * b.coord[dd];
  }
  return lo;
}

std::array<double, 3> BlockTree::block_hi(int id) const {
  const BlockInfo& b = info(id);
  std::array<double, 3> hi = config_.hi;
  for (int d = 0; d < config_.ndim; ++d) {
    const auto dd = static_cast<std::size_t>(d);
    const double width = (config_.hi[dd] - config_.lo[dd]) /
                         level_extent(b.level, d);
    hi[dd] = config_.lo[dd] + width * (b.coord[dd] + 1);
  }
  return hi;
}

double BlockTree::cell_size(int level, int axis) const noexcept {
  const auto a = static_cast<std::size_t>(axis);
  const int zones = axis == 0 ? config_.nxb : (axis == 1 ? config_.nyb : config_.nzb);
  return (config_.hi[a] - config_.lo[a]) /
         (static_cast<double>(level_extent(level, axis)) * zones);
}

std::array<int, 8> BlockTree::refine(int id) {
  BlockInfo& parent = blocks_[static_cast<std::size_t>(id)];
  FHP_REQUIRE(parent.in_use && parent.is_leaf, "can only refine a leaf");
  FHP_REQUIRE(parent.level < config_.max_level,
              "refine would exceed max_level");

  std::array<int, 8> kids{-1, -1, -1, -1, -1, -1, -1, -1};
  const int n = config_.nchildren();
  for (int c = 0; c < n; ++c) {
    const int kid = allocate_slot();
    kids[static_cast<std::size_t>(c)] = kid;
  }
  // allocate_slot may not reallocate blocks_ (fixed capacity), so the
  // parent reference stays valid.
  for (int c = 0; c < n; ++c) {
    const int kid = kids[static_cast<std::size_t>(c)];
    BlockInfo& child = blocks_[static_cast<std::size_t>(kid)];
    child.parent = id;
    child.level = parent.level + 1;
    child.coord = {2 * parent.coord[0] + (c & 1),
                   2 * parent.coord[1] + ((c >> 1) & 1),
                   config_.ndim >= 3 ? 2 * parent.coord[2] + ((c >> 2) & 1)
                                     : 0};
    child.is_leaf = true;
    index_[key(child.level, child.coord)] = kid;
  }
  parent.children = kids;
  parent.is_leaf = false;
  return kids;
}

void BlockTree::derefine(int id) {
  BlockInfo& parent = blocks_[static_cast<std::size_t>(id)];
  FHP_REQUIRE(parent.in_use && !parent.is_leaf,
              "derefine needs a block with children");
  const int n = config_.nchildren();
  for (int c = 0; c < n; ++c) {
    const int kid = parent.children[static_cast<std::size_t>(c)];
    const BlockInfo& child = blocks_[static_cast<std::size_t>(kid)];
    FHP_REQUIRE(child.is_leaf, "derefine requires leaf children");
    index_.erase(key(child.level, child.coord));
    blocks_[static_cast<std::size_t>(kid)].in_use = false;
    free_list_.push_back(kid);
    --allocated_;
  }
  parent.children.fill(-1);
  parent.is_leaf = true;
}

bool BlockTree::is_balanced() const {
  // A leaf at level L may not touch (share a face/edge/corner with) any
  // block at level >= L+2. Check by probing all finer-by-2 positions.
  for (int id = 0; id < capacity(); ++id) {
    const BlockInfo& b = blocks_[static_cast<std::size_t>(id)];
    if (!b.in_use || !b.is_leaf) continue;
    for (int dz = (config_.ndim >= 3 ? -1 : 0);
         dz <= (config_.ndim >= 3 ? 1 : 0); ++dz) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0 && dz == 0) continue;
          const NeighborQuery q = neighbor(id, {dx, dy, dz});
          if (q.id < 0) continue;
          const BlockInfo& nb = info(q.id);
          if (!nb.is_leaf) {
            // Neighbor has children at L+1; if a child that touches our
            // leaf also has children (level L+2 adjacent to us) the mesh
            // is unbalanced.
            for (int c = 0; c < config_.nchildren(); ++c) {
              const int kid = nb.children[static_cast<std::size_t>(c)];
              if (kid < 0 || info(kid).is_leaf) continue;
              const BlockInfo& grand = info(kid);
              bool adjacent = true;
              for (int d = 0; d < config_.ndim; ++d) {
                const auto dd = static_cast<std::size_t>(d);
                const std::int32_t lo2 = 2 * b.coord[dd] - 1;
                const std::int32_t hi2 = 2 * b.coord[dd] + 2;
                // Compare in unwrapped space: along a periodic axis, shift
                // the child coordinate across the wrap the step took. A
                // non-periodic axis has no wrap to take.
                std::int32_t cc = grand.coord[dd];
                if (config_.bc[dd][0] == Bc::kPeriodic) {
                  const std::int32_t extent2 = level_extent(b.level + 1, d);
                  if (cc < lo2) cc += extent2;
                  if (cc > hi2 && cc - extent2 >= lo2) cc -= extent2;
                }
                if (cc < lo2 || cc > hi2) {
                  adjacent = false;
                  break;
                }
              }
              if (adjacent) return false;
            }
          }
        }
      }
    }
  }
  return true;
}

}  // namespace fhp::mesh
