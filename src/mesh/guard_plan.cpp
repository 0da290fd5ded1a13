#include "mesh/guard_plan.hpp"

#include <algorithm>

#include "support/contracts.hpp"
#include "support/error.hpp"

namespace fhp::mesh {

namespace {

/// The coarser leaf under face \p step of leaf \p b, where b has no
/// same-level neighbor: the parent position of the (periodically wrapped)
/// neighbor position. Every guard zone of that face interpolates from it.
int coarse_cover(const BlockTree& tree, int b, const std::array<int, 3>& step) {
  const BlockInfo& info = tree.info(b);
  FHP_CHECK(info.level >= 2, "coarse fill on a level-1 block");
  std::array<std::int32_t, 3> coord{0, 0, 0};
  for (int d = 0; d < tree.config().ndim; ++d) {
    const auto dd = static_cast<std::size_t>(d);
    const std::int32_t extent = tree.level_extent(info.level, d);
    coord[dd] = ((info.coord[dd] + step[dd] + extent) % extent) >> 1;
  }
  const int cover = tree.find(info.level - 1, coord);
  FHP_CHECK(cover >= 0, "2:1 balance violated: no coarse cover block");
  return cover;
}

/// Guard zones of one face slab along \p axis: nguard deep, interior
/// wide.
std::int64_t face_zones(const MeshConfig& c, int axis) {
  const std::array<int, 3> nb = {c.nxb, c.nyb, c.nzb};
  std::int64_t zones = c.nguard;
  for (int d = 0; d < c.ndim; ++d) {
    if (d != axis) zones *= nb[static_cast<std::size_t>(d)];
  }
  return zones;
}

void note(std::vector<int>& list, int id) {
  if (std::find(list.begin(), list.end(), id) == list.end()) {
    list.push_back(id);
  }
}

}  // namespace

GuardPlan plan_guards(const BlockTree& tree, FaceMask leaf_faces) {
  const MeshConfig& c = tree.config();
  const FaceMask every_face = all_faces(c.ndim);
  FHP_PRECONDITION(leaf_faces != 0 && (leaf_faces & ~every_face) == 0,
                   "leaf face mask must name faces of this mesh's axes");
  const int finest = tree.finest_level();
  const auto slots = static_cast<std::size_t>(tree.capacity());

  // Face masks, finest level first: a fine leaf's coarse faces plan all
  // faces of their cover one level down, before that level is visited.
  std::vector<FaceMask> faces(slots, 0);
  for (int level = finest; level >= 1; --level) {
    for (const int b : tree.blocks_at_level(level)) {
      if (!tree.info(b).is_leaf) continue;
      FaceMask& mask = faces[static_cast<std::size_t>(b)];
      mask |= leaf_faces;
      for (int axis = 0; axis < c.ndim; ++axis) {
        for (int side = 0; side < 2; ++side) {
          if ((mask & face_bit(axis, side)) == 0) continue;
          const std::array<int, 3> step = face_step(axis, side);
          const NeighborQuery q = tree.neighbor(b, step);
          if (q.outside_domain || q.id >= 0) continue;
          faces[static_cast<std::size_t>(coarse_cover(tree, b, step))] =
              every_face;
        }
      }
    }
  }

  // Fills coarse to fine, with their sources; mark the parents they copy.
  GuardPlan plan;
  std::vector<char> restrict_mark(slots, 0);
  for (int level = 1; level <= finest; ++level) {
    for (const int b : tree.blocks_at_level(level)) {
      const FaceMask mask = faces[static_cast<std::size_t>(b)];
      if (mask == 0) continue;
      GuardFill fill;
      fill.block = b;
      fill.faces = mask;
      for (int axis = 0; axis < c.ndim; ++axis) {
        for (int side = 0; side < 2; ++side) {
          if ((mask & face_bit(axis, side)) == 0) continue;
          plan.guard_zones += face_zones(c, axis);
          const std::array<int, 3> step = face_step(axis, side);
          const NeighborQuery q = tree.neighbor(b, step);
          if (q.outside_domain) continue;  // physical boundary: own data
          if (q.id >= 0) {
            if (!tree.info(q.id).is_leaf) {
              restrict_mark[static_cast<std::size_t>(q.id)] = 1;
            } else if (q.id != b) {  // a periodic self-wrap reads itself
              note(fill.reads, q.id);
            }
            continue;
          }
          const int cover = coarse_cover(tree, b, step);
          note(fill.reads, cover);
          note(fill.covers, cover);
        }
      }
      plan.fills.push_back(std::move(fill));
    }
  }

  // A parent's interior is restricted from its children's, so every
  // non-leaf descendant of a marked parent is restricted too, first.
  for (int level = 1; level <= finest; ++level) {
    for (const int b : tree.blocks_at_level(level)) {
      if (restrict_mark[static_cast<std::size_t>(b)] == 0) continue;
      const BlockInfo& info = tree.info(b);
      for (int n = 0; n < c.nchildren(); ++n) {
        const int child = info.children[static_cast<std::size_t>(n)];
        if (!tree.info(child).is_leaf) {
          restrict_mark[static_cast<std::size_t>(child)] = 1;
        }
      }
    }
  }
  for (int level = finest; level >= 1; --level) {
    for (const int b : tree.blocks_at_level(level)) {
      if (restrict_mark[static_cast<std::size_t>(b)] != 0) {
        plan.restricts.push_back(b);
      }
    }
  }
  return plan;
}

}  // namespace fhp::mesh
