#include "sim/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/log.hpp"

namespace fhp::sim {

namespace {

// Format 3: zone vectors are serialized in *canonical* (variable-fastest)
// order via gather/scatter regardless of the in-memory BlockLayout, and
// the writer's layout kind is recorded in the header — informational
// provenance only, so a checkpoint written under either layout restores
// exactly under the other.
constexpr char kMagic[8] = {'F', 'H', 'P', 'C', 'K', 'P', 'T', '3'};

// Provenance of files written under the since-deleted tiled layout. Their
// zone data is canonical like any other, so they keep restoring.
constexpr std::int32_t kLegacyTiledProvenance = 2;

/// The config fields that must match for a restart to make sense.
struct ConfigRecord {
  std::int32_t ndim, nxb, nyb, nzb, nguard, nscalars, max_level;
  std::int32_t nroot[3];
  std::int32_t geometry;
  std::int32_t bc[3][2];
  double lo[3], hi[3];
};

ConfigRecord make_record(const mesh::MeshConfig& c) {
  ConfigRecord r{};
  r.ndim = c.ndim;
  r.nxb = c.nxb;
  r.nyb = c.nyb;
  r.nzb = c.nzb;
  r.nguard = c.nguard;
  r.nscalars = c.nscalars;
  r.max_level = c.max_level;
  for (int d = 0; d < 3; ++d) {
    const auto dd = static_cast<std::size_t>(d);
    r.nroot[d] = c.nroot[dd];
    r.lo[d] = c.lo[dd];
    r.hi[d] = c.hi[dd];
    r.bc[d][0] = static_cast<std::int32_t>(c.bc[dd][0]);
    r.bc[d][1] = static_cast<std::int32_t>(c.bc[dd][1]);
  }
  r.geometry = static_cast<std::int32_t>(c.geometry);
  return r;
}

struct LeafRecord {
  std::int32_t level;
  std::int32_t coord[3];
};

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
void read_pod(std::istream& is, T& value) {
  is.read(reinterpret_cast<char*>(&value), sizeof value);
}

}  // namespace

void write_checkpoint(const std::string& path, const mesh::AmrMesh& mesh,
                      const CheckpointInfo& info) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw SystemError("cannot open checkpoint '" + path + "' for writing",
                      errno);
  }
  const mesh::MeshConfig& c = mesh.config();
  out.write(kMagic, sizeof kMagic);
  write_pod(out, make_record(c));
  // Writer's layout — provenance, deliberately NOT part of ConfigRecord's
  // memcmp: any layout restores into any layout.
  write_pod(out,
            static_cast<std::int32_t>(mesh.unk().layout_kind()));
  write_pod(out, info.sim_time);
  write_pod(out, static_cast<std::int64_t>(info.step));

  // Leaves coarse-to-fine so a replay can refine ancestors first. The
  // Morton order within a level is already deterministic.
  std::vector<int> leaves = mesh.tree().leaves_morton();
  std::stable_sort(leaves.begin(), leaves.end(), [&](int a, int b) {
    return mesh.tree().info(a).level < mesh.tree().info(b).level;
  });
  write_pod(out, static_cast<std::int64_t>(leaves.size()));
  for (int id : leaves) {
    const mesh::BlockInfo& b = mesh.tree().info(id);
    LeafRecord rec{b.level, {b.coord[0], b.coord[1], b.coord[2]}};
    write_pod(out, rec);
  }

  // Interior data, canonical var-fastest zone vectors, per leaf in file
  // order — gathered through the layout, so the bytes on disk are
  // identical whatever the in-memory order.
  std::vector<double> zone(static_cast<std::size_t>(c.nvar()));
  for (int id : leaves) {
    for (int k = c.klo(); k < c.khi(); ++k) {
      for (int j = c.jlo(); j < c.jhi(); ++j) {
        for (int i = c.ilo(); i < c.ihi(); ++i) {
          mesh.unk().gather_zone(0, c.nvar(), i, j, k, id, zone.data());
          out.write(reinterpret_cast<const char*>(zone.data()),
                    static_cast<std::streamsize>(sizeof(double) *
                                                 zone.size()));
        }
      }
    }
  }
  if (!out) {
    throw SystemError("write to checkpoint '" + path + "' failed", errno);
  }
  FHP_LOG(kInfo) << "checkpoint written: " << path << " (" << leaves.size()
                 << " leaves, t=" << info.sim_time << ")";
}

CheckpointInfo read_checkpoint(const std::string& path,
                               mesh::AmrMesh& mesh) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SystemError("cannot open checkpoint '" + path + "'", errno);
  }
  char magic[8];
  in.read(magic, sizeof magic);
  FHP_REQUIRE(in && std::memcmp(magic, kMagic, sizeof kMagic) == 0,
              "'" + path + "' is not a flashhp checkpoint");

  ConfigRecord stored{};
  read_pod(in, stored);
  const ConfigRecord current = make_record(mesh.config());
  FHP_REQUIRE(std::memcmp(&stored, &current, sizeof stored) == 0,
              "mesh configuration does not match checkpoint '" + path + "'");

  std::int32_t stored_layout = 0;
  read_pod(in, stored_layout);
  FHP_REQUIRE((stored_layout >= 0 &&
               stored_layout <=
                   static_cast<std::int32_t>(mesh::LayoutKind::kZoneMajor)) ||
                  stored_layout == kLegacyTiledProvenance,
              "checkpoint '" + path + "' carries an unknown block layout");

  CheckpointInfo info;
  read_pod(in, info.sim_time);
  std::int64_t step = 0;
  read_pod(in, step);
  info.step = static_cast<int>(step);

  std::int64_t nleaves = 0;
  read_pod(in, nleaves);
  FHP_REQUIRE(in && nleaves > 0, "corrupt checkpoint leaf count");
  // The count sizes the leaf table below: bound it by what the mesh can
  // hold before anything is allocated or refined.
  FHP_REQUIRE(nleaves <= mesh.tree().capacity(),
              "checkpoint '" + path + "' claims " + std::to_string(nleaves) +
                  " leaves but the mesh holds at most " +
                  std::to_string(mesh.tree().capacity()) + " blocks");

  const mesh::MeshConfig& c = mesh.config();
  const int nroots = c.nroot[0] * c.nroot[1] * (c.ndim >= 3 ? c.nroot[2] : 1);
  FHP_REQUIRE(mesh.tree().num_allocated() == nroots,
              "read_checkpoint needs a freshly constructed mesh");

  // Rebuild the topology: leaves arrive coarse-to-fine, so every leaf's
  // parent chain can be materialized by refining the covering block.
  std::vector<LeafRecord> records(static_cast<std::size_t>(nleaves));
  for (auto& rec : records) read_pod(in, rec);
  for (const LeafRecord& rec : records) {
    for (int level = 1; level < rec.level; ++level) {
      const int shift = rec.level - level;
      const std::array<std::int32_t, 3> cover = {
          rec.coord[0] >> shift,
          rec.coord[1] >> shift,
          c.ndim >= 3 ? rec.coord[2] >> shift : 0};
      const int id = mesh.tree().find(level, cover);
      FHP_REQUIRE(id >= 0, "checkpoint topology is not a valid tree");
      if (mesh.tree().info(id).is_leaf) {
        mesh.refine_block(id);
      }
    }
  }

  // Interior data, in the same file order: canonical zone vectors
  // scattered into whatever layout *this* mesh runs — the cross-layout
  // restore path.
  std::vector<double> zone(static_cast<std::size_t>(c.nvar()));
  for (const LeafRecord& rec : records) {
    const int id = mesh.tree().find(
        rec.level, {rec.coord[0], rec.coord[1], rec.coord[2]});
    FHP_REQUIRE(id >= 0 && mesh.tree().info(id).is_leaf,
                "checkpoint leaf missing after topology replay");
    for (int k = c.klo(); k < c.khi(); ++k) {
      for (int j = c.jlo(); j < c.jhi(); ++j) {
        for (int i = c.ilo(); i < c.ihi(); ++i) {
          in.read(reinterpret_cast<char*>(zone.data()),
                  static_cast<std::streamsize>(sizeof(double) *
                                               zone.size()));
          mesh.unk().scatter_zone(0, c.nvar(), i, j, k, id, zone.data());
        }
      }
    }
  }
  FHP_REQUIRE(static_cast<bool>(in), "checkpoint '" + path + "' truncated");
  FHP_LOG(kInfo) << "checkpoint restored: " << path << " (" << nleaves
                 << " leaves, t=" << info.sim_time << ")";
  return info;
}

}  // namespace fhp::sim
