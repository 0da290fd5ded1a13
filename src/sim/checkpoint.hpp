/// \file checkpoint.hpp
/// \brief Checkpoint I/O: serialize and restore the full mesh state.
///
/// FLASH writes HDF5 checkpoints from which a run can restart bit-exactly.
/// flashhp uses a self-describing little-endian binary format (no HDF5
/// dependency): header + tree topology + per-leaf interior data. Restoring
/// rebuilds the tree by replaying refinements coarse-to-fine and scatters
/// the leaf interiors back; every reader of guard cells fills the faces
/// it reads first, so a restarted run continues identically.

#pragma once

#include <string>

#include "mesh/amr_mesh.hpp"

namespace fhp::sim {

/// Run metadata stored alongside the mesh.
struct CheckpointInfo {
  double sim_time = 0.0;
  int step = 0;
};

/// Write mesh + info to \p path. Throws fhp::SystemError on I/O failure.
void write_checkpoint(const std::string& path, const mesh::AmrMesh& mesh,
                      const CheckpointInfo& info);

/// Restore into \p mesh, which must have been constructed with the same
/// MeshConfig the checkpoint was written from (validated field by field;
/// mismatch throws fhp::ConfigError). Returns the stored run metadata.
CheckpointInfo read_checkpoint(const std::string& path, mesh::AmrMesh& mesh);

}  // namespace fhp::sim
