/// \file monopole.hpp
/// \brief Monopole (multipole l=0) self-gravity.
///
/// FLASH's supernova deflagration models use multipole self-gravity; the
/// dominant term for a nearly spherical white dwarf is the monopole:
/// g(R) = -G M(<R) / R^2 pointing at the stellar center. update() bins
/// the current mesh density into spherical mass shells; accel() returns
/// the acceleration vector at a point. Works in 2-d cylindrical (r, z)
/// where the spherical radius is sqrt(r^2 + (z - zc)^2) and in 3-d
/// Cartesian.

#pragma once

#include <array>
#include <vector>

#include "mesh/amr_mesh.hpp"

namespace fhp::gravity {

/// Monopole gravity solver.
class MonopoleGravity {
 public:
  /// \param center stellar center in domain coordinates. For cylindrical
  ///        meshes the first component must be 0 (the axis).
  /// \param nshells radial bins for the mass profile.
  explicit MonopoleGravity(std::array<double, 3> center = {0, 0, 0},
                           int nshells = 512);

  /// Rebuild M(<R) from the current leaf densities.
  void update(const mesh::AmrMesh& mesh);

  /// Enclosed mass at spherical radius R [g].
  [[nodiscard]] double enclosed_mass(double radius) const;

  /// Acceleration vector at a point (components follow mesh axes).
  [[nodiscard]] std::array<double, 3> accel(double x, double y,
                                            double z) const;

  /// Magnitude of g at spherical radius R.
  [[nodiscard]] double g_at(double radius) const;

  [[nodiscard]] double total_mass() const noexcept { return total_mass_; }

  /// Apply the gravitational source term to every leaf (momentum and
  /// energy), operator-split: u += g dt, ener += u_new . g dt.
  void apply_source(mesh::AmrMesh& mesh, double dt) const;

 private:
  std::array<double, 3> center_;
  int nshells_;
  double rmax_ = 0.0;
  double total_mass_ = 0.0;
  std::vector<double> enclosed_;  ///< cumulative mass at shell edges
};

}  // namespace fhp::gravity
