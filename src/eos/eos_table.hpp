/// \file eos_table.hpp
/// \brief Tabulated electron/positron EOS — the production path.
///
/// FLASH's Helmholtz EOS does not evaluate Fermi–Dirac integrals per zone;
/// it interpolates a pre-built table (helm_table.dat) indexed by
/// (rho*Ye, T), then adds analytic ions and radiation. HelmTable is that
/// table: 16 quantity planes (P, E, S, eta and their d/d(rhoYe), d/dT and
/// cross derivatives) on a log-log grid, interpolated with bicubic
/// Hermite patches whose analytic partials supply dP/drho and dP/dT
/// consistently with the interpolated P.
///
/// The table lives on a MappedRegion under a chosen HugePolicy: its
/// per-zone 4x4-stencil gathers are part of the address stream the paper's
/// EOS experiment measures. trace_interpolate() replays exactly the bytes
/// interpolate() touches into the machine model.
///
/// Building the table evaluates the direct HelmholtzEos at every node
/// (tens of seconds); build_or_load() caches the result in a binary file,
/// by default one per grid in the build tree (cache_path()).

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "eos/eos_types.hpp"
#include "eos/helmholtz_eos.hpp"
#include "mem/allocator.hpp"
#include "mem/huge_policy.hpp"
#include "tlb/trace.hpp"

namespace fhp::eos {

/// Grid specification (log10 axes, inclusive bounds). The default matches
/// FLASH's helm_table.dat resolution (541 density x 201 temperature
/// points); with 16 quantity planes the table is ~14 MiB — far beyond the
/// 4 MiB a 1024-entry L2 TLB covers with 4 KiB pages, which is exactly
/// why the paper's EOS test was so TLB-hungry.
struct HelmTableSpec {
  double log_rho_min = -6.0;  ///< log10(rho * Ye) lower bound
  double log_rho_max = 11.0;
  int nrho = 541;
  double log_temp_min = 4.0;  ///< log10(T) lower bound
  double log_temp_max = 11.0;
  int ntemp = 201;

  [[nodiscard]] bool operator==(const HelmTableSpec&) const = default;
};

/// The tabulated e+/e- quantities at one evaluation point.
struct EpInterp {
  double p = 0, p_d = 0, p_t = 0;  ///< pressure and partials (d = d/d rhoYe)
  double e = 0, e_d = 0, e_t = 0;  ///< energy density and partials
  double s = 0, s_t = 0;           ///< entropy density
  double eta = 0;                  ///< degeneracy parameter
};

/// The table itself (owning its storage).
class HelmTable {
 public:
  /// Build by direct evaluation over the grid (expensive). Storage is
  /// carved from \p pool — always explicit; runtime callers pass
  /// `runtime.page_pool()`.
  static HelmTable build(const HelmTableSpec& spec, mem::HugePolicy policy,
                         mem::PagePool& pool);

  /// Load from \p path if it exists and matches \p spec; else build and
  /// save to \p path (best-effort; an unwritable path just skips caching).
  static HelmTable build_or_load(const HelmTableSpec& spec,
                                 mem::HugePolicy policy, mem::PagePool& pool,
                                 const std::string& path);

  /// build_or_load() through the spec's own cache file, cache_path(spec).
  static HelmTable build_or_load(const HelmTableSpec& spec,
                                 mem::HugePolicy policy, mem::PagePool& pool);

  /// The cache file of \p spec: named after the grid, in the directory
  /// fixed when the library was configured (its build tree). Every
  /// program that asks for one grid shares one file, whatever its working
  /// directory.
  [[nodiscard]] static std::string cache_path(const HelmTableSpec& spec);

  /// Load only; nullopt if the file is missing or spec/version mismatch.
  static std::optional<HelmTable> load(const HelmTableSpec& spec,
                                       mem::HugePolicy policy,
                                       mem::PagePool& pool,
                                       const std::string& path);

  /// Persist to a binary cache file. The bytes go to a temporary file in
  /// the same directory, which is then renamed over \p path: a concurrent
  /// load() sees the old file or the new one, never a torn mix, and a
  /// reader that already has the file open keeps reading the old one.
  /// Throws fhp::SystemError on IO error (the temporary file is removed).
  void save(const std::string& path) const;

  /// Bicubic-Hermite interpolation at (rho_ye, temp). Out-of-range inputs
  /// throw fhp::NumericsError.
  [[nodiscard]] EpInterp interpolate(double rho_ye, double temp) const;

  /// Replay the exact table bytes interpolate() touches for one zone.
  /// \param full true: all 16 planes (a complete state fill); false: only
  ///        the P and E groups — what each intermediate Newton iteration
  ///        of the (rho, e) inversion reads.
  void trace_interpolate(tlb::Tracer& tracer, double rho_ye, double temp,
                         bool full = true) const;

  [[nodiscard]] const HelmTableSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const mem::MappedRegion& region() const noexcept {
    return storage_.region();
  }
  [[nodiscard]] std::size_t bytes() const noexcept {
    return storage_.size() * sizeof(double);
  }

  /// Cache the effective translation page size for tracing (scans smaps
  /// once). Called by the benchmarks after the table is resident.
  void refresh_page_shift() { page_shift_ = tlb::effective_page_shift(region()); }
  [[nodiscard]] std::uint8_t page_shift() const noexcept { return page_shift_; }

  /// Quantity planes; public for tests.
  enum Plane : std::size_t {
    kP = 0, kPd, kPt, kPdt,
    kE, kEd, kEt, kEdt,
    kS, kSd, kSt, kSdt,
    kEta, kEtaD, kEtaT, kEtaDt,
    kNumPlanes,
  };

  /// Nodal value accessor (i = rho index, j = temp index); for tests.
  [[nodiscard]] double node(Plane plane, int i, int j) const noexcept {
    return plane_data(plane)[static_cast<std::size_t>(j) *
                                 static_cast<std::size_t>(spec_.nrho) +
                             static_cast<std::size_t>(i)];
  }

 private:
  HelmTable(const HelmTableSpec& spec, mem::HugePolicy policy,
            mem::PagePool& pool);

  [[nodiscard]] const double* plane_data(Plane plane) const noexcept {
    return storage_.data() +
           static_cast<std::size_t>(plane) * plane_elems_;
  }
  [[nodiscard]] double* plane_data(Plane plane) noexcept {
    return storage_.data() + static_cast<std::size_t>(plane) * plane_elems_;
  }

  /// Locate the cell and unit coordinates for (rho_ye, temp).
  struct Cell {
    int i, j;        ///< lower-left node
    double u, v;     ///< unit coordinates in the cell
    double dx, dy;   ///< physical-to-unit derivative scale handled per node
  };
  [[nodiscard]] Cell locate(double rho_ye, double temp) const;

  HelmTableSpec spec_;
  std::size_t plane_elems_ = 0;
  mem::HugeBuffer<double> storage_;
  std::uint8_t page_shift_ = 12;
};

/// The production EOS: table for e+/e-, analytic ions and radiation.
class HelmTableEos final : public Eos {
 public:
  explicit HelmTableEos(std::shared_ptr<const HelmTable> table)
      : table_(std::move(table)) {}

  void eval(Mode mode, std::span<State> row) const override;

  /// (rho, T) evaluation (other modes Newton-wrap this).
  void eval_dens_temp(State& s) const;

  /// Replay the table-side memory behaviour of eval() for one row into
  /// the machine model (the unk-side accesses are traced by the caller).
  void trace_eval(tlb::Tracer& tracer, Mode mode,
                  std::span<const State> row) const;

  [[nodiscard]] const HelmTable& table() const noexcept { return *table_; }

 private:
  std::shared_ptr<const HelmTable> table_;
};

}  // namespace fhp::eos
