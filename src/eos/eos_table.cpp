#include "eos/eos_table.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "eos/stellar_terms.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace fhp::eos {

namespace {

constexpr char kMagic[8] = {'F', 'H', 'P', 'H', 'E', 'L', 'M', '2'};
constexpr double kLn10 = 2.302585092994046;

/// Cubic Hermite value bases and their derivatives on [0, 1].
inline void hermite(double t, double h0[2], double h1[2]) noexcept {
  const double t2 = t * t;
  const double t3 = t2 * t;
  h0[0] = 2 * t3 - 3 * t2 + 1;  // value at node 0
  h0[1] = -2 * t3 + 3 * t2;     // value at node 1
  h1[0] = t3 - 2 * t2 + t;      // derivative at node 0
  h1[1] = t3 - t2;              // derivative at node 1
}

inline void hermite_deriv(double t, double d0[2], double d1[2]) noexcept {
  const double t2 = t * t;
  d0[0] = 6 * t2 - 6 * t;
  d0[1] = -6 * t2 + 6 * t;
  d1[0] = 3 * t2 - 4 * t + 1;
  d1[1] = 3 * t2 - 2 * t;
}

/// Validate before any member computes sizes from the spec: a bogus grid
/// shape must throw here, not turn into a huge size_t product that the
/// storage mapping then tries (and fails) to honour.
const HelmTableSpec& validated(const HelmTableSpec& spec) {
  FHP_REQUIRE(spec.nrho >= 4 && spec.ntemp >= 4,
              "helm table needs at least a 4x4 grid");
  FHP_REQUIRE(spec.log_rho_max > spec.log_rho_min &&
                  spec.log_temp_max > spec.log_temp_min,
              "helm table axis bounds are inverted");
  return spec;
}

}  // namespace

HelmTable::HelmTable(const HelmTableSpec& spec, mem::HugePolicy policy,
                     mem::PagePool& pool)
    : spec_(validated(spec)),
      plane_elems_(static_cast<std::size_t>(spec.nrho) *
                   static_cast<std::size_t>(spec.ntemp)),
      storage_(plane_elems_ * kNumPlanes, policy, pool) {}

HelmTable HelmTable::build(const HelmTableSpec& spec, mem::HugePolicy policy,
                           mem::PagePool& pool) {
  HelmTable table(spec, policy, pool);
  const HelmholtzEos direct;

  const double dlr = (spec.log_rho_max - spec.log_rho_min) / (spec.nrho - 1);
  const double dlt = (spec.log_temp_max - spec.log_temp_min) / (spec.ntemp - 1);

  FHP_LOG(kInfo) << "building helm table " << spec.nrho << "x" << spec.ntemp
                 << " (" << table.bytes() / (1 << 20) << " MiB)...";

  auto idx = [&](int i, int j) {
    return static_cast<std::size_t>(j) * static_cast<std::size_t>(spec.nrho) +
           static_cast<std::size_t>(i);
  };

  for (int j = 0; j < spec.ntemp; ++j) {
    const double temp = std::pow(10.0, spec.log_temp_min + j * dlt);
    for (int i = 0; i < spec.nrho; ++i) {
      const double rho_ye = std::pow(10.0, spec.log_rho_min + i * dlr);
      const HelmholtzEos::EpState ep = direct.eval_ep(rho_ye, temp);
      const std::size_t n = idx(i, j);
      table.plane_data(kP)[n] = ep.p;
      table.plane_data(kPd)[n] = ep.p_d;
      table.plane_data(kPt)[n] = ep.p_t;
      table.plane_data(kE)[n] = ep.e;
      table.plane_data(kEd)[n] = ep.e_d;
      table.plane_data(kEt)[n] = ep.e_t;
      table.plane_data(kS)[n] = ep.s;
      table.plane_data(kSt)[n] = ep.s_t;
      table.plane_data(kEta)[n] = ep.eta;
      table.plane_data(kEtaD)[n] = ep.eta_d;
      table.plane_data(kEtaT)[n] = ep.eta_t;
    }
  }

  // Finite-difference passes for the quantities we lack analytically:
  // cross derivatives d2Q/(d rhoYe dT) from the T-derivative planes, and
  // dS/d(rhoYe) from the S plane.
  auto fd_rho = [&](Plane src, Plane dst) {
    for (int j = 0; j < spec.ntemp; ++j) {
      for (int i = 0; i < spec.nrho; ++i) {
        const int il = std::max(0, i - 1);
        const int ih = std::min(spec.nrho - 1, i + 1);
        const double rl = std::pow(10.0, spec.log_rho_min + il * dlr);
        const double rh = std::pow(10.0, spec.log_rho_min + ih * dlr);
        table.plane_data(dst)[idx(i, j)] =
            (table.plane_data(src)[idx(ih, j)] -
             table.plane_data(src)[idx(il, j)]) /
            (rh - rl);
      }
    }
  };
  fd_rho(kPt, kPdt);
  fd_rho(kEt, kEdt);
  fd_rho(kS, kSd);
  fd_rho(kSt, kSdt);
  fd_rho(kEtaT, kEtaDt);

  FHP_LOG(kInfo) << "helm table build complete";
  return table;
}

void HelmTable::save(const std::string& path) const {
  // Unique per process and call: concurrent savers never share the file.
  static std::atomic<unsigned> serial{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(serial.fetch_add(1));
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(kMagic, sizeof kMagic);
  out.write(reinterpret_cast<const char*>(&spec_), sizeof spec_);
  out.write(reinterpret_cast<const char*>(storage_.data()),
            static_cast<std::streamsize>(storage_.size() * sizeof(double)));
  out.close();
  std::error_code ec;
  if (out) std::filesystem::rename(tmp, path, ec);
  if (!out || ec) {
    const int error = ec ? ec.value() : errno;
    std::filesystem::remove(tmp, ec);
    throw SystemError("cannot write '" + path + "' (via '" + tmp + "')",
                      error);
  }
}

std::optional<HelmTable> HelmTable::load(const HelmTableSpec& spec,
                                         mem::HugePolicy policy,
                                         mem::PagePool& pool,
                                         const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  char magic[8] = {};
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    return std::nullopt;
  }
  HelmTableSpec file_spec{};
  in.read(reinterpret_cast<char*>(&file_spec), sizeof file_spec);
  if (!in || !(file_spec == spec)) return std::nullopt;

  HelmTable table(spec, policy, pool);
  in.read(reinterpret_cast<char*>(table.storage_.data()),
          static_cast<std::streamsize>(table.storage_.size() *
                                       sizeof(double)));
  if (!in) return std::nullopt;
  return table;
}

HelmTable HelmTable::build_or_load(const HelmTableSpec& spec,
                                   mem::HugePolicy policy,
                                   mem::PagePool& pool,
                                   const std::string& path) {
  if (!path.empty()) {
    if (auto cached = load(spec, policy, pool, path)) {
      FHP_LOG(kInfo) << "helm table loaded from " << path;
      return std::move(*cached);
    }
  }
  HelmTable table = build(spec, policy, pool);
  if (!path.empty()) {
    try {
      table.save(path);
      FHP_LOG(kInfo) << "helm table cached to " << path;
    } catch (const SystemError& e) {
      FHP_LOG(kWarn) << "could not cache helm table: " << e.what();
    }
  }
  return table;
}

HelmTable HelmTable::build_or_load(const HelmTableSpec& spec,
                                   mem::HugePolicy policy,
                                   mem::PagePool& pool) {
  return build_or_load(spec, policy, pool, cache_path(spec));
}

std::string HelmTable::cache_path(const HelmTableSpec& spec) {
  // %.17g round-trips every double, so two grids never share a name.
  char name[192];
  std::snprintf(name, sizeof name,
                "helm_table_rho%.17g_%.17g_%d_T%.17g_%.17g_%d.bin",
                spec.log_rho_min, spec.log_rho_max, spec.nrho,
                spec.log_temp_min, spec.log_temp_max, spec.ntemp);
  return std::string(FHP_HELM_CACHE_DIR) + "/" + name;
}

HelmTable::Cell HelmTable::locate(double rho_ye, double temp) const {
  if (!(rho_ye > 0) || !(temp > 0)) {
    throw NumericsError("HelmTable: non-positive rho*Ye or T");
  }
  const double lx = std::log10(rho_ye);
  const double ly = std::log10(temp);
  const double dlr = (spec_.log_rho_max - spec_.log_rho_min) / (spec_.nrho - 1);
  const double dlt =
      (spec_.log_temp_max - spec_.log_temp_min) / (spec_.ntemp - 1);
  if (lx < spec_.log_rho_min - 1e-12 || lx > spec_.log_rho_max + 1e-12 ||
      ly < spec_.log_temp_min - 1e-12 || ly > spec_.log_temp_max + 1e-12) {
    throw NumericsError("HelmTable: (rhoYe=" + std::to_string(rho_ye) +
                        ", T=" + std::to_string(temp) + ") outside table");
  }
  Cell c;
  const double fi = (lx - spec_.log_rho_min) / dlr;
  const double fj = (ly - spec_.log_temp_min) / dlt;
  c.i = std::min(spec_.nrho - 2, std::max(0, static_cast<int>(fi)));
  c.j = std::min(spec_.ntemp - 2, std::max(0, static_cast<int>(fj)));
  c.u = fi - c.i;
  c.v = fj - c.j;
  c.dx = dlr;
  c.dy = dlt;
  return c;
}

EpInterp HelmTable::interpolate(double rho_ye, double temp) const {
  const Cell c = locate(rho_ye, temp);

  // Node coordinates and derivative scales (chain rule log-grid -> unit
  // cell): dQ/du at node i equals dQ/drho * rho_i * ln10 * dlx.
  double rho_n[2], temp_n[2];
  for (int a = 0; a < 2; ++a) {
    rho_n[a] = std::pow(10.0, spec_.log_rho_min + (c.i + a) * c.dx);
    temp_n[a] = std::pow(10.0, spec_.log_temp_min + (c.j + a) * c.dy);
  }

  double h0u[2], h1u[2], h0v[2], h1v[2];
  hermite(c.u, h0u, h1u);
  hermite(c.v, h0v, h1v);
  double d0u[2], d1u[2], d0v[2], d1v[2];
  hermite_deriv(c.u, d0u, d1u);
  hermite_deriv(c.v, d0v, d1v);

  const double rho_eval = rho_ye;
  const double temp_eval = temp;
  const double su_eval = rho_eval * kLn10 * c.dx;   // du -> drho at the point
  const double sv_eval = temp_eval * kLn10 * c.dy;  // dv -> dT

  auto idx = [&](int a, int b) {
    return static_cast<std::size_t>(c.j + b) *
               static_cast<std::size_t>(spec_.nrho) +
           static_cast<std::size_t>(c.i + a);
  };

  // Interpolate one quantity group; returns value and physical partials.
  auto patch = [&](Plane q, Plane qd, Plane qt, Plane qdt, double* out_d,
                   double* out_t) {
    const double* Q = plane_data(q);
    const double* Qd = plane_data(qd);
    const double* Qt = plane_data(qt);
    const double* Qdt = plane_data(qdt);
    double value = 0, du = 0, dv = 0;
    for (int a = 0; a < 2; ++a) {
      const double su = rho_n[a] * kLn10 * c.dx;
      for (int b = 0; b < 2; ++b) {
        const double sv = temp_n[b] * kLn10 * c.dy;
        const std::size_t n = idx(a, b);
        const double qv = Q[n];
        const double qx = Qd[n] * su;
        const double qy = Qt[n] * sv;
        const double qxy = Qdt[n] * su * sv;
        value += h0u[a] * h0v[b] * qv + h1u[a] * h0v[b] * qx +
                 h0u[a] * h1v[b] * qy + h1u[a] * h1v[b] * qxy;
        du += d0u[a] * h0v[b] * qv + d1u[a] * h0v[b] * qx +
              d0u[a] * h1v[b] * qy + d1u[a] * h1v[b] * qxy;
        dv += h0u[a] * d0v[b] * qv + h1u[a] * d0v[b] * qx +
              h0u[a] * d1v[b] * qy + h1u[a] * d1v[b] * qxy;
      }
    }
    if (out_d != nullptr) *out_d = du / su_eval;
    if (out_t != nullptr) *out_t = dv / sv_eval;
    return value;
  };

  EpInterp out;
  out.p = patch(kP, kPd, kPt, kPdt, &out.p_d, &out.p_t);
  out.e = patch(kE, kEd, kEt, kEdt, &out.e_d, &out.e_t);
  out.s = patch(kS, kSd, kSt, kSdt, nullptr, &out.s_t);
  out.eta = patch(kEta, kEtaD, kEtaT, kEtaDt, nullptr, nullptr);
  return out;
}

void HelmTable::trace_interpolate(tlb::Tracer& tracer, double rho_ye,
                                  double temp, bool full) const {
  if (!tracer.enabled()) return;
  const Cell c = locate(rho_ye, temp);
  // interpolate() reads 4 planes per quantity group at the 4 cell corners.
  const std::size_t nplanes = full ? kNumPlanes : kEdt + 1;  // P* and E*
  for (std::size_t plane = 0; plane < nplanes; ++plane) {
    // Fixed synthetic twin of plane_data(plane): same plane/row/corner
    // offsets, placement-invariant base (see tlb::synthetic_scratch).
    const double* base =
        static_cast<const double*>(
            tlb::synthetic_scratch(tlb::kHelmTableTraceSlot)) +
        plane * plane_elems_;
    for (int b = 0; b < 2; ++b) {
      const double* row = base + static_cast<std::size_t>(c.j + b) *
                                     static_cast<std::size_t>(spec_.nrho) +
                          static_cast<std::size_t>(c.i);
      // Two adjacent corners in one touch (contiguous 16 bytes).
      tracer.touch(row, 2 * sizeof(double), false, page_shift_);
    }
  }
  // The Hermite arithmetic per lookup. The Fujitsu compiler did emit SVE
  // for these regular fused multiply-add chains (the paper's EOS region
  // measured ~0.5 SVE instructions/cycle even though the outer EOS loops
  // would not vectorize).
  tracer.compute(280, 260);
}

void HelmTableEos::eval_dens_temp(State& s) const {
  FHP_REQUIRE(s.abar > 0 && s.zbar > 0, "bad composition");
  const double ye = s.zbar / s.abar;
  const EpInterp ep = table_->interpolate(s.rho * ye, s.temp);

  detail::EpPart part;
  part.p = ep.p;
  part.dpdr = ep.p_d * ye;  // d/drho = d/d(rhoYe) * Ye
  part.dpdt = ep.p_t;
  part.e_vol = ep.e;
  part.de_vol_dt = ep.e_t;
  part.s_vol = ep.s;
  part.eta = ep.eta;
  detail::assemble_state(s, part);
}

void HelmTableEos::eval(Mode mode, std::span<State> row) const {
  const double tmin = std::pow(10.0, table_->spec().log_temp_min);
  const double tmax = std::pow(10.0, table_->spec().log_temp_max);
  for (State& s : row) {
    switch (mode) {
      case Mode::kDensTemp:
        eval_dens_temp(s);
        break;
      case Mode::kDensEner:
      case Mode::kDensPres:
        detail::invert_temperature([this](State& st) { eval_dens_temp(st); },
                                   mode, s, tmin, tmax);
        break;
    }
  }
}

void HelmTableEos::trace_eval(tlb::Tracer& tracer, Mode mode,
                              std::span<const State> row) const {
  if (!tracer.enabled()) return;
  // Inversion modes re-interpolate once per Newton iteration; 4 is the
  // observed steady-state count when warm-starting from the previous T.
  // Each iteration evaluates at a *different* temperature, so its 4x4
  // stencil lands on different table rows — with 4 KiB pages that is a
  // fresh set of 32 pages per iteration, the access pattern that
  // overwhelms a 48-entry L1 DTLB.
  const int lookups = mode == Mode::kDensTemp ? 1 : 4;
  static constexpr double kNewtonPath[4] = {1.35, 0.92, 1.08, 1.0};
  // Scratch rows (eosData gathers) live on the ordinary heap: 4 KiB pages
  // in both experiment arms, like FLASH's per-rank work arrays. Modeled
  // at a fixed synthetic address so the stream is identical whichever
  // thread replays it.
  constexpr std::size_t kScratchRows = 10;
  constexpr std::size_t kScratchRowBytes = 64 * sizeof(double);
  const std::uint8_t heap_shift = 12;
  const double tmin = std::pow(10.0, table_->spec().log_temp_min) * 1.001;
  const double tmax = std::pow(10.0, table_->spec().log_temp_max) * 0.999;
  for (const State& s : row) {
    const double ye = s.zbar / s.abar;
    for (int l = 0; l < lookups; ++l) {
      const double t_iter =
          std::clamp(s.temp * kNewtonPath[l], tmin, tmax);
      // Intermediate Newton iterations only read the P/E groups; the
      // final converged evaluation fills the whole state.
      table_->trace_interpolate(tracer, s.rho * ye, t_iter,
                                l == lookups - 1);
    }
    // Mode bookkeeping + ion/radiation terms + Newton update arithmetic.
    tracer.compute(250ull * static_cast<unsigned>(lookups), 0);
  }
  for (std::size_t r = 0; r < kScratchRows; ++r) {
    tracer.touch(tlb::synthetic_scratch(tlb::kEosRowScratchSlot,
                                        r * kScratchRowBytes),
                 kScratchRowBytes, true, heap_shift);
  }
}

}  // namespace fhp::eos
