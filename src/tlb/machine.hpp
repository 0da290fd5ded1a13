/// \file machine.hpp
/// \brief The software machine model: TLBs + caches + cycle accounting.
///
/// Kernels replay their (sampled) address streams into a Machine; at the
/// end of each sampling quantum, commit() converts the observed event
/// counts into modeled cycles and publishes everything — scaled by the
/// sampling factor — through the abstract perf::CounterSink
/// (support/events.hpp; in practice a perf::PerfContext, where PerfRegion
/// picks the deltas up). The model carries warm TLB/cache state across quanta, so tracing
/// stays on one thread regardless of FLASHHP_THREADS — which is also why
/// modeled counters are bit-identical across thread counts.
///
/// The cycle model is deliberately simple and captures the paper's two
/// findings:
///   1. With 4 KiB pages the strided `unk` layout overwhelms an A64FX-like
///      TLB (48-entry L1 + 1024-entry 4-way L2); 2 MiB pages collapse the
///      page working set and the misses almost vanish.
///   2. Runtime barely improves, because the code is memory-bandwidth
///      bound and walk latency overlaps with the data stalls
///      (walk_overlap): cycles = max(compute, bandwidth) + unhidden
///      latency + unhidden walk cycles.
///
/// A configurable background miss rate (background_miss_per_cycle) models
/// translation traffic that does not live on the huge-page arena — the
/// OS, runtime libraries, communication buffers. It is why the paper's
/// miss rates floor near 1e6/s in both experiment arms instead of falling
/// to zero (Tables I/II: 1.10e6 and 7.83e5 with huge pages).
///
/// The published "DTLB misses" event is modeled as *L1* DTLB misses
/// (plus the background term): on the A64FX the per-zone working set of
/// FLASH's EOS — dozens of distinct table/scratch/unk pages — overflows
/// the 48-entry L1 DTLB at 4 KiB pages but collapses to a handful of
/// entries at 2 MiB, which is what produces the paper's 21x swing.

#pragma once

#include <cstdint>

#include "support/contracts.hpp"
#include "support/events.hpp"
#include "tlb/cache_model.hpp"
#include "tlb/geometry.hpp"
#include "tlb/tlb_model.hpp"

namespace fhp::tlb {

/// Event counts accumulated during one sampling quantum.
struct QuantumStats {
  std::uint64_t accesses = 0;        ///< line-granular memory operations
  std::uint64_t l1d_misses = 0;
  std::uint64_t l2_misses = 0;       ///< lines fetched from memory
  std::uint64_t writebacks = 0;      ///< dirty lines written to memory
  std::uint64_t l1_tlb_misses = 0;
  std::uint64_t walks = 0;           ///< missed both TLB levels
  std::uint64_t scalar_ops = 0;
  std::uint64_t vector_ops = 0;

  [[nodiscard]] std::uint64_t bytes_read(std::uint32_t line) const noexcept {
    return l2_misses * line;
  }
  [[nodiscard]] std::uint64_t bytes_written(std::uint32_t line) const noexcept {
    return writebacks * line;
  }
};

/// Extended machine configuration (geometry + the background miss floor).
struct MachineParams : MachineConfig {
  /// TLB misses per modeled cycle from memory *outside* the traced arrays
  /// (OS, libraries, comm buffers) — page-size-policy independent.
  /// Calibrated so the floor sits near 8e5 misses/s at 1.8 GHz — the
  /// paper's with-huge-pages rates (1.10e6 EOS, 7.83e5 Hydro) bottom out
  /// there in both experiments.
  double background_miss_per_cycle = 4.4e-4;
  /// Cost (cycles) of an L1-TLB miss that hits in the L2 TLB.
  std::uint32_t l2_tlb_hit_cycles = 8;
  /// Fraction of the L1-miss/L2-hit penalty hidden by the pipeline. Less
  /// hideable than full walks (it stalls the load itself), which is what
  /// makes the paper's time ratios move a few percent, not zero.
  double l2_tlb_hit_overlap = 0.5;
};

/// The model. One instance per experiment arm; TLB/cache state persists
/// across quanta (warm caches), counters are re-zeroed per quantum.
class Machine {
 public:
  /// \param sink where commit() publishes each quantum's scaled counter
  ///        deltas (typically the experiment arm's perf::PerfContext);
  ///        null means model-only — commit() still returns each
  ///        quantum's cycles, counters are dropped.
  explicit Machine(const MachineParams& params = {},
                   perf::CounterSink* sink = nullptr);

  /// Replay one memory operation of \p bytes at \p addr. Internally splits
  /// into cache lines; each line is one TLB + cache lookup.
  FHP_NO_ALLOC void touch(const void* addr, std::size_t bytes, bool write,
                          std::uint8_t page_shift) noexcept;

  /// Account pure compute work (operation counts, not cycles).
  void compute(std::uint64_t scalar_ops, std::uint64_t vector_ops) noexcept {
    quantum_.scalar_ops += scalar_ops;
    quantum_.vector_ops += vector_ops;
  }

  /// Convert the quantum's event counts to cycles, scale everything by
  /// \p scale (the sampling factor) and publish one delta to the sink.
  /// Returns the *unscaled* modeled cycles of this quantum. Tracing is
  /// serial, between parallel regions (see file comment) — hence
  /// FHP_EXCLUDES_REGION, matching the sink's contract.
  double commit(std::uint64_t scale = 1) noexcept FHP_EXCLUDES_REGION;

  /// Modeled cycles for a quantum's stats without committing (for tests).
  [[nodiscard]] double model_cycles(const QuantumStats& q) const noexcept;

  [[nodiscard]] const QuantumStats& quantum() const noexcept {
    return quantum_;
  }
  [[nodiscard]] const MachineParams& params() const noexcept { return params_; }

  /// Reset everything — structures and statistics.
  void reset() noexcept;

 private:
  MachineParams params_;
  perf::CounterSink* sink_;
  TlbModel l1_tlb_;
  TlbModel l2_tlb_;
  CacheModel l1d_;
  CacheModel l2_;
  QuantumStats quantum_;
};

}  // namespace fhp::tlb
