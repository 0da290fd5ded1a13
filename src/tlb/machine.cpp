#include "tlb/machine.hpp"

#include <algorithm>
#include <cmath>

namespace fhp::tlb {

Machine::Machine(const MachineParams& params, perf::CounterSink* sink)
    : params_(params),
      sink_(sink),
      l1_tlb_(params.l1_tlb),
      l2_tlb_(params.l2_tlb),
      l1d_(params.l1d),
      l2_(params.l2) {}

FHP_NO_ALLOC void Machine::touch(const void* addr, std::size_t bytes,
                                 bool write,
                                 std::uint8_t page_shift) noexcept {
  if (bytes == 0) return;
  const auto base = reinterpret_cast<std::uint64_t>(addr);
  const std::uint32_t line = params_.l1d.line_bytes;
  const std::uint64_t first = base & ~static_cast<std::uint64_t>(line - 1);
  const std::uint64_t last = (base + bytes - 1) &
                             ~static_cast<std::uint64_t>(line - 1);
  for (std::uint64_t a = first;; a += line) {
    ++quantum_.accesses;
    // Address translation: L1 TLB, then L2 TLB, then a table walk.
    if (!l1_tlb_.access(a, page_shift)) {
      ++quantum_.l1_tlb_misses;
      if (!l2_tlb_.access(a, page_shift)) ++quantum_.walks;
    }
    // Data: L1D, then L2, then memory.
    const CacheResult r1 = l1d_.access(a, write);
    if (!r1.hit) {
      ++quantum_.l1d_misses;
      const CacheResult r2 = l2_.access(a, write);
      if (!r2.hit) ++quantum_.l2_misses;
      if (r2.writeback) ++quantum_.writebacks;
    }
    if (a == last) break;
  }
}

double Machine::model_cycles(const QuantumStats& q) const noexcept {
  const MachineParams& p = params_;
  const double compute_cycles =
      static_cast<double>(q.scalar_ops) / p.scalar_ops_per_cycle +
      static_cast<double>(q.vector_ops) / p.vector_ops_per_cycle;

  const double mem_bytes = static_cast<double>(q.bytes_read(p.l1d.line_bytes) +
                                               q.bytes_written(p.l1d.line_bytes));
  const double bw_cycles = mem_bytes / p.mem_bytes_per_cycle;

  const double l2_hit_count =
      static_cast<double>(q.l1d_misses - std::min(q.l1d_misses, q.l2_misses));
  const double lat_cycles =
      (l2_hit_count * p.l2_hit_cycles +
       static_cast<double>(q.l2_misses) * p.mem_latency_cycles) *
      (1.0 - p.latency_overlap);

  const double l2tlb_hits =
      static_cast<double>(q.l1_tlb_misses - std::min(q.l1_tlb_misses, q.walks));
  const double walk_cycles =
      static_cast<double>(q.walks) * p.walk_cycles * (1.0 - p.walk_overlap) +
      l2tlb_hits * p.l2_tlb_hit_cycles * (1.0 - p.l2_tlb_hit_overlap);

  return std::max(compute_cycles, bw_cycles) + lat_cycles + walk_cycles;
}

double Machine::commit(std::uint64_t scale) noexcept {
  const double cycles = model_cycles(quantum_);
  const double scaled_cycles = cycles * static_cast<double>(scale);

  // Background translation traffic (non-arena memory): policy-independent.
  const double bg_misses = scaled_cycles * params_.background_miss_per_cycle;
  const double bg_walk_cycles = bg_misses * params_.walk_cycles *
                                (1.0 - params_.walk_overlap);
  const double final_cycles = scaled_cycles + bg_walk_cycles;

  if (sink_ != nullptr) {
    const std::uint32_t line = params_.l1d.line_bytes;
    auto scaled = [scale](std::uint64_t v) { return v * scale; };
    perf::CounterSet delta;
    delta[perf::Event::kCycles] =
        static_cast<std::uint64_t>(std::llround(final_cycles));
    delta[perf::Event::kInstructions] =
        scaled(quantum_.scalar_ops + quantum_.vector_ops + quantum_.accesses);
    delta[perf::Event::kVectorOps] = scaled(quantum_.vector_ops);
    // The paper's PAPI DTLB-miss event counts *L1* DTLB misses (the A64FX
    // L1 DTLB is a 48-entry fully-associative structure that the EOS's
    // table gathers thrash); walks are the subset that also missed the L2
    // TLB and paid for a page-table walk.
    delta[perf::Event::kDtlbMisses] =
        scaled(quantum_.l1_tlb_misses) +
        static_cast<std::uint64_t>(std::llround(bg_misses));
    const double walk_cycle_total =
        static_cast<double>(scaled(quantum_.walks)) * params_.walk_cycles *
            (1.0 - params_.walk_overlap) +
        bg_walk_cycles;
    delta[perf::Event::kTlbWalkCycles] =
        static_cast<std::uint64_t>(std::llround(walk_cycle_total));
    delta[perf::Event::kBytesRead] = scaled(quantum_.bytes_read(line));
    delta[perf::Event::kBytesWritten] = scaled(quantum_.bytes_written(line));
    delta[perf::Event::kL1Misses] = scaled(quantum_.l1d_misses);
    delta[perf::Event::kL2Misses] = scaled(quantum_.l2_misses);
    sink_->sink_counters(delta);
  }

  quantum_ = QuantumStats{};
  return cycles;
}

void Machine::reset() noexcept {
  l1_tlb_.flush();
  l2_tlb_.flush();
  l1d_.flush();
  l2_.flush();
  quantum_ = QuantumStats{};
}

}  // namespace fhp::tlb
