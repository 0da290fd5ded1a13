/// \file region_write_positive.cpp
/// \brief Positive control: MUST COMPILE under -Wthread-safety -Werror.
///
/// The sanctioned pattern — a region-lambda body asserts the lane
/// writer role with RegionWitness, then writes its shard and pushes
/// spans. If this control fails, the negative tests in this directory
/// prove nothing (any -Werror noise would fail them too).

#include "par/parallel.hpp"
#include "perf/perf_context.hpp"
#include "support/lane.hpp"

void sanctioned(fhp::par::ExecArena& arena, fhp::perf::PerfContext& ctx,
                std::size_t n) {
  arena.parallel_for(n, [&](int, std::size_t) {
    fhp::RegionWitness witness;  // region lambda body: lane writer role
    ctx.add(fhp::perf::Event::kCycles, 1);
  });
  (void)ctx.published();  // legal between regions
}
