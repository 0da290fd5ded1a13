/// \file region_write_positive.cpp
/// \brief Positive control: MUST COMPILE under -Wthread-safety -Werror.
///
/// The sanctioned pattern — a region-lambda body asserts the lane
/// writer role with RegionWitness, then pushes a span into its own
/// lane's ring. If this control fails, the negative tests in this
/// directory prove nothing (any -Werror noise would fail them too).

#include <vector>

#include "obs/span.hpp"
#include "par/parallel.hpp"
#include "perf/perf_context.hpp"
#include "support/lane.hpp"

void sanctioned(fhp::par::ExecArena& arena,
                std::vector<fhp::obs::SpanRing>& rings,
                fhp::perf::PerfContext& ctx, std::size_t n) {
  arena.parallel_for(n, [&rings](int lane, std::size_t) {
    fhp::RegionWitness witness;  // region lambda body: lane writer role
    rings[static_cast<std::size_t>(lane)].push({"item", 0, 1, 0});
  });
  (void)ctx.published();  // legal between regions
}
