/// \file shard_write_outside_region.cpp
/// \brief MUST NOT COMPILE under clang -Wthread-safety -Werror.
///
/// A write to lane-private storage (obs::SpanRing::push, one ring per
/// lane) outside a parallel region: nothing holds the region capability,
/// so two threads doing this could race on the same ring. Expected
/// diagnostic:
///   ... requires holding mutex 'region_cap' ...
/// (asserted by PASS_REGULAR_EXPRESSION in CMakeLists.txt).

#include "obs/span.hpp"

void leak_ring_write(fhp::obs::SpanRing& ring) {
  ring.push({"leak", 0, 1, 0});  // no RegionGuard/RegionWitness
}
