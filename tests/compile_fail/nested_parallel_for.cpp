/// \file nested_parallel_for.cpp
/// \brief MUST NOT COMPILE under clang -Wthread-safety -Werror.
///
/// Issuing a parallel region from inside a parallel region:
/// ExecArena::parallel_for excludes the region capability (the engine
/// FHP_REQUIREs against nesting at runtime; the annotation turns that
/// contract violation into a compile error). Expected diagnostic:
///   ... while mutex 'region_cap' is held ...
/// (asserted by PASS_REGULAR_EXPRESSION in CMakeLists.txt).

#include "par/parallel.hpp"
#include "support/lane.hpp"

void nest(fhp::par::ExecArena& arena, std::size_t n) {
  fhp::RegionWitness witness;  // models code running on a pool lane
  arena.parallel_for(n, [](int, std::size_t) {});
}
