/// \file task_body_without_witness.cpp
/// \brief MUST NOT COMPILE under clang -Wthread-safety -Werror.
///
/// A TaskGraph task body writing lane-private storage (a span ring)
/// without asserting the region capability: task bodies run on
/// work-stealing pool lanes inside TaskGraph::run()'s region, but the
/// analysis is lexical — a lambda that touches lane-private state must
/// carry its own RegionWitness, exactly like a parallel_for body.
/// Expected diagnostic:
///   ... requires holding mutex 'region_cap' ...
/// (asserted by PASS_REGULAR_EXPRESSION in CMakeLists.txt).

#include "obs/span.hpp"
#include "par/task_graph.hpp"

void leak_task_ring_write(fhp::par::TaskGraph& g, fhp::obs::SpanRing& ring) {
  g.add_task("task.bad", [&ring](int /*lane*/) {
    ring.push({"task.bad", 0, 1, 0});  // no RegionWitness
  });
}
