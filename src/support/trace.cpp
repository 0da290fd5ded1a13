#include "support/trace.hpp"

namespace fhp::trace {

namespace detail {

thread_local constinit Sink* t_sink = nullptr;

namespace {
/// Span nesting depth of the executing thread. Each lane traces its own
/// call stack, so depth is thread-local, not sink-global.
thread_local std::uint16_t t_span_depth = 0;
}  // namespace

std::uint16_t enter_span() noexcept { return t_span_depth++; }
void exit_span() noexcept { --t_span_depth; }

}  // namespace detail

void step_mark(int step, double sim_time, double dt) {
  Sink* s = sink();
  if (s != nullptr) s->mark_step(step, sim_time, dt);
}

}  // namespace fhp::trace
