#include "perf/perf_context.hpp"

namespace fhp::perf {

void PerfContext::sink_counters(const CounterSet& delta) noexcept {
  // Writer-role witness: CounterSink producers are serial by contract
  // (support/events.hpp) — in-tree the only caller is the tlb machine
  // model's commit(), which runs on the single tracing thread between
  // parallel regions, so that thread is lane 0's sole shard writer here.
  RegionWitness witness;
  add_all(delta);
}

void PerfContext::publish() {
  const CounterSet current = snapshot();
  MutexLock lock(publish_mutex_);
  published_.counters = current;
  ++published_.seq;
}

PublishedCounters PerfContext::published() const {
  MutexLock lock(publish_mutex_);
  return published_;
}

}  // namespace fhp::perf
