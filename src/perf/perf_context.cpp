#include "perf/perf_context.hpp"

namespace fhp::perf {

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
