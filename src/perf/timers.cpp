#include "perf/timers.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace fhp::perf {

using Clock = std::chrono::steady_clock;

Timers::Timers(int lanes)
    : lanes_(static_cast<std::size_t>(std::max(lanes, 1))),
      epoch_(Clock::now()) {}

std::uint64_t Timers::now_ns() const {
  if (downstream_ != nullptr) return downstream_->now_ns();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

FHP_NO_ALLOC void Timers::record_span(int lane, const char* name,
                                      std::uint64_t begin_ns,
                                      std::uint64_t end_ns,
                                      std::uint16_t depth) noexcept {
  if (lane >= 0 && lane < lanes()) {
    // Writer-role witness: a SpanScope closes on the thread that opened
    // it and passes that thread's own lane_id(), so the caller is the
    // single writer of lane's table — a pool lane inside a region, or the
    // driver thread (lane 0) between regions.
    RegionWitness witness;
    Lane& table = lanes_[static_cast<std::size_t>(lane)];
    int slot = 0;
    while (slot < table.used && table.names[slot] != name) ++slot;
    if (slot == kNameCapacity) {
      ++table.overflow;
    } else {
      Entry& entry = table.entries[slot];
      if (slot == table.used) {
        table.names[slot] = name;
        entry.depth = depth;
        entry.first_begin_ns = begin_ns;
        ++table.used;
      }
      entry.durations.add(end_ns - begin_ns);
    }
  } else {
    lane_overflow_.fetch_add(1, std::memory_order_relaxed);
  }
  if (downstream_ != nullptr) {
    downstream_->record_span(lane, name, begin_ns, end_ns, depth);
  }
}

void Timers::mark_step(int step, double sim_time, double dt) {
  if (downstream_ != nullptr) downstream_->mark_step(step, sim_time, dt);
}

Histogram Timers::merged(std::string_view name) const {
  Histogram out;
  for (const Lane& table : lanes_) {
    for (int slot = 0; slot < table.used; ++slot) {
      if (table.names[slot] == name) out.merge(table.entries[slot].durations);
    }
  }
  return out;
}

double Timers::seconds(std::string_view name) const {
  return static_cast<double>(merged(name).sum()) * 1e-9;
}

std::uint64_t Timers::calls(std::string_view name) const {
  return merged(name).count();
}

double Timers::elapsed() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

std::map<std::string, Histogram, std::less<>> Timers::histograms() const {
  std::map<std::string, Histogram, std::less<>> out;
  for (const Lane& table : lanes_) {
    for (int slot = 0; slot < table.used; ++slot) {
      out[table.names[slot]].merge(table.entries[slot].durations);
    }
  }
  return out;
}

std::uint64_t Timers::overflow() const noexcept {
  std::uint64_t n = lane_overflow_.load(std::memory_order_relaxed);
  for (const Lane& table : lanes_) n += table.overflow;
  return n;
}

void Timers::summary(std::ostream& os) const {
  struct Row {
    std::string name;
    std::uint64_t first_begin_ns = 0;
    int depth = 0;
    Histogram durations;
  };
  // Lane 0 first, so a name the driver thread saw takes its depth there.
  std::vector<Row> rows;
  for (const Lane& table : lanes_) {
    for (int slot = 0; slot < table.used; ++slot) {
      const Entry& entry = table.entries[slot];
      const auto it =
          std::find_if(rows.begin(), rows.end(), [&](const Row& row) {
            return row.name == table.names[slot];
          });
      if (it == rows.end()) {
        rows.push_back({table.names[slot], entry.first_begin_ns,
                        &table == &lanes_.front() ? entry.depth : 0,
                        entry.durations});
      } else {
        it->first_begin_ns =
            std::min(it->first_begin_ns, entry.first_begin_ns);
        it->durations.merge(entry.durations);
      }
    }
  }
  // Spans record as they close, innermost first; ordering by first begin
  // (outermost first on a tie) lists every name after its enclosing one.
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.first_begin_ns != b.first_begin_ns
               ? a.first_begin_ns < b.first_begin_ns
               : a.depth < b.depth;
  });

  const double total = elapsed();
  os << "accounting unit                     time (s)    calls     %total\n";
  os << "----------------------------------------------------------------\n";
  for (const Row& row : rows) {
    char line[128];
    std::string label(static_cast<std::size_t>(row.depth) * 2, ' ');
    label += row.name;
    if (label.size() > 32) label.resize(32);
    const double seconds = static_cast<double>(row.durations.sum()) * 1e-9;
    std::snprintf(line, sizeof line, "%-32s %10.3f %8llu %9.1f%%\n",
                  label.c_str(), seconds,
                  static_cast<unsigned long long>(row.durations.count()),
                  total > 0 ? 100.0 * seconds / total : 0.0);
    os << line;
  }
  char line[96];
  if (const std::uint64_t lost = overflow(); lost > 0) {
    std::snprintf(line, sizeof line,
                  "untimed spans (name or lane overflow): %llu\n",
                  static_cast<unsigned long long>(lost));
    os << line;
  }
  std::snprintf(line, sizeof line, "elapsed: %.3f s\n", total);
  os << line;
}

}  // namespace fhp::perf
