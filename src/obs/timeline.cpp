#include "obs/timeline.hpp"

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <limits>
#include <ostream>
#include <string_view>

#include "obs/sampler.hpp"
#include "obs/telemetry.hpp"
#include "perf/timers.hpp"
#include "support/error.hpp"

namespace fhp::obs {

namespace {

/// Minimal JSON string escape (names are flashhp literals, but a
/// malformed byte must not produce an unloadable trace).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Round-trip-exact double for JSON: the default 6-significant-digit
/// ostream precision can round a clamped quantile past the integer max
/// it was clamped to, breaking the p99 <= max invariant the trace
/// validator holds.
std::string json_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Streams the traceEvents array with comma bookkeeping.
class EventWriter {
 public:
  EventWriter(std::ostream& os, std::uint64_t epoch_ns)
      : os_(os), epoch_ns_(epoch_ns) {}

  [[nodiscard]] double us(std::uint64_t t_ns) const {
    return static_cast<double>(t_ns - epoch_ns_) / 1000.0;
  }

  void raw(const std::string& event_json) {
    os_ << (first_ ? "\n  " : ",\n  ") << event_json;
    first_ = false;
  }

  void metadata(const char* what, int tid, std::string_view name) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"name\":\"%s\"}}",
                  what, tid, json_escape(name).c_str());
    raw(buf);
  }

  void span(const SpanRecord& rec, int lane) {
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"depth\":%u}}",
                  json_escape(rec.name).c_str(), us(rec.begin_ns),
                  static_cast<double>(rec.end_ns - rec.begin_ns) / 1000.0,
                  lane, rec.depth);
    raw(buf);
  }

  void instant(const Telemetry::StepMark& mark) {
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"step %d\",\"cat\":\"step\",\"ph\":\"i\","
                  "\"ts\":%.3f,\"pid\":1,\"tid\":0,\"s\":\"p\","
                  "\"args\":{\"step\":%d,\"t\":%.9g,\"dt\":%.9g}}",
                  mark.step, us(mark.t_ns), mark.step, mark.sim_time,
                  mark.dt);
    raw(buf);
  }

  void counter(std::uint64_t t_ns, const char* track, const char* key,
               std::uint64_t value) {
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"counter\",\"ph\":\"C\","
                  "\"ts\":%.3f,\"pid\":1,\"tid\":0,"
                  "\"args\":{\"%s\":%llu}}",
                  track, us(t_ns), key,
                  static_cast<unsigned long long>(value));
    raw(buf);
  }

  void counter_if(std::uint64_t t_ns, const char* track, const char* key,
                  const mem::ProcField& field) {
    if (field.present()) counter(t_ns, track, key, field.value_or());
  }

 private:
  std::ostream& os_;
  std::uint64_t epoch_ns_;
  bool first_ = true;
};

/// Earliest timestamp across spans, marks and samples, so the timeline
/// starts at t=0 regardless of the clock's epoch.
std::uint64_t find_epoch(const Telemetry& telemetry, const Sampler* sampler) {
  std::uint64_t epoch = std::numeric_limits<std::uint64_t>::max();
  for (int lane = 0; lane < telemetry.lanes(); ++lane) {
    for (const SpanRecord& rec : telemetry.ring(lane).in_order()) {
      epoch = std::min(epoch, rec.begin_ns);
    }
  }
  for (const auto& mark : telemetry.step_marks()) {
    epoch = std::min(epoch, mark.t_ns);
  }
  if (sampler != nullptr) {
    for (const Sample& s : sampler->samples()) {
      epoch = std::min(epoch, s.t_ns);
    }
  }
  return epoch == std::numeric_limits<std::uint64_t>::max() ? 0 : epoch;
}

void write_histograms(std::ostream& os, const perf::Timers& timers) {
  bool first = true;
  for (const auto& [name, hist] : timers.histograms()) {
    os << (first ? "\n      " : ",\n      ") << '"' << json_escape(name)
       << "\": {\"count\":" << hist.count()
       << ",\"total_ns\":" << hist.sum()
       << ",\"mean_ns\":" << json_double(hist.mean())
       << ",\"p50_ns\":" << json_double(hist.quantile(0.5))
       << ",\"p90_ns\":" << json_double(hist.quantile(0.9))
       << ",\"p99_ns\":" << json_double(hist.quantile(0.99))
       << ",\"min_ns\":" << hist.min() << ",\"max_ns\":" << hist.max()
       << ",\"summary\":\"" << json_escape(hist.summary()) << "\"}";
    first = false;
  }
  if (!first) os << "\n    ";
}

}  // namespace

void write_timeline(std::ostream& os, const Telemetry& telemetry,
                    const perf::Timers& timers, const Sampler* sampler) {
  EventWriter w(os, find_epoch(telemetry, sampler));

  os << "{\"traceEvents\": [";
  w.metadata("process_name", 0, "flashhp");
  for (int lane = 0; lane < telemetry.lanes(); ++lane) {
    w.metadata("thread_name", lane,
               lane == 0 ? std::string("lane 0 (driver)")
                         : "lane " + std::to_string(lane));
  }

  for (int lane = 0; lane < telemetry.lanes(); ++lane) {
    for (const SpanRecord& rec : telemetry.ring(lane).in_order()) {
      w.span(rec, lane);
    }
  }
  for (const auto& mark : telemetry.step_marks()) w.instant(mark);

  if (sampler != nullptr) {
    for (const Sample& s : sampler->samples()) {
      w.counter_if(s.t_ns, "meminfo.AnonHugePages", "bytes",
                   s.meminfo.anon_huge_pages);
      w.counter_if(s.t_ns, "meminfo.HugePages_Free", "pages",
                   s.meminfo.huge_pages_free);
      w.counter_if(s.t_ns, "meminfo.Hugetlb", "bytes", s.meminfo.hugetlb);
      w.counter_if(s.t_ns, "smaps.Rss", "bytes", s.smaps.rss);
      w.counter_if(s.t_ns, "smaps.AnonHugePages", "bytes",
                   s.smaps.anon_huge_pages);
      w.counter_if(s.t_ns, "smaps.huge_total", "bytes",
                   s.smaps.total_huge_bytes());
      w.counter_if(s.t_ns, "vmstat.thp_fault_alloc", "events",
                   s.vmstat.thp_fault_alloc);
      w.counter_if(s.t_ns, "vmstat.thp_fault_fallback", "events",
                   s.vmstat.thp_fault_fallback);
      w.counter_if(s.t_ns, "vmstat.thp_collapse_alloc", "events",
                   s.vmstat.thp_collapse_alloc);
      w.counter_if(s.t_ns, "vmstat.thp_split_page", "events",
                   s.vmstat.thp_split_page);
      if (s.have_counters) {
        w.counter(s.t_ns, "perf.cycles", "count",
                  s.counters[perf::Event::kCycles]);
        w.counter(s.t_ns, "perf.dtlb_misses", "count",
                  s.counters[perf::Event::kDtlbMisses]);
        w.counter(s.t_ns, "perf.bytes_read", "bytes",
                  s.counters[perf::Event::kBytesRead]);
        w.counter(s.t_ns, "perf.bytes_written", "bytes",
                  s.counters[perf::Event::kBytesWritten]);
      }
    }
  }

  os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"flashhpSummary\": {"
     << "\n    \"totalSpans\": " << telemetry.total_spans()
     << ",\n    \"droppedSpans\": " << telemetry.dropped_spans()
     << ",\n    \"spanOverflow\": " << timers.overflow()
     << ",\n    \"lanes\": " << telemetry.lanes();
  if (sampler != nullptr) {
    os << ",\n    \"samples\": " << sampler->samples().size()
       << ",\n    \"samplesTaken\": " << sampler->taken()
       << ",\n    \"samplesDropped\": " << sampler->dropped()
       << ",\n    \"sampleErrors\": " << sampler->errors()
       << ",\n    \"samplesMissed\": " << sampler->missed()
       << ",\n    \"samplePeriodNs\": " << sampler->period_ns();
  }
  os << ",\n    \"histograms\": {";
  write_histograms(os, timers);
  os << "}\n  }\n}\n";
}

void write_timeline_file(const std::string& path, const Telemetry& telemetry,
                         const perf::Timers& timers, const Sampler* sampler) {
  std::ofstream out(path);
  if (!out) {
    throw SystemError("cannot write timeline '" + path + "'", errno);
  }
  write_timeline(out, telemetry, timers, sampler);
}

std::string csv_path_for(const std::string& timeline_path) {
  const std::string suffix = ".json";
  if (timeline_path.size() > suffix.size() &&
      timeline_path.compare(timeline_path.size() - suffix.size(),
                            suffix.size(), suffix) == 0) {
    return timeline_path.substr(0, timeline_path.size() - suffix.size()) +
           ".csv";
  }
  return timeline_path + ".csv";
}

}  // namespace fhp::obs
