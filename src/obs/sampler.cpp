#include "obs/sampler.hpp"

#include <chrono>
#include <ostream>

#include "support/error.hpp"

namespace fhp::obs {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void csv_field(std::ostream& os, const mem::ProcField& f) {
  // Absent fields are empty cells: "0" would claim an observation the
  // kernel never made (the 0-vs-absent ambiguity this layer removes).
  if (f.present()) os << f.value_or();
  os << ',';
}

}  // namespace

SamplerOptions SamplerOptions::with_procfs_root(const std::string& root) {
  SamplerOptions o;
  o.meminfo_path = root + "/meminfo";
  o.smaps_path = root + "/self/smaps_rollup";
  o.vmstat_path = root + "/vmstat";
  return o;
}

Sampler::Sampler(SamplerOptions options)
    : options_(std::move(options)),
      clock_(options_.clock ? options_.clock : steady_now_ns) {
  FHP_REQUIRE(options_.cadence.count() > 0,
              "Sampler cadence must be positive");
  FHP_REQUIRE(options_.ring_capacity > 0,
              "Sampler ring capacity must be positive");
}

Sampler::~Sampler() { stop(); }

void Sampler::sample_once() { (void)capture(); }

std::uint64_t Sampler::capture() {
  Sample s;
  s.t_ns = clock_();
  const std::uint64_t t_ns = s.t_ns;
  bool failed = false;
  // Procfs reads happen outside the ring lock: a slow /proc read must
  // not block a concurrent samples() reader.
  try {
    s.meminfo = mem::MeminfoSnapshot::capture(options_.meminfo_path);
  } catch (const Error&) {
    failed = true;
  }
  try {
    s.smaps = mem::SmapsRollup::capture(options_.smaps_path);
  } catch (const Error&) {
    failed = true;
  }
  try {
    s.vmstat = mem::VmstatSnapshot::capture(options_.vmstat_path);
  } catch (const Error&) {
    failed = true;
  }
  if (options_.perf != nullptr) {
    const auto published = options_.perf->published();
    s.counters = published.counters;
    s.counter_seq = published.seq;
    s.have_counters = true;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (failed) ++errors_;
  if (taken_ == 0) first_t_ns_ = s.t_ns;
  last_t_ns_ = s.t_ns;
  if (head_.size() < options_.ring_capacity / 2) {
    head_.push_back(std::move(s));
  } else {
    if (head_.size() + ring_.size() >= options_.ring_capacity) {
      ring_.pop_front();
      ++dropped_;
    }
    ring_.push_back(std::move(s));
  }
  ++taken_;
  return t_ns;
}

void Sampler::start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (running_) return;
    running_ = true;
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { thread_main(); });
}

void Sampler::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
}

bool Sampler::running() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

void Sampler::thread_main() {
  // Sample immediately so even a short run gets a first data point, then
  // on the ticks t0 + n * cadence of the sampler's clock (t0: the first
  // capture's t_ns) until stop() wakes us. The clock is read once as a
  // capture starts and once as it ends. A tick that has already passed
  // is captured at once; of several passed ticks only the latest is, and
  // the others count as missed.
  const auto cadence = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(options_.cadence)
          .count());
  std::uint64_t deadline = capture();
  for (;;) {
    const std::uint64_t now = clock_();
    deadline += cadence;
    std::uint64_t lost = 0;
    if (now > deadline) {
      lost = (now - deadline) / cadence;
      deadline += lost * cadence;
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      missed_ += lost;
      const std::chrono::nanoseconds wait(deadline > now ? deadline - now
                                                         : 0);
      if (cv_.wait_for(lock, wait, [this] { return stop_requested_; })) {
        return;
      }
    }
    capture();
  }
}

std::vector<Sample> Sampler::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Sample> all(head_);
  all.insert(all.end(), ring_.begin(), ring_.end());
  return all;
}

std::uint64_t Sampler::taken() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return taken_;
}

std::uint64_t Sampler::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::uint64_t Sampler::errors() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return errors_;
}

std::uint64_t Sampler::missed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return missed_;
}

std::uint64_t Sampler::period_ns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return taken_ < 2 ? 0 : (last_t_ns_ - first_t_ns_) / (taken_ - 1);
}

void Sampler::write_csv(std::ostream& os) const {
  os << "t_ns,"
     << "meminfo_anon_huge_pages,meminfo_file_huge_pages,"
     << "meminfo_huge_pages_total,meminfo_huge_pages_free,meminfo_hugetlb,"
     << "meminfo_mem_available,"
     << "smaps_rss,smaps_anon_huge_pages,smaps_file_pmd_mapped,"
     << "smaps_shmem_pmd_mapped,smaps_private_hugetlb,smaps_shared_hugetlb,"
     << "thp_fault_alloc,thp_fault_fallback,thp_collapse_alloc,"
     << "thp_split_page,"
     << "perf_cycles,perf_dtlb_misses,perf_bytes_read,perf_bytes_written,"
     << "perf_seq\n";
  for (const Sample& s : samples()) {
    os << s.t_ns << ',';
    csv_field(os, s.meminfo.anon_huge_pages);
    csv_field(os, s.meminfo.file_huge_pages);
    csv_field(os, s.meminfo.huge_pages_total);
    csv_field(os, s.meminfo.huge_pages_free);
    csv_field(os, s.meminfo.hugetlb);
    csv_field(os, s.meminfo.mem_available);
    csv_field(os, s.smaps.rss);
    csv_field(os, s.smaps.anon_huge_pages);
    csv_field(os, s.smaps.file_pmd_mapped);
    csv_field(os, s.smaps.shmem_pmd_mapped);
    csv_field(os, s.smaps.private_hugetlb);
    csv_field(os, s.smaps.shared_hugetlb);
    csv_field(os, s.vmstat.thp_fault_alloc);
    csv_field(os, s.vmstat.thp_fault_fallback);
    csv_field(os, s.vmstat.thp_collapse_alloc);
    csv_field(os, s.vmstat.thp_split_page);
    if (s.have_counters) {
      os << s.counters[perf::Event::kCycles] << ','
         << s.counters[perf::Event::kDtlbMisses] << ','
         << s.counters[perf::Event::kBytesRead] << ','
         << s.counters[perf::Event::kBytesWritten] << ',' << s.counter_seq;
    } else {
      os << ",,,,";
    }
    os << '\n';
  }
}

}  // namespace fhp::obs
