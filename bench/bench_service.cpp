/// \file bench_service.cpp
/// \brief Service throughput/latency under a Poisson open-arrival load.
///
/// The service-model counterpart of the paper's per-instance tables:
/// instead of one FLASH instance per node, dozens of small simulations
/// share one process, one worker pool, and one huge-page arena. A load
/// generator submits a mixed job-class matrix — Sedov (interactive,
/// pure hydro), cellular detonation (batch, hydro + flame), supernova
/// (batch, tabulated EOS + flame + gravity) — with exponential
/// inter-arrival times, at each worker count in the scan. The artifact
/// reports sims/sec and per-class p50/p99 job latency (submit to
/// result, the client-visible number).
///
/// Usage: bench_service [--json=PATH] [--trace=PATH] [--jobs=N]
///                      [--rate=JOBS_PER_SEC] [--seed=S]
///
/// --trace exports one tenant's span timeline for tools/check_trace.py.
/// Exit status is nonzero if any job failed or a class finished empty.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "experiment_common.hpp"
#include "eos/eos_table.hpp"
#include "mem/page_pool.hpp"
#include "support/rng.hpp"
#include "support/runtime_params.hpp"
#include "svc/service.hpp"

namespace {

using namespace fhp;

struct JobClass {
  const char* name;
  svc::JobSpec spec;
};

svc::JobSpec sedov_spec() {
  svc::JobSpec spec;
  spec.kind = svc::JobKind::kSedov;
  spec.deadline = svc::DeadlineClass::kInteractive;
  spec.nsteps = 6;
  spec.sedov.ndim = 2;
  spec.sedov.nzb = 1;
  spec.sedov.max_level = 2;
  spec.sedov.maxblocks = 128;
  return spec;
}

svc::JobSpec cellular_spec() {
  svc::JobSpec spec;
  spec.kind = svc::JobKind::kCellular;
  spec.deadline = svc::DeadlineClass::kBatch;
  spec.nsteps = 5;
  spec.cellular.max_level = 2;
  spec.cellular.maxblocks = 128;
  return spec;
}

svc::JobSpec supernova_spec() {
  svc::JobSpec spec;
  spec.kind = svc::JobKind::kSupernova;
  spec.deadline = svc::DeadlineClass::kBatch;
  spec.nsteps = 2;
  spec.supernova.max_level = 3;
  spec.supernova.maxblocks = 400;
  spec.supernova.table_spec = {-4.0, 10.0, 141, 5.0, 10.0, 51};
  return spec;
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

struct ClassStats {
  int jobs = 0;
  double p50 = 0.0, p99 = 0.0, mean = 0.0;
};

struct ScanResult {
  int workers = 0;
  double sims_per_sec = 0.0;
  double span_seconds = 0.0;
  int backpressure_retries = 0;
  int failed = 0;
  std::vector<ClassStats> classes;
};

}  // namespace

int main(int argc, char** argv) {
  RuntimeParams rp;
  rp.declare_string("json", "BENCH_service.json", "artifact path");
  rp.declare_string("trace", "", "export one tenant's timeline here");
  rp.declare_int("jobs", 12, "jobs per worker-count scan");
  rp.declare_real("rate", 50.0, "mean Poisson arrival rate [jobs/s]");
  rp.declare_int("seed", 42, "arrival-process seed");
  svc::declare_runtime_params(rp);
  rp.apply_command_line(argc, argv);
  svc::ServiceOptions opts = svc::apply_runtime_params(rp);

  const std::string json = rp.get_string("json");
  const std::string trace = rp.get_string("trace");
  const int njobs = static_cast<int>(rp.get_int("jobs"));
  const double rate = rp.get_real("rate");
  const auto seed = static_cast<std::uint64_t>(rp.get_int("seed"));

  const std::vector<JobClass> matrix = {
      {"sedov", sedov_spec()},
      {"cellular", cellular_spec()},
      {"supernova", supernova_spec()},
  };
  // Build (or load) the Helm table cache outside the measured window so
  // supernova tenants load it instead of each paying the table build.
  {
    mem::PagePool pool;
    (void)eos::HelmTable::build_or_load(matrix[2].spec.supernova.table_spec,
                                        mem::HugePolicy::kNone, pool);
  }

  std::printf("== Service under Poisson load: %d jobs/scan, %.0f jobs/s ==\n",
              njobs, rate);

  constexpr int kWorkerScan[] = {2, 4};
  std::vector<ScanResult> scans;
  bool ok = true;

  for (const int workers : kWorkerScan) {
    opts.workers = workers;
    svc::Service service(opts);

    Rng rng(seed);  // same arrival sequence at every worker count
    ScanResult scan;
    scan.workers = workers;
    scan.classes.resize(matrix.size());

    struct Issued {
      svc::JobId id;
      std::size_t cls;
    };
    std::vector<Issued> issued;
    const auto t0 = std::chrono::steady_clock::now();
    for (int j = 0; j < njobs; ++j) {
      const double dt = -std::log(1.0 - rng.uniform()) / rate;
      std::this_thread::sleep_for(std::chrono::duration<double>(dt));
      const auto cls = static_cast<std::size_t>(j) % matrix.size();
      svc::JobSpec spec = matrix[cls].spec;
      if (!trace.empty() && workers == kWorkerScan[0] && j == 0) {
        spec.timeline_path = trace;
      }
      // An open-loop generator with backpressure: a kQueueFull answer
      // means the arrival waits and retries, it is not dropped.
      for (;;) {
        const svc::Submission s = service.submit(spec);
        if (s.accepted()) {
          issued.push_back({s.id, cls});
          break;
        }
        if (s.reason != svc::RejectReason::kQueueFull) {
          std::fprintf(stderr, "submit rejected: %s\n",
                       svc::to_string(s.reason));
          return 1;
        }
        ++scan.backpressure_retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }

    std::vector<std::vector<double>> latencies(matrix.size());
    for (const Issued& i : issued) {
      const svc::JobResult r = service.wait(i.id);
      if (r.status != svc::JobStatus::kDone) {
        std::fprintf(stderr, "job %llu (%s) resolved %s: %s\n",
                     static_cast<unsigned long long>(r.id),
                     matrix[i.cls].name, svc::to_string(r.status),
                     r.error.c_str());
        ++scan.failed;
        continue;
      }
      latencies[i.cls].push_back(r.wall_seconds);
    }
    scan.span_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    scan.sims_per_sec =
        scan.span_seconds > 0.0
            ? static_cast<double>(issued.size() - scan.failed) /
                  scan.span_seconds
            : 0.0;

    for (std::size_t c = 0; c < matrix.size(); ++c) {
      std::vector<double>& v = latencies[c];
      std::sort(v.begin(), v.end());
      ClassStats& cs = scan.classes[c];
      cs.jobs = static_cast<int>(v.size());
      cs.p50 = percentile(v, 0.50);
      cs.p99 = percentile(v, 0.99);
      double sum = 0.0;
      for (const double x : v) sum += x;
      cs.mean = v.empty() ? 0.0 : sum / static_cast<double>(v.size());
      std::printf("# workers=%d class=%-9s jobs=%2d p50=%.3f s p99=%.3f s\n",
                  workers, matrix[c].name, cs.jobs, cs.p50, cs.p99);
      if (cs.jobs == 0) {
        std::fprintf(stderr, "class %s finished empty\n", matrix[c].name);
        ok = false;
      }
    }
    std::printf("# workers=%d sims/sec=%.2f (%d retries, %d failed)\n",
                workers, scan.sims_per_sec, scan.backpressure_retries,
                scan.failed);
    ok = ok && scan.failed == 0;
    scans.push_back(std::move(scan));
  }

  std::FILE* f = std::fopen(json.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json.c_str());
    return 1;
  }
  bench::JsonWriter w(f);
  w.begin_object();
  w.field("bench", "service");
  w.field("jobs_per_scan", njobs);
  w.field("arrival_rate_hz", rate);
  w.begin_array("scans");
  for (const ScanResult& scan : scans) {
    w.begin_object();
    w.field("workers", scan.workers);
    w.field("sims_per_sec", scan.sims_per_sec);
    w.field("span_seconds", scan.span_seconds);
    w.field("backpressure_retries", scan.backpressure_retries);
    w.field("failed", scan.failed);
    w.begin_array("classes");
    for (std::size_t c = 0; c < matrix.size(); ++c) {
      const ClassStats& cs = scan.classes[c];
      w.begin_object();
      w.field("name", matrix[c].name);
      w.field("jobs", cs.jobs);
      w.field("p50_seconds", cs.p50);
      w.field("p99_seconds", cs.p99);
      w.field("mean_seconds", cs.mean);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.field("all_jobs_done", ok);
  w.end_object();
  std::fclose(f);
  std::printf("# wrote %s\n", json.c_str());
  return ok ? 0 : 1;
}
