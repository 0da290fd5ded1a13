#!/usr/bin/env python3
"""flashhp end-to-end benchmark: build, run one workload, print metrics.

    python3 perfbench/run.py --workload sedov3d --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (which pulls in the library from src/) under .bench_build/ and
builds the Helm-table caches there, so no timed window pays for them.

--trace 0 prints the end-to-end metrics of timed runs of the stock
sim::Driver / svc::Service; --trace 1 prints the per-layer metrics of a
traced run. Every metric is printed as "# name = value unit", then a
provenance line, then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each run is also appended to .bench_build/results.jsonl (or --out) for
compare.py. See README.md in this directory for the workloads and the
map from layer metrics to end-to-end metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
CACHE_DIR = BUILD / "cache"
EXE = CMAKE_DIR / "perfbench_run"

WORKLOADS = ("sedov3d", "supernova2d", "service_mix")

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("latency_midmean_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mib", "MiB"),
)

PER_LAYER = (
    ("hydro.compute_dt_s", "s"),
    ("hydro.sweep_s", "s"),
    ("hydro.zone_sweeps", "count"),
    ("hydro.zones_per_s", "zone/s"),
    ("eos.update_s", "s"),
    ("eos.zone_evals", "count"),
    ("eos.zones_per_s", "zone/s"),
    ("mesh.guardfill_s", "s"),
    ("mesh.remesh_s", "s"),
    ("mesh.remesh_changes", "count"),
    ("flame.advance_s", "s"),
    ("gravity.update_s", "s"),
    ("gravity.source_s", "s"),
    ("tlb.replay_s", "s"),
    ("tlb.model_s", "s"),
    ("tlb.model_dtlb_misses", "count"),
) + tuple(
    (f"tlb.{measure}.{region}", unit)
    for measure, unit in (("model_cycles", "cycles"),
                          ("model_dtlb_misses", "count"),
                          ("model_bytes", "B"))
    for region in ("hydro", "eos", "flame", "grid")
) + (
    ("mem.setup_minflt", "count"),
    ("mem.run_minflt", "count"),
    ("mem.huge_resident_frac", "fraction"),
    ("mem.pool_huge_allocs", "count"),
    ("mem.pool_thp_fallbacks", "count"),
    ("mem.pool_base_fallbacks", "count"),
    ("rt.runtime_init_s", "s"),
    ("sim.setup_init_s", "s"),
    ("sim.setup_solo_s.sedov", "s"),
    ("sim.setup_solo_s.cellular", "s"),
    ("sim.setup_solo_s.supernova", "s"),
    ("svc.queue_p50_s", "s"),
    ("svc.exec_p50_s", "s"),
    ("svc.batch_p50_s", "s"),
    ("svc.queue_depth_max", "count"),
    ("svc.backpressure_retries", "count"),
    ("svc.generator_lag_p90_s", "s"),
    ("bench.trace_overhead_frac", "fraction"),
    ("bench.unattributed_frac", "fraction"),
)

# Per-layer metrics reduced here from raw samples: (name, sample key, q).
SAMPLED_LAYERS = (
    ("svc.queue_p50_s", "queue_s", 0.5),
    ("svc.exec_p50_s", "exec_s", 0.5),
    ("svc.batch_p50_s", "batch_latency_s", 0.5),
    ("svc.generator_lag_p90_s", "generator_lag_s", 0.9),
)

# Percentile of the interactive job latencies reported as service_mix's
# latency_tail_s. The latencies fall into a fast and a slow mode (jobs on
# a slowed core of the shared host), and the p90 jumps between them: its
# spread was 0.42 over ten runs on a busy host. Over twelve calmer runs
# the p90 spread 0.12 and the p75 0.07.
SERVICE_TAIL_Q = 0.75

# A run must end within 180 s; only the first one in a checkout (which
# builds) may take longer, so the clock starts after the build.
RUN_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def call(cmd, timeout):
    """Run a build step with its output on stderr; raise on failure."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        raise BenchError(f"{' '.join(map(str, cmd))}: {e}") from e


def build():
    """Configure/build perfbench_run and the Helm caches (idempotent)."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError(f"no flashhp sources under {ROOT}")
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (CMAKE_DIR / "CMakeCache.txt").is_file():
            call(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300)
        call(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
              "perfbench_run"], 800)
        call([EXE, "--prepare", "--cache-dir", CACHE_DIR], 300)


def run_workload(args):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cache-dir", CACHE_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{args.workload} timed out") from e
    if proc.returncode != 0:
        raise BenchError(f"perfbench_run exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench_run printed no record")
    return json.loads(lines[-1])


def metrics_of(record, trace):
    """Reduce a raw record to the named metrics: {name: (value, unit)}."""
    samples, values, prov = (record["samples"], record["values"],
                             record["provenance"])
    out = {}
    if not trace:
        latency = samples["latency_s"]
        prov["latency_samples"] = len(latency)
        if "nsteps" in prov:
            # Sim runs repeat one step budget. The host's slow spells
            # last seconds, so each step's best time over the repetitions
            # is the profile; its midmean and its slowest step are reported.
            profile = stats.best_of_reps(latency, prov["nsteps"])
            prov["latency_reps"] = len(latency) // len(profile)
            mid, tail = stats.midmean(profile), max(profile)
            run_s = min(samples["run_s"])
        else:
            # A service run is one job stream.
            tail = stats.percentile(latency, SERVICE_TAIL_Q)
            prov["latency_tail_q"] = SERVICE_TAIL_Q
            mid = stats.midmean(latency)
            run_s = stats.median(samples["run_s"])
        reduced = {
            "setup_s": stats.median(samples["setup_s"]),
            "run_s": run_s,
            "latency_midmean_s": mid,
            "latency_tail_s": tail,
            "peak_rss_mib": values["peak_rss_mib"],
        }
        for name, unit in END_TO_END:
            out[name] = (reduced[name], unit)
        return out
    sampled = {name: stats.percentile(samples[key], q)
               for name, key, q in SAMPLED_LAYERS if samples.get(key)}
    for name, unit in PER_LAYER:
        value = sampled[name] if name in sampled else values[name]
        out[name] = (value, unit)
    return out


def file_digest(paths):
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def read_text(path, default=""):
    try:
        return Path(path).read_text()
    except OSError:
        return default


def cmake_cache():
    cache = {}
    for line in read_text(CMAKE_DIR / "CMakeCache.txt").splitlines():
        if ":" in line and "=" in line and not line.startswith(("//", "#")):
            key, _, value = line.partition("=")
            cache[key.split(":")[0]] = value
    return cache


def provenance():
    """Facts about the build and the host that every run records."""
    p = {}
    try:
        p["git_sha"] = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        p["git_sha"] = "none"
    sources = [f for d in ("src", "cmake", "perfbench")
               for f in (ROOT / d).rglob("*")
               if f.is_file() and "__pycache__" not in f.parts]
    p["source_digest"] = file_digest(sources + [ROOT / "CMakeLists.txt"])
    cache = cmake_cache()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    p["build_type"] = build_type
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        p["compiler"] = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True,
            timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        p["compiler"] = compiler
    p["cxx_flags"] = " ".join(filter(None, (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""))))
    p["nproc"] = os.cpu_count()
    meminfo = dict(line.split(":", 1) for line in
                   read_text("/proc/meminfo").splitlines() if ":" in line)
    p["hugetlb"] = {k: meminfo.get(k, "?").strip() for k in
                    ("HugePages_Total", "HugePages_Free", "Hugepagesize")}
    thp = read_text("/sys/kernel/mm/transparent_hugepage/enabled", "?")
    p["thp_mode"] = (thp.split("[")[1].split("]")[0] if "[" in thp
                     else thp.strip())
    llc = 0
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        if read_text(index / "level").strip() == "3":
            size = read_text(index / "size").strip()
            if size.endswith("K"):
                llc = int(size[:-1]) * 1024
            elif size.endswith("M"):
                llc = int(size[:-1]) * 1024 * 1024
    p["llc_bytes"] = llc
    return p


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BUILD / "results.jsonl",
                        help="append the run here for compare.py")
    args = parser.parse_args()
    try:
        build()
        record = run_workload(args)
        metrics = metrics_of(record, args.trace)
    except (BenchError, KeyError, ValueError) as e:
        log(f"error: {e}")
        return 1

    prov = provenance()
    prov.update(record["provenance"])
    ws = prov.get("working_set_bytes")
    if ws and prov["llc_bytes"]:
        prov["working_set_over_llc"] = round(ws / prov["llc_bytes"], 2)
    for failure in record["failures"]:
        log(f"check failed: {failure}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "trace": args.trace, "seconds": args.seconds,
                            "provenance": prov, **result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
