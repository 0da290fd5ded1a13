#!/usr/bin/env python3
"""Summarize one set of benchmark runs, or compare two.

    python3 perfbench/compare.py runs.jsonl
    python3 perfbench/compare.py base.jsonl head.jsonl

Inputs are run logs as run.py appends them (.bench_build/results.jsonl by
default, or --out). One file: per workload and metric, the median, the
quartiles and the spread (interquartile distance over the median) of its
runs. Two files: each end-to-end metric's median move from base to head,
judged against the metric's bound in BENCHMARK.json:

    worse       the head median is worse by more than the bound
    unresolved  a side's own spread exceeds the bound
    ok          neither

Exits 1 if any metric is worse, or if any run was not correct.
"""

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def load_runs(path):
    """{(workload, trace): {metric: [values]}} plus the count of
    incorrect runs."""
    groups = defaultdict(lambda: defaultdict(list))
    incorrect = 0
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        incorrect += 0 if run["correct"] else 1
        for name, m in run["metrics"].items():
            groups[(run["workload"], run["trace"])][name].append(m["value"])
    return groups, incorrect


def load_bounds(path):
    spec = json.loads(Path(path).read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def summarize(groups, out):
    for (workload, trace), metrics in sorted(groups.items()):
        out.write(f"{workload} (trace {trace})\n")
        for name, values in metrics.items():
            q1, mid, q3 = stats.quartiles(values)
            out.write(f"  {name:34s} n={len(values):<3d} median={mid:.6g} "
                      f"q1={q1:.6g} q3={q3:.6g} "
                      f"spread={stats.spread(values):.3f}\n")


def compare(base, head, bounds, out):
    worse = 0
    for key in sorted(set(base) & set(head)):
        workload, trace = key
        if trace != 0:
            continue
        out.write(f"{workload}\n")
        for name, spec in bounds.items():
            if name not in base[key] or name not in head[key]:
                continue
            word, change = stats.verdict(base[key][name], head[key][name],
                                         spec["bound"], spec["better"])
            worse += word == "worse"
            out.write(
                f"  {name:20s} base={stats.median(base[key][name]):.6g} "
                f"head={stats.median(head[key][name]):.6g} "
                f"worse_by={change:+.3f} bound={spec['bound']} {word}\n")
    return worse


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+", type=Path,
                        help="one run log to summarize, or base and head")
    parser.add_argument("--benchmark", type=Path,
                        default=HERE.parent / "BENCHMARK.json")
    args = parser.parse_args()
    if len(args.runs) > 2:
        parser.error("give one or two run logs")
    loaded = [load_runs(p) for p in args.runs]
    incorrect = sum(n for _, n in loaded)
    if len(loaded) == 1:
        summarize(loaded[0][0], sys.stdout)
        worse = 0
    else:
        worse = compare(loaded[0][0], loaded[1][0],
                        load_bounds(args.benchmark), sys.stdout)
    if incorrect:
        print(f"{incorrect} run(s) were not correct")
    return 1 if worse or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
