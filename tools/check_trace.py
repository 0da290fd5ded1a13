#!/usr/bin/env python3
"""check_trace: validator for flashhp timeline exports.

Validates that a chrome://tracing / Perfetto JSON file written by
`fhp::obs::write_timeline` is well-formed and contains what a telemetry
run promises: properly nested complete ("X") span events with sane
timestamps, counter ("C") tracks for the memory/THP series, and the
span latency histograms under the "flashhpSummary" key. Used by ctest
(the telemetry fixture runs sedov3d and validates the output) and by the
CI telemetry job.

Usage:
  check_trace.py timeline.json
      [--require-span NAME]...       span name that must appear
      [--require-counter TRACK]...   counter track that must appear
      [--require-histogram NAME]...  summary histogram that must appear
      [--min-lanes N]                spans must come from >= N distinct tids
      [--min-spans N]                total span count floor
      [--csv FILE]                   also validate a sampler CSV
      [--span-totals]                print each span name's count and
                                     busy seconds from the summary's
                                     exact histograms; invalid if one
                                     lacks "total_ns" or the reduction
                                     overflowed ("spanOverflow" > 0)
      [--self-test]                  validate the validator

Whenever a sampler ran (the summary has "samplesTaken"), the summary
must also say what it missed: "samplesMissed" (cadence ticks skipped by
overrunning captures) and "samplePeriodNs" (the achieved mean period).

The summary's histograms come from the runtime's exact span reduction,
so --span-totals holds at any run length; "droppedSpans" counts only the
ring records the timeline no longer draws.

Exit status: 0 valid, 1 invalid, 2 bad invocation.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile


class TraceError(Exception):
    pass


def fail(msg: str) -> None:
    raise TraceError(msg)


def load(path: pathlib.Path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        fail("top level must be the JSON-object trace form")
    if "traceEvents" not in doc or not isinstance(doc["traceEvents"], list):
        fail("missing 'traceEvents' array")
    return doc


def check_events(doc: dict) -> tuple[dict[str, int], dict[str, int]]:
    """Validate every event; return (span name -> count, counter track ->
    sample count)."""
    spans: dict[str, int] = {}
    counters: dict[str, int] = {}
    # Per-tid (name, start, end) triples, nesting-checked after the scan:
    # the trace format carries no ordering guarantee (flashhp emits spans
    # in completion order, innermost first), so events are sorted by start
    # time before the stack walk.
    spans_by_tid: dict[int, list[tuple[str, float, float]]] = {}
    for idx, ev in enumerate(doc["traceEvents"]):
        if not isinstance(ev, dict):
            fail(f"traceEvents[{idx}] is not an object")
        ph = ev.get("ph")
        if ph not in ("X", "C", "i", "I", "M", "B", "E"):
            fail(f"traceEvents[{idx}] has unsupported phase {ph!r}")
        if ph == "M":
            continue
        name = ev.get("name")
        if not isinstance(name, str) or not name:
            fail(f"traceEvents[{idx}] has no name")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"traceEvents[{idx}] ({name}): bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(f"traceEvents[{idx}] ({name}): bad dur {dur!r}")
            tid = ev.get("tid")
            if not isinstance(tid, int) or tid < 0:
                fail(f"traceEvents[{idx}] ({name}): bad tid {tid!r}")
            spans_by_tid.setdefault(tid, []).append(
                (name, float(ts), float(ts) + float(dur)))
            spans[name] = spans.get(name, 0) + 1
        elif ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                fail(f"counter '{name}': missing args")
            for key, value in args.items():
                if not isinstance(value, (int, float)):
                    fail(f"counter '{name}': non-numeric series "
                         f"{key}={value!r}")
            counters[name] = counters.get(name, 0) + 1
    # Complete events on one tid must nest: each pair is either disjoint
    # or one contains the other. Sorted by start (outermost first at equal
    # starts), a single stack walk catches any straddling pair.
    for tid, tid_spans in spans_by_tid.items():
        tid_spans.sort(key=lambda s: (s[1], -s[2]))
        stack: list[tuple[str, float, float]] = []
        for name, begin, end in tid_spans:
            while stack and stack[-1][2] <= begin:
                stack.pop()
            if stack:
                oname, obegin, oend = stack[-1]
                if end > oend and begin < oend:
                    fail(f"span '{name}' [{begin},{end}] on tid {tid} "
                         f"overlaps '{oname}' [{obegin},{oend}] "
                         f"without nesting")
            stack.append((name, begin, end))
    return spans, counters


def span_totals(summary: dict) -> dict[str, tuple[int, float]]:
    """Span name -> (count, busy seconds) from the summary's exact
    histograms."""
    overflow = summary.get("spanOverflow")
    if not isinstance(overflow, int):
        fail("flashhpSummary is missing 'spanOverflow'")
    if overflow > 0:
        fail(f"{overflow} span(s) overflowed the runtime's reduction: "
             f"the totals would undercount")
    totals: dict[str, tuple[int, float]] = {}
    for name, h in summary["histograms"].items():
        if not isinstance(h.get("total_ns"), int):
            fail(f"histogram '{name}': missing/non-integer 'total_ns'")
        totals[name] = (h["count"], h["total_ns"] * 1e-9)
    return totals


def print_span_totals(summary: dict) -> None:
    totals = span_totals(summary)
    width = max([len("span")] + [len(name) for name in totals])
    print(f"{'span':<{width}}  {'count':>9}  {'total_s':>12}")
    for name, (count, total) in sorted(totals.items(),
                                       key=lambda kv: -kv[1][1]):
        print(f"{name:<{width}}  {count:>9}  {total:>12.6f}")


def span_tids(doc: dict) -> set[int]:
    return {ev["tid"] for ev in doc["traceEvents"]
            if isinstance(ev, dict) and ev.get("ph") == "X"}


def check_summary(doc: dict) -> dict:
    summary = doc.get("flashhpSummary")
    if not isinstance(summary, dict):
        fail("missing 'flashhpSummary' object")
    for key in ("totalSpans", "droppedSpans", "histograms"):
        if key not in summary:
            fail(f"flashhpSummary is missing '{key}'")
    hists = summary["histograms"]
    if not isinstance(hists, dict):
        fail("flashhpSummary.histograms must be an object")
    for name, h in hists.items():
        for key in ("count", "p50_ns", "p90_ns", "p99_ns", "max_ns"):
            if not isinstance(h.get(key), (int, float)):
                fail(f"histogram '{name}': missing/non-numeric '{key}'")
        if not (h["p50_ns"] <= h["p90_ns"] <= h["p99_ns"] <= h["max_ns"]):
            fail(f"histogram '{name}': quantiles not monotonic")
    if "samplesTaken" in summary:
        for key in ("samplesTaken", "samplesMissed", "samplePeriodNs"):
            value = summary.get(key)
            if not isinstance(value, int) or value < 0:
                fail(f"flashhpSummary: sampler field '{key}' must be a "
                     f"non-negative integer, got {value!r}")
        if summary["samplesTaken"] >= 2 and summary["samplePeriodNs"] == 0:
            fail("flashhpSummary: samplePeriodNs is 0 over "
                 f"{summary['samplesTaken']} samples")
    return summary


def check_csv(path: pathlib.Path) -> int:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    if not lines:
        fail(f"{path}: empty CSV")
    header = lines[0].split(",")
    if header[0] != "t_ns":
        fail(f"{path}: first column must be t_ns, got {header[0]!r}")
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            fail(f"{path}:{i}: {len(cells)} cells, header has {len(header)}")
        if not cells[0].isdigit():
            fail(f"{path}:{i}: non-integer t_ns {cells[0]!r}")
        # Empty cells are legal: they are the "kernel does not report
        # this field" encoding. Non-empty cells must be integers.
        for j, cell in enumerate(cells[1:], start=1):
            if cell and not cell.lstrip("-").isdigit():
                fail(f"{path}:{i}: column {header[j]}: "
                     f"non-numeric {cell!r}")
    return len(lines) - 1


def validate(args: argparse.Namespace) -> int:
    doc = load(args.trace)
    spans, counters = check_events(doc)
    summary = check_summary(doc)

    for name in args.require_span:
        if spans.get(name, 0) == 0:
            fail(f"required span '{name}' not present "
                 f"(have: {sorted(spans) or 'none'})")
    for track in args.require_counter:
        if counters.get(track, 0) == 0:
            fail(f"required counter track '{track}' not present "
                 f"(have: {sorted(counters) or 'none'})")
    for name in args.require_histogram:
        if name not in summary["histograms"]:
            fail(f"required histogram '{name}' not present "
                 f"(have: {sorted(summary['histograms']) or 'none'})")
    lanes = span_tids(doc)
    if len(lanes) < args.min_lanes:
        fail(f"spans on {len(lanes)} lane(s) {sorted(lanes)}, "
             f"need >= {args.min_lanes}")
    total = sum(spans.values())
    if total < args.min_spans:
        fail(f"{total} spans, need >= {args.min_spans}")

    rows = check_csv(args.csv) if args.csv else None
    if args.span_totals:
        print_span_totals(summary)
    msg = (f"check_trace: OK — {total} spans over {len(lanes)} lane(s), "
           f"{sum(counters.values())} counter samples on "
           f"{len(counters)} track(s), "
           f"{len(summary['histograms'])} histogram(s)")
    if rows is not None:
        msg += f", {rows} CSV row(s)"
    print(msg)
    return 0


# -------------------------------------------------------------- self test

GOOD_TRACE = {
    "traceEvents": [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "flashhp"}},
        {"name": "driver.step", "cat": "span", "ph": "X", "ts": 0.0,
         "dur": 100.0, "pid": 1, "tid": 0, "args": {"depth": 0}},
        {"name": "hydro.sweep_x", "cat": "span", "ph": "X", "ts": 10.0,
         "dur": 50.0, "pid": 1, "tid": 0, "args": {"depth": 1}},
        {"name": "hydro.sweep_block", "cat": "span", "ph": "X", "ts": 12.0,
         "dur": 5.0, "pid": 1, "tid": 1, "args": {"depth": 0}},
        {"name": "step 1", "cat": "step", "ph": "i", "ts": 100.0, "pid": 1,
         "tid": 0, "s": "p", "args": {"step": 1, "t": 0.1, "dt": 0.1}},
        {"name": "meminfo.AnonHugePages", "cat": "counter", "ph": "C",
         "ts": 5.0, "pid": 1, "tid": 0, "args": {"bytes": 2097152}},
    ],
    "displayTimeUnit": "ms",
    "flashhpSummary": {
        "totalSpans": 3,
        "droppedSpans": 0,
        "spanOverflow": 0,
        "samplesTaken": 3,
        "samplesMissed": 1,
        "samplePeriodNs": 2000000,
        "histograms": {
            "driver.step": {"count": 1, "total_ns": 100000,
                            "mean_ns": 100000.0, "p50_ns": 100000,
                            "p90_ns": 100000, "p99_ns": 100000,
                            "min_ns": 100000, "max_ns": 100000},
            "task.sweep_x": {"count": 4, "total_ns": 20000,
                             "mean_ns": 5000.0, "p50_ns": 5000,
                             "p90_ns": 5000, "p99_ns": 5000,
                             "min_ns": 5000, "max_ns": 5000},
        },
    },
}

GOOD_CSV = ("t_ns,meminfo_anon_huge_pages,thp_fault_alloc\n"
            "1000,2097152,12\n"
            "2000,,13\n")


def self_test() -> int:
    import copy

    failures = 0

    def case(name: str, should_pass: bool, trace=None, csv=None,
             **kwargs) -> None:
        nonlocal failures
        with tempfile.TemporaryDirectory(prefix="check_trace_") as tmp:
            root = pathlib.Path(tmp)
            tpath = root / "t.json"
            if isinstance(trace, str):
                tpath.write_text(trace)
            else:
                tpath.write_text(json.dumps(trace))
            ns = argparse.Namespace(
                trace=tpath, require_span=kwargs.get("require_span", []),
                require_counter=kwargs.get("require_counter", []),
                require_histogram=kwargs.get("require_histogram", []),
                min_lanes=kwargs.get("min_lanes", 0),
                min_spans=kwargs.get("min_spans", 0),
                span_totals=kwargs.get("span_totals", False),
                csv=None)
            if csv is not None:
                ns.csv = root / "t.csv"
                ns.csv.write_text(csv)
            try:
                validate(ns)
                passed = True
            except TraceError as e:
                passed = False
                detail = str(e)
            if passed != should_pass:
                failures += 1
                expect = "pass" if should_pass else "fail"
                got = "pass" if passed else f"fail ({detail})"
                print(f"SELF-TEST FAIL {name}: expected {expect}, got {got}",
                      file=sys.stderr)

    bad_json = "{ not json"
    unnested = copy.deepcopy(GOOD_TRACE)
    unnested["traceEvents"].append(
        {"name": "straddles", "ph": "X", "ts": 50.0, "dur": 100.0,
         "pid": 1, "tid": 0, "args": {}})
    no_summary = {"traceEvents": GOOD_TRACE["traceEvents"]}
    bad_quantiles = copy.deepcopy(GOOD_TRACE)
    bad_quantiles["flashhpSummary"]["histograms"]["driver.step"][
        "p50_ns"] = 999999999
    negative_ts = copy.deepcopy(GOOD_TRACE)
    negative_ts["traceEvents"][1]["ts"] = -1.0

    case("good", True, GOOD_TRACE, csv=GOOD_CSV,
         require_span=["driver.step", "hydro.sweep_x"],
         require_counter=["meminfo.AnonHugePages"],
         require_histogram=["driver.step"], min_lanes=2, min_spans=3)
    case("bad-json", False, bad_json)
    case("unnested-overlap", False, unnested)
    case("missing-summary", False, no_summary)
    case("quantiles-not-monotonic", False, bad_quantiles)
    case("negative-ts", False, negative_ts)
    case("missing-required-span", False, GOOD_TRACE,
         require_span=["flame.advance"])
    case("missing-counter-track", False, GOOD_TRACE,
         require_counter=["vmstat.thp_fault_alloc"])
    case("not-enough-lanes", False, GOOD_TRACE, min_lanes=3)
    case("bad-csv-cell", False, GOOD_TRACE,
         csv="t_ns,a\n1000,xyz\n")
    case("ragged-csv-row", False, GOOD_TRACE,
         csv="t_ns,a\n1000\n")
    dropped = copy.deepcopy(GOOD_TRACE)
    dropped["flashhpSummary"]["droppedSpans"] = 5
    overflowed = copy.deepcopy(GOOD_TRACE)
    overflowed["flashhpSummary"]["spanOverflow"] = 2
    no_total = copy.deepcopy(GOOD_TRACE)
    del no_total["flashhpSummary"]["histograms"]["task.sweep_x"]["total_ns"]
    no_missed = copy.deepcopy(GOOD_TRACE)
    del no_missed["flashhpSummary"]["samplesMissed"]
    zero_period = copy.deepcopy(GOOD_TRACE)
    zero_period["flashhpSummary"]["samplePeriodNs"] = 0
    no_sampler = copy.deepcopy(GOOD_TRACE)
    for key in ("samplesTaken", "samplesMissed", "samplePeriodNs"):
        del no_sampler["flashhpSummary"][key]
    case("span-totals", True, GOOD_TRACE, span_totals=True)
    # Ring drops do not touch the exact totals; a reduction that could not
    # time a span, or a histogram without its busy total, does.
    case("span-totals-dropped-spans", True, dropped, span_totals=True)
    case("span-totals-overflow", False, overflowed, span_totals=True)
    case("span-totals-missing-total-ns", False, no_total, span_totals=True)
    case("dropped-spans-without-totals", True, dropped)
    case("sampler-without-missed", False, no_missed)
    case("sampler-zero-period", False, zero_period)
    case("no-sampler-no-fields", True, no_sampler)

    totals = span_totals(GOOD_TRACE["flashhpSummary"])
    want = {"driver.step": (1, 1e-4), "task.sweep_x": (4, 2e-5)}
    if totals.keys() != want.keys() or any(
            totals[k][0] != want[k][0]
            or abs(totals[k][1] - want[k][1]) > 1e-12 for k in want):
        failures += 1
        print(f"SELF-TEST FAIL span-totals-values: got {totals}",
              file=sys.stderr)

    if failures == 0:
        print("check_trace self-test: OK (20 scenarios)")
        return 0
    print(f"check_trace self-test: {failures} scenario(s) failed",
          file=sys.stderr)
    return 1


# ------------------------------------------------------------------- main

def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="check_trace.py",
        description="validator for flashhp chrome://tracing exports")
    parser.add_argument("trace", nargs="?", type=pathlib.Path,
                        help="timeline JSON to validate")
    parser.add_argument("--require-span", action="append", default=[],
                        metavar="NAME")
    parser.add_argument("--require-counter", action="append", default=[],
                        metavar="TRACK")
    parser.add_argument("--require-histogram", action="append", default=[],
                        metavar="NAME")
    parser.add_argument("--min-lanes", type=int, default=0, metavar="N")
    parser.add_argument("--min-spans", type=int, default=0, metavar="N")
    parser.add_argument("--csv", type=pathlib.Path,
                        help="sampler CSV to validate alongside")
    parser.add_argument("--span-totals", action="store_true",
                        help="print count and busy seconds per span name "
                             "from the exact summary histograms")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.trace is None:
        parser.error("a timeline JSON path is required (or --self-test)")
    try:
        return validate(args)
    except TraceError as e:
        print(f"check_trace: INVALID — {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
