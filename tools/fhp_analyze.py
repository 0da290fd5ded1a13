#!/usr/bin/env python3
"""fhp_analyze: compiler-grade structural analysis for the flashhp tree.

flashhp_lint.py checks line-local textual invariants (magic literals, raw
mmap, include spelling). This tool checks *structural* properties of the
tree that only emerge from whole-file or whole-graph views:

  layering          project modules form a declared DAG

                        support -> mem -> tlb -> perf -> par -> mesh
                                -> {eos, hydro, flame, gravity} -> rt
                                -> sim -> obs -> svc

                    (left is the bottom). An `#include "mod/..."` edge
                    from a lower layer to a higher one is an error: it is
                    exactly the upward dependency (perf reaching into par,
                    tlb reaching into perf, mesh reaching into obs) that
                    the PR's dependency inversions removed. Modules inside
                    the braces are peers — edges between them are legal as
                    long as they stay acyclic. Downward edges are always
                    legal; the load-bearing one is tlb -> mem:
                    tlb/trace.hpp includes mem/mapped_region.hpp for
                    effective_page_shift(), the page size a traced region
                    is modeled at. mem must never include tlb back — that
                    would be the upward edge this rule exists to stop.

  layer-cycle       any cycle in the module-granularity include graph is
                    an error, reported at every include line that forms an
                    edge inside the cycle. This is what keeps the peer
                    group honest: hydro -> eos is fine until eos includes
                    hydro back.

  alloc-in-region   lexically inside the lambda passed to
                    ExecArena::parallel_for / parallel_for_blocks, or the task
                    body submitted via TaskGraph::add_task, no dynamic
                    allocation: no `new`, no malloc/calloc/realloc, no
                    growing-container calls (push_back, emplace_back,
                    emplace, resize, reserve, insert, assign, append), no
                    make_unique/make_shared. Region lambdas run on pool
                    lanes inside the hot loop the paper instruments; an
                    allocation there is both a scalability bug (allocator
                    lock) and a measurement bug (page faults charged to
                    the kernel under test). Allocate per-lane scratch
                    before the region, as hydro/flame do.

  alloc-in-noalloc  the inline body of a function annotated FHP_NO_ALLOC
                    (support/contracts.hpp) must contain none of the same
                    allocation tokens. Declaration-only annotations (body
                    out of line, macro not repeated) are not chased — the
                    scan is lexical, not interprocedural, by design: it
                    needs no compiler and runs in milliseconds.

  bare-suppression  a `fhp-analyze: allow(...)` comment with no
                    `-- reason` text. Unexplained suppressions are
                    findings themselves, and the unexplained allow does
                    NOT silence the rule it names.

The scan is lexical (comments and string/char literals are blanked before
matching) and interprocedural effects are out of scope: a region lambda
that calls a helper which allocates is caught by the FHP_NO_ALLOC
annotation on the helper, not by looking through the call.

File discovery: `-p/--compile-commands` points at a compile_commands.json
(or the build directory containing one); its translation units plus every
header under src/ are scanned, so the analyzer sees exactly what the
build sees. Without -p the tree under <root>/src is walked.

Suppressions (sparingly, must carry a reason):
  // fhp-analyze: allow(rule-id) -- <why this one site is licensed>
on the flagged line or alone on the line above.

Exit status: 0 clean, 1 findings, 2 bad invocation.
Run `fhp_analyze.py --self-test` to verify every rule still catches its
planted fixture (wired into ctest as fhp_analyze_selftest).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import fhp_report  # noqa: E402
from fhp_report import Finding  # noqa: E402
from flashhp_lint import strip_code  # noqa: E402

TOOL = "fhp_analyze"
VERSION = "1.0"
CXX_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}

# The declared module DAG, bottom first. Index = layer; modules sharing an
# index are peers (edges between them allowed, cycles still forbidden).
LAYERS: list[list[str]] = [
    ["support"],
    ["mem"],
    ["tlb"],
    ["perf"],
    ["par"],
    ["mesh"],
    ["eos", "hydro", "flame", "gravity"],
    ["rt"],
    ["sim"],
    ["obs"],
    ["svc"],
]

LAYER_OF: dict[str, int] = {
    mod: level for level, mods in enumerate(LAYERS) for mod in mods
}

RULES = {
    "layering":
        "include edge from a lower-layer module to a higher-layer one",
    "layer-cycle":
        "cycle in the module-granularity include graph",
    "alloc-in-region":
        "dynamic allocation inside a parallel_for/parallel_for_blocks "
        "lambda or a TaskGraph add_task body",
    "alloc-in-noalloc":
        "dynamic allocation in the inline body of an FHP_NO_ALLOC "
        "function",
    "bare-suppression":
        "fhp-analyze: allow(...) comment without a `-- reason`",
}

QUOTED_INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')
ALLOW_RE = re.compile(
    r"fhp-analyze:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)(\s*--\s*\S.*)?")
PARALLEL_CALL_RE = re.compile(
    r"(?<![\w:])(parallel_for_blocks|parallel_for|add_task)\s*\(")
NO_ALLOC_RE = re.compile(r"\bFHP_NO_ALLOC\b")
DEFINE_NO_ALLOC_RE = re.compile(r"#\s*define\s+FHP_NO_ALLOC\b")

# Allocation tokens, matched against comment/string-stripped code. The
# member-call alternative requires `.` or `->` so that free functions
# named e.g. `insert` in this codebase would not be miscaught; `new` is
# a keyword and safe to match bare.
ALLOC_TOKEN_RES: list[tuple[re.Pattern[str], str]] = [
    (re.compile(r"\bnew\b(?!\s*\()"), "new expression"),
    (re.compile(r"(?<![\w:])(?:std\s*::\s*)?"
                r"(malloc|calloc|realloc|aligned_alloc|strdup)\s*\("),
     "heap call"),
    (re.compile(r"(?:\.|->)\s*(push_back|emplace_back|emplace|resize|"
                r"reserve|insert|assign|append)\s*\("),
     "growing-container call"),
    (re.compile(r"\b(make_unique|make_shared)\s*<"), "factory allocation"),
]


def module_of(path: pathlib.Path, src: pathlib.Path) -> str | None:
    """First path component under src/, or None for files outside src/."""
    try:
        rel = path.relative_to(src)
    except ValueError:
        return None
    return rel.parts[0] if len(rel.parts) > 1 else None


def match_brace_span(text: str, open_index: int) -> int | None:
    """Index one past the `}` matching the `{` at open_index, or None if
    the file ends first. `text` must be comment/string-stripped."""
    depth = 0
    for i in range(open_index, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return None


def match_paren_span(text: str, open_index: int) -> int | None:
    """Index one past the `)` matching the `(` at open_index."""
    depth = 0
    for i in range(open_index, len(text)):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return None


class Analyzer:
    def __init__(self, root: pathlib.Path):
        self.root = root
        self.src = root / "src"
        self.findings: list[Finding] = []
        # (includer module, line location of first such edge) per edge —
        # the module graph for cycle detection.
        self.edges: dict[tuple[str, str], list[tuple[pathlib.Path, int]]] = {}

    # ----------------------------------------------------------- reporting
    def _relpath(self, path: pathlib.Path) -> str:
        return fhp_report.relativize(path, self.root)

    def _report(self, path: pathlib.Path, line: int, rule: str,
                message: str, allowed: dict[int, set[str]]) -> None:
        if rule in allowed.get(line, set()):
            return
        self.findings.append(
            Finding(self._relpath(path), line, rule, message))

    # ---------------------------------------------------------- file scan
    def scan_file(self, path: pathlib.Path) -> None:
        if path.suffix not in CXX_SUFFIXES:
            return
        text = path.read_text(encoding="utf-8", errors="replace")
        raw_lines = text.splitlines()
        code_lines = strip_code(text)
        stripped = "\n".join(code_lines)

        # Line starts in `stripped` so match offsets map back to lines.
        line_start = [0]
        for cl in code_lines:
            line_start.append(line_start[-1] + len(cl) + 1)

        def line_of(offset: int) -> int:
            lo, hi = 0, len(code_lines)
            while lo + 1 < hi:
                mid = (lo + hi) // 2
                if line_start[mid] <= offset:
                    lo = mid
                else:
                    hi = mid
            return lo + 1

        # -- suppressions ---------------------------------------------
        # allowed[line] = rule ids licensed on that line. A comment-only
        # allow line covers the next line. An allow with no reason is a
        # bare-suppression finding and licenses nothing.
        allowed: dict[int, set[str]] = {}
        for lineno, raw in enumerate(raw_lines, start=1):
            m = ALLOW_RE.search(raw)
            if not m:
                continue
            rules = {r.strip() for r in m.group(1).split(",")}
            if not m.group(2):
                self.findings.append(Finding(
                    self._relpath(path), lineno, "bare-suppression",
                    "allow(...) without `-- reason`: explain why this "
                    "site is licensed (the suppression is not honoured)"))
                continue
            # A comment-only allow covers the next code line, skipping
            # over continuation comment lines in between.
            target = lineno
            if not code_lines[lineno - 1].strip():
                target = lineno + 1
                while (target <= len(code_lines) and
                       not code_lines[target - 1].strip() and
                       raw_lines[target - 1].strip()):
                    target += 1
            allowed.setdefault(target, set()).update(rules)

        # -- layering + edge collection -------------------------------
        mod = module_of(path, self.src)
        if mod is not None and mod in LAYER_OF:
            for lineno, code in enumerate(code_lines, start=1):
                if not re.match(r"\s*#\s*include", code):
                    continue
                raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
                for m in QUOTED_INCLUDE_RE.finditer(raw):
                    target = m.group(1).split("/", 1)[0]
                    if "/" not in m.group(1) or target not in LAYER_OF:
                        continue  # spelling is flashhp_lint's business
                    if target != mod:
                        self.edges.setdefault((mod, target), []).append(
                            (path, lineno))
                    if LAYER_OF[target] > LAYER_OF[mod]:
                        self._report(
                            path, lineno, "layering",
                            f'module "{mod}" (layer {LAYER_OF[mod]}) '
                            f'includes "{m.group(1)}" from higher layer '
                            f'"{target}" (layer {LAYER_OF[target]}) — '
                            f'invert the dependency (see support/events.hpp '
                            f'and support/trace.hpp for the pattern)',
                            allowed)

        # -- alloc-in-region ------------------------------------------
        for m in PARALLEL_CALL_RE.finditer(stripped):
            call_open = stripped.index("(", m.end() - 1)
            call_end = match_paren_span(stripped, call_open)
            if call_end is None:
                continue
            # The lambda body is the first braced block inside the
            # argument list (the trip-count argument cannot contain one).
            brace = stripped.find("{", call_open, call_end)
            if brace == -1:
                continue
            body_end = match_brace_span(stripped, brace)
            if body_end is None or body_end > call_end:
                continue
            self._scan_alloc_tokens(
                path, stripped, brace, body_end, "alloc-in-region",
                f"inside a {m.group(1)} lambda — allocate per-lane "
                f"scratch before entering the region (task bodies run "
                f"on work-stealing lanes: allocate at graph "
                f"construction, not in run())", line_of, allowed)

        # -- alloc-in-noalloc -----------------------------------------
        for m in NO_ALLOC_RE.finditer(stripped):
            lineno = line_of(m.start())
            if DEFINE_NO_ALLOC_RE.search(code_lines[lineno - 1]):
                continue  # the macro definition itself
            # Find the body start: the first `{` at paren-depth 0 before
            # any `;` at paren-depth 0 (declaration-only → skip).
            depth = 0
            body = -1
            for i in range(m.end(), len(stripped)):
                c = stripped[i]
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                elif depth == 0 and c == ";":
                    break
                elif depth == 0 and c == "{":
                    body = i
                    break
            if body == -1:
                continue
            body_end = match_brace_span(stripped, body)
            if body_end is None:
                continue
            self._scan_alloc_tokens(
                path, stripped, body, body_end, "alloc-in-noalloc",
                "in the body of an FHP_NO_ALLOC function", line_of, allowed)

    def _scan_alloc_tokens(self, path: pathlib.Path, stripped: str,
                           begin: int, end: int, rule: str, where: str,
                           line_of, allowed: dict[int, set[str]]) -> None:
        body = stripped[begin:end]
        for pattern, kind in ALLOC_TOKEN_RES:
            for m in pattern.finditer(body):
                token = m.group(0).strip().rstrip("(").strip()
                self._report(
                    path, line_of(begin + m.start()), rule,
                    f"{kind} `{token}` {where}", allowed)

    # ---------------------------------------------------------- cycle pass
    def check_cycles(self) -> None:
        """Tarjan-free SCC via iterative DFS over the tiny module graph;
        every include edge inside a non-trivial SCC is reported."""
        graph: dict[str, set[str]] = {}
        for (a, b) in self.edges:
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set())

        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        sccs: list[set[str]] = []
        counter = [0]

        def strongconnect(v: str) -> None:
            work = [(v, iter(sorted(graph[v])))]
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            while work:
                node, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index:
                        index[w] = low[w] = counter[0]
                        counter[0] += 1
                        stack.append(w)
                        on_stack.add(w)
                        work.append((w, iter(sorted(graph[w]))))
                        advanced = True
                        break
                    if w in on_stack:
                        low[node] = min(low[node], index[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    scc: set[str] = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.add(w)
                        if w == node:
                            break
                    sccs.append(scc)

        for v in sorted(graph):
            if v not in index:
                strongconnect(v)

        for scc in sccs:
            if len(scc) < 2:
                continue
            cycle = " <-> ".join(sorted(scc))
            for (a, b), sites in sorted(self.edges.items()):
                if a in scc and b in scc:
                    for site_path, site_line in sites:
                        self.findings.append(Finding(
                            self._relpath(site_path), site_line,
                            "layer-cycle",
                            f'include edge "{a}" -> "{b}" participates in '
                            f"the module cycle {{{cycle}}}"))

    # ----------------------------------------------------------- tree scan
    def scan(self, files: list[pathlib.Path]) -> None:
        for path in sorted(set(files)):
            self.scan_file(path)
        self.check_cycles()


# ------------------------------------------------------- file discovery

def files_from_compile_commands(p: pathlib.Path,
                                root: pathlib.Path) -> list[pathlib.Path]:
    db = p / "compile_commands.json" if p.is_dir() else p
    entries = json.loads(db.read_text(encoding="utf-8"))
    files: list[pathlib.Path] = []
    for entry in entries:
        f = pathlib.Path(entry["file"])
        if not f.is_absolute():
            f = pathlib.Path(entry.get("directory", ".")) / f
        f = f.resolve()
        try:
            f.relative_to(root)
        except ValueError:
            continue  # third-party TU (gtest, ...) — not ours to layer
        if f.is_file():
            files.append(f)
    return files


def headers_under(src: pathlib.Path) -> list[pathlib.Path]:
    return [p for p in src.rglob("*")
            if p.is_file() and p.suffix in {".hpp", ".hh", ".h"}]


# -------------------------------------------------------------- self test

SELF_TEST_FILES: dict[str, tuple[str, dict[str, int]]] = {
    # Upward include: mem (layer 1) reaching into perf (layer 3).
    "src/mem/bad_upward.cpp": (
        '#include "perf/perf_context.hpp"\n'
        'void touch() {}\n',
        {"layering": 1},
    ),
    # Peer edge is legal on its own (hydro -> eos)...
    "src/hydro/peer_edge.cpp": (
        '#include "eos/eos_types.hpp"\n'
        'void touch() {}\n',
        {},
    ),
    # Downward edge is legal: tlb reads a mapping's page size from mem
    # (mem/mapped_region.hpp), as tlb/trace.hpp does. Only the reverse
    # direction (mem including tlb) would be a finding.
    "src/tlb/page_size_edge.cpp": (
        '#include "mem/mapped_region.hpp"\n'
        'void touch() {}\n',
        {},
    ),
    # rt sits between the physics solvers and sim: a runtime context may
    # bundle mesh/par/perf handles (downward edges)...
    "src/rt/bundles_downward.cpp": (
        '#include "mesh/layout.hpp"\n'
        '#include "par/parallel.hpp"\n'
        '#include "perf/perf_context.hpp"\n'
        'void touch() {}\n',
        {},
    ),
    # ...but a solver reaching up into rt would invert the dependency:
    # kernels take handles, they do not know about the context type.
    "src/hydro/bad_runtime_reach.cpp": (
        '#include "rt/runtime.hpp"\n'
        'void touch() {}\n',
        {"layering": 1},
    ),
    # ...but a reciprocal pair of peer edges is a cycle: both include
    # sites are reported (scanned as one pair, see run_self_test).
    "src/eos/cycle_a.hpp": (
        '#pragma once\n'
        '#include "hydro/hydro.hpp"\n',
        {"layer-cycle": 1},
    ),
    "src/hydro/cycle_b.hpp": (
        '#pragma once\n'
        '#include "eos/cycle_a.hpp"\n',
        {"layer-cycle": 1},
    ),
    # svc is the top of the DAG: the service legally bundles setups,
    # runtimes and telemetry (all downward edges)...
    "src/svc/bundles_everything.cpp": (
        '#include "obs/telemetry.hpp"\n'
        '#include "rt/runtime.hpp"\n'
        '#include "sim/driver.hpp"\n'
        'void touch() {}\n',
        {},
    ),
    # ...and nothing below svc may know the service exists: a sim (or
    # obs) file reaching up into svc inverts the dependency.
    "src/sim/bad_service_reach.cpp": (
        '#include "svc/service.hpp"\n'
        'void touch() {}\n',
        {"layering": 1},
    ),
    "src/obs/bad_service_reach.cpp": (
        '#include "svc/job.hpp"\n'
        'void touch() {}\n',
        {"layering": 1},
    ),
    # Allocation inside a region lambda: one `new`, one push_back.
    "src/flame/bad_region_alloc.cpp": (
        'void advance(int n) {\n'
        '  arena_.parallel_for(n, [&](int lane, unsigned long i) {\n'
        '    auto* scratch = new double[8];\n'
        '    results.push_back(scratch[0]);\n'
        '  });\n'
        '}\n',
        {"alloc-in-region": 2},
    ),
    # Allocation inside a TaskGraph task body: task bodies run on
    # work-stealing lanes, same discipline as region lambdas. One
    # emplace_back, one make_unique; the surrounding add_task/add_edge
    # construction code may allocate freely.
    "src/sim/bad_task_alloc.cpp": (
        'void build(par::TaskGraph& g, int nleaves) {\n'
        '  scratch_.reserve(nleaves);\n'
        '  g.add_task("task.sweep", [&](int lane) {\n'
        '    results_.emplace_back(lane);\n'
        '    auto row = std::make_unique<double[]>(8);\n'
        '  });\n'
        '}\n',
        {"alloc-in-region": 2},
    ),
    # A task body writing into pre-sized per-lane scratch is the
    # sanctioned pattern and must stay clean.
    "src/sim/clean_task.cpp": (
        'void build(par::TaskGraph& g, int b) {\n'
        '  g.add_task("task.eos", [this, b](int lane) {\n'
        '    lane_rows_[lane][0] = solve(b);\n'
        '  });\n'
        '}\n',
        {},
    ),
    # Pre-region allocation + in-region writes into scratch is the
    # sanctioned pattern and must stay clean.
    "src/hydro/clean_region.cpp": (
        'void sweep(int n) {\n'
        '  lane_scratch_.resize(lanes);\n'
        '  arena_.parallel_for(n, [&](int lane, unsigned long i) {\n'
        '    lane_scratch_[lane][i] = solve(i);\n'
        '  });\n'
        '}\n',
        {},
    ),
    # Allocation in an FHP_NO_ALLOC inline body.
    "src/perf/bad_noalloc.cpp": (
        'FHP_NO_ALLOC void push(unsigned long n) {\n'
        '  buf_ = static_cast<char*>(std::malloc(n));\n'
        '}\n',
        {"alloc-in-noalloc": 1},
    ),
    # Declaration-only annotation: lexical scan does not chase the
    # out-of-line body (documented limitation), must not crash or flag.
    "src/tlb/decl_only.hpp": (
        '#pragma once\n'
        'struct Machine {\n'
        '  FHP_NO_ALLOC void touch(unsigned long addr) noexcept;\n'
        '};\n',
        {},
    ),
    # A reasoned allow licenses one site.
    "src/obs/suppressed.cpp": (
        'void drain(int n) {\n'
        '  arena_.parallel_for(n, [&](int lane, unsigned long i) {\n'
        '    // fhp-analyze: allow(alloc-in-region) -- cold path: first\n'
        '    // call only, ring is grown once then reused forever\n'
        '    ring_.reserve(cap_);\n'
        '  });\n'
        '}\n',
        {},
    ),
    # An unreasoned allow is itself a finding AND licenses nothing.
    "src/obs/bare_suppressed.cpp": (
        'void drain(int n) {\n'
        '  arena_.parallel_for(n, [&](int lane, unsigned long i) {\n'
        '    ring_.reserve(cap_);  // fhp-analyze: allow(alloc-in-region)\n'
        '  });\n'
        '}\n',
        {"bare-suppression": 1, "alloc-in-region": 1},
    ),
    # Comments and strings never trigger allocation rules.
    "src/gravity/comments_only.cpp": (
        'void doc(int n) {\n'
        '  arena_.parallel_for(n, [&](int lane, unsigned long i) {\n'
        '    // new double[8]; v.push_back(x); std::malloc(8);\n'
        '    const char* s = "new malloc push_back";\n'
        '    use(s);\n'
        '  });\n'
        '}\n',
        {},
    ),
}

# Scanned together so the reciprocal includes form a module cycle.
SELF_TEST_PAIRS = [("src/eos/cycle_a.hpp", "src/hydro/cycle_b.hpp")]


def run_self_test() -> int:
    failures = 0
    paired = {rel for pair in SELF_TEST_PAIRS for rel in pair}
    with tempfile.TemporaryDirectory(prefix="fhp_analyze_") as tmp:
        root = pathlib.Path(tmp)
        for rel, (content, _) in SELF_TEST_FILES.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)

        def check(rels: list[str], expected: dict[str, int]) -> None:
            nonlocal failures
            analyzer = Analyzer(root)
            analyzer.scan([root / rel for rel in rels])
            got: dict[str, int] = {}
            for f in analyzer.findings:
                got[f.rule] = got.get(f.rule, 0) + 1
            if got != expected:
                failures += 1
                print(f"SELF-TEST FAIL {' + '.join(rels)}: "
                      f"expected {expected}, got {got}", file=sys.stderr)
                for f in analyzer.findings:
                    print(f"  {f.path}:{f.line}: [{f.rule}] {f.message}",
                          file=sys.stderr)

        for rel, (_, expected) in sorted(SELF_TEST_FILES.items()):
            if rel in paired:
                continue
            check([rel], expected)
        for pair in SELF_TEST_PAIRS:
            merged: dict[str, int] = {}
            for rel in pair:
                for rule, n in SELF_TEST_FILES[rel][1].items():
                    merged[rule] = merged.get(rule, 0) + n
            check(list(pair), merged)

    scenarios = len(SELF_TEST_FILES) - len(paired) + len(SELF_TEST_PAIRS)
    if failures == 0:
        print(f"fhp_analyze self-test: OK ({scenarios} scenarios)")
        return 0
    print(f"fhp_analyze self-test: {failures} scenario(s) failed",
          file=sys.stderr)
    return 1


# ------------------------------------------------------------------- main

def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="fhp_analyze.py",
        description="module-layering / region-allocation analyzer for "
                    "the flashhp tree")
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("-p", "--compile-commands", type=pathlib.Path,
                        help="compile_commands.json (or the build dir "
                             "holding one); scans its TUs + src headers")
    parser.add_argument("paths", nargs="*", type=pathlib.Path,
                        help="files or directories to scan "
                             "(default: <root>/src)")
    parser.add_argument("--format", choices=fhp_report.FORMATS,
                        default="human", help="output format")
    parser.add_argument("--output", type=pathlib.Path,
                        help="write the report here instead of stdout")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule catches its planted "
                             "fixture")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, summary in RULES.items():
            print(f"{rule:18s} {summary}")
        return 0
    if args.self_test:
        return run_self_test()

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"fhp_analyze: no src/ under --root {root}", file=sys.stderr)
        return 2

    files: list[pathlib.Path] = []
    if args.compile_commands:
        try:
            files += files_from_compile_commands(
                args.compile_commands.resolve(), root)
        except (OSError, ValueError, KeyError) as e:
            print(f"fhp_analyze: cannot read compile commands from "
                  f"{args.compile_commands}: {e}", file=sys.stderr)
            return 2
        files += headers_under(root / "src")
    if args.paths:
        for p in args.paths:
            p = (p if p.is_absolute() else root / p).resolve()
            if not p.exists():
                print(f"fhp_analyze: no such path: {p}", file=sys.stderr)
                return 2
            if p.is_dir():
                files += [f for f in p.rglob("*")
                          if f.is_file() and f.suffix in CXX_SUFFIXES]
            else:
                files.append(p)
    if not files:
        files = [f for f in (root / "src").rglob("*")
                 if f.is_file() and f.suffix in CXX_SUFFIXES]

    analyzer = Analyzer(root)
    analyzer.scan(files)

    stream = sys.stdout
    if args.output:
        stream = args.output.open("w", encoding="utf-8")
    try:
        fhp_report.emit(args.format, TOOL, VERSION, analyzer.findings,
                        RULES, stream,
                        info_uri="tools/fhp_analyze.py in this repository")
        if args.format == "human" and not analyzer.findings:
            stream.write("fhp_analyze: clean "
                         f"({len(set(files))} files)\n")
    finally:
        if args.output:
            stream.close()
    if analyzer.findings:
        print(f"fhp_analyze: {len(analyzer.findings)} finding(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
