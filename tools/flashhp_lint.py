#!/usr/bin/env python3
"""flashhp_lint: huge-page invariant linter for the flashhp tree.

The paper behind this repo found FLASH silently running on base pages
because the toolchain never delivered the page regime the code assumed.
The compiler cannot check the conventions that prevent that class of bug,
so this linter does:

  raw-mmap            mmap/munmap/madvise/mremap/mprotect (and
                      <sys/mman.h>) are allowed only in
                      src/mem/mapped_region.* and src/mem/thp.* — the two
                      files where page-regime decisions are made and
                      *verified* (MappedRegion records what it actually
                      got). A raw mmap anywhere else — including the rest
                      of src/mem (PagePool and HugeBuffer compose the
                      seam, they must not reopen it) — is exactly the
                      unverified allocation the paper warns about.

  page-size-literal   magic page-size constants (4096, 65536, 2097152,
                      536870912, 1073741824, or any `N << S` spelling of
                      them) are allowed only in src/mem/page_size.* —
                      everyone else must use the named kPage* constants or
                      runtime discovery, so a port to a 64 KiB-base-page
                      machine (the paper's A64FX) is a one-file change.

  bulk-alloc          src/mesh, src/hydro and src/eos must not allocate
                      bulk data with malloc/calloc/realloc/free or
                      `new T[...]`: simulation arrays go through
                      mem::HugeBuffer so one HugePolicy switch moves the
                      whole working set between page regimes.

  include-hygiene     headers carry `#pragma once`; project includes are
                      module-qualified ("mem/page_size.hpp"), never
                      relative ("../mem/page_size.hpp"), and must resolve
                      to a real file under src/.

  singleton-instance  no `::instance()` call sites. Instrumentation goes
                      through an explicit perf::PerfContext so experiment
                      arms and threads cannot leak counters into each
                      other; a new process-wide singleton reintroduces
                      exactly that. The process log sink is the one
                      deliberate singleton and carries allow comments.

  layout-offset       hand-rolled unk index arithmetic — an nvar-like
                      factor multiplied into a parenthesized index
                      expression (`v + nvar * (i + ni * ...)`) — is allowed
                      only in src/mesh/layout.*. The block-data layout is a
                      runtime-selectable BlockLayout policy; offset math
                      re-derived anywhere else silently assumes var_major
                      and breaks under FLASHHP_LAYOUT=zone_major.

  procfs-hygiene      "/proc/..." path literals are allowed only under
                      src/mem/ and src/obs/ — the readers there take
                      injectable paths so tests can substitute fixture
                      trees and so kernel-generation differences (absent
                      fields) are handled in one place. A /proc literal
                      anywhere else is an untestable, unversioned parse.

Suppressions (sparingly, with a reason in the surrounding comment):
  // fhp-lint: allow(rule-id)         — this line only
  // fhp-lint: allow-file(rule-id)    — whole file; first 15 lines only

Exit status: 0 clean, 1 violations found, 2 bad invocation.
Run `flashhp_lint.py --self-test` to verify the linter still catches
planted violations (wired into ctest as flashhp_lint_selftest).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
import tempfile
from dataclasses import dataclass

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import fhp_report  # noqa: E402

CXX_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}

# Byte values that are page sizes on machines this project cares about:
# 4 KiB x86 base, 64 KiB A64FX base, 2 MiB PMD/THP, 512 MiB A64FX hugetlb,
# 1 GiB x86 gigantic.
PAGE_SIZE_VALUES = {4096, 65536, 2097152, 536870912, 1073741824}

MMAP_FUNCTIONS = ("mmap", "munmap", "madvise", "mremap", "mprotect")

ALLOW_LINE_RE = re.compile(r"fhp-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
ALLOW_FILE_RE = re.compile(
    r"fhp-lint:\s*allow-file\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

RULES = {
    "raw-mmap": "raw mmap/munmap/madvise/... outside mem/mapped_region + "
                "mem/thp",
    "page-size-literal": "magic page-size literal outside src/mem/page_size.*",
    "bulk-alloc": "malloc/new[] bulk allocation in mesh/hydro/eos",
    "include-hygiene": "#pragma once, module-qualified non-relative includes",
    "singleton-instance": "::instance() call site",
    "layout-offset":
        "hand-rolled unk index arithmetic outside src/mesh/layout.*",
    "procfs-hygiene":
        '"/proc/..." path literal outside src/mem and src/obs',
}


@dataclass
class Violation:
    path: pathlib.Path
    line: int
    rule: str
    message: str

    def format(self, root: pathlib.Path) -> str:
        try:
            rel = self.path.relative_to(root)
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text: str) -> list[str]:
    """Return per-line source with comments and string/char literals
    blanked out, so tokens inside them are never matched."""
    out: list[list[str]] = [[]]
    state = "code"  # code | line-comment | block-comment | string | char
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            if state == "line-comment":
                state = "code"
            out.append([])
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block-comment"
                i += 2
                continue
            if c == '"':
                state = "string"
                out[-1].append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out[-1].append(" ")
                i += 1
                continue
            out[-1].append(c)
            i += 1
            continue
        if state in ("string", "char"):
            if c == "\\":
                i += 2
                continue
            if (state == "string" and c == '"') or (
                    state == "char" and c == "'"):
                state = "code"
            i += 1
            continue
        if state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            i += 1
            continue
        if state == "line-comment":
            i += 1
            continue
    return ["".join(chars) for chars in out]


def string_literals(text: str) -> list[list[str]]:
    """Per-line list of the *contents* of ordinary string literals —
    the inverse slice of strip_code(), which blanks them. Comments and
    char literals are skipped; escapes are passed through verbatim
    (good enough for path-shaped content)."""
    out: list[list[str]] = [[]]
    state = "code"
    current: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            if state == "line-comment":
                state = "code"
            out.append([])
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block-comment"
                i += 2
                continue
            if c == '"':
                state = "string"
                current = []
                i += 1
                continue
            if c == "'":
                state = "char"
                i += 1
                continue
            i += 1
            continue
        if state == "string":
            if c == "\\":
                current.append(text[i:i + 2])
                i += 2
                continue
            if c == '"':
                out[-1].append("".join(current))
                state = "code"
                i += 1
                continue
            current.append(c)
            i += 1
            continue
        if state == "char":
            if c == "\\":
                i += 2
                continue
            if c == "'":
                state = "code"
            i += 1
            continue
        if state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            i += 1
            continue
        if state == "line-comment":
            i += 1
            continue
    return out


PROCFS_LITERAL_RE = re.compile(r"^/proc(?:/|$)")


def shifted_value(lhs: str, rhs: str) -> int | None:
    try:
        return int(lhs, 0) << int(rhs, 0)
    except (ValueError, OverflowError):
        return None


SHIFT_RE = re.compile(r"\b(\d+)\s*(?:u|l|ul|ull|uz|z)?\s*<<\s*(\d+)\b",
                      re.IGNORECASE)
# Products of plain integer literals: 2 * 1024 * 1024 and friends.
PRODUCT_RE = re.compile(
    r"\b(?:0[xX][0-9a-fA-F]+|\d+)(?:u|l|ul|ull|uz|z)?"
    r"(?:\s*\*\s*(?:0[xX][0-9a-fA-F]+|\d+)(?:u|l|ul|ull|uz|z)?)+\b",
    re.IGNORECASE)
INT_LITERAL_RE = re.compile(r"\b(0[xX][0-9a-fA-F]+|\d+)(?:u|l|ul|ull|uz|z)?\b",
                            re.IGNORECASE)
MMAP_CALL_RE = re.compile(
    r"(?<![\w:])(?:::\s*)?(" + "|".join(MMAP_FUNCTIONS) + r")\s*\(")
MMAN_INCLUDE_RE = re.compile(r'#\s*include\s*<sys/mman\.h>')
CALLOC_RE = re.compile(r"(?<![\w:])(?:std\s*::\s*)?"
                       r"(malloc|calloc|realloc|free)\s*\(")
NEW_ARRAY_RE = re.compile(r"\bnew\s+[\w:<>,\s]+?\[")
MAKE_UNIQUE_ARRAY_RE = re.compile(r"\bmake_unique\s*<[^;>]*\[\s*\]\s*>")
QUOTED_INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')
PRAGMA_ONCE_RE = re.compile(r"#\s*pragma\s+once\b")
SINGLETON_RE = re.compile(r"(?:\.|->|::)\s*instance\s*\(\s*\)")
# An nvar-like factor (nvar, nvar_, nvar(), kNvar, c.nvar(), NVAR ...)
# multiplied into a parenthesized expression: the shape of hand-rolled
# var-major offset math like `v + nvar * (i + ni * (j + ...))`. The
# optional `)` absorbs casts: `static_cast<std::size_t>(nvar_) * (...)`.
LAYOUT_OFFSET_RE = re.compile(
    r"\bk?n_?var[\w]*\s*(?:\(\s*\))?\s*\)?\s*\*\s*\(", re.IGNORECASE)


class Linter:
    def __init__(self, root: pathlib.Path):
        self.root = root
        self.src = root / "src"
        self.violations: list[Violation] = []

    # ---------------------------------------------------------------- scope
    def _under(self, path: pathlib.Path, *parts: str) -> bool:
        probe = self.src.joinpath(*parts)
        return probe == path or probe in path.parents

    def _is_mem(self, path: pathlib.Path) -> bool:
        return self._under(path, "mem")

    def _is_mmap_scope(self, path: pathlib.Path) -> bool:
        # The raw-mmap seam is narrower than src/mem: only MappedRegion
        # (the mapping ladder) and thp (the madvise helpers) may touch the
        # syscalls. Everything else in mem — PagePool, HugeBuffer —
        # composes those two, so a new mmap there is as suspect as one in
        # src/hydro.
        return self._under(path, "mem") and \
            path.stem in ("mapped_region", "thp")

    def _is_page_size(self, path: pathlib.Path) -> bool:
        return self._under(path, "mem") and path.stem == "page_size"

    def _is_bulk_scope(self, path: pathlib.Path) -> bool:
        return any(self._under(path, m) for m in ("mesh", "hydro", "eos"))

    def _is_layout(self, path: pathlib.Path) -> bool:
        return self._under(path, "mesh") and path.stem == "layout"

    def _is_procfs_scope(self, path: pathlib.Path) -> bool:
        return self._under(path, "mem") or self._under(path, "obs")

    # ----------------------------------------------------------------- scan
    def lint_file(self, path: pathlib.Path) -> None:
        if path.suffix not in CXX_SUFFIXES:
            return
        text = path.read_text(encoding="utf-8", errors="replace")
        raw_lines = text.splitlines()
        code_lines = strip_code(text)

        file_allowed: set[str] = set()
        for raw in raw_lines[:15]:
            m = ALLOW_FILE_RE.search(raw)
            if m:
                file_allowed.update(r.strip() for r in m.group(1).split(","))

        def allows(line_index: int) -> set[str]:
            if not 0 <= line_index < len(raw_lines):
                return set()
            m = ALLOW_LINE_RE.search(raw_lines[line_index])
            if not m:
                return set()
            return {r.strip() for r in m.group(1).split(",")}

        def report(lineno: int, rule: str, message: str) -> None:
            if rule in file_allowed:
                return
            if rule in allows(lineno - 1):
                return
            # A comment-only allow line covers the next line, like
            # clang-tidy's NOLINTNEXTLINE.
            if (lineno >= 2 and not code_lines[lineno - 2].strip()
                    and rule in allows(lineno - 2)):
                return
            self.violations.append(Violation(path, lineno, rule, message))

        in_mmap_scope = self._is_mmap_scope(path)
        in_page_size = self._is_page_size(path)
        in_bulk = self._is_bulk_scope(path)
        in_layout = self._is_layout(path)

        # ---- procfs hygiene ------------------------------------------
        # Scans string *contents* (a separate pass: strip_code blanks
        # them), so "/proc" in a comment never matches and a literal
        # split across concatenated lines is still seen per line.
        if not self._is_procfs_scope(path):
            for lineno, literals in enumerate(string_literals(text), start=1):
                for lit in literals:
                    if PROCFS_LITERAL_RE.search(lit):
                        report(lineno, "procfs-hygiene",
                               f'procfs path literal "{lit}" — go through '
                               f'the injectable-path readers in src/mem '
                               f'(MeminfoSnapshot, VmstatSnapshot, ...) or '
                               f'the src/obs sampler')
                        break

        if path.suffix in {".hpp", ".hh", ".h"} and raw_lines:
            if not any(PRAGMA_ONCE_RE.search(l) for l in code_lines):
                report(1, "include-hygiene",
                       "header is missing '#pragma once'")

        for lineno, code in enumerate(code_lines, start=1):
            if not code.strip():
                continue

            # ---- include hygiene -------------------------------------
            # The include path is a string literal, which strip_code
            # blanks; detect the directive on the stripped line (so
            # commented-out includes are ignored) but parse the path from
            # the raw line.
            raw = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
            include_line = raw if re.match(r"\s*#\s*include", code) else ""
            for m in QUOTED_INCLUDE_RE.finditer(include_line):
                inc = m.group(1)
                if inc.startswith("..") or "/../" in inc:
                    report(lineno, "include-hygiene",
                           f'relative include "{inc}" — use the '
                           f'module-qualified path from src/')
                    continue
                if "/" not in inc:
                    report(lineno, "include-hygiene",
                           f'include "{inc}" is not module-qualified '
                           f'(expected "<module>/{inc}")')
                    continue
                if not (self.src / inc).is_file():
                    report(lineno, "include-hygiene",
                           f'include "{inc}" does not resolve under src/')

            # ---- raw mmap family -------------------------------------
            if not in_mmap_scope:
                m = MMAP_CALL_RE.search(code)
                if m:
                    report(lineno, "raw-mmap",
                           f"raw {m.group(1)}() call outside "
                           f"mem/mapped_region + mem/thp — go through "
                           f"mem::MappedRegion / mem::PagePool so the "
                           f"page regime is tracked and verified")
                if MMAN_INCLUDE_RE.search(include_line):
                    report(lineno, "raw-mmap",
                           "<sys/mman.h> included outside "
                           "mem/mapped_region + mem/thp")

            # ---- magic page-size literals ----------------------------
            if not in_page_size:
                consumed: list[tuple[int, int]] = []
                for m in SHIFT_RE.finditer(code):
                    value = shifted_value(m.group(1), m.group(2))
                    if value in PAGE_SIZE_VALUES:
                        consumed.append(m.span())
                        report(lineno, "page-size-literal",
                               f"page-size literal {m.group(0).strip()} "
                               f"(= {value}) — use the kPage* constants "
                               f"from mem/page_size.hpp")
                for m in PRODUCT_RE.finditer(code):
                    if any(s <= m.start() < e for s, e in consumed):
                        continue
                    factors = [int(f, 0) for f in
                               INT_LITERAL_RE.findall(m.group(0))]
                    value = 1
                    for f in factors:
                        value *= f
                    if value in PAGE_SIZE_VALUES:
                        consumed.append(m.span())
                        report(lineno, "page-size-literal",
                               f"page-size literal {m.group(0).strip()} "
                               f"(= {value}) — use the kPage* constants "
                               f"from mem/page_size.hpp")
                for m in INT_LITERAL_RE.finditer(code):
                    if any(s <= m.start() < e for s, e in consumed):
                        continue
                    try:
                        value = int(m.group(1), 0)
                    except ValueError:
                        continue
                    if value in PAGE_SIZE_VALUES:
                        report(lineno, "page-size-literal",
                               f"page-size literal {m.group(1)} — use the "
                               f"kPage* constants from mem/page_size.hpp")

            # ---- hand-rolled layout offset math ----------------------
            if not in_layout and LAYOUT_OFFSET_RE.search(code):
                report(lineno, "layout-offset",
                       "hand-rolled unk offset arithmetic (nvar * (...)) — "
                       "index through mesh::BlockLayout / UnkContainer so "
                       "the code holds under every FLASHHP_LAYOUT")

            # ---- singleton call sites --------------------------------
            if SINGLETON_RE.search(code):
                report(lineno, "singleton-instance",
                       "::instance() call site — pass an explicit "
                       "perf::PerfContext (or the relevant handle) instead "
                       "of reaching for process-wide singleton state")

            # ---- bulk allocation in simulation modules ---------------
            if in_bulk:
                m = CALLOC_RE.search(code)
                if m:
                    report(lineno, "bulk-alloc",
                           f"{m.group(1)}() in a simulation module — bulk "
                           f"data must come from mem::HugeBuffer")
                if NEW_ARRAY_RE.search(code) or \
                        MAKE_UNIQUE_ARRAY_RE.search(code):
                    report(lineno, "bulk-alloc",
                           "array new in a simulation module — bulk data "
                           "must come from mem::HugeBuffer")

    def lint_tree(self, paths: list[pathlib.Path]) -> None:
        for base in paths:
            if base.is_file():
                self.lint_file(base)
                continue
            for path in sorted(base.rglob("*")):
                if path.is_file():
                    self.lint_file(path)


# -------------------------------------------------------------- self test

SELF_TEST_FILES = {
    "src/hydro/bad_mmap.cpp": (
        '#include <sys/mman.h>\n'
        'void* grab(unsigned long n) {\n'
        '  return mmap(nullptr, n, 3, 0x22, -1, 0);\n'
        '}\n',
        {"raw-mmap": 2},
    ),
    # src/mem is NOT a blanket license: PagePool composes MappedRegion and
    # must never reopen the mmap seam itself.
    "src/mem/page_pool.cpp": (
        '#include <sys/mman.h>\n'
        'void* grab(unsigned long n) {\n'
        '  return mmap(nullptr, n, 3, 0x22, -1, 0);\n'
        '}\n',
        {"raw-mmap": 2},
    ),
    # ...while the two seam files keep their license.
    "src/mem/mapped_region.cpp": (
        '#include <sys/mman.h>\n'
        'void* grab(unsigned long n) {\n'
        '  return mmap(nullptr, n, 3, 0x22, -1, 0);\n'
        '}\n',
        {},
    ),
    "src/eos/bad_literal.cpp": (
        'unsigned long table_bytes() {\n'
        '  unsigned long page = 4096;\n'
        '  unsigned long huge = 1ull << 21;\n'
        '  unsigned long prod = 2 * 1024 * 1024;\n'
        '  return page + huge + prod;\n'
        '}\n',
        {"page-size-literal": 3},
    ),
    "src/mesh/bad_alloc.cpp": (
        '#include <cstdlib>\n'
        'double* unk_block(unsigned long n) {\n'
        '  double* p = new double[n];\n'
        '  void* q = std::malloc(n);\n'
        '  std::free(q);\n'
        '  return p;\n'
        '}\n',
        {"bulk-alloc": 3},
    ),
    "src/tlb/bad_include.hpp": (
        '#include "../mem/page_size.hpp"\n'
        '#include "page_size.hpp"\n',
        {"include-hygiene": 3},  # relative + unqualified + no pragma once
    ),
    "src/perf/suppressed.cpp": (
        '// deliberate: measuring the base-page TLB reach\n'
        'unsigned long base() {\n'
        '  return 4096;  // fhp-lint: allow(page-size-literal)\n'
        '}\n',
        {},
    ),
    "src/flame/clean.cpp": (
        '#include "mem/page_size.hpp"\n'
        'unsigned long two_pages() { return 2 * fhp::mem::kPage2M; }\n',
        {},
    ),
    "src/sim/bad_singleton.cpp": (
        'namespace fhp::perf { struct SoftCounters {\n'
        '  static SoftCounters& instance() noexcept;\n'
        '  void reset(); }; }\n'
        'void touch() {\n'
        '  fhp::perf::SoftCounters::instance().reset();\n'
        '}\n',
        {"singleton-instance": 1},
    ),
    # A call site under src/perf is flagged like any other.
    "src/perf/region.cpp": (
        'void reset() { fhp::perf::RegionRegistry::instance().reset(); }\n',
        {"singleton-instance": 1},
    ),
    # Hand-rolled var-major offset math outside the layout policy.
    "src/hydro/bad_offset.cpp": (
        'unsigned long off(int v, int i, int j, int nvar, int ni) {\n'
        '  return v + nvar * (i + ni * j);\n'
        '}\n'
        'unsigned long off2(unsigned long v, unsigned long i) {\n'
        '  const unsigned long kNvar = 15;\n'
        '  return v + kNvar * (i);\n'
        '}\n'
        'unsigned long off3(unsigned long nvar_, unsigned long i) {\n'
        '  return static_cast<unsigned long>(nvar_) * (i + 1);\n'
        '}\n',
        {"layout-offset": 3},
    ),
    # The layout policy itself is the one licensed home of that math.
    "src/mesh/layout.cpp": (
        'unsigned long off(int v, int i, int j, int nvar, int ni) {\n'
        '  return v + nvar * (i + ni * j);\n'
        '}\n',
        {},
    ),
    # An allow-comment licenses a deliberate reference pattern.
    "src/tlb/offset_reference.cpp": (
        '// documents the historical Fortran order for the tracer tests\n'
        'unsigned long fortran_off(int v, int nvar, int zone) {\n'
        '  return v + nvar * (zone);  // fhp-lint: allow(layout-offset)\n'
        '}\n',
        {},
    ),
    # Comments and strings must not trigger token rules.
    "src/gravity/comments_only.cpp": (
        '// mmap(MADV_HUGEPAGE) is discussed here: 4096 bytes, madvise().\n'
        '/* new double[4096]; malloc(2097152); */\n'
        'const char* doc() { return "mmap 4096 madvise"; }\n',
        {},
    ),
    # A /proc literal outside src/mem and src/obs is an untestable parse.
    "src/sim/bad_procfs.cpp": (
        '#include <fstream>\n'
        'unsigned long read_total() {\n'
        '  std::ifstream f("/proc/meminfo");\n'
        '  std::ifstream g("/proc/self/smaps_rollup");\n'
        '  return 0;\n'
        '}\n',
        {"procfs-hygiene": 2},
    ),
    # The injectable-path readers are the licensed home of those literals.
    "src/mem/procfs_reader.cpp": (
        'const char* default_meminfo() { return "/proc/meminfo"; }\n',
        {},
    ),
    "src/obs/sampler_paths.cpp": (
        'const char* default_vmstat() { return "/proc/vmstat"; }\n',
        {},
    ),
    # /proc in comments must not trigger; /procfs-ish words must not
    # trigger; an allow-comment licenses a deliberate one-off probe.
    "src/perf/procfs_edges.cpp": (
        '// reads /proc/sys/kernel/perf_event_paranoid at startup\n'
        'const char* doc() { return "see procfs(5), not a path"; }\n'
        'int paranoid() {\n'
        '  // one root-owned knob, no fields to version\n'
        '  const char* p = "/proc/sys/kernel/perf_event_paranoid";'
        '  // fhp-lint: allow(procfs-hygiene)\n'
        '  return p != nullptr;\n'
        '}\n',
        {},
    ),
}


def run_self_test() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="flashhp_lint_") as tmp:
        root = pathlib.Path(tmp)
        # The include-hygiene resolver needs the real file to exist.
        (root / "src/mem").mkdir(parents=True)
        (root / "src/mem/page_size.hpp").write_text("#pragma once\n")
        for rel, (content, _) in SELF_TEST_FILES.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)

        for rel, (_, expected) in sorted(SELF_TEST_FILES.items()):
            linter = Linter(root)
            linter.lint_file(root / rel)
            got: dict[str, int] = {}
            for v in linter.violations:
                got[v.rule] = got.get(v.rule, 0) + 1
            if got != expected:
                failures += 1
                print(f"SELF-TEST FAIL {rel}: expected {expected}, "
                      f"got {got}", file=sys.stderr)
                for v in linter.violations:
                    print(f"  {v.format(root)}", file=sys.stderr)
        # The real tree's page_size.hpp must be allowed its own literals.
        linter = Linter(root)
        (root / "src/mem/page_size.hpp").write_text(
            "#pragma once\ninline constexpr unsigned long kPage4K = 4096;\n")
        linter.lint_file(root / "src/mem/page_size.hpp")
        if linter.violations:
            failures += 1
            print("SELF-TEST FAIL: page_size.hpp must be exempt from "
                  "page-size-literal", file=sys.stderr)

    if failures == 0:
        print(f"flashhp_lint self-test: OK "
              f"({len(SELF_TEST_FILES) + 1} scenarios)")
        return 0
    print(f"flashhp_lint self-test: {failures} scenario(s) failed",
          file=sys.stderr)
    return 1


# ------------------------------------------------------------------- main

def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="flashhp_lint.py",
        description="huge-page invariant linter for the flashhp tree")
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("paths", nargs="*", type=pathlib.Path,
                        help="files or directories to lint "
                             "(default: <root>/src)")
    parser.add_argument("--format", choices=fhp_report.FORMATS,
                        default="human", help="output format")
    parser.add_argument("--output", type=pathlib.Path,
                        help="write the report here instead of stdout")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the linter catches planted violations")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, summary in RULES.items():
            print(f"{rule:20s} {summary}")
        return 0
    if args.self_test:
        return run_self_test()

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"flashhp_lint: no src/ under --root {root}", file=sys.stderr)
        return 2

    linter = Linter(root)
    paths = [p if p.is_absolute() else root / p
             for p in args.paths] or [root / "src"]
    for p in paths:
        if not p.exists():
            print(f"flashhp_lint: no such path: {p}", file=sys.stderr)
            return 2
    linter.lint_tree(paths)
    findings = [
        fhp_report.Finding(fhp_report.relativize(v.path, root), v.line,
                           v.rule, v.message)
        for v in linter.violations
    ]
    stream = sys.stdout
    if args.output:
        stream = args.output.open("w", encoding="utf-8")
    try:
        fhp_report.emit(args.format, "flashhp_lint", "1.0", findings,
                        RULES, stream,
                        info_uri="tools/flashhp_lint.py in this repository")
        if args.format == "human" and not findings:
            stream.write("flashhp_lint: clean\n")
    finally:
        if args.output:
            stream.close()
    if findings:
        print(f"flashhp_lint: {len(findings)} violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
