#!/usr/bin/env python
"""Dependency-free line-coverage gate for ``src/repro/engine/``.

The engine package is the part of the codebase where a silent dead
branch is most dangerous — the batched kernels are *proven* equal to
the reference loops only on the paths the differential suite actually
executes.  This gate measures which ``src/repro/engine/`` lines the
engine-focused tests reach and fails the build when the ratio drops
below the floor, without requiring ``coverage``/``pytest-cov`` (the
runtime image does not ship them).

Mechanics: a targeted ``sys.settrace`` hook records line events only
for frames whose code lives under ``src/repro/engine/`` (every other
frame opts out immediately, keeping the overhead on non-engine code to
one callback per function call).  The denominator is the union of
``co_lines()`` over all code objects compiled from each engine module
— i.e. lines the interpreter could actually execute, so blank lines
and comments never count against the floor.

Usage::

    python tools/engine_coverage.py --fail-under 80 [pytest args...]

Default pytest selection: the engine-facing test modules (parity,
fuzz, scenario processes, seed discipline, probes, removal laws, open
systems and relocation).  Anything after ``--`` is
passed to pytest verbatim instead.
"""

from __future__ import annotations

import argparse
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENGINE_DIR = os.path.join(REPO_ROOT, "src", "repro", "engine")

DEFAULT_TESTS = [
    "tests/test_engine_parity.py",
    "tests/test_engine_fuzz.py",
    "tests/test_scenario_processes.py",
    "tests/test_seed_discipline.py",
    "tests/test_probes.py",
    "tests/test_removal_law_properties.py",
    "tests/test_static_open_relocation.py",
]


def executable_lines(path: str) -> set[int]:
    """All line numbers the interpreter can execute in *path*."""
    with open(path, "r", encoding="utf-8") as f:
        source = f.read()
    lines: set[int] = set()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        for _, _, lineno in code.co_lines():
            if lineno is not None:
                lines.add(lineno)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
    return lines


def engine_files() -> list[str]:
    out = []
    for name in sorted(os.listdir(ENGINE_DIR)):
        if name.endswith(".py"):
            out.append(os.path.join(ENGINE_DIR, name))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fail-under",
        type=float,
        default=80.0,
        help="minimum total line coverage percent (default: 80)",
    )
    parser.add_argument(
        "--show-missing",
        action="store_true",
        help="list uncovered line numbers per file",
    )
    parser.add_argument(
        "pytest_args",
        nargs="*",
        help="pytest arguments (default: the engine-facing test modules)",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    os.chdir(REPO_ROOT)
    import pytest

    prefix = ENGINE_DIR + os.sep
    hit: dict[str, set[int]] = {}

    def local_trace(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local_trace

    def global_trace(frame, event, arg):
        fname = frame.f_code.co_filename
        if fname.startswith(prefix):
            hit.setdefault(fname, set())
            return local_trace
        return None  # opt this frame (and its lines) out entirely

    import threading

    pytest_argv = args.pytest_args or DEFAULT_TESTS
    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        rc = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if rc != 0:
        print(f"engine-coverage: pytest failed (exit {rc}); not measuring")
        return int(rc) or 1

    total_exec = 0
    total_hit = 0
    rows = []
    for path in engine_files():
        exe = executable_lines(path)
        got = hit.get(path, set()) & exe
        total_exec += len(exe)
        total_hit += len(got)
        pct = 100.0 * len(got) / len(exe) if exe else 100.0
        rows.append((os.path.relpath(path, REPO_ROOT), len(exe), len(got), pct))
        if args.show_missing and exe - got:
            missing = sorted(exe - got)
            print(f"  missing {rows[-1][0]}: {missing}")

    width = max(len(r[0]) for r in rows)
    print(f"\n{'file':<{width}}  exec   hit    cover")
    for name, n_exec, n_hit, pct in rows:
        print(f"{name:<{width}}  {n_exec:5d} {n_hit:5d}  {pct:6.1f}%")
    total_pct = 100.0 * total_hit / total_exec if total_exec else 100.0
    print(f"{'TOTAL':<{width}}  {total_exec:5d} {total_hit:5d}  {total_pct:6.1f}%")

    if total_pct < args.fail_under:
        print(
            f"engine-coverage: FAIL — {total_pct:.1f}% < floor "
            f"{args.fail_under:.1f}%"
        )
        return 1
    print(f"engine-coverage: OK — {total_pct:.1f}% >= {args.fail_under:.1f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
