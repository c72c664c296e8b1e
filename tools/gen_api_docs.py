#!/usr/bin/env python
"""Generate docs/API.md: a one-line index of every public API item.

Walks the installed ``repro`` package, imports each module, and lists
public classes and functions with the first line of their docstrings.
Run after changing public APIs:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import repro

OUT = Path(__file__).resolve().parent.parent / "docs" / "API.md"


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return "(undocumented)"
    return doc.splitlines()[0].strip()


def iter_modules():
    yield "repro", repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if any(part.startswith("_") for part in info.name.split(".")[1:]):
            continue
        try:
            yield info.name, importlib.import_module(info.name)
        except Exception as exc:  # pragma: no cover - diagnostic path
            print(f"skipping {info.name}: {exc}", file=sys.stderr)


def public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in sorted(names):
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.ismodule(obj):
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", "").startswith("repro"):
                yield name, obj


def render() -> str:
    """The text of docs/API.md for the package as it is imported now."""
    lines = [
        "# API index",
        "",
        "Generated by `python tools/gen_api_docs.py` — one line per public "
        "item; see the docstrings for details.",
        "",
    ]
    for mod_name, module in iter_modules():
        members = list(public_members(module))
        if not members and mod_name != "repro":
            continue
        lines.append(f"## `{mod_name}`")
        lines.append("")
        lines.append(first_line(module))
        lines.append("")
        for name, obj in members:
            kind = "class" if inspect.isclass(obj) else "def"
            # Only list items defined (not merely re-exported) here,
            # except in package __init__ modules which are the curated
            # public surface.
            defined_here = getattr(obj, "__module__", "") == mod_name
            is_package_init = hasattr(module, "__path__")
            if not (defined_here or is_package_init):
                continue
            lines.append(f"* **{kind} `{name}`** — {first_line(obj)}")
        lines.append("")
    return "\n".join(lines)


def main() -> None:
    text = render()
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(text)
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
