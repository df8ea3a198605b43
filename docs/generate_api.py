#!/usr/bin/env python
"""Generate docs/API.md from the package's docstrings.

Walks every module under ``repro``, collects public classes/functions
and the first paragraph of each docstring, and writes a compact API
index.  Run after API changes::

    python docs/generate_api.py

``tests/test_docs.py`` fails while the committed index differs from
:func:`render`.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path

import repro


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "(undocumented)"
    lines = []
    for line in doc.strip().splitlines():
        if not line.strip():
            break
        lines.append(line.strip())
    return " ".join(lines)


def walk_modules():
    yield "repro", repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it runs the CLI
        try:
            yield info.name, importlib.import_module(info.name)
        except Exception as exc:  # pragma: no cover - import guard
            print(f"skipping {info.name}: {exc}")


def public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", "").startswith("repro"):
                yield name, obj


def render() -> str:
    """The API index, as ``docs/API.md`` should hold it."""
    out = [
        "# API reference",
        "",
        "Generated by `docs/generate_api.py` — regenerate after API changes.",
        "",
    ]
    for name, module in sorted(walk_modules()):
        members = list(public_members(module))
        summary = first_paragraph(module.__doc__)
        out.append(f"## `{name}`")
        out.append("")
        out.append(summary)
        out.append("")
        if members:
            for member_name, obj in members:
                kind = "class" if inspect.isclass(obj) else "def"
                out.append(
                    f"* **`{kind} {member_name}`** — "
                    f"{first_paragraph(inspect.getdoc(obj))}"
                )
            out.append("")
    return "\n".join(out) + "\n"


def main() -> None:
    path = Path(__file__).parent / "API.md"
    path.write_text(render())
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
