#!/usr/bin/env python
"""Caller lint: every public ``def`` and ``class`` under ``src/`` has a user.

Run from the repo root (``make lint-callers`` does):

    python tools/lint_callers.py

A public name (one that does not start with ``_``) defined under ``src/``
passes when at least one of these holds:

* an AST ``Name`` or ``Attribute`` node with that name appears in a
  ``*.py`` file under ``src/``, ``benchmarks/``, ``examples/`` or
  ``tools/``, outside the lines of the definition itself. Imports and
  ``__all__`` entries are not references: they are not ``Name`` or
  ``Attribute`` nodes;
* the name appears as a word in ``README.md`` or ``docs/*.md``, so it is
  documented API;
* it is in :data:`ALLOWED`, with the reason it has no caller.

Matching is by name, not by type: ``x.run`` counts for every ``run``.
The lint therefore misses a dead method that shares its name with a live
one, but it never flags code a documented path runs. Tests do not count
as callers: code only a test runs belongs in the tests.

Exit status is non-zero if any public name has no reference.
"""

from __future__ import annotations

import ast
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")
CALLER_DIRS = ("src", "benchmarks", "examples", "tools")
DOC_FILES = ("README.md",)
DOC_DIR = "docs"

# Public names with no reference by design, one reason each.
ALLOWED = {
    "do_GET": "http.server.BaseHTTPRequestHandler dispatches GET requests to it",
    "do_POST": "http.server.BaseHTTPRequestHandler dispatches POST requests to it",
    "log_message": "http.server.BaseHTTPRequestHandler calls it to log a request",
    "clear_halt": "test reset hook: undoes a delivered SIGTERM between tests",
    "restore_signal_handlers": "test reset hook: puts back the handlers a test installed",
}

_SKIP_DIRS = {"__pycache__"}


def iter_python_files(top: str):
    for dirpath, dirnames, filenames in os.walk(os.path.join(REPO_ROOT, top)):
        dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def parse(path: str) -> ast.AST:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def definitions(tree: ast.AST):
    """``(name, first_line, last_line)`` of every public def and class."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield node.name, first, node.end_lineno


def references(tree: ast.AST):
    """``(name, line)`` of every ``Name`` and ``Attribute`` node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def doc_text() -> str:
    paths = [os.path.join(REPO_ROOT, p) for p in DOC_FILES]
    doc_dir = os.path.join(REPO_ROOT, DOC_DIR)
    paths += [
        os.path.join(doc_dir, p) for p in sorted(os.listdir(doc_dir)) if p.endswith(".md")
    ]
    chunks = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            chunks.append(fh.read())
    return "\n".join(chunks)


def main() -> int:
    refs = {}  # name -> [(path, line), ...]
    defs = []  # (path, name, first_line, last_line)
    for top in CALLER_DIRS:
        for path in iter_python_files(top):
            tree = parse(path)
            for name, line in references(tree):
                refs.setdefault(name, []).append((path, line))
            if top == "src":
                for name, first, last in definitions(tree):
                    defs.append((path, name, first, last))
    docs = doc_text()
    unknown = sorted(set(ALLOWED) - {name for _, name, _, _ in defs})
    errors = [f"lint-callers: allow-list entry `{n}` names no definition" for n in unknown]
    for path, name, first, last in defs:
        if name in ALLOWED:
            continue
        if any(p != path or not first <= line <= last for p, line in refs.get(name, ())):
            continue
        if re.search(rf"\b{re.escape(name)}\b", docs):
            continue
        rel = os.path.relpath(path, REPO_ROOT)
        errors.append(
            f"{rel}:{first}: `{name}` has no caller in {', '.join(CALLER_DIRS)} "
            "and no mention in README.md or docs/; delete it, move it to the "
            "tests, or allow-list it with a reason"
        )
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"lint-callers: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print(f"lint-callers: OK ({len(defs)} public definitions under src/)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
