#!/usr/bin/env python
"""Documentation lint: Markdown link check + event-fixture validation.

Run from the repo root (``make lint-docs`` does):

    python tools/lint_docs.py

Six checks, all stdlib-only:

1. Every relative link/image target in the repo's Markdown files must
   exist on disk (``http(s)://``, ``mailto:`` and pure ``#anchor`` links
   are skipped; a ``target#anchor`` suffix is stripped before the check).
2. Every repo-looking path named in inline code in ``docs/*.md`` (e.g.
   ```` `src/repro/sim/scheduler.py` ````) must exist, resolved
   against the repo root, ``src/`` and ``src/repro/``. Only tokens whose
   first segment is a real top-level directory count as path claims, so
   illustrative paths (``runs/<id>/events.jsonl``) and globs stay exempt;
   fenced code blocks are skipped like the link check.
3. Every ``tests/fixtures/*.jsonl`` event fixture must parse as JSONL
   and validate against the event schema in ``repro.telemetry.events``
   — keeping docs/observability.md's schema reference, the fixtures,
   and the code in sync. Coverage is also enforced: every event type
   registered in ``EVENT_SCHEMAS`` must appear in at least one fixture
   line, so a new event type cannot ship without a validated example.
4. Every metric name recorded under ``src/`` — a string literal passed
   to ``counter(...)`` / ``gauge(...)`` / ``histogram(...)`` — must
   appear in docs/observability.md's metric glossary, and every section
   name opened under ``src/`` — a string literal passed to ``span(...)``
   — in its profiler glossary, so a new metric or section cannot ship
   undocumented.
5. The converse: every name at the head of a bullet in the glossary
   (§4 of docs/observability.md; the code spans before the bullet's
   " — ") must be recorded under ``src/`` — as a section when the bullet
   is in the profiler glossary, as a metric otherwise — so a deleted
   metric or section cannot leave its documentation behind.
6. Every ``--flag`` named in inline code in ``docs/*.md`` and
   ``README.md`` must be an ``add_argument`` option of some script under
   ``src/``, ``tools/``, ``benchmarks/`` or ``examples/``, so a deleted
   command-line option cannot stay documented.

Exit status is non-zero if any check fails.
"""

from __future__ import annotations

import ast
import glob
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.telemetry.events import EVENT_SCHEMAS, validate_event  # noqa: E402

# [text](target) and ![alt](target); target ends at the first ')' or space.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
_SKIP_DIRS = {".git", ".mars_cache", "__pycache__", ".pytest_cache", "runs"}


def iter_markdown_files():
    for dirpath, dirnames, filenames in os.walk(REPO_ROOT):
        dirnames[:] = [d for d in dirnames if d not in _SKIP_DIRS]
        for name in filenames:
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def strip_code_blocks(text: str) -> str:
    """Drop fenced code blocks — example links in them aren't promises."""
    return re.sub(r"```.*?```", "", text, flags=re.DOTALL)


def check_markdown_links() -> list:
    errors = []
    for path in sorted(iter_markdown_files()):
        rel = os.path.relpath(path, REPO_ROOT)
        text = strip_code_blocks(open(path, encoding="utf-8").read())
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(_SKIP_PREFIXES):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = os.path.normpath(os.path.join(os.path.dirname(path), target))
            if not os.path.exists(resolved):
                errors.append(f"{rel}: broken link -> {match.group(1)}")
    return errors


# Inline `code` spans; path tokens inside them are promises about the tree.
_CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
_PATH_TOKEN_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_./-]*")
_PATH_EXTS = (".py", ".md", ".json", ".jsonl", ".txt", ".toml", ".cfg", ".ini", ".yaml", ".yml")


def _iter_path_tokens(span: str):
    for token in _PATH_TOKEN_RE.findall(span):
        token = token.rstrip(".")  # trailing sentence punctuation
        if "/" in token and token.endswith(_PATH_EXTS):
            yield token


def check_doc_path_references() -> list:
    """Stale-path check: docs/*.md must not name files that do not exist."""
    errors = []
    roots = (
        REPO_ROOT,
        os.path.join(REPO_ROOT, "src"),
        os.path.join(REPO_ROOT, "src", "repro"),
    )
    for path in sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md"))):
        rel = os.path.relpath(path, REPO_ROOT)
        text = strip_code_blocks(open(path, encoding="utf-8").read())
        for span in _CODE_SPAN_RE.finditer(text):
            for token in _iter_path_tokens(span.group(1)):
                if any(os.path.exists(os.path.join(root, token)) for root in roots):
                    continue
                # Only a repo-path claim if the leading segment is a real
                # top-level directory; leaves illustrative paths alone.
                head = token.split("/", 1)[0]
                if any(os.path.isdir(os.path.join(root, head)) for root in roots):
                    errors.append(f"{rel}: stale path reference -> {token}")
    return errors


def check_event_fixtures() -> list:
    errors = []
    pattern = os.path.join(REPO_ROOT, "tests", "fixtures", "*.jsonl")
    fixtures = sorted(glob.glob(pattern))
    if not fixtures:
        return [f"no JSONL fixtures found under {pattern}"]
    seen_types = set()
    for path in fixtures:
        rel = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except ValueError as exc:
                    errors.append(f"{rel}:{lineno}: not JSON ({exc})")
                    continue
                seen_types.add(event.get("type"))
                for problem in validate_event(event):
                    errors.append(f"{rel}:{lineno}: {problem}")
    missing = sorted(set(EVENT_SCHEMAS) - seen_types)
    if missing:
        errors.append(
            "fixture coverage: no fixture line for event type(s) "
            f"{', '.join(missing)} (add one to tests/fixtures/*.jsonl)"
        )
    return errors


# `tel.counter("env.oom")`, `registry.histogram('serve.latency_ms')`, ...
# The literal-argument requirement is deliberate: dynamically-built metric
# names can't be linted, and the codebase doesn't build any.
_METRIC_CALL_RE = re.compile(
    r"\b(?:counter|gauge|histogram)\(\s*['\"]([A-Za-z0-9._]+)['\"]"
)
# `span("rl.sample", ...)`, also with the name on the next line.
_SECTION_CALL_RE = re.compile(r"\bspan\(\s*['\"]([A-Za-z0-9._]+)['\"]")


GLOSSARY_PATH = os.path.join(REPO_ROOT, "docs", "observability.md")
PROFILER_HEADING = "**Profiler (`profile.*`)**"


def _literal_names(pattern) -> dict:
    """Name -> first "file:line" under src/ where ``pattern`` captures it."""
    found = {}
    for path in sorted(
        glob.glob(os.path.join(REPO_ROOT, "src", "**", "*.py"), recursive=True)
    ):
        rel = os.path.relpath(path, REPO_ROOT)
        text = open(path, encoding="utf-8").read()
        for match in pattern.finditer(text):
            lineno = text.count("\n", 0, match.start()) + 1
            found.setdefault(match.group(1), f"{rel}:{lineno}")
    return found


def recorded_metrics() -> dict:
    """Metric name -> first "file:line" under src/ that records it."""
    return _literal_names(_METRIC_CALL_RE)


def opened_sections() -> dict:
    """Section name -> first "file:line" under src/ that opens it."""
    return _literal_names(_SECTION_CALL_RE)


def glossary_parts():
    """§4 of docs/observability.md as ``(metric part, profiler part)``;
    the profiler part runs from its bold heading to the next one."""
    text = open(GLOSSARY_PATH, encoding="utf-8").read()
    start = text.find("\n## 4. ")
    if start < 0:
        return None
    end = text.find("\n## ", start + 1)
    section = text[start : end if end >= 0 else len(text)]
    head = section.find(PROFILER_HEADING)
    if head < 0:
        return section, ""
    tail = section.find("\n**", head + len(PROFILER_HEADING))
    tail = tail if tail >= 0 else len(section)
    return section[:head] + section[tail:], section[head:tail]


def check_metric_glossary() -> list:
    """Every metric recorded under src/ must be in the observability
    glossary (docs/observability.md), and every section opened under
    src/ in its profiler glossary."""
    if not os.path.exists(GLOSSARY_PATH):
        return ["docs/observability.md missing (metric glossary home)"]
    glossary = open(GLOSSARY_PATH, encoding="utf-8").read()
    errors = []
    recorded = recorded_metrics()
    for name in sorted(recorded):
        # A glossary row mentions the metric in a code span: `env.oom`.
        if f"`{name}`" not in glossary:
            errors.append(
                f"{recorded[name]}: metric {name!r} is recorded but not in "
                "the docs/observability.md metric glossary"
            )
    parts = glossary_parts()
    profiler = parts[1] if parts else ""
    opened = opened_sections()
    for name in sorted(opened):
        if f"`{name}`" not in profiler:
            errors.append(
                f"{opened[name]}: section {name!r} is opened but not in "
                "the docs/observability.md profiler glossary"
            )
    return errors


# A glossary bullet's head: "* `env.oom`, `env.cutoff` — ..." -> the text
# between the bullet marker and the first em dash.
_BULLET_HEAD_RE = re.compile(r"^\* (.*?) — ", re.MULTILINE)
_METRIC_NAME_RE = re.compile(r"^[a-z_]+(?:\.[a-z0-9_]+)+$")


def check_glossary_metrics_recorded() -> list:
    """Every metric heading a glossary bullet must be recorded under
    src/, and every section heading a profiler bullet opened there."""
    if not os.path.exists(GLOSSARY_PATH):
        return []  # check_metric_glossary reports the missing file
    parts = glossary_parts()
    if parts is None:
        return ["docs/observability.md: no '## 4.' metric glossary section"]
    errors = []
    for part, kind, names in zip(
        parts, ("metric", "section"), (recorded_metrics(), opened_sections())
    ):
        for head in _BULLET_HEAD_RE.finditer(part):
            for name in _CODE_SPAN_RE.findall(head.group(1)):
                if _METRIC_NAME_RE.match(name) and name not in names:
                    errors.append(
                        f"docs/observability.md: glossary names {kind} "
                        f"{name!r}, which nothing under src/ "
                        + ("records" if kind == "metric" else "opens")
                    )
    return errors


# `--telemetry-dir DIR`, `--seeds N`: a long option at a token start.
_FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_OPTION_ROOTS = ("src", "tools", "benchmarks", "examples")


def defined_options() -> set:
    """Every ``--option`` string passed to an ``add_argument`` call in the
    Python files under ``_OPTION_ROOTS``."""
    options = set()
    for root in _OPTION_ROOTS:
        pattern = os.path.join(REPO_ROOT, root, "**", "*.py")
        for path in glob.glob(pattern, recursive=True):
            tree = ast.parse(open(path, encoding="utf-8").read(), path)
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"
                ):
                    options.update(
                        arg.value
                        for arg in node.args
                        if isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)
                        and arg.value.startswith("--")
                    )
    return options


def check_doc_flags() -> list:
    """Every ``--flag`` in inline code in the docs must be a real option."""
    options = defined_options()
    errors = []
    paths = sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")))
    for path in paths + [os.path.join(REPO_ROOT, "README.md")]:
        rel = os.path.relpath(path, REPO_ROOT)
        text = strip_code_blocks(open(path, encoding="utf-8").read())
        for span in _CODE_SPAN_RE.finditer(text):
            for flag in _FLAG_RE.findall(span.group(1)):
                if flag not in options:
                    errors.append(
                        f"{rel}: flag {flag} is not an add_argument option "
                        "under " + ", ".join(f"{r}/" for r in _OPTION_ROOTS)
                    )
    return errors


def main() -> int:
    errors = (
        check_markdown_links()
        + check_doc_path_references()
        + check_event_fixtures()
        + check_metric_glossary()
        + check_glossary_metrics_recorded()
        + check_doc_flags()
    )
    for error in errors:
        print(error, file=sys.stderr)
    n_md = len(list(iter_markdown_files()))
    if errors:
        print(f"lint-docs: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print(f"lint-docs: OK ({n_md} Markdown files, fixtures valid)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
