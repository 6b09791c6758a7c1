"""Run-summary reports over telemetry run directories.

CLI::

    python -m repro.telemetry.report <run_dir>
    python -m repro.telemetry.report <run_dir> --trace trace.json
    python -m repro.telemetry.report <run_dir> --json
    python -m repro.telemetry.report <run_dir> --health --attribution
    python -m repro.telemetry.report --diff RUN_A RUN_B

The text report shows the run manifest, event counts by type, the search
progress extracted from ``iteration`` events, and every metric recorded
in ``metrics.json`` (counters, gauges, histogram quantiles), then the
self-time table of the ``profile.*`` section histograms. ``--trace``
converts the event log into a Chrome/Perfetto trace via
:func:`repro.analysis.trace.events_to_chrome_trace`. ``--health``
appends the health-watchdog alert timeline, ``--attribution`` the
latest best-placement attribution (per-device Gantt, top-k
critical-path ops, traffic matrix), and ``--diff`` prints metric deltas
between two runs for quick regression triage.

Library use::

    from repro.telemetry.report import load_run, render_report
    print(render_report("runs/quickstart-inception-v3"))
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter as _TallyCounter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.telemetry.events import read_events, validate_event

__all__ = [
    "RunData",
    "load_run",
    "summarize_run",
    "render_report",
    "profile_rows",
    "render_profile_table",
    "render_health_section",
    "render_attribution_section",
    "diff_runs",
    "render_diff",
    "main",
]


@dataclass
class RunData:
    """Everything a run directory holds, parsed."""

    run_dir: str
    manifest: Dict = field(default_factory=dict)
    metrics: Dict = field(default_factory=dict)
    events: List[dict] = field(default_factory=list)

    @property
    def event_counts(self) -> Dict[str, int]:
        return dict(_TallyCounter(e.get("type", "?") for e in self.events))


def load_run(run_dir: str) -> RunData:
    """Parse manifest, metrics snapshot and all events of one run."""
    if not os.path.isdir(run_dir):
        raise FileNotFoundError(f"not a run directory: {run_dir}")
    data = RunData(run_dir=run_dir)
    manifest_path = os.path.join(run_dir, "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as fh:
            data.manifest = json.load(fh)
    metrics_path = os.path.join(run_dir, "metrics.json")
    if os.path.exists(metrics_path):
        with open(metrics_path) as fh:
            data.metrics = json.load(fh)
    data.events = list(read_events(run_dir))
    return data


def summarize_run(data: RunData) -> Dict:
    """Compact JSON-friendly digest of one run (used by ``--json``)."""
    iterations = [e for e in data.events if e.get("type") == "iteration"]
    invalid = sum(e.get("n_invalid", 0) for e in iterations)
    truncated = sum(e.get("n_truncated", 0) for e in iterations)
    errors = [err for e in data.events for err in validate_event(e)]
    alerts = [e for e in data.events if e.get("type") == "alert"]
    summary: Dict = {
        "run_dir": data.run_dir,
        "name": data.manifest.get("name"),
        "events": len(data.events),
        "event_counts": data.event_counts,
        "schema_errors": errors,
        "alerts": len(alerts),
        "alerts_by_detector": dict(
            _TallyCounter(e.get("detector", "?") for e in alerts)
        ),
        "halted": bool(data.manifest.get("halted", False)),
        "halt_reason": data.manifest.get("halt_reason"),
        "metric_names": sorted(
            set(data.metrics.get("counters", {}))
            | set(data.metrics.get("gauges", {}))
            | set(data.metrics.get("histograms", {}))
        ),
    }
    if iterations:
        first, last = iterations[0], iterations[-1]
        summary["search"] = {
            "iterations": len(iterations),
            "samples": last.get("samples"),
            "first_best_runtime": first.get("best_runtime"),
            "final_best_runtime": last.get("best_runtime"),
            "sim_clock_hours": last.get("sim_clock", 0.0) / 3600.0,
            "wall_seconds": sum(e.get("wall_seconds", 0.0) for e in iterations),
            "invalid_samples": invalid,
            "truncated_samples": truncated,
        }
    return summary


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------
def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        if rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    out = [" | ".join(str(h).ljust(w) for h, w in zip(headers, widths))]
    out.append("-+-".join("-" * w for w in widths))
    for row in rows:
        out.append(" | ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def _fmt(value, digits: int = 4) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        return f"{value:.{digits}g}"
    return str(value)


def profile_rows(metrics: Dict) -> List[Dict]:
    """One row per ``profile.<path>`` histogram, in tree order: calls,
    total seconds, self seconds (total minus the totals of the path's
    direct children) and share of its root section's total (``None``
    when the root has not finished, e.g. in a mid-run flush)."""
    totals = {
        name[len("profile."):]: h
        for name, h in metrics.get("histograms", {}).items()
        if name.startswith("profile.")
    }
    children: Dict[str, float] = {}
    for path, h in totals.items():
        parent, sep, _ = path.rpartition("/")
        if sep:
            children[parent] = children.get(parent, 0.0) + h.get("sum", 0.0)
    rows = []
    for path in sorted(totals, key=lambda p: p.split("/")):
        total = totals[path].get("sum", 0.0)
        root_total = totals.get(path.split("/", 1)[0], {}).get("sum", 0.0)
        rows.append({
            "path": path,
            "calls": totals[path].get("count", 0),
            "total_s": total,
            "self_s": total - children.get(path, 0.0),
            "share": total / root_total if root_total > 0 else None,
        })
    return rows


def render_profile_table(data: RunData) -> str:
    """The self-time table of the run's timed sections."""
    return "--- profile ---\n" + _table(
        ["section", "calls", "total s", "self s", "share"],
        [[
            row["path"],
            row["calls"],
            f"{row['total_s']:.3f}",
            f"{row['self_s']:.3f}",
            f"{row['share']:.1%}" if row["share"] is not None else "-",
        ] for row in profile_rows(data.metrics)],
    )


def render_health_section(data: RunData) -> str:
    """Alert timeline: one row per health-watchdog ``alert`` event."""
    alerts = [e for e in data.events if e.get("type") == "alert"]
    lines = ["--- health ---"]
    if data.manifest.get("halted"):
        lines.append(f"HALTED: {data.manifest.get('halt_reason', '(no reason recorded)')}")
    if not alerts:
        lines.append("no alerts: all detectors stayed quiet")
        return "\n".join(lines)
    counts = _TallyCounter(e.get("detector", "?") for e in alerts)
    lines.append(
        f"{len(alerts)} alert(s): "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    lines.append(_table(
        ["seq", "iter", "detector", "action", "value", "threshold", "window", "message"],
        [[
            e.get("seq", "-"),
            e.get("iteration", "-"),
            e.get("detector", "?"),
            e.get("action", "?"),
            _fmt(e.get("value")),
            _fmt(e.get("threshold")),
            e.get("window", "-"),
            e.get("message", ""),
        ] for e in alerts],
    ))
    return "\n".join(lines)


def render_attribution_section(data: RunData, width: int = 64) -> str:
    """The latest best-placement attribution, rendered as text."""
    # Imported lazily: the renderer lives in repro.analysis, which pulls
    # in the simulator stack that plain report rendering does not need.
    from repro.analysis.attribution import render_attribution_event

    events = [e for e in data.events if e.get("type") == "attribution"]
    lines = ["--- attribution ---"]
    if not events:
        lines.append(
            "no attribution events (the run found no valid placement, or "
            "predates the attribution engine)"
        )
        return "\n".join(lines)
    if len(events) > 1:
        lines.append(f"{len(events)} attribution snapshots; showing the latest:")
    lines.append(render_attribution_event(events[-1], width=width))
    return "\n".join(lines)


def render_report(
    run_dir: str, health: bool = False, attribution: bool = False
) -> str:
    """The full text report for one run directory."""
    data = load_run(run_dir)
    summary = summarize_run(data)
    lines: List[str] = []
    lines.append(f"=== telemetry report: {summary.get('name') or run_dir} ===")
    manifest = data.manifest
    for key in ("workload", "agent_kind", "seed", "iterations", "profile"):
        if key in manifest:
            lines.append(f"{key}: {manifest[key]}")
    lines.append(f"run_dir: {data.run_dir}")
    lines.append(f"events: {summary['events']} "
                 f"({', '.join(f'{k}={v}' for k, v in sorted(summary['event_counts'].items()))})")
    if summary["schema_errors"]:
        lines.append(f"SCHEMA ERRORS: {len(summary['schema_errors'])} "
                     f"(first: {summary['schema_errors'][0]})")
    else:
        lines.append("schema: ok")

    search = summary.get("search")
    if search:
        lines.append("")
        lines.append(_table(
            ["iterations", "samples", "best (first)", "best (final)",
             "sim hours", "wall s", "invalid", "cutoff"],
            [[
                search["iterations"],
                search["samples"],
                _fmt(search["first_best_runtime"]),
                _fmt(search["final_best_runtime"]),
                _fmt(search["sim_clock_hours"], 3),
                _fmt(search["wall_seconds"], 3),
                search["invalid_samples"],
                search["truncated_samples"],
            ]],
        ))

    counters = data.metrics.get("counters", {})
    gauges = data.metrics.get("gauges", {})
    histograms = data.metrics.get("histograms", {})
    rows: List[List[str]] = []
    for name, c in sorted(counters.items()):
        rows.append([name, "counter", _fmt(c.get("value")), "-", "-", "-", "-"])
    for name, g in sorted(gauges.items()):
        rows.append([name, "gauge", _fmt(g.get("value")), "-", "-", "-", "-"])
    for name, h in sorted(histograms.items()):
        rows.append([
            name, "histogram", _fmt(h.get("count")), _fmt(h.get("mean")),
            _fmt(h.get("p50")), _fmt(h.get("p95")), _fmt(h.get("p99")),
        ])
    if rows:
        lines.append("")
        lines.append(_table(
            ["metric", "kind", "count/value", "mean", "p50", "p95", "p99"], rows
        ))
    if any(name.startswith("profile.") for name in histograms):
        lines.append("")
        lines.append(render_profile_table(data))
    if health:
        lines.append("")
        lines.append(render_health_section(data))
    if attribution:
        lines.append("")
        lines.append(render_attribution_section(data))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Run diffing (--diff RUN_A RUN_B)
# ----------------------------------------------------------------------
def _metric_finals(metrics: Dict) -> Dict[str, Dict]:
    """Flatten a metrics snapshot into name -> {final, mean}."""
    out: Dict[str, Dict] = {}
    for name, c in metrics.get("counters", {}).items():
        out[name] = {"kind": "counter", "final": c.get("value"), "mean": None}
    for name, g in metrics.get("gauges", {}).items():
        out[name] = {"kind": "gauge", "final": g.get("value"), "mean": None}
    for name, h in metrics.get("histograms", {}).items():
        out[name] = {"kind": "histogram", "final": h.get("count"), "mean": h.get("mean")}
    return out


def diff_runs(run_a: str, run_b: str) -> Dict:
    """Metric/alert deltas between two run directories (B minus A)."""
    a, b = load_run(run_a), load_run(run_b)
    sa, sb = summarize_run(a), summarize_run(b)
    ma, mb = _metric_finals(a.metrics), _metric_finals(b.metrics)
    metrics: Dict[str, Dict] = {}
    for name in sorted(set(ma) | set(mb)):
        ea, eb = ma.get(name), mb.get(name)
        entry: Dict = {
            "kind": (eb or ea or {}).get("kind"),
            "a_final": ea.get("final") if ea else None,
            "b_final": eb.get("final") if eb else None,
            "a_mean": ea.get("mean") if ea else None,
            "b_mean": eb.get("mean") if eb else None,
        }
        if isinstance(entry["a_final"], (int, float)) and isinstance(
            entry["b_final"], (int, float)
        ):
            entry["delta_final"] = entry["b_final"] - entry["a_final"]
        else:
            entry["delta_final"] = None
        metrics[name] = entry
    diff: Dict = {
        "run_a": a.run_dir,
        "run_b": b.run_dir,
        "metrics": metrics,
        "alerts": {
            "a": sa["alerts"],
            "b": sb["alerts"],
            "delta": sb["alerts"] - sa["alerts"],
            "a_by_detector": sa["alerts_by_detector"],
            "b_by_detector": sb["alerts_by_detector"],
        },
        "halted": {"a": sa["halted"], "b": sb["halted"]},
    }
    ra = (sa.get("search") or {}).get("final_best_runtime")
    rb = (sb.get("search") or {}).get("final_best_runtime")
    diff["best_runtime"] = {
        "a": ra,
        "b": rb,
        "delta": (rb - ra)
        if isinstance(ra, (int, float)) and isinstance(rb, (int, float))
        else None,
    }
    return diff


def render_diff(diff: Dict) -> str:
    """Text rendering of a :func:`diff_runs` result."""
    lines = [f"=== run diff: {diff['run_a']} -> {diff['run_b']} ==="]
    br = diff["best_runtime"]
    lines.append(
        f"best_runtime: {_fmt(br['a'])} -> {_fmt(br['b'])}"
        + (f" (delta {_fmt(br['delta'], 4)})" if br["delta"] is not None else "")
    )
    al = diff["alerts"]
    lines.append(
        f"alerts: {al['a']} -> {al['b']} (delta {al['delta']:+d})"
    )
    for label, by in (("A", al["a_by_detector"]), ("B", al["b_by_detector"])):
        if by:
            lines.append(
                f"  {label} by detector: "
                + ", ".join(f"{k}={v}" for k, v in sorted(by.items()))
            )
    halted = diff["halted"]
    if halted["a"] or halted["b"]:
        lines.append(f"halted: A={halted['a']} B={halted['b']}")
    rows = []
    for name, m in diff["metrics"].items():
        rows.append([
            name,
            m.get("kind") or "-",
            _fmt(m["a_final"]),
            _fmt(m["b_final"]),
            _fmt(m["delta_final"]) if m["delta_final"] is not None else "-",
            _fmt(m["a_mean"]),
            _fmt(m["b_mean"]),
        ])
    if rows:
        lines.append("")
        lines.append(_table(
            ["metric", "kind", "A final", "B final", "delta", "A mean", "B mean"],
            rows,
        ))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.report",
        description="Summarize a telemetry run directory.",
    )
    parser.add_argument(
        "run_dir",
        nargs="?",
        default=None,
        help="directory written by repro.telemetry.start_run",
    )
    parser.add_argument(
        "--trace",
        metavar="OUT.json",
        default=None,
        help="also export the event log as a Chrome/Perfetto trace",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the digest as JSON instead of text"
    )
    parser.add_argument(
        "--health",
        action="store_true",
        help="append the health-watchdog alert timeline",
    )
    parser.add_argument(
        "--attribution",
        action="store_true",
        help="append the latest best-placement attribution (Gantt, top-k ops)",
    )
    parser.add_argument(
        "--diff",
        nargs=2,
        metavar=("RUN_A", "RUN_B"),
        default=None,
        help="print metric/alert deltas between two runs instead of a report",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.diff is not None:
        try:
            diff = diff_runs(*args.diff)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(diff, indent=2, default=str))
        else:
            print(render_diff(diff))
        return 0
    if args.run_dir is None:
        print("error: a run_dir (or --diff RUN_A RUN_B) is required", file=sys.stderr)
        return 2
    try:
        data = load_run(args.run_dir)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summarize_run(data), indent=2, default=str))
    else:
        print(render_report(args.run_dir, health=args.health, attribution=args.attribution))
    if args.trace:
        # Imported lazily: repro.analysis pulls in the simulator stack,
        # which plain report rendering does not need.
        from repro.analysis.trace import events_to_chrome_trace

        events_to_chrome_trace(data.events, path=args.trace)
        print(f"\nwrote Chrome trace to {args.trace} "
              f"(open in Perfetto or chrome://tracing)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
