"""Render placement attributions as text (Gantt, top-k ops, traffic).

Two entry points over the same renderer:

* :func:`render_attribution` — library use, straight from a
  :class:`repro.sim.attribution.PlacementAttribution`::

      from repro.analysis import render_attribution
      attr = env.attribute(best_placement)
      print(render_attribution(attr, graph=env.graph))

* :func:`render_attribution_event` — report-CLI use, from the JSON
  payload of an ``attribution`` telemetry event
  (``python -m repro.telemetry.report <run> --attribution`` renders the
  run's latest one).

The Gantt marks each device's busy spans with ``#`` over the step's
span; the tables below it answer "which ops is the step time actually
made of" (top-k realized-critical-path ops) and "who talks to whom"
(cross-device traffic matrix).
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.attribution import PlacementAttribution
from repro.telemetry.report import _table

__all__ = ["render_attribution", "render_attribution_event"]


def _gantt(devices: List[Dict], span: float, width: int) -> str:
    """One ``#``-bar row per device over ``[0, span]``."""
    if span <= 0 or not devices:
        return "(empty timeline)"
    name_w = max(len(d["name"]) for d in devices)
    lines = []
    for dev in devices:
        row = [" "] * width
        for start, end in dev.get("intervals", []):
            lo = int(start / span * (width - 1))
            hi = max(lo, int(end / span * (width - 1)))
            for i in range(lo, min(hi, width - 1) + 1):
                row[i] = "#"
        lines.append(f"{dev['name'].rjust(name_w)} |{''.join(row)}|")
    lines.append(f"{' ' * name_w}  0{' ' * (width - 8)}{span * 1e3:6.1f}ms")
    return "\n".join(lines)


def render_attribution_event(event: Dict, width: int = 64, top_k: int = 10) -> str:
    """Text attribution section from one ``attribution`` event payload."""
    lines: List[str] = []
    span = float(event.get("critical_path_time", 0.0))
    makespan = float(event.get("makespan", 0.0))
    iteration = event.get("iteration", -1)
    header = (
        f"step time {makespan * 1e3:.2f} ms, critical path {span * 1e3:.2f} ms "
        f"({event.get('path_ops', 0)} ops + {event.get('path_comms', 0)} transfers), "
        f"{float(event.get('comm_bound_fraction', 0.0)):.0%} comm-bound, "
        f"utilization {float(event.get('utilization', 0.0)):.0%}"
    )
    if isinstance(iteration, int) and iteration >= 0:
        header += f"  [iteration {iteration}]"
    lines.append(header)

    devices = event.get("devices") or []
    if devices:
        lines.append("")
        lines.append(_gantt(devices, span if span > 0 else makespan, width))
        lines.append("")
        lines.append(
            _table(
                ["device", "ops", "busy ms", "idle ms", "busy % of step"],
                [
                    [
                        d["name"],
                        d.get("ops", 0),
                        f"{float(d.get('busy', 0.0)) * 1e3:.2f}",
                        f"{float(d.get('idle', 0.0)) * 1e3:.2f}",
                        f"{float(d.get('busy', 0.0)) / makespan:.0%}" if makespan > 0 else "-",
                    ]
                    for d in devices
                ],
            )
        )

    top_ops = (event.get("top_ops") or [])[:top_k]
    if top_ops:
        lines.append("")
        lines.append(f"top {len(top_ops)} critical-path ops:")
        lines.append(
            _table(
                ["op", "name", "device", "time ms", "% of path", "released by"],
                [
                    [
                        o.get("op", "?"),
                        o.get("name", "?"),
                        o.get("device", "?"),
                        f"{float(o.get('time', 0.0)) * 1e3:.3f}",
                        f"{float(o.get('time', 0.0)) / span:.1%}" if span > 0 else "-",
                        o.get("reason", "?"),
                    ]
                    for o in top_ops
                ],
            )
        )

    traffic = event.get("traffic_bytes") or []
    names = [d["name"] for d in devices]
    if traffic and any(any(cell for cell in row) for row in traffic):
        lines.append("")
        lines.append("cross-device traffic (MB shipped per step, src -> dst):")
        headers = ["src \\ dst"] + (
            names if len(names) == len(traffic) else [str(i) for i in range(len(traffic))]
        )
        rows = []
        for i, row in enumerate(traffic):
            label = names[i] if i < len(names) else str(i)
            rows.append(
                [label]
                + [f"{cell / 2**20:.1f}" if cell else "-" for cell in row]
            )
        lines.append(_table(headers, rows))
    return "\n".join(lines)


def render_attribution(
    attribution: PlacementAttribution,
    graph=None,
    width: int = 64,
    top_k: int = 10,
) -> str:
    """Render a :class:`PlacementAttribution` (library-side convenience)."""
    return render_attribution_event(
        attribution.event_payload(graph, top_k=top_k), width=width, top_k=top_k
    )
