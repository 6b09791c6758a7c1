"""Placement analysis and reporting tools.

Everything a practitioner needs to understand *why* a placement is fast
or slow. One traced schedule feeds every per-device view:
``PlacementEnv.attribute`` / :func:`repro.sim.attribution.attribute_schedule`
builds the per-device intervals, busy/idle time, op counts, traffic and
realized critical path, and :func:`render_attribution` draws them as a
Gantt chart with top-k critical-path ops and a traffic matrix.
:func:`analyze_placement` adds memory and cut edges to that,
:func:`placement_to_chrome_trace` exports the same intervals for
Perfetto, :func:`critical_path` gives the cost-model lower bound, and
:func:`curves_to_csv` exports search curves.
"""

from repro.analysis.report import PlacementReport, analyze_placement
from repro.analysis.critical_path import critical_path, critical_path_ops
from repro.analysis.attribution import render_attribution, render_attribution_event
from repro.analysis.export import curves_to_csv, history_to_rows
from repro.analysis.trace import events_to_chrome_trace, placement_to_chrome_trace

__all__ = [
    "placement_to_chrome_trace",
    "events_to_chrome_trace",
    "render_attribution",
    "render_attribution_event",
    "PlacementReport",
    "analyze_placement",
    "critical_path",
    "critical_path_ops",
    "curves_to_csv",
    "history_to_rows",
]
