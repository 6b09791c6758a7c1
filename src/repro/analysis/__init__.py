"""Placement analysis and reporting tools.

Everything a practitioner needs to understand *why* a placement is fast
or slow: per-device utilization, communication breakdown, critical-path
analysis, ASCII timelines, and CSV export of search curves.
"""

from repro.analysis.report import PlacementReport, analyze_placement
from repro.analysis.timeline import DeviceTimeline, build_timeline, render_timeline
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
    "DeviceTimeline",
    "build_timeline",
    "render_timeline",
    "critical_path",
    "critical_path_ops",
    "curves_to_csv",
    "history_to_rows",
]
