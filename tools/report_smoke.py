#!/usr/bin/env python
"""End-to-end report smoke test (``make report-smoke``).

Runs a tiny search with telemetry into a temp directory, then renders
the full report — including the ``--health`` alert timeline and the
``--attribution`` Gantt/top-k sections — checks that its profile table
has ``rl.sample`` and ``rl.update`` rows, and renders a ``--diff`` of
the run against itself. Exits non-zero if any stage fails, so ``make test``
catches a report pipeline that crashes on real run directories before
a user does.
"""

from __future__ import annotations

import os
import sys
import tempfile
from dataclasses import replace

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.config import fast_profile  # noqa: E402
from repro.core import optimize_placement  # noqa: E402
from repro.sim import ClusterSpec  # noqa: E402
from repro.telemetry import HealthConfig, start_run, use_telemetry  # noqa: E402
from repro.telemetry.report import (  # noqa: E402
    diff_runs,
    load_run,
    main as report_main,
    profile_rows,
)
from repro.workloads import build_vgg16  # noqa: E402


def run() -> int:
    graph = build_vgg16(scale=0.25, batch_size=4)
    # plateau_window=2 guarantees at least one alert on a 4-iteration run,
    # so the --health section renders a real timeline, not the fallback.
    config = replace(
        fast_profile(seed=0, iterations=4),
        health=HealthConfig(action="warn", plateau_window=2, cooldown=0),
    )
    with tempfile.TemporaryDirectory() as tmp:
        tel = start_run(
            "report-smoke", tmp, manifest={"workload": graph.name, "agent_kind": "mars"}
        )
        with use_telemetry(tel):
            result = optimize_placement(
                graph, ClusterSpec.default(), "mars_no_pretrain", config
            )
        tel.close()
        if result.history.best_placement is None:
            print("report-smoke: search found no valid placement", file=sys.stderr)
            return 1

        rc = report_main([tel.run_dir, "--health", "--attribution"])
        if rc != 0:
            print(f"report-smoke: report exited {rc}", file=sys.stderr)
            return rc
        sections = {
            row["path"].rsplit("/", 1)[-1]
            for row in profile_rows(load_run(tel.run_dir).metrics)
        }
        missing = {"rl.sample", "rl.update"} - sections
        if missing:
            print(f"report-smoke: profile table lacks {sorted(missing)}", file=sys.stderr)
            return 1
        diff = diff_runs(tel.run_dir, tel.run_dir)
        if diff["alerts"]["delta"] != 0 or diff["best_runtime"]["delta"] != 0.0:
            print("report-smoke: self-diff is not a no-op", file=sys.stderr)
            return 1
    print("\nreport-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(run())
