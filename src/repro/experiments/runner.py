"""Command-line entry point for the experiment harness.

Usage::

    python -m repro.experiments.runner table1
    python -m repro.experiments.runner table2 --seed 1
    python -m repro.experiments.runner all --cache-dir .mars_cache
    mars-experiments fig7 --workloads inception_v3

Runs are cached per (workload, agent, seed, iterations); tables and
figures that share runs (Table 2, Fig. 7, Fig. 8) reuse them.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace

from repro.config import fast_profile, paper_profile
from repro.core.runstate import install_signal_handlers
from repro.experiments import fig7, fig8, table1, table2, table3
from repro.experiments.common import EVAL_WORKLOADS, ExperimentContext, RunInterrupted
from repro.utils.logging import set_verbosity

def _seeds(args):
    return list(range(args.seed, args.seed + args.seeds))


def _table2(ctx, args):
    text = table2.render_table2(table2.run_table2(ctx, seeds=_seeds(args)))
    print(text)
    return text


def _fig8(ctx, args):
    text = fig8.render_fig8(fig8.run_fig8(ctx, seeds=_seeds(args)))
    print(text)
    return text


EXPERIMENTS = {
    "table1": lambda ctx, args: table1.main(ctx),
    "table2": _table2,
    "table3": lambda ctx, args: table3.main(ctx),
    "fig7": lambda ctx, args: fig7.main(ctx),
    "fig8": _fig8,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mars-experiments",
        description="Regenerate the tables and figures of the Mars paper (ICPP 2021).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="average Table 2 / Fig 8 over this many consecutive seeds",
    )
    parser.add_argument(
        "--profile",
        choices=["fast", "paper"],
        default="fast",
        help="'paper' uses Section 4.2 hyper-parameters (very slow on CPU)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for cached run results (shared across experiments)",
    )
    parser.add_argument(
        "--telemetry-dir",
        default=None,
        metavar="DIR",
        help="write a telemetry run directory (JSONL events, manifest, "
        "metrics) per uncached agent run under DIR; inspect with "
        "'python -m repro.telemetry.report <run>' (docs/observability.md)",
    )
    parser.add_argument(
        "--health",
        choices=["log", "warn", "halt"],
        default=None,
        metavar="ACTION",
        help="training-health watchdog action on alerts (log|warn|halt; "
        "default: warn — see docs/observability.md, 'Alert taxonomy')",
    )
    parser.add_argument(
        "--no-health",
        action="store_true",
        help="disable the training-health watchdog entirely",
    )
    parser.add_argument(
        "--snapshot-dir",
        default=None,
        metavar="DIR",
        help="write crash-safe resumable run snapshots under DIR (one "
        "subdirectory per run); SIGTERM/Ctrl-C then finishes the current "
        "iteration, snapshots and exits (docs/architecture.md, "
        "'Run state & resume')",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        metavar="N",
        help="snapshot cadence in policy iterations (default: config's "
        "snapshot.snapshot_every; 0 = only on halt/finish)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="RUN_DIR",
        help="resume interrupted runs from their newest snapshots under "
        "RUN_DIR (implies --snapshot-dir RUN_DIR)",
    )
    parser.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        set_verbosity(logging.DEBUG)
    config = paper_profile() if args.profile == "paper" else fast_profile(seed=args.seed)
    if args.no_health:
        config = replace(config, health=replace(config.health, enabled=False))
    elif args.health is not None:
        config = replace(config, health=replace(config.health, action=args.health))
    snapshot_dir = args.resume or args.snapshot_dir
    if args.snapshot_every is not None:
        config = replace(
            config, snapshot=replace(config.snapshot, snapshot_every=args.snapshot_every)
        )
    if snapshot_dir:
        # Graceful shutdown: finish the iteration, snapshot, then stop.
        install_signal_handlers()
    ctx = ExperimentContext(
        config=config,
        cache_dir=args.cache_dir,
        telemetry_dir=args.telemetry_dir,
        snapshot_dir=snapshot_dir,
        resume=args.resume is not None,
    )
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(f"\n===== {name} =====")
        try:
            EXPERIMENTS[name](ctx, args)
        except RunInterrupted as exc:
            print(f"\ninterrupted: {exc}", file=sys.stderr)
            return 130  # conventional 128+SIGINT exit for "stopped by signal"
    return 0


if __name__ == "__main__":
    sys.exit(main())
