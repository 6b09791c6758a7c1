"""Run the placement service as a standalone process.

::

    python -m repro.serve --checkpoint-dir checkpoints/ --port 8080 \\
        --workers 2 --max-queue 64 --cache-capacity 1024 \\
        --telemetry-dir runs/

Then::

    curl -s localhost:8080/healthz
    curl -s -X POST localhost:8080/place \\
        -d '{"workload": "vgg16", "budget": 8}'

See docs/serving.md for the request/response schema and capacity tuning.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional

from repro.serve.http import PlacementServer
from repro.serve.registry import PolicyRegistry
from repro.serve.service import PlacementService, ServeConfig
from repro.telemetry import HealthConfig, start_run, use_telemetry
from repro.utils.logging import get_logger, set_verbosity

logger = get_logger("repro.serve")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve trained device-placement policies over HTTP.",
    )
    parser.add_argument(
        "--checkpoint-dir",
        required=True,
        metavar="DIR",
        help="directory of save_agent checkpoints (.npz + .json sidecars)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--workers", type=int, default=2, help="requests computed at once (default 2)"
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=64,
        metavar="N",
        help="admission limit: with N requests already waiting for a "
        "compute slot, more are rejected with the typed 503 overload "
        "error (default 64)",
    )
    parser.add_argument(
        "--cache-capacity",
        type=int,
        default=1024,
        metavar="N",
        help="fingerprint result-cache entries (default 1024; <=0 unbounded)",
    )
    parser.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="expire cached placements after this long (default: never)",
    )
    parser.add_argument(
        "--max-budget",
        type=int,
        default=64,
        metavar="N",
        help="per-request refinement budget ceiling (default 64)",
    )
    parser.add_argument(
        "--telemetry-dir",
        default=None,
        metavar="DIR",
        help="write a telemetry run directory (serve_request events, "
        "serve.* metrics) under DIR; inspect with "
        "'python -m repro.telemetry.report' (docs/observability.md)",
    )
    parser.add_argument(
        "--flush-interval",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how often the live run directory's metrics.json and event "
        "buffers are flushed to disk (default 30; <=0 disables; only "
        "meaningful with --telemetry-dir)",
    )
    parser.add_argument(
        "--warm",
        action="store_true",
        help="before serving, replay every registered checkpoint's "
        "workload fingerprint to pre-populate the result cache "
        "(best-effort; unknown workload names are skipped)",
    )
    parser.add_argument(
        "--warm-budget",
        type=int,
        default=0,
        metavar="N",
        help="refinement budget for --warm replays (default 0 = greedy)",
    )
    parser.add_argument(
        "--no-health",
        action="store_true",
        help="disable the rejection-rate and SLO health watchdog",
    )
    parser.add_argument("--verbose", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        set_verbosity(logging.DEBUG)

    telemetry = None
    if args.telemetry_dir:
        telemetry = start_run(
            "serve",
            args.telemetry_dir,
            manifest={"checkpoint_dir": args.checkpoint_dir, "port": args.port},
            flush_interval_s=args.flush_interval if args.flush_interval > 0 else None,
        )

    config = ServeConfig(
        workers=args.workers,
        max_queue=args.max_queue,
        cache_capacity=args.cache_capacity,
        cache_ttl=args.cache_ttl,
        max_budget=args.max_budget,
    )
    registry = PolicyRegistry(args.checkpoint_dir)
    if not len(registry):
        logger.warning(
            "no servable checkpoints under %s (need .npz + .json pairs "
            "written by repro.core.save_agent)",
            args.checkpoint_dir,
        )
    service = PlacementService(
        registry,
        config=config,
        telemetry=telemetry,
        health=HealthConfig(enabled=not args.no_health, action="warn"),
    )
    if args.warm:
        with use_telemetry(telemetry):
            warmed = service.warm(budget=args.warm_budget)
        logger.info("--warm pre-populated %d cache entries", warmed)
    server = PlacementServer(service, host=args.host, port=args.port)
    logger.info(
        "serving %d policies from %s on %s (workers=%d, max_queue=%d)",
        len(registry),
        args.checkpoint_dir,
        server.address,
        config.workers,
        config.max_queue,
    )
    try:
        with use_telemetry(telemetry):
            server.serve_forever()
    except KeyboardInterrupt:
        logger.info("interrupt: draining in-flight requests")
    finally:
        server.shutdown()
        if telemetry is not None:
            telemetry.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
