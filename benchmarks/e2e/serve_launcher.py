"""Run the placement server with the benchmark's span wrappers installed.

    python benchmarks/e2e/serve_launcher.py --trace-out STEM -- ARGS...

ARGS are ``python -m repro.serve`` arguments. Spans that open before the
process receives SIGUSR1 count as set-up, later ones as the measured
phase. When SIGINT shuts the server down, the launcher writes
``STEM.trace.json`` (Chrome trace), ``STEM.layers.txt`` (self-time table)
and ``STEM.layers.json`` (the rows plus the per-layer metrics).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True, metavar="STEM")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    from repro.serve.__main__ import main as serve_main
    from repro.sim.env import PlacementEnv

    # The service closes every env it evicts and, on shutdown, the rest:
    # keep their stats for the simulator's hit ratios.
    env_stats = {}
    close_pool = PlacementEnv.close_pool

    def close_and_record(env):
        env_stats[id(env)] = env.stats
        close_pool(env)

    PlacementEnv.close_pool = close_and_record

    tracer = spans.install(spans.Tracer())
    tracer.set_phase("setup")
    signal.signal(signal.SIGUSR1, lambda *_: tracer.set_phase("measure"))
    try:
        rc = serve_main(serve_args)
    finally:
        tracer.set_phase(None)
        tracer.uninstall()
        PlacementEnv.close_pool = close_pool

    tracer.write_chrome_trace(args.trace_out + ".trace.json")
    rows = tracer.layer_table()
    with open(args.trace_out + ".layers.txt", "w", encoding="utf-8") as fh:
        fh.write(spans.format_layer_table(rows) + "\n")
    metrics = tracer.layer_metrics()
    metrics.update(spans.env_metrics(env_stats.values()))
    with open(args.trace_out + ".layers.json", "w", encoding="utf-8") as fh:
        json.dump({"rows": rows, "metrics": metrics}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
