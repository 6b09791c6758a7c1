"""Analyzing a placement and deploying a trained agent.

After the search finishes, practitioners want to know *why* the chosen
placement is fast: which device does what, how much time goes to
communication, and where the critical path runs. This example trains a
small agent, prints the full diagnostic report and the step's
attribution (per-device Gantt chart, top critical-path ops, cross-device
traffic), then saves the agent and reloads it for greedy (sample-free)
placement.

Run:  python examples/analyze_and_deploy.py
"""

import os
import tempfile

from repro import ClusterSpec, PlacementEnv, build_gnmt, fast_profile, optimize_placement
from repro.analysis import analyze_placement, critical_path, render_attribution
from repro.core import greedy_placement, load_agent, save_agent


def main():
    graph = build_gnmt(scale=0.2)
    cluster = ClusterSpec.default(gpu_memory_gb=3.0)
    print(graph.summary())

    result = optimize_placement(
        graph, cluster, "mars", fast_profile(seed=0, iterations=25)
    )
    env = PlacementEnv(graph, cluster)
    best = env.resolve(result.history.best_placement)

    # --- Diagnostics ---------------------------------------------------
    report = analyze_placement(best)
    print("\n=== placement report ===")
    print(report.summary())

    cp_placed, _ = critical_path(graph, cluster, best)
    cp_ideal, _ = critical_path(graph, cluster)
    print(f"\ncritical path: {cp_placed * 1e3:.1f} ms placed "
          f"vs {cp_ideal * 1e3:.1f} ms best-device lower bound")

    print("\n=== attribution (one training step) ===")
    print(render_attribution(
        env.attribute(result.history.best_placement), graph, width=68
    ))

    # --- Deploy --------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mars_gnmt")
        save_agent(path, result.agent, "mars", workload=graph.name)
        restored, meta = load_agent(path, graph, cluster, fast_profile(seed=0))
        devices = greedy_placement(restored, env)
        runtime = env.final_run(devices)
        print(f"\nreloaded checkpoint ({meta['num_parameters']} parameters)")
        if runtime == runtime:  # not NaN
            print(f"greedy (argmax) placement step time: {runtime:.4f}s")
        else:
            # The argmax of a stochastic policy can violate memory even when
            # good sampled placements exist — deploy the best *measured*
            # placement instead, which is what the paper reports.
            print("greedy placement OOMs; deploying the best measured placement:")
            print(f"best measured placement step time: "
                  f"{env.final_run(result.history.best_placement):.4f}s")


if __name__ == "__main__":
    main()
