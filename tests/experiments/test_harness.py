"""Tests for the experiment harness (specs, caching, rendering, CLI)."""

import json
import os

import numpy as np
import pytest

from repro.config import fast_profile
from repro.experiments import EVAL_WORKLOADS, WORKLOAD_SPECS, ExperimentContext, WorkloadSpec
from repro.experiments.common import RunSummary, fmt_runtime, format_table
from repro.experiments import fig7, fig8, table1, table2


@pytest.fixture()
def tiny_ctx(tmp_path):
    """A context over one very small workload for fast integration tests."""
    spec = WorkloadSpec(
        key="mini",
        title="Mini",
        workload="vgg16",
        workload_kwargs={"scale": 0.25, "batch_size": 4},
        iterations=2,
    )
    return ExperimentContext(
        config=fast_profile(seed=0),
        cache_dir=str(tmp_path),
        specs={"mini": spec},
    )


class TestSpecs:
    def test_eval_workloads_registered(self):
        for key in EVAL_WORKLOADS:
            assert key in WORKLOAD_SPECS

    def test_feasibility_structure(self):
        """Inception fits one GPU; GNMT and BERT must not (paper Table 2)."""
        from repro.core.baselines import gpu_only_placement
        from repro.sim import MemoryModel

        for key, expect_fits in (("inception_v3", True), ("gnmt4", False), ("bert", False)):
            spec = WORKLOAD_SPECS[key]
            graph = spec.build_graph()
            cluster = spec.build_cluster()
            report = MemoryModel().check(gpu_only_placement(graph, cluster))
            assert report.fits == expect_fits, key

    def test_build_protocol_carries_threshold(self):
        spec = WORKLOAD_SPECS["bert"]
        assert spec.build_protocol().bad_step_threshold == spec.bad_step_threshold


class TestContextCaching:
    def test_run_summary_shape(self, tiny_ctx):
        summary = tiny_ctx.run("mini", "mars_no_pretrain", seed=0)
        assert summary.workload.startswith("vgg16")
        assert np.isfinite(summary.final_runtime)
        assert len(summary.best_curve) == 2

    def test_memory_cache_hit(self, tiny_ctx):
        a = tiny_ctx.run("mini", "mars_no_pretrain", seed=0)
        b = tiny_ctx.run("mini", "mars_no_pretrain", seed=0)
        assert a is b

    def test_disk_cache_roundtrip(self, tiny_ctx, tmp_path):
        tiny_ctx.run("mini", "mars_no_pretrain", seed=0)
        files = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
        assert len(files) == 1
        fresh = ExperimentContext(
            config=fast_profile(seed=0),
            cache_dir=str(tmp_path),
            specs=tiny_ctx.specs,
        )
        summary = fresh.run("mini", "mars_no_pretrain", seed=0)
        assert summary.final_runtime == tiny_ctx.run("mini", "mars_no_pretrain").final_runtime

    def test_static_runtime(self, tiny_ctx):
        from repro.core.baselines import gpu_only_placement

        value = tiny_ctx.static_runtime("mini", gpu_only_placement)
        assert np.isfinite(value) and value > 0


class TestRendering:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all("|" in line for line in lines[1:] if "-+-" not in line)

    def test_fmt_runtime_oom(self):
        assert fmt_runtime(float("nan")) == "OOM"
        assert fmt_runtime(1.5) == "1.500"

    def test_table1_render(self):
        text = table1.render_table1({"bert": {"Seq2seq": 1.0, "Trf-XL": 2.0, "Seq2seq (segment)": 0.5}})
        assert "BERT" in text and "0.500" in text

    def test_table2_render_includes_oom(self):
        row = {
            "Human Experts": float("nan"),
            "GPU Only": float("nan"),
            "Grouper-Placer": 2.0,
            "Encoder-Placer": 1.9,
            "Mars": 1.5,
            "Mars (no pre-training)": 1.8,
        }
        text = table2.render_table2({"bert": row})
        assert "OOM" in text and "1.500" in text

    def test_fig8_render_reports_savings(self):
        hours = {
            "bert": {
                "Mars": 8.0,
                "Mars (no pre-training)": 10.0,
                "Grouper-Placer": 11.0,
                "Encoder-Placer": 12.0,
            }
        }
        text = fig8.render_fig8(hours)
        assert "reduces" in text and "20.0%" in text

    def test_fig7_render_downsamples(self):
        curves = {
            "inception_v3": {
                "Mars": ([10, 20, 30], [0.3, 0.2, 0.1]),
                "Grouper-Placer": ([10, 20, 30], [0.4, 0.3, 0.2]),
            }
        }
        text = fig7.render_fig7(curves, points=4)
        assert "Mars" in text and "0.100" in text

    def test_fig7_convergence_summary(self):
        curves = {
            "inception_v3": {"Mars": ([10, 20, 30], [0.3, 0.1, 0.1])}
        }
        text = fig7.convergence_summary(curves)
        assert "step 20" in text


class TestRunnerCLI:
    def test_parser_accepts_experiments(self):
        from repro.experiments.runner import build_parser

        args = build_parser().parse_args(["table2", "--seed", "3"])
        assert args.experiment == "table2" and args.seed == 3

    def test_parser_rejects_unknown(self):
        from repro.experiments.runner import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["table9"])

    def test_parser_rejects_no_incremental(self):
        from repro.experiments.runner import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--no-incremental"])
