.PHONY: install test lint-docs lint-defaults lint-callers bench bench-smoke report-smoke serve-smoke resume-smoke e2e-smoke experiments examples clean

install:
	pip install -e .

test: lint-docs lint-defaults lint-callers bench-smoke report-smoke serve-smoke resume-smoke e2e-smoke
	pytest tests/

lint-docs:
	python tools/lint_docs.py

# AST lint: no call-expression / mutable-literal defaults in any `def`
# signature under src/ (defaults are evaluated once and shared by every
# call — the annealing.py aliasing bug class).
lint-defaults:
	python tools/lint_defaults.py

# AST lint: every public `def`/`class` under src/ is referenced from src/,
# benchmarks/, examples/ or tools/, or named in README.md or docs/ (code
# only a test runs belongs in the tests); tools/lint_callers.py keeps the
# allow-list of deliberate exceptions.
lint-callers:
	python tools/lint_callers.py

bench:
	pytest benchmarks/ --benchmark-only

# Exercise the benches' code paths, with no timings, on every
# `make test` (docs/performance.md).
bench-smoke:
	PYTHONPATH=src python benchmarks/bench_telemetry.py --smoke
	PYTHONPATH=src python benchmarks/bench_serve.py --smoke
	PYTHONPATH=src python benchmarks/bench_autograd.py --smoke
	PYTHONPATH=src python benchmarks/bench_sim.py --smoke

# Tiny telemetry run -> full report with --health/--attribution -> exit 0:
# proves the report pipeline renders real run directories on every `make test`.
# Then the placement-analysis example (report, attribution Gantt, checkpoint
# round trip) must run to exit 0 (~7 s).
report-smoke:
	PYTHONPATH=src python tools/report_smoke.py
	PYTHONPATH=src python examples/analyze_and_deploy.py

# Train a few iterations -> real SIGTERM -> resume in a fresh process ->
# compare against an uninterrupted run: proves crash-safe resume is
# bit-identical end-to-end on every `make test` (docs/architecture.md,
# "Run state & resume").
resume-smoke:
	PYTHONPATH=src python tools/resume_smoke.py

# Two-policy registry + HTTP server + 8 concurrent clients x 64 requests:
# proves cache consistency, typed overload rejection and the full serving
# stack on every `make test` (see docs/serving.md).
serve-smoke:
	PYTHONPATH=src python tools/serve_smoke.py

# The end-to-end benchmark's own tests: tiny runs of every workload
# through the env/config surface it calls, so a change to that surface
# fails `make test` rather than the benchmark run (~60 s).
e2e-smoke:
	PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

experiments:
	python -m repro.experiments.runner all --cache-dir benchmarks/.mars_cache

examples:
	python examples/quickstart.py
	python examples/place_bert.py
	python examples/pretrain_and_transfer.py
	python examples/custom_workload.py
	python examples/compare_placers.py
	python examples/analyze_and_deploy.py

clean:
	rm -rf benchmarks/.mars_cache .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
