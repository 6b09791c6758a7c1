"""Tests for the placement service core (request -> response)."""

import math

import numpy as np
import pytest

from repro.core import greedy_placement, load_agent
from repro.graph import graph_to_dict
from repro.serve import (
    BadRequest,
    PlacementRequest,
    PlacementService,
    PolicyNotFound,
    PolicyRegistry,
    ServeConfig,
)
from repro.sim import PlacementEnv
from repro.telemetry import (
    Telemetry,
    read_events,
    start_run,
    use_telemetry,
    validate_event,
)
from tests.helpers import tiny_graph
from tests.serve.conftest import chain_graph


@pytest.fixture(scope="module")
def service(serve_setup):
    ckpt_dir, _, _ = serve_setup
    svc = PlacementService(PolicyRegistry(ckpt_dir))
    yield svc
    svc.close()


def tiny_request(**overrides) -> PlacementRequest:
    doc = dict(graph=graph_to_dict(tiny_graph()))
    doc.update(overrides)
    return PlacementRequest(**doc)


class TestHappyPath:
    def test_greedy_response_fields(self, service):
        response = service.handle(tiny_request())
        assert response.policy_id == "mars__tiny"
        assert response.agent_kind == "mars"
        assert response.workload == "tiny"
        assert response.request_id.startswith("req-")
        assert len(response.fingerprint) == 64
        assert set(response.placement) == {n.name for n in tiny_graph().nodes}
        assert len(response.device_names) == len(set(response.device_names))
        assert response.candidates_evaluated == 1
        assert response.latency_ms > 0
        assert response.budget == 0
        if response.valid:
            assert math.isfinite(response.predicted_step_time)
            assert response.predicted_step_time > 0

    def test_cpu_only_ops_stay_on_host(self, service):
        response = service.handle(tiny_request(use_cache=False))
        # resolve() pins cpu_only nodes to the CPU (the last device).
        assert response.placement["in"] == len(response.device_names) - 1

    def test_miss_then_hit_identical_placement(self, service):
        first = service.handle(tiny_request())
        second = service.handle(tiny_request())
        assert second.cache == "hit"
        assert second.placement == first.placement
        assert second.fingerprint == first.fingerprint
        assert second.policy_id == first.policy_id
        assert second.request_id != first.request_id  # per-request identity
        assert second.latency_ms > 0

    def test_use_cache_false_always_misses(self, service):
        service.handle(tiny_request())  # warm
        response = service.handle(tiny_request(use_cache=False))
        assert response.cache == "miss"

    def test_budget_evaluates_candidates(self, service):
        response = service.handle(tiny_request(budget=4, use_cache=False))
        assert response.candidates_evaluated == 5  # greedy + 4 samples
        assert response.budget == 4

    def test_budget_recompute_is_deterministic(self, service):
        a = service.handle(tiny_request(budget=3, use_cache=False))
        b = service.handle(tiny_request(budget=3, use_cache=False))
        assert a.placement == b.placement

    def test_budget_is_part_of_cache_key(self, service):
        a = service.handle(tiny_request(budget=0))
        b = service.handle(tiny_request(budget=2))
        assert a.fingerprint == b.fingerprint  # same graph content
        assert b.cache == "miss"  # but a different cache entry

    def test_workload_by_name(self, service):
        response = service.handle(
            PlacementRequest(workload="vgg16", workload_kwargs={"scale": 0.25})
        )
        # No vgg16 policy is registered: a transfer policy serves it.
        assert response.workload.startswith("vgg16")
        assert response.placement

    def test_pinned_policy(self, service):
        response = service.handle(
            tiny_request(policy_id="mars__chain", use_cache=False)
        )
        assert response.policy_id == "mars__chain"  # transfer serve


class TestRefinementDecode:
    """A ``budget=N`` miss decodes the policy once, over ``N + 1`` rows:
    the N samples, then the greedy candidate."""

    BUDGET = 4

    def test_one_decode_of_budget_plus_one_rows(self, serve_setup, monkeypatch):
        ckpt_dir, cluster, _ = serve_setup
        evaluated = []
        real = PlacementEnv.evaluate_batch

        def recording(env, candidates):
            evaluated.append([np.array(c) for c in candidates])
            return real(env, candidates)

        monkeypatch.setattr(PlacementEnv, "evaluate_batch", recording)
        tel = Telemetry()
        svc = PlacementService(PolicyRegistry(ckpt_dir), telemetry=tel)
        try:
            with use_telemetry(tel):
                response = svc.handle(tiny_request(budget=self.BUDGET, use_cache=False))
        finally:
            svc.close()

        histograms = tel.metrics.snapshot()["histograms"]
        calls = {"gnn.encode": 0, "placers.decode": 0}
        for name, hist in histograms.items():
            leaf = name.rsplit("/", 1)[-1].replace("profile.", "")
            if name.startswith("profile.") and leaf in calls:
                calls[leaf] += hist["count"]
        assert calls == {"gnn.encode": 1, "placers.decode": 1}

        assert response.candidates_evaluated == self.BUDGET + 1
        (candidates,) = evaluated
        graph = tiny_graph()
        agent, _ = load_agent(svc.registry.get("mars__tiny").path, graph, cluster)
        env = PlacementEnv(graph, cluster)
        assert np.array_equal(candidates[0], greedy_placement(agent, env))
        rng = np.random.default_rng(int(response.fingerprint[:16], 16) ^ self.BUDGET)
        sampled = agent.sample(self.BUDGET, rng).placements
        for candidate, actions in zip(candidates[1:], sampled):
            assert np.array_equal(candidate, env.resolve(actions).devices)


class TestErrors:
    def test_graph_and_workload_both_set(self, service):
        with pytest.raises(BadRequest, match="exactly one"):
            service.handle(tiny_request(workload="vgg16"))

    def test_neither_graph_nor_workload(self, service):
        with pytest.raises(BadRequest, match="exactly one"):
            service.handle(PlacementRequest())

    def test_unknown_workload(self, service):
        with pytest.raises(BadRequest):
            service.handle(PlacementRequest(workload="not-a-workload"))

    def test_invalid_graph_document(self, service):
        doc = graph_to_dict(tiny_graph())
        doc["edges"].append(["ghost", "loss"])
        with pytest.raises(BadRequest, match="unknown node"):
            service.handle(PlacementRequest(graph=doc))

    def test_unknown_cluster_kind(self, service):
        with pytest.raises(BadRequest, match="cluster kind"):
            service.handle(tiny_request(cluster={"kind": "tpu-pod"}))

    def test_no_policy_for_device_count(self, service):
        with pytest.raises(PolicyNotFound):
            service.handle(tiny_request(cluster={"num_gpus": 2}))

    def test_unknown_pinned_policy(self, service):
        with pytest.raises(PolicyNotFound, match="nope"):
            service.handle(tiny_request(policy_id="nope"))

    def test_pinned_policy_device_mismatch(self, service):
        with pytest.raises(BadRequest, match="devices"):
            service.handle(
                tiny_request(policy_id="mars__tiny", cluster={"num_gpus": 2})
            )

    def test_budget_out_of_range(self, service):
        with pytest.raises(BadRequest, match="budget"):
            service.handle(tiny_request(budget=-1))
        with pytest.raises(BadRequest, match="budget"):
            service.handle(tiny_request(budget=service.config.max_budget + 1))

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(BadRequest, match="unknown request field"):
            PlacementRequest.from_json({"workload": "vgg16", "bogus": 1})

    def test_from_json_rejects_non_object(self):
        with pytest.raises(BadRequest, match="JSON object"):
            PlacementRequest.from_json([1, 2])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("budget", "5"),
            ("budget", 1.5),
            ("budget", True),
            ("budget", None),
            ("graph", [1, 2]),
            ("graph", "tiny"),
            ("cluster", [4]),
            ("workload_kwargs", None),
            ("workload_kwargs", ["scale"]),
            ("use_cache", "yes"),
            ("use_cache", 1),
            ("workload", 16),
            ("policy_id", ["mars__tiny"]),
            ("agent_kind", 1),
            ("request_id", 7),
            ("trace", "abc"),
        ],
    )
    def test_from_json_rejects_mistyped_fields(self, field, value):
        with pytest.raises(BadRequest, match=f"{field!r} must be"):
            PlacementRequest.from_json({"workload": "vgg16", field: value})

    def test_from_json_accepts_every_field(self):
        request = PlacementRequest.from_json(
            {
                "graph": None,
                "workload": "vgg16",
                "workload_kwargs": {"scale": 0.25},
                "cluster": {"kind": "default"},
                "policy_id": None,
                "agent_kind": "mars",
                "budget": 3,
                "use_cache": False,
                "request_id": "r-1",
                "trace": None,
            }
        )
        assert request.budget == 3 and request.use_cache is False

    def test_field_types_cover_every_request_field(self):
        from repro.serve.service import _FIELD_TYPES

        assert set(_FIELD_TYPES) == set(PlacementRequest.__dataclass_fields__)


def count_parses(monkeypatch) -> list:
    """Record every graph document the service parses."""
    import repro.serve.service as service_mod

    parsed = []
    real = service_mod.graph_from_dict

    def counting(doc):
        parsed.append(doc.get("name"))
        return real(doc)

    monkeypatch.setattr(service_mod, "graph_from_dict", counting)
    return parsed


class TestDocumentKeying:
    """Requests are keyed by a hash of their graph document; the graph is
    built only when a placement must be computed."""

    def test_hit_never_builds_the_graph(self, serve_setup, monkeypatch):
        ckpt_dir, _, _ = serve_setup
        svc = PlacementService(PolicyRegistry(ckpt_dir))
        parsed = count_parses(monkeypatch)
        first = svc.handle(tiny_request())
        assert first.cache == "miss" and parsed == ["tiny"]
        for _ in range(3):
            assert svc.handle(tiny_request()).cache == "hit"
        assert parsed == ["tiny"]
        assert first.fingerprint == tiny_graph().fingerprint()
        svc.close()

    def test_uncached_requests_build_the_graph(self, serve_setup, monkeypatch):
        ckpt_dir, _, _ = serve_setup
        svc = PlacementService(PolicyRegistry(ckpt_dir))
        parsed = count_parses(monkeypatch)
        svc.handle(tiny_request())
        svc.handle(tiny_request(use_cache=False))
        svc.handle(tiny_request(budget=1))
        assert parsed == ["tiny"] * 3
        svc.close()

    def test_document_name_selects_the_policy(self, service):
        doc = graph_to_dict(chain_graph())
        assert service.handle(PlacementRequest(graph=doc)).policy_id == "mars__chain"
        del doc["name"]  # an unnamed graph has no exact match: transfer
        assert service.handle(PlacementRequest(graph=doc)).workload == "graph"

    def test_invalid_document_is_a_400_every_time_and_never_cached(
        self, serve_setup, monkeypatch
    ):
        ckpt_dir, _, _ = serve_setup
        svc = PlacementService(PolicyRegistry(ckpt_dir))
        parsed = count_parses(monkeypatch)
        doc = graph_to_dict(tiny_graph())
        doc["edges"].append(["loss", "in"])  # a cycle: hashable, not loadable
        for _ in range(2):
            with pytest.raises(BadRequest, match="invalid graph document") as err:
                svc.handle(PlacementRequest(graph=doc))
            assert err.value.status == 400
        assert parsed == ["tiny", "tiny"]  # parsed, and failed, each time
        assert len(svc.cache) == 0
        assert svc.cache.stats.failures == 2
        svc.close()

    def test_unhashable_document_keeps_the_parser_message(self, service):
        doc = graph_to_dict(tiny_graph())
        del doc["nodes"][2]["op_type"]
        with pytest.raises(BadRequest, match="invalid graph document: 'op_type'"):
            service.handle(PlacementRequest(graph=doc))
        doc = {"name": "mixed", "nodes": [{"name": "a", "op_type": "Add"},
                                          {"name": 1, "op_type": "Add"}]}
        with pytest.raises(BadRequest, match="invalid graph document"):
            service.handle(PlacementRequest(graph=doc))


class TestEnvCache:
    def test_env_for_builds_once_under_concurrency(self, serve_setup, monkeypatch):
        """Regression: two threads missing the same env key must not both
        construct a PlacementEnv (the loser's eval pool leaked)."""
        import threading
        import time as time_mod

        import repro.serve.service as service_mod
        from repro.sim import ClusterSpec

        real_env = service_mod.PlacementEnv
        builds = []

        class CountingEnv(real_env):
            def __init__(self, *args, **kwargs):
                builds.append(threading.get_ident())
                time_mod.sleep(0.05)  # hold the build window open
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(service_mod, "PlacementEnv", CountingEnv)
        ckpt_dir, _, _ = serve_setup
        svc = PlacementService(PolicyRegistry(ckpt_dir))
        try:
            graph, cluster = tiny_graph(), ClusterSpec.default()
            envs, barrier = [], threading.Barrier(8)
            lock = threading.Lock()

            def build():
                barrier.wait(timeout=5.0)
                env = svc._env_for(graph, cluster, "shared-key")
                with lock:
                    envs.append(env)

            threads = [threading.Thread(target=build) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert len(builds) == 1  # exactly one construction
            assert len(envs) == 8
            assert all(env is envs[0] for env in envs)
        finally:
            svc.close()


    def test_env_close_pool_on_eviction_and_close(self, serve_setup, monkeypatch):
        from repro.sim import ClusterSpec
        from repro.sim.env import PlacementEnv

        closed = []
        monkeypatch.setattr(PlacementEnv, "close_pool", lambda env: closed.append(env))
        ckpt_dir, _, _ = serve_setup
        svc = PlacementService(PolicyRegistry(ckpt_dir), config=ServeConfig(env_cache_size=1))
        graph, cluster = tiny_graph(), ClusterSpec.default()
        first = svc._env_for(graph, cluster, "a")
        second = svc._env_for(graph, cluster, "b")  # evicts "a"
        assert closed == [first]
        svc.close()
        assert closed == [first, second]


class TestTelemetry:
    def test_serve_request_events_validate(self, serve_setup, tmp_path):
        ckpt_dir, _, _ = serve_setup
        tel = start_run("serve-test", str(tmp_path))
        svc = PlacementService(PolicyRegistry(ckpt_dir), telemetry=tel)
        svc.handle(tiny_request())
        svc.handle(tiny_request())
        with pytest.raises(BadRequest):
            svc.handle(PlacementRequest())
        svc.close()
        tel.close()

        events = list(read_events(tel.run_dir, types=("serve_request",)))
        assert len(events) == 3
        assert all(validate_event(e) == [] for e in events)
        statuses = [e["status"] for e in events]
        caches = [e["cache"] for e in events]
        assert statuses == ["ok", "ok", "bad_request"]
        assert caches == ["miss", "hit", "none"]
        assert all(e["latency_ms"] > 0 for e in events)
        ok = [e for e in events if e["status"] == "ok"]
        assert all(e["policy_id"] and len(e["fingerprint"]) == 64 for e in ok)

    def test_counters_and_cache_metrics(self, serve_setup):
        ckpt_dir, _, _ = serve_setup
        tel = Telemetry()  # in-memory metrics, null events
        svc = PlacementService(PolicyRegistry(ckpt_dir), telemetry=tel)
        svc.note_admission(rejected=False)
        svc.handle(tiny_request())
        svc.note_admission(rejected=False)
        svc.handle(tiny_request())
        svc.note_admission(rejected=True)
        svc.close()

        snapshot = tel.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["serve.requests"]["value"] == 3
        assert counters["serve.rejected"]["value"] == 1
        assert counters["serve.cache_hits"]["value"] == 1
        assert snapshot["gauges"]["serve.cache_size"]["value"] == 1
        assert snapshot["histograms"]["serve.latency_ms"]["count"] == 2


class TestGroupCountMismatch:
    """A grouper's output width is fixed by its parameters; a graph with
    fewer ops than its groups cannot bind to them."""

    @pytest.fixture(scope="class")
    def grouper_dir(self, serve_setup, tmp_path_factory):
        from repro.core import save_agent
        from repro.core.search import build_agent

        _, cluster, cfg = serve_setup
        ckpt_dir = tmp_path_factory.mktemp("grouper")
        graph = chain_graph("long", length=cfg.grouper.num_groups + 4)
        agent, _ = build_agent("grouper_placer", graph, cluster, cfg, None)
        save_agent(
            str(ckpt_dir / "grouper__long"), agent, "grouper_placer",
            workload=graph.name, config=cfg,
        )
        return str(ckpt_dir)

    def test_small_graph_is_a_bad_request_before_parameters_load(self, grouper_dir):
        service = PlacementService(PolicyRegistry(grouper_dir))
        with pytest.raises(BadRequest, match="grouper__long") as err:
            service.handle(tiny_request())
        assert err.value.status == 400

    def test_small_graph_is_a_bad_request_after_parameters_load(
        self, serve_setup, grouper_dir
    ):
        _, _, cfg = serve_setup
        service = PlacementService(PolicyRegistry(grouper_dir))
        long_doc = graph_to_dict(chain_graph("other", length=cfg.grouper.num_groups + 1))
        assert service.handle(PlacementRequest(graph=long_doc)).valid
        with pytest.raises(BadRequest, match="groups") as err:
            service.handle(tiny_request())
        assert err.value.status == 400
        # The failed binding leaves the loaded parameters serving.
        again = service.handle(PlacementRequest(graph=long_doc, use_cache=False))
        assert again.policy_id == "grouper__long"
