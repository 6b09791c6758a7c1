"""Tests for request coalescing through the cache's pending entries.

Covers the pending-entry API of :class:`FingerprintCache` in isolation,
its integration in :meth:`PlacementService.handle` (one computation per
thundering herd, ``cache="coalesced"`` responses, telemetry), the
TTL-expiry interaction (an expired entry's recompute coalesces to one
computation and the cache counts one miss per herd), hot reload against
an in-flight computation, and registry cache warming.

Herd tests gate the service's ``_compute`` on an event so followers
deterministically arrive while the leader is in flight — the follower
join count is polled via ``service.cache.stats.coalesced`` before
release.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.graph import graph_to_dict
from repro.serve import (
    BadRequest,
    FingerprintCache,
    PlacementRequest,
    PlacementService,
    PolicyRegistry,
)
from repro.telemetry import Telemetry
from tests.helpers import tiny_graph

HERD = 6  # leader + 5 followers


# ----------------------------------------------------------------------
# Pending entries in isolation
# ----------------------------------------------------------------------
class TestSingleFlight:
    def test_leader_then_follower(self):
        cache = FingerprintCache()
        future, state = cache.claim("k")
        assert state == "miss"
        same, state2 = cache.claim("k")
        assert state2 == "coalesced" and same is future
        cache.resolve("k", future, 42)
        assert same.result(timeout=1.0) == 42
        assert cache.stats.misses == 1 and cache.stats.coalesced == 1

    def test_keys_are_independent(self):
        cache = FingerprintCache()
        _, state_a = cache.claim("a")
        _, state_b = cache.claim("b")
        assert state_a == state_b == "miss"

    def test_finish_retires_key(self):
        cache = FingerprintCache()
        future, _ = cache.claim("k")
        cache.resolve("k", future, 1)
        resolved, state = cache.claim("k")
        assert state == "hit"  # a settled entry is never joined again
        assert resolved.result(timeout=0) == 1
        assert cache.stats.misses == 1 and cache.stats.coalesced == 0

    def test_exception_propagates_to_followers(self):
        cache = FingerprintCache()
        future, _ = cache.claim("k")
        follower, state = cache.claim("k")
        assert state == "coalesced"
        cache.resolve("k", future, exception=ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            follower.result(timeout=1.0)
        assert cache.stats.failures == 1
        # The failure never poisons the next computation for the key,
        # and a BaseException settles the entry the same way.
        with pytest.raises(KeyboardInterrupt):
            cache.get_or_compute("k", self._interrupt)
        assert cache.stats.failures == 2
        assert cache.get_or_compute("k", lambda: "ok") == ("ok", "miss")

    @staticmethod
    def _interrupt():
        raise KeyboardInterrupt

    def test_concurrent_joins_against_held_flight(self):
        cache = FingerprintCache()
        held, _ = cache.claim("k")  # the leader is in flight throughout
        outcomes = []
        lock = threading.Lock()
        barrier = threading.Barrier(9)

        def contend():
            barrier.wait(timeout=5.0)
            future, state = cache.claim("k")
            with lock:
                outcomes.append((future, state))
            assert future.result(timeout=10.0) == "done"

        threads = [threading.Thread(target=contend) for _ in range(8)]
        for t in threads:
            t.start()
        barrier.wait(timeout=5.0)  # all contenders race claim() together
        deadline = time.perf_counter() + 10.0
        while cache.stats.coalesced < 8:
            assert time.perf_counter() < deadline
            time.sleep(0.005)
        cache.resolve("k", held, "done")
        for t in threads:
            t.join(timeout=10.0)
        assert all(state == "coalesced" for _, state in outcomes)
        assert all(future is held for future, _ in outcomes)
        assert cache.stats.misses == 1 and cache.stats.coalesced == 8

    def test_stats_to_dict(self):
        cache = FingerprintCache()
        future, _ = cache.claim("k")
        cache.claim("k")
        cache.resolve("k", future, None)
        assert cache.stats.to_dict() == {
            "hits": 0,
            "misses": 1,
            "coalesced": 1,
            "evictions": 0,
            "expirations": 0,
            "failures": 0,
            "hit_rate": 0.0,
        }


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------
def make_service(ckpt_dir: str) -> PlacementService:
    return PlacementService(
        PolicyRegistry(ckpt_dir),
        telemetry=Telemetry(),  # in-memory metrics, null events
    )


def gate_compute(service: PlacementService):
    """Wrap ``service._compute`` so the first entrant blocks on a release
    event; returns (entered, release, calls)."""
    entered, release, calls = threading.Event(), threading.Event(), []
    original = service._compute

    def gated(*args, **kwargs):
        calls.append(threading.get_ident())
        entered.set()
        assert release.wait(timeout=30.0), "test gate never opened"
        return original(*args, **kwargs)

    service._compute = gated
    return entered, release, calls


def run_herd(service: PlacementService, n: int, **request_overrides):
    """Fire ``n`` identical requests: one leader gated inside _compute,
    ``n - 1`` followers verified to have joined the flight before the
    gate opens. Returns (responses, errors)."""
    entered, release, calls = gate_compute(service)
    responses, errors = [], []
    lock = threading.Lock()

    def fire():
        request = PlacementRequest(
            graph=graph_to_dict(tiny_graph()), **request_overrides
        )
        try:
            response = service.handle(request)
        except Exception as exc:  # noqa: BLE001 - recorded for assertions
            with lock:
                errors.append(exc)
            return
        with lock:
            responses.append(response)

    leader = threading.Thread(target=fire)
    leader.start()
    assert entered.wait(timeout=30.0)
    joined_before = service.cache.stats.coalesced
    followers = [threading.Thread(target=fire) for _ in range(n - 1)]
    for t in followers:
        t.start()
    deadline = time.perf_counter() + 30.0
    while service.cache.stats.coalesced - joined_before < n - 1:
        assert time.perf_counter() < deadline, "followers never joined the flight"
        time.sleep(0.005)
    release.set()
    leader.join(timeout=30.0)
    for t in followers:
        t.join(timeout=30.0)
    return responses, errors, calls


class TestServiceCoalescing:
    def test_thundering_herd_computes_once(self, serve_setup):
        ckpt_dir, _, _ = serve_setup
        service = make_service(ckpt_dir)
        try:
            responses, errors, calls = run_herd(service, HERD)
            assert not errors
            assert len(calls) == 1  # the whole herd cost one computation
            assert len(responses) == HERD
            states = sorted(r.cache for r in responses)
            assert states == ["coalesced"] * (HERD - 1) + ["miss"]
            placements = {tuple(sorted(r.placement.items())) for r in responses}
            assert len(placements) == 1  # every waiter got the same answer
            ids = {r.request_id for r in responses}
            assert len(ids) == HERD  # but kept its own identity
            assert all(r.latency_ms > 0 for r in responses)
        finally:
            service.close()

    def test_coalesced_telemetry(self, serve_setup):
        ckpt_dir, _, _ = serve_setup
        service = make_service(ckpt_dir)
        try:
            run_herd(service, HERD)
            snapshot = service._tel().metrics.snapshot()
            assert snapshot["counters"]["serve.coalesced"]["value"] == HERD - 1
            hist = snapshot["histograms"]["serve.coalesce_wait_s"]
            assert hist["count"] == HERD - 1
            assert "serve.cache_hits" not in snapshot["counters"]
        finally:
            service.close()

    def test_after_flight_resolves_requests_hit_cache(self, serve_setup):
        ckpt_dir, _, _ = serve_setup
        service = make_service(ckpt_dir)
        try:
            run_herd(service, 3)
            late = service.handle(PlacementRequest(graph=graph_to_dict(tiny_graph())))
            assert late.cache == "hit"  # settled entries are never rejoined
            stats = service.cache.stats
            assert (stats.misses, stats.coalesced, stats.hits) == (1, 2, 1)
        finally:
            service.close()

    def test_use_cache_false_bypasses_coalescing(self, serve_setup):
        ckpt_dir, _, _ = serve_setup
        service = make_service(ckpt_dir)
        try:
            entered, release, calls = gate_compute(service)
            release.set()  # no gating needed, just counting
            for _ in range(3):
                response = service.handle(
                    PlacementRequest(graph=graph_to_dict(tiny_graph()), use_cache=False)
                )
                assert response.cache == "miss"
            assert len(calls) == 3  # every request computed on its own
            stats = service.cache.stats
            assert stats.hits == stats.misses == stats.coalesced == 0
        finally:
            service.close()

    def test_leader_error_propagates_to_followers(self, serve_setup):
        ckpt_dir, _, _ = serve_setup
        service = make_service(ckpt_dir)
        try:
            entered, release, calls = gate_compute(service)
            original = service._compute

            def failing(*args, **kwargs):
                calls.append(threading.get_ident())
                entered.set()
                assert release.wait(timeout=30.0)
                raise BadRequest("synthetic leader failure")

            service._compute = failing
            errors = []
            lock = threading.Lock()

            def fire():
                try:
                    service.handle(
                        PlacementRequest(graph=graph_to_dict(tiny_graph()))
                    )
                except Exception as exc:  # noqa: BLE001
                    with lock:
                        errors.append(exc)

            threads = [threading.Thread(target=fire) for _ in range(3)]
            threads[0].start()
            assert entered.wait(timeout=30.0)
            for t in threads[1:]:
                t.start()
            deadline = time.perf_counter() + 30.0
            while service.cache.stats.coalesced < 2:
                assert time.perf_counter() < deadline
                time.sleep(0.005)
            release.set()
            for t in threads:
                t.join(timeout=30.0)
            assert len(errors) == 3
            assert all(isinstance(e, BadRequest) for e in errors)
            # The failed flight is retired; a fresh request starts a new one.
            service._compute = original
            response = service.handle(
                PlacementRequest(graph=graph_to_dict(tiny_graph()))
            )
            assert response.cache == "miss"
        finally:
            service.close()

    def test_invalid_document_fails_every_coalesced_twin(self, serve_setup, monkeypatch):
        """An invalid document is hashed, not parsed, before the lookup:
        the parse fails inside the flight, once, for the whole herd."""
        import repro.serve.service as service_mod

        ckpt_dir, _, _ = serve_setup
        service = make_service(ckpt_dir)
        entered, release, parses = threading.Event(), threading.Event(), []
        real = service_mod.graph_from_dict

        def gated(doc):
            parses.append(threading.get_ident())
            entered.set()
            assert release.wait(timeout=30.0), "test gate never opened"
            return real(doc)

        monkeypatch.setattr(service_mod, "graph_from_dict", gated)
        doc = graph_to_dict(tiny_graph())
        doc["edges"].append(["loss", "in"])  # a cycle
        errors = []
        lock = threading.Lock()

        def fire():
            try:
                service.handle(PlacementRequest(graph=doc))
            except Exception as exc:  # noqa: BLE001 - recorded for assertions
                with lock:
                    errors.append(exc)

        try:
            threads = [threading.Thread(target=fire) for _ in range(3)]
            threads[0].start()
            assert entered.wait(timeout=30.0)
            for t in threads[1:]:
                t.start()
            deadline = time.perf_counter() + 30.0
            while service.cache.stats.coalesced < 2:
                assert time.perf_counter() < deadline, "twins never joined the flight"
                time.sleep(0.005)
            release.set()
            for t in threads:
                t.join(timeout=30.0)
            assert len(parses) == 1
            assert len(errors) == 3
            assert all(isinstance(e, BadRequest) and e.status == 400 for e in errors)
            assert len({str(e) for e in errors}) == 1
            assert len(service.cache) == 0
        finally:
            release.set()
            service.close()


# ----------------------------------------------------------------------
# Hot reload x an in-flight computation
# ----------------------------------------------------------------------
class TestReloadRace:
    def test_clear_wins_over_in_flight_computation(self, serve_setup):
        """A request arriving after ``POST /reload`` computes afresh, and
        the pre-reload computation still in flight stores nothing."""
        ckpt_dir, _, _ = serve_setup
        service = make_service(ckpt_dir)
        entered, release = threading.Event(), threading.Event()
        original = service._compute

        def hold_first(*args, **kwargs):
            if not entered.is_set():
                entered.set()
                assert release.wait(timeout=30.0), "test gate never opened"
            return original(*args, **kwargs)

        service._compute = hold_first
        responses = {}

        def fire(request_id):
            responses[request_id] = service.handle(
                PlacementRequest(graph=graph_to_dict(tiny_graph()), request_id=request_id)
            )

        before = threading.Thread(target=fire, args=("before",))
        before.start()
        try:
            assert entered.wait(timeout=30.0)
            # What POST /reload does.
            service.registry.refresh()
            service.cache.clear()
            after = threading.Thread(target=fire, args=("after",))
            after.start()
            after.join(timeout=10.0)
            assert "after" in responses, "post-reload request waited on the old computation"
            assert responses["after"].cache == "miss"
        finally:
            release.set()
            before.join(timeout=30.0)
            after.join(timeout=30.0)
        try:
            assert responses["before"].cache == "miss"
            # Only the post-reload result is cached.
            assert len(service.cache) == 1
            [(future, _)] = service.cache._entries.values()
            assert future.result().request_id == "after"
            late = service.handle(PlacementRequest(graph=graph_to_dict(tiny_graph())))
            assert late.cache == "hit"
        finally:
            service.close()


# ----------------------------------------------------------------------
# TTL expiry x coalescing (injectable clock)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTTLCoalescing:
    def test_expired_entry_recompute_coalesces_to_one_flight(self, serve_setup):
        ckpt_dir, _, _ = serve_setup
        service = make_service(ckpt_dir)
        clock = FakeClock()
        service.cache = FingerprintCache(capacity=8, ttl=10.0, clock=clock)
        try:
            first = service.handle(PlacementRequest(graph=graph_to_dict(tiny_graph())))
            assert first.cache == "miss"
            assert service.cache.stats.misses == 1

            clock.advance(10.5)  # past TTL: the hot entry is now stale
            responses, errors, calls = run_herd(service, HERD)
            assert not errors
            # The herd recomputed exactly once...
            assert len(calls) == 1
            assert sorted(r.cache for r in responses) == (
                ["coalesced"] * (HERD - 1) + ["miss"]
            )
            # ...and the cache saw exactly one miss for the whole herd:
            # only the leader consults it, followers await the flight.
            assert service.cache.stats.misses == 2
            assert service.cache.stats.expirations == 1

            # The recompute refreshed the entry: the next request hits.
            assert (
                service.handle(
                    PlacementRequest(graph=graph_to_dict(tiny_graph()))
                ).cache
                == "hit"
            )
        finally:
            service.close()


# ----------------------------------------------------------------------
# Cache warming from the registry
# ----------------------------------------------------------------------
class TestWarm:
    def test_warm_replays_registered_workloads(self, serve_setup, monkeypatch):
        from repro.workloads import WORKLOADS

        ckpt_dir, _, _ = serve_setup
        # The conftest checkpoints are trained on the test-local "tiny"
        # graph; registering its builder makes that sidecar replayable.
        monkeypatch.setitem(WORKLOADS, "tiny", tiny_graph)
        service = make_service(ckpt_dir)
        try:
            warmed = service.warm()
            assert warmed == 1  # "tiny" replayed; "chain" is unknown -> skipped
            assert len(service.cache) == 1
            counters = service._tel().metrics.snapshot()["counters"]
            assert counters["serve.warmed"]["value"] == 1
            # The warmed entry serves the matching live request as a hit.
            response = service.handle(
                PlacementRequest(graph=graph_to_dict(tiny_graph()))
            )
            assert response.cache == "hit"
            assert response.policy_id == "mars__tiny"
        finally:
            service.close()

    def test_warm_skips_unknown_workloads(self, serve_setup):
        ckpt_dir, _, _ = serve_setup
        service = make_service(ckpt_dir)
        try:
            assert service.warm() == 0  # neither "tiny" nor "chain" registered
            assert len(service.cache) == 0
        finally:
            service.close()

    def test_warm_request_parses_suffixed_names(self, serve_setup):
        ckpt_dir, _, _ = serve_setup
        service = make_service(ckpt_dir)
        try:
            spec = service.registry.get("mars__tiny")
            suffixed = type(spec)(
                **{
                    **spec.__dict__,
                    "workload": "vgg16_b4_s0.25",
                    "meta": {},
                }
            )
            request = service._warm_request(suffixed, budget=2)
            assert request is not None
            assert request.workload == "vgg16"
            assert request.workload_kwargs == {"batch_size": 4, "scale": 0.25}
            assert request.policy_id == spec.policy_id
            assert request.budget == 2
            assert service._warm_request(
                type(spec)(**{**spec.__dict__, "workload": "nope_b4", "meta": {}}),
                budget=0,
            ) is None
        finally:
            service.close()
