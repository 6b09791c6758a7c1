"""Tests for the service's admission gate, :meth:`PlacementService.submit`.

A stub service (instant, gated or slow ``handle``) keeps these
deterministic. ``submit`` computes on its caller's thread, so each
concurrent request runs on a thread of its own (:func:`spawn`).
"""

import sys
import threading
import time
from concurrent.futures import Future

import pytest

from repro.serve import (
    PlacementRequest,
    PlacementService,
    ServeConfig,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    ServiceTimeout,
)
from repro.telemetry import Telemetry


class StubService(PlacementService):
    """Echoes request ids from ``handle``, after an optional gate; a
    ``slow`` workload takes 200 ms and a ``boom`` one fails."""

    def __init__(self, config: ServeConfig, gated: bool = False):
        super().__init__(registry=None, config=config, telemetry=Telemetry())
        self.handled = []
        self.admissions = []
        self.computing = self.most_computing = 0  # requests inside handle()
        self._count_lock = threading.Lock()
        self.entered = threading.Event()  # a request is inside handle()
        self.gate = threading.Event()  # blocks handle() until set
        if not gated:
            self.gate.set()

    def note_admission(self, rejected: bool) -> None:
        self.admissions.append(rejected)
        super().note_admission(rejected)

    def handle(self, request: PlacementRequest):
        with self._count_lock:
            self.computing += 1
            self.most_computing = max(self.most_computing, self.computing)
        try:
            self.entered.set()
            assert self.gate.wait(timeout=10.0), "test gate never opened"
            if request.workload == "slow":
                time.sleep(0.2)
            if request.workload == "boom":
                raise ServiceError("synthetic failure")
            self.handled.append(request.request_id)
            return request.request_id
        finally:
            with self._count_lock:
                self.computing -= 1


def make_request(i: int, workload: str = "w") -> PlacementRequest:
    return PlacementRequest(workload=workload, request_id=f"req-{i:03d}")


def spawn(service: PlacementService, request: PlacementRequest, timeout=None) -> Future:
    """Run ``service.submit(request)`` on a new thread; the returned
    future holds its response or error."""
    future: Future = Future()

    def run():
        try:
            future.set_result(service.submit(request, timeout=timeout))
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            future.set_exception(exc)

    threading.Thread(target=run, daemon=True).start()
    return future


def wait_for_depth(service: PlacementService, depth: int) -> None:
    deadline = time.perf_counter() + 10.0
    while service.queue_depth != depth:
        assert time.perf_counter() < deadline, f"queue depth never reached {depth}"
        time.sleep(0.001)


class TestAdmission:
    def test_round_trip(self):
        service = StubService(ServeConfig(workers=2, max_queue=4))
        assert service.submit(make_request(0), timeout=10.0) == "req-000"
        assert service.admissions == [False]
        service.close()

    def test_overload_rejects_with_typed_error(self):
        service = StubService(ServeConfig(workers=1, max_queue=2), gated=True)
        futures = [spawn(service, make_request(0))]
        assert service.entered.wait(timeout=10.0)  # request 0 holds the slot
        futures.append(spawn(service, make_request(1)))
        wait_for_depth(service, 1)
        futures.append(spawn(service, make_request(2)))
        wait_for_depth(service, 2)  # the wait line is full
        with pytest.raises(ServiceOverloaded, match="full"):
            service.submit(make_request(3))
        assert service.admissions == [False, False, False, True]
        service.gate.set()
        assert sorted(f.result(timeout=10.0) for f in futures) == [
            "req-000",
            "req-001",
            "req-002",
        ]
        service.close()

    def test_overload_does_not_hang(self):
        service = StubService(ServeConfig(workers=1, max_queue=1), gated=True)
        spawn(service, make_request(0))
        assert service.entered.wait(timeout=10.0)
        spawn(service, make_request(1))
        wait_for_depth(service, 1)
        start = time.perf_counter()
        with pytest.raises(ServiceOverloaded):
            service.submit(make_request(2))
        assert time.perf_counter() - start < 1.0  # immediate, not parked
        service.gate.set()
        service.close()

    def test_submit_after_shutdown_raises_closed(self):
        service = StubService(ServeConfig(workers=1, max_queue=4))
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(make_request(0))
        assert service.admissions[-1] is True  # counted as a rejection


class TestWorkers:
    def test_slow_request_does_not_delay_the_next(self):
        """Head of line: with the default two slots, an instant request
        submitted after a 200 ms one finishes without waiting for it."""
        service = StubService(ServeConfig())
        start = time.perf_counter()
        slow = spawn(service, make_request(0, workload="slow"))
        fast = [spawn(service, make_request(i)) for i in range(1, 6)]
        for f in fast:
            f.result(timeout=10.0)
        assert time.perf_counter() - start < 0.1
        assert not slow.done()
        assert slow.result(timeout=10.0) == "req-000"
        service.close()

    def test_backlog_drains_in_arrival_order(self):
        service = StubService(ServeConfig(workers=1, max_queue=16), gated=True)
        futures = [spawn(service, make_request(0))]
        assert service.entered.wait(timeout=10.0)
        for i in range(1, 6):
            futures.append(spawn(service, make_request(i)))
            wait_for_depth(service, i)
        service.gate.set()
        for f in futures:
            f.result(timeout=10.0)
        assert service.handled == [f"req-{i:03d}" for i in range(6)]
        service.close()

    def test_service_error_propagates_to_caller(self):
        service = StubService(ServeConfig(workers=1, max_queue=4))
        with pytest.raises(ServiceError, match="synthetic"):
            service.submit(
                PlacementRequest(workload="boom", request_id="req-boom"), timeout=10.0
            )
        # The failed request gave its slot back.
        assert service.submit(make_request(1), timeout=10.0) == "req-001"
        service.close()

    def test_shutdown_drains_admitted_requests(self):
        service = StubService(ServeConfig(workers=2, max_queue=32), gated=True)
        futures = [spawn(service, make_request(i)) for i in range(12)]
        wait_for_depth(service, 10)  # two computing, ten waiting
        closer = threading.Thread(target=service.close)
        closer.start()
        deadline = time.perf_counter() + 10.0
        while not service.closed:
            assert time.perf_counter() < deadline
            time.sleep(0.001)
        with pytest.raises(ServiceClosed):
            service.submit(make_request(99))
        assert closer.is_alive()  # close waits for the admitted twelve
        service.gate.set()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        expected = sorted(f"req-{i:03d}" for i in range(12))
        assert sorted(service.handled) == expected  # all served before close returned
        assert sorted(f.result(timeout=10.0) for f in futures) == expected

    def test_timeout_cancels_queued_request(self):
        """A request that waited ``timeout`` for a slot gets a typed 504
        and is never computed."""
        service = StubService(ServeConfig(workers=1, max_queue=8), gated=True)
        spawn(service, make_request(0))  # holds the only slot at the gate
        assert service.entered.wait(timeout=10.0)
        with pytest.raises(ServiceTimeout) as err:
            service.submit(make_request(1), timeout=0.1)
        assert err.value.status == 504 and err.value.code == "timeout"
        assert service.queue_depth == 0
        service.gate.set()
        service.close()
        # Request 0 was computed; the timed-out request 1 was not.
        assert service.handled == ["req-000"]

    def test_queue_depth_gauge(self):
        service = StubService(ServeConfig(workers=1, max_queue=8), gated=True)
        spawn(service, make_request(0))
        assert service.entered.wait(timeout=10.0)
        spawn(service, make_request(1))
        spawn(service, make_request(2))
        wait_for_depth(service, 2)
        gauges = service._telemetry.metrics.snapshot()["gauges"]
        assert gauges["serve.queue_depth"]["value"] == 2
        service.gate.set()
        service.close()
        assert service.queue_depth == 0
        gauges = service._telemetry.metrics.snapshot()["gauges"]
        assert gauges["serve.queue_depth"]["value"] == 0


def record_slo_feed(service: PlacementService) -> list:
    """Capture every ``(latency_ms, ok)`` the latency SLO detector sees."""
    seen = []
    observe = service.watchdog.observe_serve

    def recording(latency_ms, ok):
        seen.append((latency_ms, ok))
        return observe(latency_ms, ok)

    service.watchdog.observe_serve = recording
    return seen


class TestLatencySlo:
    def test_slo_latency_includes_the_slot_wait(self):
        """A request that waited for the only compute slot is judged by
        the SLO on its whole wait, not on its (instant) computation."""
        service = StubService(ServeConfig(workers=1, max_queue=4), gated=True)
        seen = record_slo_feed(service)
        first = spawn(service, make_request(0))  # holds the slot at the gate
        assert service.entered.wait(timeout=10.0)
        second = spawn(service, make_request(1))
        wait_for_depth(service, 1)
        waiting_since = time.perf_counter()
        time.sleep(0.1)
        waited_ms = (time.perf_counter() - waiting_since) * 1e3
        service.gate.set()
        assert first.result(timeout=10.0) == "req-000"
        assert second.result(timeout=10.0) == "req-001"
        service.close()
        assert len(seen) == 2
        assert all(ok for _, ok in seen)
        # Request 0 computed for the whole wait, request 1 waited for it:
        # each one's SLO latency covers at least the gated span.
        assert min(ms for ms, _ in seen) >= waited_ms

    def test_typed_error_counts_against_the_slo(self):
        service = StubService(ServeConfig(workers=1, max_queue=4))
        seen = record_slo_feed(service)
        with pytest.raises(ServiceError):
            service.submit(make_request(0, workload="boom"), timeout=10.0)
        assert service.submit(make_request(1), timeout=10.0) == "req-001"
        service.close()
        assert [ok for _, ok in seen] == [False, True]


class TestShutdownRace:
    def test_submit_shutdown_stress_never_strands_a_future(self):
        """Close while four threads hammer submit: every call returns a
        response or a typed error, no caller is left blocked, and never
        more than ``workers`` requests compute at once."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for _ in range(10):
                hammer_then_close()
        finally:
            sys.setswitchinterval(interval)


def hammer_then_close() -> None:
    service = StubService(ServeConfig(workers=2, max_queue=64))
    outcomes, lock = [], threading.Lock()

    def hammer():
        i = 0
        while True:
            try:
                outcome = service.submit(make_request(i), timeout=5.0)
            except ServiceClosed:
                return
            except Exception as exc:  # noqa: BLE001 - asserted below
                outcome = exc
            with lock:
                outcomes.append(outcome)
            i += 1

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    time.sleep(0.01)
    service.close()
    for t in threads:
        t.join(timeout=10.0)
    assert not any(t.is_alive() for t in threads)
    assert outcomes and all(isinstance(o, str) for o in outcomes)
    assert sorted(outcomes) == sorted(service.handled)
    assert service.queue_depth == 0 and service.most_computing <= 2
