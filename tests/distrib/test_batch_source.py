"""The learner's batch source drops stale batches, visibly, on any session."""

import logging
import queue
from types import SimpleNamespace

from repro.config import DistribConfig
from repro.distrib.learner import _BatchSource
from repro.telemetry import Telemetry


def _source(batches, head_version, tel):
    out = queue.Queue()
    for batch in batches:
        out.put(batch)
    handle = SimpleNamespace(lost=False, drainer=SimpleNamespace(out=out))
    supervisor = SimpleNamespace(
        store=SimpleNamespace(version=head_version),
        tel=tel,
        handles=[handle],
        check=lambda: 1,
    )
    return _BatchSource(supervisor, DistribConfig(workers=1, max_staleness=1))


def test_in_memory_session_logs_each_dropped_batch(caplog):
    """An in-memory session writes no events, and still logs every drop
    next to the ``distrib.stale_batches`` counter."""
    tel = Telemetry(name="stale")
    assert not tel.writes_events
    stale = SimpleNamespace(worker_id=3, policy_version=2)
    fresh = SimpleNamespace(worker_id=1, policy_version=4)
    source = _source([stale, fresh], head_version=5, tel=tel)
    with caplog.at_level(logging.INFO, logger="repro.distrib.learner"):
        assert source.next_batch() is fresh
    drops = [r.getMessage() for r in caplog.records if "stale batch" in r.getMessage()]
    assert drops == ["dropped stale batch from worker 3 (version 2, head 5)"]
    snap = tel.metrics.snapshot()
    assert snap["counters"]["distrib.stale_batches"]["value"] == 1
