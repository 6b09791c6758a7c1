"""The serving layer's one keyed cache: a thread-safe LRU of futures.

Every entry is a :class:`concurrent.futures.Future`. The first caller to
miss a key publishes a *pending* future under it and computes the value;
concurrent callers for the same key wait on that future instead of
computing again (single-flight coalescing: one herd, one computation).
A success resolves the entry and stamps its time. A failure, including
a ``BaseException``, removes the entry and is raised in every waiter, so
the next caller starts afresh. LRU eviction and TTL expiry only ever
drop resolved entries: a pending one is never evicted from under its
waiters.

:meth:`FingerprintCache.clear` and :meth:`FingerprintCache.discard` drop
pending entries too, and :meth:`FingerprintCache.resolve` only writes a
value back while the key still maps to the computing caller's future.
An invalidation therefore always wins over a computation that was
already in flight: a hot reload can never be undone by a result computed
from the policy it replaced.

``repro.serve`` keeps four instances, each keyed by content
fingerprints or checkpoint identity:

* the service's result cache, keyed by graph content hash (hashed from
  the request's graph document, so a hit builds no graph) + cluster
  signature + policy id + refinement budget, with the optional TTL for
  operators who hot-reload checkpoints in place;
* the service's environment cache, keyed by graph content hash + cluster
  signature, which calls each dropped env's ``close_pool()``;
* the registry's parameter cache, keyed by policy id + sidecar mtime;
* the registry's graph-binding cache, keyed by policy id + sidecar
  mtime + graph content hash + cluster signature.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

__all__ = ["CacheStats", "FingerprintCache"]


@dataclass
class CacheStats:
    """Cumulative cache bookkeeping (monotonic counters)."""

    hits: int = 0
    misses: int = 0
    #: Lookups that waited on a pending entry instead of computing.
    coalesced: int = 0
    evictions: int = 0
    expirations: int = 0
    #: Computations that raised (their entry was removed).
    failures: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "failures": self.failures,
            "hit_rate": self.hit_rate,
        }


class FingerprintCache:
    """Thread-safe bounded LRU of futures with optional per-entry TTL.

    ``capacity`` bounds the resolved entries; ``capacity <= 0`` disables
    bounding (not recommended in production — an adversarial client
    could then grow memory without limit by sending unique graphs).
    ``ttl=None`` disables expiry. ``on_evict`` is called, outside the
    lock, with each resolved value the cache drops (LRU, TTL, ``clear``
    or ``discard``). ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        capacity: int = 1024,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        on_evict: Optional[Callable[[Any], None]] = None,
    ):
        self.capacity = int(capacity)
        self.ttl = float(ttl) if ttl is not None else None
        self._clock = clock
        self._on_evict = on_evict
        self._lock = threading.Lock()
        # Resolved entries in LRU order, each stamped with its resolve time.
        self._entries: "OrderedDict[Hashable, Tuple[Future, float]]" = OrderedDict()
        self._pending: Dict[Hashable, Future] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        """Resolved entries held (pending computations are not counted)."""
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Tuple[Any, str]:
        """The value for ``key`` and how it was found: ``"hit"``,
        ``"coalesced"`` (waited on a concurrent caller's computation) or
        ``"miss"`` (``compute()`` ran in this thread)."""
        future, state = self.claim(key)
        if state != "miss":
            return future.result(), state
        try:
            value = compute()
        except BaseException as exc:
            self.resolve(key, future, exception=exc)
            raise
        self.resolve(key, future, value)
        return value, "miss"

    def claim(self, key: Hashable) -> Tuple[Future, str]:
        """Look ``key`` up: ``(future, state)``.

        ``"hit"``: the future is resolved. ``"coalesced"``: another
        caller is computing it; wait on the future. ``"miss"``: the
        caller owns a new future, published as the key's pending entry,
        and **must** settle it exactly once with :meth:`resolve` — an
        unsettled pending entry would park every waiter forever. An
        expired entry counts as a miss.
        """
        dropped: List[Any] = []
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                future, stamped = entry
                if self.ttl is None or self._clock() - stamped <= self.ttl:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    return future, "hit"
                del self._entries[key]
                self.stats.expirations += 1
                dropped.append(future.result())
            future = self._pending.get(key)
            if future is not None:
                self.stats.coalesced += 1
                state = "coalesced"
            else:
                self.stats.misses += 1
                future, state = Future(), "miss"
                self._pending[key] = future
        self._drop(dropped)
        return future, state

    def resolve(
        self,
        key: Hashable,
        future: Future,
        value: Any = None,
        exception: Optional[BaseException] = None,
    ) -> None:
        """Settle a future :meth:`claim` handed out on a miss.

        A success becomes the key's resolved entry only while the key's
        pending entry is still ``future`` — after a ``clear`` or
        ``discard`` the value reaches the waiters but is not stored. A
        failure removes the pending entry and is raised in every waiter.
        """
        dropped: List[Any] = []
        with self._lock:
            owned = self._pending.get(key) is future
            if owned:
                del self._pending[key]
            if exception is not None:
                self.stats.failures += 1
            elif owned:
                self._entries[key] = (future, self._clock())
                self._entries.move_to_end(key)
                dropped = self._evict()
            # Settled under the lock: a lookup that finds the resolved
            # entry never has to wait on it.
            if exception is not None:
                future.set_exception(exception)
            else:
                future.set_result(value)
        self._drop(dropped)

    def clear(self) -> int:
        """Drop every entry, pending ones included (registry hot reload);
        returns the number of resolved entries dropped."""
        return self.discard(lambda key: True)

    def discard(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry, pending ones included, whose key satisfies
        ``predicate``; returns the number of resolved entries dropped.
        Waiters on a dropped pending entry still get its value."""
        with self._lock:
            for key in [k for k in self._pending if predicate(k)]:
                del self._pending[key]
            doomed = [k for k in self._entries if predicate(k)]
            dropped = [self._entries.pop(k)[0].result() for k in doomed]
        self._drop(dropped)
        return len(dropped)

    # ------------------------------------------------------------------
    def _evict(self) -> List[Any]:
        """Pop least-recent resolved entries down to capacity (lock held)."""
        dropped: List[Any] = []
        if self.capacity > 0:
            while len(self._entries) > self.capacity:
                dropped.append(self._entries.popitem(last=False)[1][0].result())
                self.stats.evictions += 1
        return dropped

    def _drop(self, values: List[Any]) -> None:
        if self._on_evict is not None:
            for value in values:
                self._on_evict(value)
