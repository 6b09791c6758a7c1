"""Tests for the serving layer's cache: an LRU + TTL of futures."""

from repro.serve import FingerprintCache


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def lookup(cache: FingerprintCache, key: str):
    """The cached value, or ``None`` on a miss (whose pending entry is
    dropped again, so the lookup leaves nothing behind)."""
    future, state = cache.claim(key)
    if state == "miss":
        cache.discard(lambda k: k == key)
        return None
    return future.result()


class TestFingerprintCache:
    def test_miss_then_hit(self):
        cache = FingerprintCache(capacity=4)
        assert cache.get_or_compute("k", lambda: 42) == (42, "miss")
        assert cache.get_or_compute("k", lambda: 0) == (42, "hit")
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1
        assert 0 < stats.hit_rate < 1

    def test_lru_eviction_order(self):
        cache = FingerprintCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert lookup(cache, "a") == 1  # refresh a: b is now least-recent
        cache.put("c", 3)
        assert lookup(cache, "b") is None
        assert lookup(cache, "a") == 1 and lookup(cache, "c") == 3
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_ttl_expiry(self):
        clock = FakeClock()
        cache = FingerprintCache(capacity=4, ttl=10.0, clock=clock)
        cache.put("k", 1)
        clock.advance(9.9)
        assert lookup(cache, "k") == 1
        clock.advance(0.2)
        assert lookup(cache, "k") is None
        assert cache.stats.expirations == 1
        assert len(cache) == 0

    def test_no_ttl_never_expires(self):
        clock = FakeClock()
        cache = FingerprintCache(capacity=4, ttl=None, clock=clock)
        cache.put("k", 1)
        clock.advance(1e9)
        assert lookup(cache, "k") == 1

    def test_put_overwrites_and_refreshes(self):
        clock = FakeClock()
        cache = FingerprintCache(capacity=4, ttl=10.0, clock=clock)
        cache.put("k", 1)
        clock.advance(8.0)
        cache.put("k", 2)  # rewrite restarts the TTL
        clock.advance(8.0)
        assert lookup(cache, "k") == 2

    def test_clear_returns_count(self):
        cache = FingerprintCache(capacity=8)
        for i in range(3):
            cache.put(str(i), i)
        assert cache.clear() == 3
        assert len(cache) == 0
        assert lookup(cache, "0") is None

    def test_unbounded_capacity(self):
        cache = FingerprintCache(capacity=0)
        for i in range(100):
            cache.put(str(i), i)
        assert len(cache) == 100
        assert cache.stats.evictions == 0

    def test_stats_to_dict(self):
        cache = FingerprintCache(capacity=2)
        cache.put("a", 1)
        lookup(cache, "a")
        lookup(cache, "zz")
        doc = cache.stats.to_dict()
        assert doc["hits"] == 1 and doc["misses"] == 1
        assert set(doc) >= {
            "hits",
            "misses",
            "coalesced",
            "evictions",
            "expirations",
            "failures",
            "hit_rate",
        }

    def test_on_evict_sees_every_dropped_value(self):
        clock = FakeClock()
        dropped = []
        cache = FingerprintCache(capacity=2, ttl=10.0, clock=clock, on_evict=dropped.append)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # LRU drops a
        clock.advance(11.0)
        assert lookup(cache, "b") is None  # TTL drops b
        cache.put("d", 4)
        assert cache.discard(lambda key: key == "d") == 1
        assert cache.clear() == 1  # c
        assert dropped == [1, 2, 4, 3]


class TestPendingEntries:
    def test_pending_entry_is_never_evicted(self):
        clock = FakeClock()
        cache = FingerprintCache(capacity=1, ttl=1.0, clock=clock)
        future, state = cache.claim("p")
        assert state == "miss"
        cache.put("a", 1)
        cache.put("b", 2)  # LRU pressure evicts a, never the pending entry
        clock.advance(10.0)  # far past the TTL
        waiter, again = cache.claim("p")
        assert again == "coalesced" and waiter is future
        cache.resolve("p", future, 3)
        assert waiter.result(timeout=1.0) == 3
        # Resolved, it is an ordinary LRU entry: b goes, p stays.
        assert lookup(cache, "b") is None
        assert lookup(cache, "p") == 3
        assert cache.stats.evictions == 2

    def test_clear_wins_over_in_flight_computation(self):
        cache = FingerprintCache(capacity=4)
        stale, state = cache.claim("k")
        assert state == "miss"
        waiter, _ = cache.claim("k")  # joined before the clear
        cache.clear()
        fresh, state = cache.claim("k")
        assert state == "miss" and fresh is not stale  # computes afresh
        cache.resolve("k", stale, "before")
        assert waiter.result(timeout=1.0) == "before"
        assert len(cache) == 0  # the pre-clear result is not stored
        cache.resolve("k", fresh, "after")
        assert lookup(cache, "k") == "after"

    def test_discard_drops_matching_pending_entries(self):
        cache = FingerprintCache(capacity=4)
        doomed, _ = cache.claim(("old", 1))
        kept, _ = cache.claim(("new", 1))
        cache.discard(lambda key: key[0] == "old")
        cache.resolve(("old", 1), doomed, "x")
        cache.resolve(("new", 1), kept, "y")
        assert lookup(cache, ("old", 1)) is None
        assert lookup(cache, ("new", 1)) == "y"
