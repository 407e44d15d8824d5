"""The cache-tier core (``repro.storage.tier``), tested once.

* a contract suite run against each of the three tiers that hold a
  :class:`CacheStore` — budgets, recency order, by-source drops, lazy
  stamp drops booked under their reason, ``clear()``;
* the ticket rule at store level (a drop that arrives between
  ``ticket()`` and ``put()`` is not lost);
* a Hypothesis model test of the store against a plain ordered dict;
* a thread hammer over each tier (CI oversubscribes it with
  ``REPRO_STRESS_JOBS=16``).
"""

from __future__ import annotations

import os
import sys
import threading
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cim.cache import ResultCache
from repro.core.model import GroundCall
from repro.core.plancache import CachedPlan, PlanCache
from repro.core.subplan import CanonicalPrefix, SubplanResultCache
from repro.storage.tier import DROP_REASONS, CacheStore, Entry

HAMMER_THREADS = int(os.environ.get("REPRO_STRESS_JOBS", "0")) or 8

F, G = ("d", "f"), ("d", "g")


# -- one adapter per tier: the same operations over three key/value shapes --------


class CimAdapter:
    """``ResultCache``: key = ground call, one source = its own function."""

    stamps = ("ttl",)
    byte_budget = True

    def __init__(self, **limits):
        self.tier = ResultCache(**limits)
        self.version = 0

    @staticmethod
    def _call(name, source):
        return GroundCall(source[0], source[1], (name,))

    def put(self, name, source=F, now_ms=0.0):
        self.tier.put(self._call(name, source), ("x" * 10,), now_ms)

    def get(self, name, source=F, now_ms=0.0):
        return self.tier.get(self._call(name, source), now_ms)

    def names(self):
        return [entry.call.args[0] for entry in self.tier]


class PlanAdapter:
    """``PlanCache``: key = string, sources = the plan's footprint."""

    stamps = ("epoch", "dcsm_version")
    byte_budget = False

    def __init__(self, **limits):
        self.tier = PlanCache(**limits)
        self.version = 0

    def put(self, name, source=F, now_ms=0.0):
        entry = CachedPlan(
            template=None,
            vector=None,
            params=(),
            sources=frozenset({source}),
            epoch=self.tier.epoch,
            dcsm_version=self.version,
        )
        self.tier.put(name, entry)

    def get(self, name, source=F, now_ms=0.0):
        return self.tier.get(name, self.tier.epoch, self.version)

    def names(self):
        return [key for key, __ in self.tier.items()]


class SubplanAdapter:
    """``SubplanResultCache``: key = canonical prefix, sources = its dials."""

    stamps = ("epoch", "dcsm_version", "ttl")
    byte_budget = True

    def __init__(self, **limits):
        self.version = 0
        self.tier = SubplanResultCache(dcsm_version_fn=lambda: self.version, **limits)

    def put(self, name, source=F, now_ms=0.0):
        canonical = CanonicalPrefix(
            key=name, pattern="p", constants=(), var_order=(), sources=frozenset({source})
        )
        self.tier.put(canonical, [("x" * 10,)], now_ms, 1.0, self.tier.ticket())

    def get(self, name, source=F, now_ms=0.0):
        found = self.tier.match([name], now_ms)
        return None if found is None else found[1]

    def names(self):
        return [key for key, __ in self.tier.items()]


ADAPTERS = [CimAdapter, PlanAdapter, SubplanAdapter]
BYTE_ADAPTERS = [a for a in ADAPTERS if a.byte_budget]
STAMPS = [(a, stamp) for a in ADAPTERS for stamp in a.stamps]


def check_store(store: CacheStore) -> None:
    """Occupancy, byte total and source index agree with the entries."""
    entries = dict(store.items())
    assert len(store) == len(entries)
    assert store.total_bytes == sum(e.answer_bytes for e in entries.values())
    index: dict = {}
    for key, entry in entries.items():
        for source in entry.sources:
            index.setdefault(source, set()).add(key)
    assert {src: set(keys) for src, keys in store._by_source.items()} == index


# -- the contract -----------------------------------------------------------------


@pytest.mark.parametrize("adapter", ADAPTERS)
def test_entry_budget_evicts_least_recently_used(adapter):
    tier = adapter(max_entries=3)
    for name in "abc":
        tier.put(name)
    assert tier.get("a") is not None  # a is now the most recently used
    tier.put("d")
    assert tier.names() == ["c", "a", "d"]
    stats = tier.tier.stats
    assert stats.entries == 3
    assert stats.invalidations["eviction"] == stats.evictions == 1
    assert stats.insertions == 4
    check_store(tier.tier._tier)


@pytest.mark.parametrize("adapter", ADAPTERS)
def test_the_key_just_inserted_is_never_the_victim(adapter):
    tier = adapter(max_entries=1)
    tier.put("a")
    tier.put("b")
    assert tier.names() == ["b"]
    tier.put("b")  # a replacement is not a drop
    assert tier.tier.stats.invalidations["eviction"] == 1


@pytest.mark.parametrize("adapter", BYTE_ADAPTERS)
def test_byte_budget_bounds_occupancy(adapter):
    probe = adapter()
    probe.put("a")
    per_entry = probe.tier.stats.bytes
    tier = adapter(max_bytes=3 * per_entry)
    for name in "abcde":
        tier.put(name)
    stats = tier.tier.stats
    assert tier.names() == ["c", "d", "e"]
    assert stats.bytes == tier.tier.total_bytes == 3 * per_entry
    assert stats.invalidations["eviction"] == 2
    check_store(tier.tier._tier)


@pytest.mark.parametrize("adapter", ADAPTERS)
def test_source_change_drops_a_function_or_a_whole_domain(adapter):
    tier = adapter()
    tier.put("1", F)
    tier.put("2", F)
    tier.put("3", G)
    tier.put("4", ("e", "f"))
    assert tier.tier.invalidate_source("d", "f") == 2
    assert tier.names() == ["3", "4"]
    assert tier.tier.invalidate_source("d") == 1
    assert tier.names() == ["4"]
    assert tier.tier.invalidate_source("nowhere") == 0
    assert tier.tier.stats.invalidations["source"] == 3
    check_store(tier.tier._tier)


@pytest.mark.parametrize("adapter,stamp", STAMPS)
def test_a_stale_stamp_drops_lazily_under_its_reason(adapter, stamp):
    tier = adapter(ttl_ms=10.0) if stamp == "ttl" else adapter()
    tier.put("a")
    assert tier.get("a", now_ms=5.0) is not None
    if stamp == "epoch":
        tier.tier.bump_epoch()
    elif stamp == "dcsm_version":
        tier.version += 1
    assert len(tier.names()) == 1  # lazily: still there until looked up
    assert tier.get("a", now_ms=10.0) is None
    stats = tier.tier.stats
    assert stats.entries == 0
    assert stats.invalidations == {**dict.fromkeys(DROP_REASONS, 0), stamp: 1}
    assert (stats.hits, stats.misses) == (1, 1)


@pytest.mark.parametrize("adapter", ADAPTERS)
def test_clear_means_the_freshly_built_state(adapter):
    tier = adapter(max_entries=2)
    for name in "abc":  # one eviction
        tier.put(name)
    tier.get("c")
    tier.get("missing")
    tier.tier.invalidate_source("d", "f")
    tier.put("z")
    assert tier.tier.clear() == 1
    stats = tier.tier.stats
    assert (stats.entries, stats.bytes) == (0, 0)
    assert (stats.hits, stats.misses, stats.insertions, stats.lookups) == (0, 0, 0, 0)
    assert stats.invalidations == dict.fromkeys(DROP_REASONS, 0)
    assert tier.names() == []
    check_store(tier.tier._tier)


# -- the store itself ---------------------------------------------------------------


def _entry(*sources, nbytes=1, epoch=0):
    return Entry(sources=frozenset(sources), answer_bytes=nbytes, epoch=epoch)


def test_score_picks_the_lowest_oldest_first_but_never_the_new_key():
    store = CacheStore(max_entries=2, score=lambda entry: entry.answer_bytes)
    store.put("big", _entry(nbytes=9))
    store.put("mid", _entry(nbytes=5))
    store.put("tiny", _entry(nbytes=1))  # lowest score, but just inserted
    assert [key for key, __ in store.items()] == ["big", "tiny"]
    store.put("tie", _entry(nbytes=1))  # ties break towards the oldest
    assert [key for key, __ in store.items()] == ["big", "tie"]


def test_on_drop_sees_every_departure_but_replacement_and_clear():
    seen = []
    store = CacheStore(max_entries=2, on_drop=lambda k, e, reason: seen.append((k, reason)))
    store.put("a", _entry(F))
    store.put("a", _entry(F))
    store.put("b", _entry(G))
    store.put("c", _entry(G))
    store.invalidate_source("d", "g")
    store.put("d", _entry(F))
    store.discard("d")
    store.put("e", _entry(F))
    store.clear()
    assert seen == [("a", "eviction"), ("b", "source"), ("c", "source"), ("d", None)]


def test_a_drop_between_ticket_and_put_is_not_lost():
    store = CacheStore()
    ticket = store.ticket()
    store.invalidate_source("d", "f")
    assert store.put("k", _entry(F, G), ticket) is None
    assert "k" not in store
    assert store.drops["raced"] == 1
    # other sources, and tickets taken after the drop, are unaffected
    assert store.put("other", _entry(G), ticket) is not None
    assert store.put("k", _entry(F, G), store.ticket()) is not None
    assert store.drops["raced"] == 1


def test_a_whole_domain_drop_or_an_epoch_bump_also_refuses_the_put():
    store = CacheStore()
    ticket = store.ticket()
    store.invalidate_source("d")
    assert store.put("k", _entry(F), ticket) is None
    assert store.put("elsewhere", _entry(("e", "f")), ticket) is not None
    ticket = store.ticket()
    store.bump_epoch()
    assert store.put("k", _entry(F, epoch=ticket[0]), ticket) is None
    assert store.drops["raced"] == 2
    store.clear()  # forgets counters, not what tickets are checked against
    assert store.put("k", _entry(F, epoch=ticket[0]), ticket) is None


# -- model test -----------------------------------------------------------------------

KEYS = st.sampled_from("abcdef")
SOURCES = st.sampled_from([F, G, ("e", "f")])
OPS = st.one_of(
    st.tuples(st.just("put"), KEYS, st.frozensets(SOURCES, max_size=2), st.integers(0, 5)),
    st.tuples(st.just("get"), KEYS),
    st.tuples(st.just("invalidate"), st.sampled_from("de"), st.sampled_from(["f", "g", None])),
    st.tuples(st.just("bump")),
)


@given(
    st.lists(OPS, max_size=60),
    st.one_of(st.none(), st.integers(1, 4)),
    st.one_of(st.none(), st.integers(1, 12)),
)
@settings(max_examples=150, deadline=None)
def test_store_agrees_with_a_plain_dict_model(ops, max_entries, max_bytes):
    store: CacheStore = CacheStore(max_entries=max_entries, max_bytes=max_bytes)
    model: OrderedDict = OrderedDict()  # key -> (sources, bytes, epoch), LRU order
    epoch = hits = misses = 0

    def over():
        return (max_entries is not None and len(model) > max_entries) or (
            max_bytes is not None and sum(b for __, b, __ in model.values()) > max_bytes
        )

    for op in ops:
        if op[0] == "put":
            __, key, sources, nbytes = op
            store.put(key, Entry(sources=sources, answer_bytes=nbytes, epoch=epoch))
            model.pop(key, None)
            model[key] = (sources, nbytes, epoch)
            while over() and len(model) > 1:
                del model[next(k for k in model if k != key)]
        elif op[0] == "get":
            found = store.get(op[1], 0.0, epoch)
            if op[1] in model and model[op[1]][2] == epoch:
                model.move_to_end(op[1])
                hits += 1
                assert found is not None
            else:
                model.pop(op[1], None)
                misses += 1
                assert found is None
        elif op[0] == "invalidate":
            __, domain, function = op
            doomed = [
                key
                for key, (sources, __, __) in model.items()
                if any(d == domain and function in (None, f) for d, f in sources)
            ]
            assert store.invalidate_source(domain, function) == len(doomed)
            for key in doomed:
                del model[key]
        else:
            store.bump_epoch()
            epoch += 1
        assert [key for key, __ in store.items()] == list(model)
        assert (store.hits, store.misses, store.epoch) == (hits, misses, epoch)
        check_store(store)


# -- thread hammer --------------------------------------------------------------------


@pytest.mark.parametrize("adapter", ADAPTERS)
def test_thread_hammer_keeps_the_store_coherent(adapter):
    limits = {"max_entries": 16}
    if adapter.byte_budget:
        limits["max_bytes"] = 400
    tier = adapter(**limits)
    errors: list[BaseException] = []
    gets = [0] * HAMMER_THREADS

    def worker(index: int) -> None:
        try:
            for round_number in range(300):
                name = f"k{(index * 7 + round_number) % 40}"
                source = F if round_number % 2 else G
                tier.put(name, source, now_ms=float(round_number))
                tier.get(name, source, now_ms=float(round_number))
                gets[index] += 1
                if round_number % 40 == 0:
                    tier.tier.invalidate_source("d", "f")
                if round_number % 90 == 0 and hasattr(tier.tier, "bump_epoch"):
                    tier.tier.bump_epoch()
                tier.names()
                tier.tier.stats
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(HAMMER_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, f"tier races: {errors[:3]}"
    store = tier.tier._tier
    check_store(store)
    assert len(store) <= 16
    stats = tier.tier.stats
    # a lost update on any counter would break one of these
    assert stats.lookups == sum(gets)
    departed = sum(stats.invalidations.values()) - stats.invalidations["raced"]
    assert stats.insertions >= stats.entries + departed  # the rest were replaced
