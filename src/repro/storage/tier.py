"""The one cache-tier core: a budgeted, source-indexed, stamp-validated map.

The mediator has three in-memory cache tiers — ground-call answers
(``cim/cache.py``), plan templates (``core/plancache.py``) and plan-prefix
results (``core/subplan.py``).  They differ in what a key and a value are;
everything else lives here, once: the lock and the recency-ordered map,
the entry and byte budgets with their eviction loop, the
``(domain, function) -> keys`` index behind ``notify_source_changed``,
lazy validation of an entry's stamps (program epoch, statistics version,
TTL — a tier passes the ones that apply to it), the drop counters by
reason, and the *ticket* that keeps a drop delivered while a computation
was in flight from being lost (docs/CACHING.md).

A tier *holds* a :class:`CacheStore` and derives keys and entries; its
entry type extends :class:`Entry`, whose fields are the bookkeeping the
store reads.  Compound tier operations take ``store.lock`` (re-entrant)
around the primitives :meth:`CacheStore.find` and :meth:`CacheStore.touch`.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Iterable, Optional, TypeVar

REASON_EPOCH = "epoch"
REASON_DCSM_VERSION = "dcsm_version"
REASON_SOURCE = "source"
REASON_TTL = "ttl"
REASON_EVICTION = "eviction"
#: a ``put`` refused because its ticket went stale (nothing was stored)
REASON_RACED = "raced"
DROP_REASONS = (
    REASON_EPOCH,
    REASON_DCSM_VERSION,
    REASON_SOURCE,
    REASON_TTL,
    REASON_EVICTION,
    REASON_RACED,
)

#: a ``(domain, function)`` pair an entry was computed from
Source = tuple[str, str]
#: ``(epoch, source generation)`` at the moment a computation started
Ticket = tuple[int, int]


@dataclass(kw_only=True, slots=True)
class Entry:
    """What the store reads of a cached entry; tiers add the value fields."""

    sources: frozenset[Source] = frozenset()
    answer_bytes: int = 0
    epoch: int = 0
    dcsm_version: int = 0
    stored_at_ms: float = 0.0
    hits: int = 0
    last_used_ms: float = 0.0

    @property
    def versioned(self) -> bool:
        """Whether a statistics-version mismatch invalidates the entry."""
        return True


@dataclass(frozen=True)
class TierStats:
    """A point-in-time reading of one store's counters."""

    hits: int
    misses: int
    insertions: int
    entries: int
    bytes: int
    #: drops by reason (every key of ``DROP_REASONS``)
    invalidations: dict[str, int]

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def exact_hits(self) -> int:
        """The CIM's name for a store hit (its invariant hits are counted
        by the manager, not the cache)."""
        return self.hits

    @property
    def evictions(self) -> int:
        return self.invalidations[REASON_EVICTION]

    @property
    def expirations(self) -> int:
        return self.invalidations[REASON_TTL]


K = TypeVar("K", bound=Hashable)
E = TypeVar("E", bound=Entry)

#: ``on_drop(key, entry, reason)``
DropHook = Callable[[K, E, Optional[str]], None]


def weak_hook(handler: DropHook[K, E]) -> DropHook[K, E]:
    """A tier's bound drop ``handler`` as an ``on_drop`` hook that does
    not keep the tier alive.  The tier holds its store; a store holding
    the tier back, as a bound method does, would make the two a
    reference cycle that only the cycle collector frees."""
    ref = weakref.WeakMethod(handler)

    def on_drop(key: K, entry: E, reason: Optional[str]) -> None:
        bound = ref()
        if bound is not None:
            bound(key, entry, reason)

    return on_drop


class CacheStore(Generic[K, E]):
    """A thread-safe bounded map with reasoned drops.

    ``score=None`` evicts oldest-used first in O(1); a score callable
    evicts the lowest-scoring entry (ties: oldest).  ``on_drop(key,
    entry, reason)`` runs under the lock for every entry that leaves
    other than by replacement or :meth:`clear`; ``reason`` is ``None``
    for a manual :meth:`discard`.  A tier passes its own handler through
    :func:`weak_hook`.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        ttl_ms: Optional[float] = None,
        score: Optional[Callable[[E], float]] = None,
        on_drop: Optional[DropHook[K, E]] = None,
    ) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.ttl_ms = ttl_ms
        self.score = score
        self.on_drop = on_drop
        self.epoch = 0
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.drops: dict[str, int] = dict.fromkeys(DROP_REASONS, 0)
        self.total_bytes = 0
        self.lock = threading.RLock()
        self._entries: OrderedDict[K, E] = OrderedDict()
        # insertion-ordered key sets: the CIM's invariant matcher scans a
        # source function's entries oldest first
        self._by_source: dict[Source, dict[K, None]] = {}
        # ticket rule: the generation at which each (domain, function) —
        # or (domain, None) for a whole domain — was last invalidated
        self._generation = 0
        self._invalidated: dict[tuple[str, Optional[str]], int] = {}

    # -- reading ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def items(self) -> list[tuple[K, E]]:
        with self.lock:
            return list(self._entries.items())

    def stats(self) -> TierStats:
        with self.lock:
            return TierStats(
                hits=self.hits,
                misses=self.misses,
                insertions=self.insertions,
                entries=len(self._entries),
                bytes=self.total_bytes,
                invalidations=dict(self.drops),
            )

    def _stale(
        self,
        entry: E,
        now_ms: Optional[float],
        epoch: Optional[int],
        version: Optional[int],
    ) -> Optional[str]:
        """Why ``entry`` is no longer valid; a stamp passed as ``None``
        is not checked."""
        if epoch is not None and entry.epoch != epoch:
            return REASON_EPOCH
        if version is not None and entry.dcsm_version != version and entry.versioned:
            return REASON_DCSM_VERSION
        if (
            now_ms is not None
            and self.ttl_ms is not None
            and now_ms - entry.stored_at_ms >= self.ttl_ms
        ):
            return REASON_TTL
        return None

    def peek(
        self,
        key: K,
        now_ms: Optional[float] = None,
        epoch: Optional[int] = None,
        version: Optional[int] = None,
    ) -> Optional[E]:
        """The entry if present and valid; no side effect of any kind."""
        with self.lock:
            entry = self._entries.get(key)
            if entry is None or self._stale(entry, now_ms, epoch, version) is not None:
                return None
            return entry

    def find(
        self,
        key: K,
        now_ms: Optional[float] = None,
        epoch: Optional[int] = None,
        version: Optional[int] = None,
    ) -> Optional[E]:
        """The entry if valid; a stale one is dropped under its reason.
        No hit/miss accounting.  The caller holds :attr:`lock`."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        reason = self._stale(entry, now_ms, epoch, version)
        if reason is not None:
            self._remove(key, reason)
            return None
        return entry

    def touch(self, key: K, entry: E, now_ms: float) -> None:
        """Record a use (recency and frequency).  The caller holds
        :attr:`lock`."""
        entry.hits += 1
        entry.last_used_ms = now_ms
        self._entries.move_to_end(key)

    def get(
        self,
        key: K,
        now_ms: float = 0.0,
        epoch: Optional[int] = None,
        version: Optional[int] = None,
    ) -> Optional[E]:
        """:meth:`find` + :meth:`touch`, counted as one hit or miss."""
        with self.lock:
            entry = self.find(key, now_ms, epoch, version)
            if entry is None:
                self.misses += 1
                return None
            self.touch(key, entry, now_ms)
            self.hits += 1
            return entry

    def live_items(
        self,
        now_ms: Optional[float] = None,
        epoch: Optional[int] = None,
        version: Optional[int] = None,
        source: Optional[Source] = None,
    ) -> list[tuple[K, E]]:
        """The entries a lookup would accept right now (no side effects):
        all of them, least recently used first, or those computed from
        ``source``, oldest insertion first."""
        with self.lock:
            keys: Iterable[K] = self._entries
            if source is not None:
                keys = self._by_source.get(source, {})
            return [
                (key, self._entries[key])
                for key in keys
                if self._stale(self._entries[key], now_ms, epoch, version) is None
            ]

    # -- writing ---------------------------------------------------------------

    def ticket(self) -> Ticket:
        """Take this before computing a value from sources; :meth:`put`
        refuses the value if the program or one of those sources changed
        in between."""
        with self.lock:
            return self.epoch, self._generation

    def put(self, key: K, entry: E, ticket: Optional[Ticket] = None) -> Optional[E]:
        """Insert or replace ``key``, then evict down to budget (never the
        key just inserted).  Returns ``None`` — counted under ``raced`` —
        when ``ticket`` predates an epoch bump or an invalidation of any
        of the entry's sources."""
        with self.lock:
            if ticket is not None and self._raced(entry, ticket):
                self.drops[REASON_RACED] += 1
                return None
            if key in self._entries:
                self._unlink(key)  # a replacement is not a drop
            self._entries[key] = entry
            self.total_bytes += entry.answer_bytes
            for source in entry.sources:
                self._by_source.setdefault(source, {})[key] = None
            self.insertions += 1
            while self._over_budget():
                victim = self._victim(protect=key)
                if victim is None:
                    break
                self._remove(victim, REASON_EVICTION)
            return entry

    def _raced(self, entry: E, ticket: Ticket) -> bool:
        epoch, generation = ticket
        if epoch != self.epoch:
            return True
        invalidated = self._invalidated
        return any(
            invalidated.get(source, 0) > generation
            or invalidated.get((source[0], None), 0) > generation
            for source in entry.sources
        )

    def _over_budget(self) -> bool:
        return (
            self.max_entries is not None and len(self._entries) > self.max_entries
        ) or (self.max_bytes is not None and self.total_bytes > self.max_bytes)

    def _victim(self, protect: K) -> Optional[K]:
        score = self.score
        victim: Optional[K] = None
        lowest: Optional[float] = None
        for key, entry in self._entries.items():  # oldest first
            if key == protect:
                continue
            if score is None:
                return key
            value = score(entry)
            if lowest is None or value < lowest:
                lowest, victim = value, key
        return victim

    def bump_epoch(self) -> None:
        """The program changed: entries stamped with an older epoch are
        dropped lazily, at their next lookup."""
        with self.lock:
            self.epoch += 1

    def invalidate_source(self, domain: str, function: Optional[str] = None) -> int:
        """Drop every entry computed from ``domain:function`` (the whole
        domain when ``function`` is ``None``); returns how many."""
        with self.lock:
            self._generation += 1
            self._invalidated[(domain, function)] = self._generation
            doomed: dict[K, None] = {}
            if function is not None:
                doomed.update(self._by_source.get((domain, function), {}))
            else:
                for source, keys in self._by_source.items():
                    if source[0] == domain:
                        doomed.update(keys)
            for key in doomed:
                self._remove(key, REASON_SOURCE)
            return len(doomed)

    def discard(self, key: K) -> bool:
        """Drop one entry by hand (no reason counted); True if present."""
        with self.lock:
            if key not in self._entries:
                return False
            self._remove(key, None)
            return True

    def clear(self) -> int:
        """Back to the freshly built state: no entries, every counter
        zero, no drop reason counted.  (The epoch and the source
        generations keep counting, so tickets stay meaningful.)  Returns
        the number of entries removed."""
        with self.lock:
            removed = len(self._entries)
            self._entries.clear()
            self._by_source.clear()
            self.total_bytes = 0
            self.hits = self.misses = self.insertions = 0
            self.drops = dict.fromkeys(DROP_REASONS, 0)
            return removed

    def _unlink(self, key: K) -> E:
        entry = self._entries.pop(key)
        self.total_bytes -= entry.answer_bytes
        for source in entry.sources:
            keys = self._by_source[source]
            del keys[key]
            if not keys:
                del self._by_source[source]
        return entry

    def _remove(self, key: K, reason: Optional[str]) -> None:
        entry = self._unlink(key)
        if reason is not None:
            self.drops[reason] += 1
        if self.on_drop is not None:
            self.on_drop(key, entry, reason)
