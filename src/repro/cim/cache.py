"""The query-result cache: ground domain calls mapped to answer sets.

One policy over the shared cache-tier core
(:class:`repro.storage.tier.CacheStore`, docs/CACHING.md): the key is the
ground call, the value its answer set, the only stamp a TTL against the
simulated clock, and the entry's single source is its own
``domain:function`` — which is also how the invariant matcher narrows its
scan to the entries that could possibly match a candidate call.  Capacity
in entries and/or bytes, with LRU, LFU, or cost-aware eviction
(``"cost"``: score = DCSM-estimated recompute cost x hit frequency per
byte, see :class:`repro.storage.evictor.CostFrequencyEvictor`), is the
store's.  What is the CIM's own: a complete answer set beats an
incomplete one, and TTL-expired entries are parked for degraded serving.

With a :class:`~repro.storage.backend.StorageBackend` attached, every
mutation writes through to the backend's ``"cim"`` store (memory stays
the authoritative read path — lookups never touch the backend), and
:meth:`load_from_backend` restores a previous session's entries for warm
restart.  Ground-call answers are valid whatever program is loaded, so
this tier is mirrored write by write rather than snapshotted.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.core.model import GroundCall
from repro.core.terms import Value, value_bytes
from repro.errors import CacheError, StorageError
from repro.storage.backend import wipe_store
from repro.storage.tier import (
    REASON_EVICTION,
    REASON_TTL,
    CacheStore,
    Entry,
    TierStats,
    weak_hook,
)

if TYPE_CHECKING:
    from repro.metrics import MetricsRegistry
    from repro.storage.backend import StorageBackend
    from repro.storage.evictor import CostFrequencyEvictor

POLICY_LRU = "lru"
POLICY_LFU = "lfu"
POLICY_COST = "cost"


@dataclass(slots=True)
class CacheEntry(Entry):
    """One cached call with its answers."""

    call: GroundCall
    answers: tuple[Value, ...]
    complete: bool

    @property
    def cardinality(self) -> int:
        return len(self.answers)


class ResultCache:
    """Bounded (answer-set) cache keyed by ground domain calls."""

    def __init__(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        policy: str = POLICY_LRU,
        ttl_ms: Optional[float] = None,
        evictor: "Optional[CostFrequencyEvictor]" = None,
        backend: "Optional[StorageBackend]" = None,
        store: str = "cim",
        metrics: "Optional[MetricsRegistry]" = None,
    ):
        if policy not in (POLICY_LRU, POLICY_LFU, POLICY_COST):
            raise CacheError(f"unknown eviction policy {policy!r}")
        if max_entries is not None and max_entries < 1:
            raise CacheError("max_entries must be at least 1")
        if max_bytes is not None and max_bytes < 1:
            raise CacheError("max_bytes must be at least 1")
        self.policy = policy
        score: Optional[Callable[[CacheEntry], float]] = None
        if policy == POLICY_LFU:
            score = lambda entry: entry.hits
        elif policy == POLICY_COST:
            if evictor is None:
                from repro.storage.evictor import CostFrequencyEvictor

                evictor = CostFrequencyEvictor()
            score = evictor.score
        self.evictor = evictor
        self.backend = backend
        self.store = store
        self.metrics = metrics
        # backend puts are suppressed while load_from_backend re-inserts
        # restored entries (deletes are not: what a load evicts must leave
        # the backend too, or dead records accumulate across restarts)
        self._mirror = True
        self._tier: CacheStore[GroundCall, CacheEntry] = CacheStore(
            max_entries, max_bytes, ttl_ms, score, weak_hook(self._on_drop)
        )
        # one shared ``sources`` set per source function, not one per entry
        self._sources: dict[tuple[str, str], frozenset[tuple[str, str]]] = {}
        # TTL-expired entries parked for degraded serving (peek_stale): an
        # expired answer set is still better than none when the source is
        # unreachable.  Not counted in len()/total_bytes; purged on
        # invalidation (the data is then known wrong, not merely old).
        # Guarded by the store's lock.
        self._stale: "OrderedDict[GroundCall, CacheEntry]" = OrderedDict()

    def _on_drop(self, call: GroundCall, entry: CacheEntry, reason: Optional[str]) -> None:
        if reason == REASON_TTL:
            self._stale[call] = entry
            self._stale.move_to_end(call)
            limit = self.max_entries if self.max_entries is not None else 256
            while len(self._stale) > limit:
                self._stale.popitem(last=False)
        elif reason == REASON_EVICTION and self.metrics is not None:
            self.metrics.inc("storage.evictions")
        if self.backend is not None:
            from repro.cim.codec import call_key

            self.backend.delete(self.store, call_key(call))

    # -- core operations ---------------------------------------------------

    def get(self, call: GroundCall, now_ms: float = 0.0) -> Optional[CacheEntry]:
        """Exact lookup; honours TTL; updates recency/frequency."""
        return self._tier.get(call, now_ms)

    def peek(self, call: GroundCall, now_ms: float = 0.0) -> Optional[CacheEntry]:
        """Lookup without recency/stats side effects (used by the invariant
        matcher and by stale-serving, which has its own bookkeeping)."""
        return self._tier.peek(call, now_ms)

    def peek_stale(self, call: GroundCall) -> Optional[CacheEntry]:
        """Lookup ignoring TTL: degraded mode prefers an expired answer
        set over no answers at all when the source is unreachable.
        Checks live entries first, then the parked TTL-expired ones."""
        with self._tier.lock:
            entry = self._tier.peek(call)
            return entry if entry is not None else self._stale.get(call)

    def put(
        self,
        call: GroundCall,
        answers: tuple[Value, ...],
        now_ms: float = 0.0,
        complete: bool = True,
    ) -> CacheEntry:
        """Insert or replace an entry, then evict down to capacity.

        A complete result always replaces an incomplete one; an incomplete
        result never downgrades a cached complete one.
        """
        with self._tier.lock:
            self._stale.pop(call, None)  # fresh data supersedes the parked copy
            existing = self._tier.peek(call)
            if existing is not None and existing.complete and not complete:
                return existing
            source = (call.domain, call.function)
            sources = self._sources.get(source)
            if sources is None:
                sources = self._sources[source] = frozenset((source,))
            entry = CacheEntry(
                call=call,
                answers=tuple(answers),
                complete=complete,
                sources=sources,
                answer_bytes=sum(value_bytes(a) for a in answers),
                stored_at_ms=now_ms,
                last_used_ms=now_ms,
            )
            self._backend_put(entry)
            self._tier.put(call, entry)
            return entry

    def invalidate(self, call: GroundCall) -> bool:
        """Drop one entry; True if it existed."""
        with self._tier.lock:
            self._stale.pop(call, None)
            return self._tier.discard(call)

    def invalidate_source(self, domain: str, function: Optional[str] = None) -> int:
        """Drop every entry of ``domain:function`` — of every function of
        ``domain`` when ``function`` is ``None`` — e.g. after a source
        update notification; returns the number removed."""
        with self._tier.lock:
            removed = self._tier.invalidate_source(domain, function)
            for call in [
                c
                for c in self._stale
                if c.domain == domain and function in (None, c.function)
            ]:
                del self._stale[call]
            return removed

    def invalidate_function(self, domain: str, function: str) -> int:
        return self.invalidate_source(domain, function)

    def invalidate_domain(self, domain: str) -> int:
        return self.invalidate_source(domain)

    def clear(self) -> int:
        """Empty the cache (and its backend store) and zero the counters."""
        with self._tier.lock:
            if self.backend is not None and self._mirror:
                wipe_store(self.backend, self.store)
            self._stale.clear()
            return self._tier.clear()

    # -- scanning (for invariants) ---------------------------------------------

    def entries_for(self, domain: str, function: str, now_ms: float = 0.0) -> Iterator[CacheEntry]:
        """All live entries of one source function (snapshot at call time)."""
        live = self._tier.live_items(now_ms, source=(domain, function))
        return iter([entry for __, entry in live])

    def __iter__(self) -> Iterator[CacheEntry]:
        return iter([entry for __, entry in self._tier.items()])

    # -- introspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tier)

    def __contains__(self, call: GroundCall) -> bool:
        return call in self._tier

    @property
    def total_bytes(self) -> int:
        return self._tier.total_bytes

    @property
    def stats(self) -> TierStats:
        """Hit/miss/insertion counters, occupancy and drops by reason."""
        return self._tier.stats()

    @property
    def max_entries(self) -> Optional[int]:
        return self._tier.max_entries

    @property
    def max_bytes(self) -> Optional[int]:
        return self._tier.max_bytes

    @property
    def ttl_ms(self) -> Optional[float]:
        return self._tier.ttl_ms

    @ttl_ms.setter
    def ttl_ms(self, value: Optional[float]) -> None:
        self._tier.ttl_ms = value

    # -- storage backend (persistence) ---------------------------------------------

    def attach_backend(
        self,
        backend: "StorageBackend",
        store: str = "cim",
        metrics: "Optional[MetricsRegistry]" = None,
    ) -> None:
        """Start mirroring mutations into ``backend`` (from now on)."""
        with self._tier.lock:
            self.backend = backend
            self.store = store
            if metrics is not None:
                self.metrics = metrics

    def load_from_backend(self, now_ms: float = 0.0) -> int:
        """Warm restart: re-insert every entry persisted in the backend.

        Entries go through the normal ``put`` path (capacity limits and
        eviction apply) with backend puts suspended, so a load never
        rewrites what it reads; entries *evicted* during the load are
        deleted from the backend (their records would otherwise be
        re-read, re-decoded, and re-evicted on every warm start, growing
        the store without bound).  Stored timestamps are
        clamped to ``now_ms`` — the restarted clock starts over, and a
        ``stored_at_ms`` in the new clock's future would never satisfy
        TTL expiry.  Records that fail to decode are dropped from the
        backend rather than replayed.  Returns the number of entries
        restored.
        """
        if self.backend is None:
            raise StorageError("no storage backend attached")
        from repro.cim.codec import decode_entry

        records = list(self.backend.scan_prefix(self.store, ""))
        count = 0
        with self._tier.lock:
            self._mirror = False
            try:
                for key, data in records:
                    try:
                        fields = decode_entry(data)
                    except Exception:
                        self.backend.delete(self.store, key)
                        continue
                    entry = self.put(
                        fields["call"],
                        fields["answers"],
                        now_ms=min(fields["stored_at_ms"], now_ms),
                        complete=fields["complete"],
                    )
                    entry.hits = fields["hits"]
                    count += 1
            finally:
                self._mirror = True
        return count

    def sync_backend(self) -> int:
        """Re-write every live entry to the backend (captures hit counts
        accumulated since the entries were first mirrored); returns the
        number written.  Call before :meth:`StorageBackend.flush`."""
        if self.backend is None:
            return 0
        with self._tier.lock:
            entries = self._tier.items()
            for __, entry in entries:
                self._backend_put(entry)
        return len(entries)

    def _backend_put(self, entry: CacheEntry) -> None:
        if self.backend is None or not self._mirror:
            return
        from repro.cim.codec import call_key, encode_entry

        self.backend.put(
            self.store,
            call_key(entry.call),
            encode_entry(
                entry.call,
                entry.answers,
                entry.complete,
                entry.stored_at_ms,
                entry.hits,
            ),
        )
