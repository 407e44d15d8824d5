"""The Cache and Invariant Manager (paper §4.1).

``CacheInvariantManager`` is a domain-shaped endpoint: the execution
engine routes a ground call to it instead of to the real source, and it
answers from the cache, from invariants, or by making the real call —
charging realistic (simulated) time for each path.

Lookup order, per the paper:

1. exact cache match → cached answers replace the call;
2. equality invariant (+ cached right-hand call) → full answers;
3. containment invariant (+ cached right-hand call) → *partial* answers,
   after which the completion policy decides:
   ``SERIAL``   — run the real call after serving the partial answers
   (fast first answer, full total cost),
   ``PARALLEL`` — overlap the real call with the cache path
   (total = max of the two),
   ``PARTIAL_ONLY`` — return the incomplete answer set (interactive mode:
   the user may never ask for the rest);
4. miss → real call.

On :class:`~repro.errors.SourceUnavailableError` the manager can serve
whatever the cache/invariants offer (flagged incomplete) instead of
failing — the paper's "query result caching ... when the source is not
readily available".
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from repro.cim.cache import ResultCache
from repro.cim.invariants import InvariantIndex, match_invariants
from repro.core.model import GroundCall, Invariant
from repro.core.terms import Value
from repro.domains.base import (
    CallResult,
    SOURCE_CACHE,
    SOURCE_DEGRADED,
    SOURCE_INVARIANT_EQ,
    SOURCE_INVARIANT_PARTIAL,
)
from repro.domains.registry import DomainRegistry
from repro.errors import BadCallError, SourceUnavailableError
from repro.metrics import MetricsRegistry
from repro.net.clock import SimClock

#: Separator of the paper's "CIM:domain&function" encoding.
ENCODED_SEPARATOR = "&"


class CimPolicy(Enum):
    """What to do after a containment-invariant (partial) hit."""

    SERIAL = "serial"
    PARALLEL = "parallel"
    PARTIAL_ONLY = "partial-only"


@dataclass
class CimStats:
    """Counters for experiment reporting."""

    calls: int = 0
    exact_hits: int = 0
    equality_hits: int = 0
    partial_hits: int = 0
    misses: int = 0
    real_calls: int = 0
    stale_served: int = 0
    degraded_served: int = 0  # degraded-lookup answers after source failure
    partial_answer_bytes: int = 0  # bytes served out of partial hits
    invariants_checked: int = 0  # invariant candidates examined per lookup
    entries_scanned: int = 0  # cache entries touched via the (d, f) index

    @property
    def hits(self) -> int:
        """Every call the cache layer answered without completing a real call."""
        return self.exact_hits + self.equality_hits + self.partial_hits


class CacheInvariantManager:
    """Answer domain calls from cache + invariants, falling back to sources."""

    def __init__(
        self,
        registry: DomainRegistry,
        clock: Optional[SimClock] = None,
        invariants: "tuple[Invariant, ...] | list[Invariant]" = (),
        cache: Optional[ResultCache] = None,
        domain_caches: Optional[dict[str, ResultCache]] = None,
        name: str = "cim",
        policy: CimPolicy = CimPolicy.SERIAL,
        lookup_cost_ms: float = 0.2,
        per_answer_cost_ms: float = 0.01,
        invariant_check_cost_ms: float = 0.1,
        merge_cost_ms: float = 0.005,
        serve_stale_on_outage: bool = True,
        observer: Optional[Callable[[CallResult], None]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.registry = registry
        self.clock = clock
        self.invariants = InvariantIndex(invariants)
        # the default cache plus optional special-purpose per-domain caches
        # (paper §4.1: "it is possible to build special purpose caches for
        # different domains"); a domain without its own cache shares the
        # default one
        self.cache = cache if cache is not None else ResultCache()
        self.domain_caches = dict(domain_caches or {})
        self.name = name
        self.policy = policy
        self.lookup_cost_ms = lookup_cost_ms
        self.per_answer_cost_ms = per_answer_cost_ms
        self.invariant_check_cost_ms = invariant_check_cost_ms
        self.merge_cost_ms = merge_cost_ms
        self.serve_stale_on_outage = serve_stale_on_outage
        self.observer = observer
        self.metrics = metrics
        self.stats = CimStats()
        # guards only the CimStats counters: the lookup cascade itself must
        # stay unlocked so concurrent real source calls can overlap (the
        # ResultCache has its own internal lock)
        self._stats_lock = threading.Lock()

    def _inc(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    def _bump(self, counter: str, amount: int = 1) -> None:
        with self._stats_lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + amount)

    def _observe_scan(self, checked: int, scanned: int) -> None:
        """Account the work the invariant matcher did for one lookup —
        with the (domain, function)-keyed indexes this counts only the
        narrowed buckets, not the whole cache."""
        with self._stats_lock:
            self.stats.invariants_checked += checked
            self.stats.entries_scanned += scanned
        if checked:
            self._inc("cim.invariants_checked", float(checked))
        if scanned:
            self._inc("cim.entries_scanned", float(scanned))

    # -- configuration ---------------------------------------------------------

    def add_invariant(self, invariant: Invariant) -> None:
        self.invariants.add(invariant)

    def set_domain_cache(self, domain: str, cache: ResultCache) -> None:
        """Give ``domain`` its own special-purpose cache."""
        self.domain_caches[domain] = cache

    def notify_source_changed(self, domain: str, function: Optional[str] = None) -> int:
        """A source's data changed: drop the (now possibly wrong) cached
        answers for one function, or for the whole domain.  Returns the
        number of entries dropped.  Cost statistics are *not* touched —
        a data change rarely changes the source's cost behaviour, and the
        DCSM's recency weighting handles drift when it does."""
        return self.cache_for(domain).invalidate_source(domain, function)

    def cache_for(self, domain: str) -> ResultCache:
        return self.domain_caches.get(domain, self.cache)

    @property
    def _now(self) -> float:
        return self.clock.now_ms if self.clock is not None else 0.0

    @property
    def _cache_view(self) -> "ResultCache | _MultiCache":
        """What the invariant matcher scans: the default cache, or a view
        over all caches when per-domain caches exist."""
        if not self.domain_caches:
            return self.cache
        return _MultiCache(self)

    # -- endpoint protocol ---------------------------------------------------------

    def execute(self, call: GroundCall) -> CallResult:
        """Serve a call.  Accepts both direct calls (``video:f(...)``) and
        the paper's encoded form (``cim:video&f(...)``)."""
        if call.domain == self.name:
            call = self.decode(call)
        return self.lookup(call)

    def decode(self, call: GroundCall) -> GroundCall:
        """``cim:domain&function(args)`` → ``domain:function(args)``."""
        if ENCODED_SEPARATOR not in call.function:
            raise BadCallError(
                f"CIM-encoded call {call} must use "
                f"'{self.name}:domain{ENCODED_SEPARATOR}function(...)'"
            )
        domain, function = call.function.split(ENCODED_SEPARATOR, 1)
        return GroundCall(domain, function, call.args)

    @staticmethod
    def encode(call: GroundCall, cim_name: str = "cim") -> GroundCall:
        """Inverse of :meth:`decode` — used by the rule rewriter."""
        return GroundCall(
            cim_name, f"{call.domain}{ENCODED_SEPARATOR}{call.function}", call.args
        )

    # -- the lookup cascade ----------------------------------------------------------

    def lookup(self, call: GroundCall) -> CallResult:
        self._bump("calls")
        self._inc("cim.calls")
        now = self._now

        # 1. exact hit
        entry = self.cache_for(call.domain).get(call, now)
        if entry is not None and entry.complete:
            self._bump("exact_hits")
            self._inc("cim.hits.exact")
            return self._from_cache(call, entry.answers, SOURCE_CACHE,
                                     checked=0, scanned=0)

        # an incomplete exact entry behaves like a containment hit on itself
        partial_from_exact = entry.answers if entry is not None else None

        # 2./3. invariants
        match = match_invariants(self.invariants, call, self._cache_view, now)
        if match is not None and match.is_equality:
            self._bump("equality_hits")
            self._inc("cim.hits.equality")
            self._observe_scan(match.invariants_checked, match.entries_scanned)
            return self._from_cache(
                call,
                match.entry.answers,
                SOURCE_INVARIANT_EQ,
                checked=match.invariants_checked,
                scanned=match.entries_scanned,
            )

        partial_answers: Optional[tuple[Value, ...]] = None
        overhead_checked = match.invariants_checked if match else len(
            self.invariants.candidates_for(call)
        )
        overhead_scanned = match.entries_scanned if match else 0
        self._observe_scan(overhead_checked, overhead_scanned)
        if match is not None:
            partial_answers = match.entry.answers
        if partial_from_exact is not None and (
            partial_answers is None or len(partial_from_exact) > len(partial_answers)
        ):
            partial_answers = partial_from_exact

        if partial_answers is not None:
            self._bump("partial_hits")
            self._inc("cim.hits.partial")
            self._bump(
                "partial_answer_bytes",
                sum(_safe_bytes(a) for a in partial_answers),
            )
            return self._serve_partial(
                call, partial_answers, overhead_checked, overhead_scanned
            )

        # 4. miss → real call
        self._bump("misses")
        self._inc("cim.misses")
        overhead = (
            self.lookup_cost_ms + self.invariant_check_cost_ms * overhead_checked
        )
        try:
            real = self._real_call(call)
        except SourceUnavailableError:
            raise  # nothing cached to fall back on
        return CallResult(
            call=call,
            answers=real.answers,
            t_first_ms=overhead + real.t_first_ms,
            t_all_ms=overhead + real.t_all_ms,
            provenance=real.provenance,
            complete=True,
        )

    # -- internals ----------------------------------------------------------------

    def _cache_path_cost(self, cardinality: int, checked: int, scanned: int) -> tuple[float, float]:
        """(t_first, t_all) of serving ``cardinality`` answers from cache."""
        overhead = (
            self.lookup_cost_ms
            + self.invariant_check_cost_ms * checked
            + self.merge_cost_ms * scanned
        )
        t_first = overhead + (self.per_answer_cost_ms if cardinality else 0.0)
        t_all = overhead + self.per_answer_cost_ms * cardinality
        return t_first, max(t_first, t_all)

    def _from_cache(
        self,
        call: GroundCall,
        answers: tuple[Value, ...],
        provenance: str,
        checked: int,
        scanned: int,
    ) -> CallResult:
        t_first, t_all = self._cache_path_cost(len(answers), checked, scanned)
        return CallResult(
            call=call,
            answers=answers,
            t_first_ms=t_first,
            t_all_ms=t_all,
            provenance=provenance,
            complete=True,
        )

    def _serve_partial(
        self,
        call: GroundCall,
        partial: tuple[Value, ...],
        checked: int,
        scanned: int,
    ) -> CallResult:
        cache_first, cache_all = self._cache_path_cost(len(partial), checked, scanned)

        if self.policy is CimPolicy.PARTIAL_ONLY:
            # cache the partial set under the requested call so interactive
            # re-asks stay cheap (flagged incomplete)
            self.cache_for(call.domain).put(call, partial, self._now, complete=False)
            return CallResult(
                call=call,
                answers=partial,
                t_first_ms=cache_first,
                t_all_ms=cache_all,
                provenance=SOURCE_INVARIANT_PARTIAL,
                complete=False,
            )

        try:
            real = self._real_call(call)
        except SourceUnavailableError:
            if self.serve_stale_on_outage:
                self._bump("stale_served")
                self._inc("cim.stale_served")
                return CallResult(
                    call=call,
                    answers=partial,
                    t_first_ms=cache_first,
                    t_all_ms=cache_all,
                    provenance=SOURCE_INVARIANT_PARTIAL,
                    complete=False,
                )
            raise

        # merge: partial answers first (they were available first), then the
        # remainder of the real result, deduplicated; CIM "must keep the
        # answers from the cache in memory and compare them" (paper §8)
        seen = set(partial)
        remainder = tuple(a for a in real.answers if a not in seen)
        merged = partial + remainder
        merge_cost = self.merge_cost_ms * (len(partial) + len(real.answers))

        if self.policy is CimPolicy.PARALLEL:
            t_first = min(cache_first, real.t_first_ms)
            t_all = max(cache_all, real.t_all_ms) + merge_cost
        else:  # SERIAL
            t_first = cache_first
            t_all = cache_all + real.t_all_ms + merge_cost
        return CallResult(
            call=call,
            answers=merged,
            t_first_ms=t_first,
            t_all_ms=max(t_first, t_all),
            provenance=SOURCE_INVARIANT_PARTIAL,
            complete=True,
        )

    def lookup_degraded(self, call: GroundCall) -> Optional[CallResult]:
        """Best-effort answers for a call whose source cannot be reached.

        Consulted by the executor after the retry policy gave up on a
        site: any cached entry for the exact call (complete, incomplete,
        even expired) or any invariant-derived answer set is better than
        failing the whole query.  Answers are flagged ``complete=False``
        and provenance :data:`~repro.domains.base.SOURCE_DEGRADED` so the
        caller can tell the result is stale-but-usable.  Returns ``None``
        when the cache offers nothing at all.
        """
        now = self._now
        cache = self.cache_for(call.domain)
        checked = scanned = 0
        entry = cache.peek_stale(call)
        answers = entry.answers if entry is not None else None
        if answers is None:
            match = match_invariants(self.invariants, call, self._cache_view, now)
            if match is not None:
                answers = match.entry.answers
                checked = match.invariants_checked
                scanned = match.entries_scanned
        if answers is None:
            return None
        self._bump("degraded_served")
        self._inc("cim.degraded_served")
        t_first, t_all = self._cache_path_cost(len(answers), checked, scanned)
        return CallResult(
            call=call,
            answers=answers,
            t_first_ms=t_first,
            t_all_ms=t_all,
            provenance=SOURCE_DEGRADED,
            complete=False,
        )

    def _real_call(self, call: GroundCall) -> CallResult:
        result = self.registry.execute(call)
        self._bump("real_calls")
        self._inc("cim.real_calls")
        self.cache_for(call.domain).put(
            call, result.answers, self._now, complete=True
        )
        if self.observer is not None:
            self.observer(result)
        return result


class _MultiCache:
    """Read-only view over the manager's default + per-domain caches,
    exposing just what the invariant matcher needs (``peek`` and
    ``entries_for``), dispatching by call domain."""

    def __init__(self, manager: CacheInvariantManager):
        self._manager = manager

    def peek(self, call: GroundCall, now_ms: float = 0.0):
        return self._manager.cache_for(call.domain).peek(call, now_ms)

    def entries_for(self, domain: str, function: str, now_ms: float = 0.0):
        return self._manager.cache_for(domain).entries_for(domain, function, now_ms)


def _safe_bytes(value: Value) -> int:
    from repro.core.terms import value_bytes

    return value_bytes(value)
