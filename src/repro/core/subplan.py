"""Sub-plan result caching: the middle tier between the CIM and the plan cache.

The CIM caches *ground calls* (paper §4) and the plan cache caches *whole
plan templates* (PR 3), so two queries that share most of a join — or one
query re-run with a different tail — redo the shared prefix work from
scratch.  Following Roy et al. (*Don't Trash your Intermediate Results,
Cache 'em*), this module materializes the intermediate answer set produced
by each executed plan **prefix** and replays it for any later plan whose
prefix is semantically identical:

* A *cut* is a prefix boundary sitting immediately before a call step that
  has at least one call step before it (see :func:`subplan_cuts`) — the
  materialized bindings at a cut are exactly the outer loop of the
  remaining nested-loop join.
* The key (:func:`canonicalize_prefix`) renames variables by first
  occurrence and abstracts constants to positional markers — the same
  ``Q#p`` discipline as ``core/plancache.py`` — so prefixes from different
  queries (different variable names, same shape and same constant values)
  collide.  Constant *values* stay in the key: unlike a plan template, a
  materialized result depends on them.
* The cache is one policy over the shared cache-tier core
  (:class:`repro.storage.tier.CacheStore`, docs/CACHING.md).  Entries
  remember the set of sources their prefix touched and are invalidated
  along every path the other tiers honour: program epoch bump,
  ``notify_source_changed``, DCSM version stamps, and TTL.  Under a byte
  budget entries are scored by recompute cost x hit frequency per byte
  (``storage/evictor.py``); an entry that alone overflows the budget is
  refused.
* A run takes a :meth:`SubplanResultCache.ticket` before it dials and
  hands it back with the rows: if the program or one of the prefix's
  sources changed while the run was in flight, the rows are refused
  (reason ``raced``) rather than stored with the new stamps.

Entries are snapshotted to the ``subplan`` backend namespace at flush
time and adopted on warm start by :mod:`repro.storage.snapshot`, as
versioned JSON (answer rows are plain mediator values).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.core.model import Comparison
from repro.core.plans import CallStep, CompareStep, PlanStep
from repro.core.terms import AttrPath, Constant, Term, Value, Variable, value_bytes
from repro.core.unify import Substitution, resolve
from repro.errors import StorageError
from repro.serialization import decode_value, encode_value
from repro.storage.backend import STORE_SUBPLAN
from repro.storage.snapshot import decode_bookkeeping, encode_bookkeeping
from repro.storage.tier import (
    REASON_RACED,
    CacheStore,
    Entry,
    Ticket,
    TierStats,
    weak_hook,
)

if TYPE_CHECKING:
    from repro.storage.evictor import CostFrequencyEvictor

#: Bump when the persisted record layout changes.
SUBPLAN_RECORD_VERSION = 1

#: One materialized binding: the values of the prefix's variables in
#: ``CanonicalPrefix.var_order`` order.
SubplanRow = tuple[Value, ...]


def replay_cost_ms(row_count: int, base_ms: float) -> float:
    """Simulated cost of replaying a materialized prefix: one memo-grade
    hit charge plus a 10% surcharge per row, matching the executor's
    in-run memo replay pricing."""
    return base_ms + base_ms * 0.1 * row_count


@dataclass(frozen=True)
class CanonicalPrefix:
    """A plan prefix normalized for cross-query collision."""

    #: Full cache key: abstracted pattern + the abstracted constant values.
    key: str
    #: Constant-abstracted shape (shared by prefixes differing only in
    #: constant values — reported by the CLI, not used for lookup).
    pattern: str
    #: The constant values, in abstraction order.
    constants: tuple[Value, ...]
    #: This plan's variables in canonical (first-occurrence) order; a
    #: cached row assigns values to exactly these variables.
    var_order: tuple[Variable, ...]
    #: ``(domain, function)`` pairs the prefix dials.
    sources: frozenset[tuple[str, str]]


def subplan_cuts(steps: Sequence[PlanStep]) -> tuple[int, ...]:
    """Prefix boundaries worth caching: each index ``i`` sits immediately
    before a call step with at least one call step already placed, so
    ``steps[:i]`` did real source work and ``steps[i:]`` resumes with a
    dispatch.  (Cuts after trailing comparisons add nothing: comparisons
    are free relative to calls.)"""
    cuts: list[int] = []
    seen_call = False
    for index, step in enumerate(steps):
        if isinstance(step, CallStep):
            if seen_call:
                cuts.append(index)
            seen_call = True
    return tuple(cuts)


def canonicalize_prefix(
    steps: Sequence[PlanStep],
    initial_subst: Optional[Substitution] = None,
) -> CanonicalPrefix:
    """Normalize ``steps`` into a :class:`CanonicalPrefix`.

    Terms are first resolved against ``initial_subst`` (user bindings, or
    the planner's ``Q#p`` parameter substitution), then variables are
    renamed ``V0, V1, ...`` by first occurrence and constants abstracted
    to ``C0, C1, ...`` with their values collected — so two prefixes with
    the same shape and the same constant values share a key regardless of
    how their variables were spelled.
    """
    subst: Substitution = initial_subst or {}
    var_names: dict[Variable, str] = {}
    var_order: list[Variable] = []
    constants: list[Value] = []
    sources: set[tuple[str, str]] = set()

    def canon(term: Term) -> str:
        term = resolve(term, subst)
        if isinstance(term, Constant):
            constants.append(term.value)
            return f"C{len(constants) - 1}"
        if isinstance(term, Variable):
            name = var_names.get(term)
            if name is None:
                name = f"V{len(var_order)}"
                var_names[term] = name
                var_order.append(term)
            return name
        if isinstance(term, AttrPath):
            base = canon(term.base)
            path = ".".join(str(component) for component in term.path)
            return f"{base}.{path}"
        raise StorageError(f"cannot canonicalize term {term!r}")

    parts: list[str] = []
    try:
        for step in steps:
            if isinstance(step, CallStep):
                call = step.atom.call
                sources.add((call.domain, call.function))
                args = ",".join(canon(arg) for arg in call.args)
                output = canon(step.atom.output)
                via = "@cim" if step.via_cim else ""
                parts.append(f"in({output},{call.domain}:{call.function}({args})){via}")
            elif isinstance(step, CompareStep):
                comparison: Comparison = step.comparison
                parts.append(
                    f"{comparison.op}({canon(comparison.left)},{canon(comparison.right)})"
                )
            else:  # pragma: no cover - plan steps are calls or comparisons
                raise StorageError(f"cannot canonicalize plan step {step!r}")
    finally:
        del canon  # canon reaches itself through its closure cell
    pattern = ";".join(parts)
    values = json.dumps(
        [encode_value(value) for value in constants],
        sort_keys=True,
        separators=(",", ":"),
    )
    return CanonicalPrefix(
        key=f"{pattern}::{values}",
        pattern=pattern,
        constants=tuple(constants),
        var_order=tuple(var_order),
        sources=frozenset(sources),
    )


def project_row(
    var_order: Sequence[Variable], subst: Substitution
) -> Optional[SubplanRow]:
    """Extract the values of ``var_order`` from a solved substitution, or
    ``None`` when any variable is unground (such prefixes are not safely
    replayable and must not be cached)."""
    values: list[Value] = []
    for var in var_order:
        term = resolve(var, subst)
        if not isinstance(term, Constant):
            return None
        values.append(term.value)
    return tuple(values)


def row_subst(
    var_order: Sequence[Variable],
    row: SubplanRow,
    base: Substitution,
) -> dict[Variable, Term]:
    """Reconstruct the substitution a cached row stands for."""
    subst: dict[Variable, Term] = dict(base)
    for var, value in zip(var_order, row):
        subst[var] = Constant(value)
    return subst


@dataclass(slots=True)
class SubplanEntry(Entry):
    """One materialized prefix result (bookkeeping fields:
    :class:`~repro.storage.tier.Entry`)."""

    key: str
    pattern: str
    rows: tuple[SubplanRow, ...]
    #: Measured cost of the materialization (simulated ms) — the
    #: recompute-cost input to the benefit-density eviction score.
    cost_ms: float


class SubplanResultCache:
    """Thread-safe store of materialized plan-prefix results.

    Validation is lazy and internal: ``match``/``peek`` compare each
    entry's epoch stamp against the cache's own epoch counter (bumped by
    the mediator on program change), its DCSM version stamp against
    ``dcsm_version_fn()``, and its age against the TTL, dropping stale
    entries under a per-reason counter.  ``invalidate_source`` drops
    eagerly via the store's by-source index.
    """

    namespace = STORE_SUBPLAN
    record_version = SUBPLAN_RECORD_VERSION

    def __init__(
        self,
        max_entries: int = 256,
        max_bytes: Optional[int] = None,
        ttl_ms: Optional[float] = None,
        evictor: Optional["CostFrequencyEvictor"] = None,
        metrics: Optional[Any] = None,
        dcsm_version_fn: Optional[Callable[[], int]] = None,
    ):
        self.evictor = evictor
        self.metrics = metrics
        self._dcsm_version_fn = dcsm_version_fn
        score: Optional[Callable[[SubplanEntry], float]] = None
        if evictor is not None:
            score_parts = evictor.score_parts
            score = lambda e: score_parts(e.cost_ms, e.hits, e.answer_bytes)
        self._tier: CacheStore[str, SubplanEntry] = CacheStore(
            max_entries, max_bytes, ttl_ms, score, weak_hook(self._on_drop)
        )

    def _on_drop(self, key: str, entry: SubplanEntry, reason: Optional[str]) -> None:
        if reason is not None:
            self._inc(f"subplan.invalidations.{reason}")

    def _version(self) -> Optional[int]:
        return self._dcsm_version_fn() if self._dcsm_version_fn is not None else None

    # -- introspection ---------------------------------------------------------

    @property
    def entry_count(self) -> int:
        return len(self._tier)

    @property
    def total_bytes(self) -> int:
        return self._tier.total_bytes

    @property
    def max_bytes(self) -> Optional[int]:
        return self._tier.max_bytes

    @property
    def epoch(self) -> int:
        return self._tier.epoch

    @property
    def stats(self) -> TierStats:
        """Hit/miss/insertion counters, occupancy and drops by reason."""
        return self._tier.stats()

    def items(self) -> list[tuple[str, SubplanEntry]]:
        return self._tier.items()

    def live_items(self, now_ms: float, dcsm_version: int) -> list[tuple[str, SubplanEntry]]:
        """The entries a lookup would accept right now."""
        return self._tier.live_items(now_ms, self._tier.epoch, dcsm_version)

    # -- lookup ----------------------------------------------------------------

    def match(
        self, keys: Sequence[str], now_ms: float
    ) -> Optional[tuple[str, SubplanEntry]]:
        """Return the first live entry among ``keys`` (callers order them
        longest-prefix-first), counting exactly one lookup and one hit or
        miss regardless of how many candidate cuts were probed."""
        tier = self._tier
        with tier.lock:
            epoch, version = tier.epoch, self._version()
            for key in keys:
                entry = tier.find(key, now_ms, epoch, version)
                if entry is not None:
                    tier.touch(key, entry, now_ms)
                    tier.hits += 1
                    self._inc("subplan.hits")
                    return key, entry
            tier.misses += 1
            self._inc("subplan.misses")
            return None

    def peek(self, key: str, now_ms: float) -> Optional[SubplanEntry]:
        """Validation without hit/miss accounting — the planner's probe
        (pricing a candidate prefix must not skew executor hit rates)."""
        tier = self._tier
        with tier.lock:
            return tier.find(key, now_ms, tier.epoch, self._version())

    # -- population ------------------------------------------------------------

    def ticket(self) -> Ticket:
        """Taken by a run before it dials; see :meth:`put`."""
        return self._tier.ticket()

    def put(
        self,
        canonical: CanonicalPrefix,
        rows: Sequence[SubplanRow],
        now_ms: float,
        cost_ms: float,
        ticket: Ticket,
    ) -> Optional[SubplanEntry]:
        """Materialize a prefix result computed since ``ticket`` was taken.
        Returns the stored entry, or ``None`` when the entry alone would
        overflow the byte budget, or when the program or one of the
        prefix's sources changed since the ticket (the rows may predate
        the change; counted under ``raced``)."""
        nbytes = sum(
            sum(value_bytes(value) for value in row) for row in rows
        ) + len(canonical.key)
        if self.max_bytes is not None and nbytes > self.max_bytes:
            return None
        entry = SubplanEntry(
            key=canonical.key,
            pattern=canonical.pattern,
            rows=tuple(rows),
            cost_ms=max(cost_ms, 0.0),
            sources=canonical.sources,
            answer_bytes=nbytes,
            epoch=ticket[0],
            dcsm_version=self._version() or 0,
            stored_at_ms=now_ms,
            last_used_ms=now_ms,
        )
        if self._tier.put(canonical.key, entry, ticket) is None:
            self._inc(f"subplan.invalidations.{REASON_RACED}")
            return None
        self._inc("subplan.materialized_bytes", float(nbytes))
        return entry

    def adopt(self, key: str, entry: SubplanEntry) -> None:
        """Insert a (re-stamped) persisted entry — warm restart."""
        self._tier.put(key, entry)
        self._inc("subplan.materialized_bytes", float(entry.answer_bytes))

    # -- invalidation ----------------------------------------------------------

    def bump_epoch(self) -> None:
        """Program changed: every materialized prefix is suspect.  Entries
        are dropped lazily at next validation (counted under ``epoch``)."""
        self._tier.bump_epoch()

    def invalidate_source(self, domain: str, function: Optional[str] = None) -> int:
        """Eagerly drop every entry whose prefix dialed the changed
        source; ``function=None`` matches the whole domain."""
        return self._tier.invalidate_source(domain, function)

    def clear(self) -> int:
        """Empty the cache and zero its counters; returns the number of
        entries removed."""
        return self._tier.clear()

    def _inc(self, name: str, value: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, value)

    # -- snapshot codec ------------------------------------------------------------

    def encode(self, entry: SubplanEntry) -> dict[str, Any]:
        return {
            **encode_bookkeeping(entry),
            "pattern": entry.pattern,
            "rows": [[encode_value(value) for value in row] for row in entry.rows],
            "cost_ms": entry.cost_ms,
        }

    def decode(self, payload: dict[str, Any]) -> SubplanEntry:
        return SubplanEntry(
            key=payload["key"],
            pattern=payload["pattern"],
            rows=tuple(
                tuple(decode_value(value) for value in row) for row in payload["rows"]
            ),
            cost_ms=float(payload["cost_ms"]),
            **decode_bookkeeping(payload),
        )
