"""The mediator's query-plan cache.

The paper caches *answers* (CIM) and *statistics* (DCSM); this module
caches the optimizer's own output, keyed the same way the DCSM keys its
summary tables: by the query's **constant-abstracted pattern**.  Each
constant occurrence in the query is replaced by a fresh parameter
variable (``Q#p0``, ``Q#p1``, …, names that the parser can never
produce), the cost-guided search plans the abstracted query with the
parameters bound, and the winning plan — a *template* over the
parameters — is stored.  A later query with the same shape but different
constants instantiates the template by substitution and skips rewriting
and pricing entirely.

Abstraction is sound only when the plan does not depend on the constant
*values*.  Unfolding can specialise on a constant (a rule head
``p(a, X)`` unifies the parameter with ``a``), which the rewriter
reports through ``Expansion.unified_away``; such queries are
**value-dependent** — the abstract key stores a marker and the concrete
plan is cached under an exact key that includes the constants.

The cache is one policy over the shared cache-tier core
(:class:`repro.storage.tier.CacheStore`, docs/CACHING.md): string keys,
:class:`CachedPlan` values, an entry budget evicted oldest-used first,
and the stamps

* **epoch** — the mediator bumps the cache's epoch on program reload,
  ``add_rule`` and ``add_invariant``; every entry from an older epoch is
  dead (dropped lazily at lookup);
* **statistics version** — the DCSM bumps its ``version`` on every
  ``summarize()``; an entry priced against older statistics is dropped
  lazily at lookup (value-dependent markers carry no prices and survive);

plus the store's source index: ``notify_source_changed`` drops exactly
the entries whose plans call the changed ``(domain, function)``.

Ground comparisons (both sides constants) are *not* abstracted: the
rewriter constant-folds them — ``5 > 3`` drops, ``3 > 5`` kills the
rewriting — and that decision is exactly a dependence on the values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.model import (
    Comparison,
    DomainCall,
    InAtom,
    Literal,
    Predicate,
    Query,
)
from repro.core.plans import Plan
from repro.core.terms import Constant, Term, Variable
from repro.dcsm.vectors import CostVector
from repro.errors import ReproError
from repro.serialization import decode_plan, decode_vector, encode_plan, encode_vector
from repro.storage.backend import STORE_PLANCACHE
from repro.storage.snapshot import decode_bookkeeping, encode_bookkeeping
from repro.storage.tier import CacheStore, Entry, TierStats

#: parameter variables contain ``#`` so they can never collide with a
#: parser-produced variable name (see :func:`repro.core.unify.fresh_variable`)
_PARAM_PREFIX = "Q#p"


@dataclass(frozen=True)
class CanonicalQuery:
    """A query split into shape and values.

    ``abstract`` is the query with every abstractable constant replaced
    by a parameter variable; ``params[i]`` was substituted for
    ``constants[i]``.  ``key`` identifies the shape: two queries that
    differ only in abstracted constants share it.
    """

    abstract: Query
    params: tuple[Variable, ...]
    constants: tuple[Constant, ...]
    key: str


def _is_ground_comparison(literal: Literal) -> bool:
    return (
        isinstance(literal, Comparison)
        and isinstance(literal.left, Constant)
        and isinstance(literal.right, Constant)
    )


def canonicalize(query: Query) -> CanonicalQuery:
    """Abstract the query's constants into parameter variables.

    Constants inside *ground* comparisons are kept: the rewriter folds
    those at plan time, so their values shape the plan by design.  A
    query with no answer variables is not abstracted at all — its
    (empty) projection is derived from the goals, and introducing
    parameters there would change it — so it caches under its exact
    shape, constants included.
    """
    if not query.answer_vars:
        return CanonicalQuery(
            abstract=query,
            params=(),
            constants=(),
            key=f"pattern::{query}",
        )
    params: list[Variable] = []
    constants: list[Constant] = []

    def abstract_term(term: Term) -> Term:
        if isinstance(term, Constant):
            param = Variable(f"{_PARAM_PREFIX}{len(params)}")
            params.append(param)
            constants.append(term)
            return param
        return term

    goals: list[Literal] = []
    for goal in query.goals:
        if isinstance(goal, Predicate):
            goals.append(
                Predicate(goal.name, tuple(abstract_term(a) for a in goal.args))
            )
        elif isinstance(goal, InAtom):
            goals.append(
                InAtom(
                    abstract_term(goal.output),
                    DomainCall(
                        goal.call.domain,
                        goal.call.function,
                        tuple(abstract_term(a) for a in goal.call.args),
                    ),
                )
            )
        elif _is_ground_comparison(goal):
            goals.append(goal)
        else:
            goals.append(
                Comparison(
                    goal.op, abstract_term(goal.left), abstract_term(goal.right)
                )
            )
    abstract = Query(tuple(goals), query.answer_vars)
    return CanonicalQuery(
        abstract=abstract,
        params=tuple(params),
        constants=tuple(constants),
        key=f"pattern::{abstract}",
    )


def exact_key(query: Query) -> str:
    """Cache key for a value-dependent query: constants included."""
    return f"exact::{query}"


#: Bump when the persisted record layout changes.  Version 1 was a
#: pickle; those records are deleted unread on warm start.
PLAN_RECORD_VERSION = 2


@dataclass(slots=True)
class CachedPlan(Entry):
    """One plan-cache entry.

    ``template`` is the *unrouted* winning plan over ``params`` (or the
    concrete plan when ``params`` is empty); ``vector`` its estimated
    cost, ``None`` when the search could not price any ordering.  A
    ``value_dependent`` entry is a marker: the shape's plan depends on
    the constant values, look under the exact key instead.  ``sources``,
    ``epoch`` and ``dcsm_version`` are the store's bookkeeping
    (:class:`~repro.storage.tier.Entry`).
    """

    template: Optional[Plan]
    vector: Optional[CostVector]
    params: tuple[Variable, ...]
    value_dependent: bool = False

    @property
    def versioned(self) -> bool:
        return not self.value_dependent  # a marker carries no prices

    def instantiate(self, constants: tuple[Constant, ...]) -> Plan:
        """The template with this query's constants substituted in."""
        if self.template is None:
            raise ReproError("value-dependent marker entries hold no plan")
        if len(constants) != len(self.params):
            raise ReproError(
                f"plan template takes {len(self.params)} constants, "
                f"got {len(constants)}"
            )
        if not self.params:
            return self.template
        return self.template.substitute(dict(zip(self.params, constants)))


class PlanCache:
    """Plan templates under an entry budget, validated by epoch and
    statistics version.  Thread-safe (the store's lock): a shared
    mediator serves concurrent sessions.

    Snapshotted to the ``plancache`` backend namespace at flush time and
    adopted on warm start by :mod:`repro.storage.snapshot`; records are
    versioned JSON through :mod:`repro.serialization`.
    """

    namespace = STORE_PLANCACHE
    record_version = PLAN_RECORD_VERSION

    def __init__(self, max_entries: int = 256):
        self._tier: CacheStore[str, CachedPlan] = CacheStore(max_entries=max_entries)

    def __len__(self) -> int:
        return len(self._tier)

    def get(self, key: str, epoch: int, dcsm_version: int) -> Optional[CachedPlan]:
        """The entry under ``key`` if it is still valid, else ``None``
        (stale entries are dropped on the way out).  Counts a hit or a
        miss; a marker counts as neither — the caller retries with the
        exact key, and that lookup decides.
        """
        tier = self._tier
        with tier.lock:
            entry = tier.find(key, None, epoch, dcsm_version)
            if entry is None:
                tier.misses += 1
                return None
            tier.touch(key, entry, 0.0)
            if not entry.value_dependent:
                tier.hits += 1
            return entry

    def put(self, key: str, entry: CachedPlan) -> None:
        self._tier.put(key, entry)

    adopt = put

    def items(self) -> list[tuple[str, CachedPlan]]:
        """Snapshot of ``(key, entry)`` pairs."""
        return self._tier.items()

    def live_items(self, now_ms: float, dcsm_version: int) -> list[tuple[str, CachedPlan]]:
        """The entries a lookup would accept right now."""
        return self._tier.live_items(None, self._tier.epoch, dcsm_version)

    @property
    def epoch(self) -> int:
        """The program epoch new entries must be stamped with."""
        return self._tier.epoch

    def bump_epoch(self) -> None:
        self._tier.bump_epoch()

    def invalidate_source(self, domain: str, function: Optional[str] = None) -> int:
        """Drop every entry whose plan calls the changed source."""
        return self._tier.invalidate_source(domain, function)

    def clear(self) -> int:
        """Empty the cache and zero its counters; returns the number of
        entries removed."""
        return self._tier.clear()

    # -- counters ------------------------------------------------------------------

    @property
    def stats(self) -> TierStats:
        return self._tier.stats()

    @property
    def hits(self) -> int:
        return self._tier.hits

    @property
    def misses(self) -> int:
        return self._tier.misses

    @property
    def invalidations(self) -> dict[str, int]:
        """Drops by reason."""
        return dict(self._tier.drops)

    @property
    def evictions(self) -> int:
        """Every entry dropped, whatever the reason."""
        return sum(self._tier.drops.values())

    # -- snapshot codec ------------------------------------------------------------

    def encode(self, entry: CachedPlan) -> dict[str, Any]:
        return {
            **encode_bookkeeping(entry),
            "template": None if entry.template is None else encode_plan(entry.template),
            "vector": encode_vector(entry.vector),
            "params": [param.name for param in entry.params],
            "value_dependent": entry.value_dependent,
        }

    def decode(self, payload: dict[str, Any]) -> CachedPlan:
        template = payload["template"]
        return CachedPlan(
            template=None if template is None else decode_plan(template),
            vector=decode_vector(payload["vector"]),
            params=tuple(Variable(name) for name in payload["params"]),
            value_dependent=bool(payload["value_dependent"]),
            **decode_bookkeeping(payload),
        )
