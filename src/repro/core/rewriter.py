"""The rule rewriter (paper §5): from a query + mediator program to the
set of executable plans.

Three transformations, exactly the paper's list:

1. **Unfolding / selection pushdown** — IDB predicates are resolved away
   against the program's rules; unification pushes the query's constants
   into the source calls (the paper's ``p^{a,$f}`` specialisation), and
   constant-folding drops comparisons that become trivially true (or kills
   rewritings that become trivially false).
2. **Subgoal reordering under permissible adornments** — every ordering of
   the source calls where each call is ground when reached; comparisons
   are interleaved greedily as early as they can execute (filters never
   hurt; binding ``=`` assignments may enable later calls).
3. **CIM substitution** — each plan can be re-routed through the Cache and
   Invariant Manager (``Plan.with_cim``); the mediator decides per query
   or per domain.

The rewriter handles the nonrecursive fragment; the paper defers
recursion to its reference [33], and we raise
:class:`~repro.errors.RecursionNotSupportedError` for recursive programs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

from repro.core.adornment import (
    is_binding_assignment,
    step as adorn_step,
    term_is_bound,
)
from repro.core.model import (
    Comparison,
    DomainCall,
    InAtom,
    Literal,
    Predicate,
    Program,
    Query,
)
from repro.core.plans import CallStep, CompareStep, Plan, PlanStep
from repro.core.terms import Constant, Term, Variable
from repro.core.unify import (
    Substitution,
    rename_apart,
    resolve,
    unify_sequences,
)
from repro.errors import NotGroundError, PlanningError, RecursionNotSupportedError

from repro.dcsm.vectors import CostVector

if TYPE_CHECKING:
    from typing import Callable

    from repro.core.estimator import EstimatorSession, RuleCostEstimator

    #: ``search(..., subplan_probe=...)``: given a candidate prefix,
    #: return ``(replay_cost_ms, cardinality)`` when a materialized
    #: result for it is cached, else ``None``.  The mediator builds one
    #: over its SubplanResultCache (docs/CACHING.md).
    SubplanProbe = Callable[
        [tuple[PlanStep, ...]], Optional[tuple[float, float]]
    ]


@dataclass
class RewriterConfig:
    """Knobs bounding the rewriting search."""

    max_plans: int = 64  # orderings kept per query (exhaustive enumeration)
    max_expansions: int = 256  # rule-choice combinations explored
    max_depth: int = 16  # unfolding depth
    max_search_states: int = 200_000  # cost-guided search state budget
    #: magic-set-style static pre-rewrite: drop rules/literals the
    #: binding-flow analysis proves irrelevant before unfolding starts
    #: (see repro.analysis.relevance.static_filter)
    static_filter: bool = True
    #: closed-form completion of independent call tails in the guided
    #: search (Smith's-rule ranking) instead of recursive branching
    rank_tail: bool = True


# ---------------------------------------------------------------------------
# Substitution over literals
# ---------------------------------------------------------------------------


def substitute_literal(literal: Literal, subst: Substitution) -> Literal:
    if isinstance(literal, Predicate):
        return Predicate(
            literal.name, tuple(resolve(a, subst) for a in literal.args)
        )
    if isinstance(literal, InAtom):
        call = literal.call
        return InAtom(
            resolve(literal.output, subst),
            DomainCall(
                call.domain,
                call.function,
                tuple(resolve(a, subst) for a in call.args),
            ),
        )
    return Comparison(
        literal.op, resolve(literal.left, subst), resolve(literal.right, subst)
    )


# ---------------------------------------------------------------------------
# Unfolding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expansion:
    """A flattened conjunction (source calls + comparisons only) together
    with the rule choices that produced it.

    ``unified_away`` reports which of the caller's *tracked* variables the
    unfolding specialised on (unified with a rule-head constant or merged
    with another variable) — the plan-cache's value-independence test.
    """

    literals: tuple[Literal, ...]
    rules_used: tuple[str, ...]
    unified_away: frozenset[Variable] = frozenset()


@dataclass
class SearchStats:
    """What one cost-guided search actually did."""

    states_expanded: int = 0
    states_pruned_bound: int = 0  # partial cost already exceeded the best plan
    states_pruned_dominated: int = 0  # Selinger-style dominated-state hits
    estimator_lookups: int = 0  # DCSM cost() calls actually issued
    estimator_memo_hits: int = 0  # pattern lookups answered by the session memo
    tail_completions: int = 0  # independent tails completed in closed form
    rules_filtered: int = 0  # rules dropped by the static pre-rewrite
    literals_filtered: int = 0  # body literals dropped by the pre-rewrite

    @property
    def states_pruned(self) -> int:
        return self.states_pruned_bound + self.states_pruned_dominated


@dataclass
class SearchResult:
    """Outcome of :meth:`Rewriter.search`, or one union branch of
    :meth:`Rewriter.search_branches`.

    ``vector`` is ``None`` when no complete ordering could be priced (the
    DCSM had no statistics for some call on every ordering); ``plan`` is
    then the first executable ordering.
    """

    plan: Plan
    vector: "Optional[CostVector]"
    stats: SearchStats = field(default_factory=SearchStats)
    unified_away: frozenset[Variable] = frozenset()

    @property
    def priced(self) -> bool:
        return self.vector is not None


class Rewriter:
    """Plans queries over a mediator program: :meth:`search` chooses,
    :meth:`plans` lists."""

    def __init__(self, program: Program, config: Optional[RewriterConfig] = None):
        if program.is_recursive():
            raise RecursionNotSupportedError(
                "the program is recursive; this optimizer implements the "
                "paper's nonrecursive fragment"
            )
        self.program = program
        self.config = config if config is not None else RewriterConfig()
        # Static pre-rewrite (paper §5–6 via magic-set-style filtering):
        # unfold against a program stripped of provably irrelevant rules
        # and redundant comparisons.  Only data-independent facts are
        # used, so every query's answers are unchanged; the rules the
        # MED130 dead-rule and feasibility analyses reject never enter
        # branch-and-bound at all.
        self.rules_filtered = 0
        self.literals_filtered = 0
        self._search_program = program
        if self.config.static_filter:
            # function-level import: repro.analysis depends on repro.core
            from repro.analysis.relevance import static_filter

            filtered = static_filter(program)
            if filtered.changed:
                self._search_program = filtered.program
                self.rules_filtered = filtered.rules_filtered
                self.literals_filtered = filtered.literals_filtered

    # -- public API ----------------------------------------------------------

    def plans(
        self,
        query: Query,
        bound_vars: frozenset[Variable] = frozenset(),
        avoid_domains: frozenset[str] = frozenset(),
    ) -> tuple[Plan, ...]:
        """All executable plans for ``query`` (deduplicated, bounded).

        ``bound_vars`` may pre-bind query variables (parameterised
        queries).  ``avoid_domains`` drops every rewriting that calls
        into one of the named domains — the mid-query repair path's
        "re-plan around the sick source" constraint; alternative rules
        reachable without those domains survive.  Raises
        :class:`PlanningError` when no executable ordering exists.
        """
        expansions = self._expansions(query, frozenset(), avoid_domains)
        plans: list[Plan] = []
        seen: set[tuple] = set()
        for expansion in expansions:
            for plan in self._orderings(expansion, query.answer_vars, bound_vars):
                key = plan.signature()
                if key in seen:
                    continue
                seen.add(key)
                plans.append(plan)
                if len(plans) >= self.config.max_plans:
                    return tuple(plans)
        if not plans:
            raise _no_ordering(query)
        return tuple(plans)

    def search(
        self,
        query: Query,
        estimator: "Optional[RuleCostEstimator]",
        objective: str = "all",
        bound_vars: frozenset[Variable] = frozenset(),
        track_vars: frozenset[Variable] = frozenset(),
        session: "Optional[EstimatorSession]" = None,
        const_subst: Optional[Substitution] = None,
        avoid_domains: frozenset[str] = frozenset(),
        subplan_probe: "Optional[SubplanProbe]" = None,
    ) -> SearchResult:
        """Cost-guided branch-and-bound ordering search.

        Instead of enumerating every permissible ordering and pricing the
        complete plans afterwards (:meth:`plans` + estimator ``choose``),
        the ordering recursion carries the running partial cost.  The
        pipelined nested-loop formulas are monotone in the prefix — every
        added step can only increase ``T_all`` and ``T_first`` — so the
        partial cost is an admissible lower bound, and any prefix whose
        bound already reaches the best complete plan is discarded.  States
        that place the same call set with the same bound variables are
        memoized Selinger-style: a state dominated on all of
        ``(T_all, T_first, Card)`` by an earlier sibling cannot lead to a
        strictly better completion.

        ``track_vars`` are variables the caller wants value-independence
        information for (the plan cache's abstracted constants); the union
        of the expansions' ``unified_away`` sets is reported on the result.

        Returns the cheapest priceable plan under ``objective`` (``"all"``
        → lexicographic ``(T_all, T_first)``, ``"first"`` → the reverse).
        When no complete ordering can be priced — the DCSM lacks
        statistics for some call on every ordering, or ``estimator`` is
        ``None`` (the mediator's ``optimize=False``) — falls back to the
        first executable ordering, unpriced.  Raises
        :class:`PlanningError` when no executable ordering exists at all.
        """
        expansions = self._expansions(query, track_vars, avoid_domains)
        [result] = self._search(
            query, estimator, objective, bound_vars, session, const_subst,
            subplan_probe, [expansions],
        )
        return result

    def search_branches(
        self,
        query: Query,
        estimator: "Optional[RuleCostEstimator]",
        objective: str = "all",
        bound_vars: frozenset[Variable] = frozenset(),
        session: "Optional[EstimatorSession]" = None,
        subplan_probe: "Optional[SubplanProbe]" = None,
    ) -> tuple[SearchResult, ...]:
        """:meth:`search` with one incumbent per rewriting instead of one
        for the query (union semantics): every rule-choice combination
        yields its own cheapest ordering, however many orderings each
        has.  A rewriting with no executable ordering yields no branch.
        The state budget spans the union; branches past it fall back to
        their first ordering.  Every result shares one ``stats``."""
        expansions = self._expansions(query)
        return tuple(
            self._search(
                query, estimator, objective, bound_vars, session, None,
                subplan_probe, [[expansion] for expansion in expansions],
            )
        )

    def _search(
        self,
        query: Query,
        estimator: "Optional[RuleCostEstimator]",
        objective: str,
        bound_vars: frozenset[Variable],
        session: "Optional[EstimatorSession]",
        const_subst: Optional[Substitution],
        subplan_probe: "Optional[SubplanProbe]",
        groups: list[list[Expansion]],
    ) -> list[SearchResult]:
        """Branch-and-bound with one incumbent per group of expansions;
        one result per group that has an executable ordering."""
        stats = SearchStats(
            rules_filtered=self.rules_filtered,
            literals_filtered=self.literals_filtered,
        )
        sess = session
        if sess is None and estimator is not None:
            sess = estimator.session()
        exhausted = False
        results: list[SearchResult] = []
        best_plan: Optional[Plan] = None
        best_vector: Optional[CostVector] = None
        best_key: Optional[tuple[float, float]] = None

        def make_key(t_all: float, t_first: float) -> tuple[float, float]:
            if objective == "first":
                return (t_first, t_all)
            return (t_all, t_first)

        def improve(
            key: tuple[float, float],
            steps: list[PlanStep],
            origin: str,
            t_first: float,
            t_all: float,
            card: float,
        ) -> None:
            nonlocal best_plan, best_vector, best_key
            # strict <: ties keep the first-found plan, matching min()
            # over enumeration order
            if best_key is None or key < best_key:
                best_plan = Plan(steps=tuple(steps), answer_vars=query.answer_vars, origin=origin)
                best_vector = CostVector(t_first_ms=t_first, t_all_ms=t_all, cardinality=card)
                best_key = key

        def run(
            expansion: Expansion,
            estimator: "RuleCostEstimator",
            sess: "EstimatorSession",
        ) -> None:
            """The descent over one expansion's orderings."""

            def price(
                atom: InAtom, bound: frozenset[Variable]
            ) -> Optional[tuple[float, float, float]]:
                """``(t_all, t_first, fanout)`` of calling ``atom`` with
                ``bound`` variables, or ``None`` when it is unpriceable."""
                pattern = estimator.pattern_for(CallStep(atom), bound, const_subst)
                vector = sess.cost(pattern)
                if vector is None:
                    return None
                step_t_all = vector.t_all_ms
                fanout = vector.cardinality
                assert step_t_all is not None and fanout is not None
                if vector.t_first_ms is not None:
                    step_t_first = vector.t_first_ms
                else:
                    step_t_first = step_t_all
                if estimator.membership_cap and term_is_bound(atom.output, bound):
                    fanout = min(fanout, 1.0)
                return step_t_all, step_t_first, fanout

            calls = [lit for lit in expansion.literals if isinstance(lit, InAtom)]
            binders0, filters0 = self._partition_comparisons(
                [lit for lit in expansion.literals if isinstance(lit, Comparison)]
            )
            origin = "; ".join(expansion.rules_used)
            # Selinger memo: (placed call set, bound vars) → Pareto frontier
            # of (t_all, t_first, card) triples that reached the state.
            frontier: dict[
                tuple[frozenset[int], frozenset[Variable]], list[tuple[float, float, float]]
            ] = {}

            def descend(
                remaining: list[int],
                placed: frozenset[int],
                steps: list[PlanStep],
                bound: frozenset[Variable],
                binders: list[Comparison],
                filters: list[Comparison],
                t_first: float,
                t_all: float,
                card: float,
            ) -> None:
                nonlocal exhausted
                if exhausted:
                    return
                stats.states_expanded += 1
                if stats.states_expanded > self.config.max_search_states:
                    exhausted = True
                    return
                placed_from = len(steps)
                try:
                    bound_after, binders, filters = self._place_comparisons(
                        steps, bound, binders, filters
                    )
                    # replay the placed comparisons for selectivity
                    # accounting, exactly as RuleCostEstimator.estimate does
                    here = bound
                    for step in steps[placed_from:]:
                        assert isinstance(step, CompareStep)
                        if not is_binding_assignment(step.comparison, here):
                            card *= estimator.comparison_selectivity
                        after_cmp = adorn_step(step.comparison, here)
                        assert after_cmp is not None
                        here = after_cmp
                    bound = bound_after
                    if subplan_probe is not None and steps:
                        # a cached materialization of this exact prefix
                        # replays at memo cost: discount the partial cost
                        # (never raise it), which keeps the running bound
                        # admissible — the true cost of executing this
                        # prefix is at most the discounted value
                        probed = subplan_probe(tuple(steps))
                        if probed is not None:
                            replay_ms, cached_card = probed
                            if replay_ms < t_all:
                                t_all = replay_ms
                                t_first = min(t_first, replay_ms)
                                card = cached_card
                    key = make_key(t_all, t_first)
                    if best_key is not None and key >= best_key:
                        stats.states_pruned_bound += 1
                        return
                    state = (placed, bound)
                    triple = (t_all, t_first, card)
                    known = frontier.get(state)
                    if known is not None:
                        if any(
                            k[0] <= t_all and k[1] <= t_first and k[2] <= card
                            for k in known
                        ):
                            stats.states_pruned_dominated += 1
                            return
                        frontier[state] = [
                            k
                            for k in known
                            if not (
                                t_all <= k[0]
                                and t_first <= k[1]
                                and card <= k[2]
                            )
                        ] + [triple]
                    else:
                        frontier[state] = [triple]
                    if not remaining:
                        if binders or filters:
                            return  # a comparison never became evaluable
                        improve(key, steps, origin, t_first, t_all, card)
                        return
                    # Rank-tail completion: once no comparisons are pending
                    # and the remaining calls are pairwise independent
                    # (each executable right now, no shared unbound
                    # variables), every ordering of the tail has the same
                    # T_first and the same final cardinality, and T_all is
                    # minimized by ranking ascending on (fanout−1)/t_all
                    # (adjacent-interchange / Smith's rule).  The whole
                    # subtree — k! orderings — resolves in one closed-form
                    # step.
                    if self.config.rank_tail and not binders and not filters:
                        tail: list[tuple[InAtom, float, float, float]] = []
                        fresh_seen: set[Variable] = set()
                        independent = True
                        for index in remaining:
                            atom = calls[index]
                            if adorn_step(atom, bound) is None:
                                independent = False
                                break
                            fresh = set(atom.variables()) - bound
                            if fresh & fresh_seen:
                                independent = False
                                break
                            fresh_seen |= fresh
                        if independent:
                            for index in remaining:
                                atom = calls[index]
                                priced = price(atom, bound)
                                if priced is None:
                                    # every ordering of this subtree runs
                                    # the unpriceable call: nothing here
                                    # can be priced, prune the subtree
                                    return
                                tail.append((atom, *priced))
                            tail.sort(key=lambda e: _rank_ratio(e[3], e[1]))
                            for atom, step_t_all, step_t_first, fanout in tail:
                                steps.append(CallStep(atom))
                                t_first += step_t_first
                                t_all += card * step_t_all
                                card *= fanout
                            stats.tail_completions += 1
                            improve(make_key(t_all, t_first), steps, origin, t_first, t_all, card)
                            return
                    for i, index in enumerate(remaining):
                        atom = calls[index]
                        after = adorn_step(atom, bound)
                        if after is None:
                            continue
                        priced = price(atom, bound)
                        if priced is None:
                            # unpriceable call: no ordering through it can
                            # be priced — skip the branch
                            continue
                        step_t_all, step_t_first, fanout = priced
                        steps.append(CallStep(atom))
                        descend(
                            remaining[:i] + remaining[i + 1 :],
                            placed | {index},
                            steps,
                            after,
                            binders,
                            filters,
                            t_first + step_t_first,
                            t_all + card * step_t_all,
                            card * fanout,
                        )
                        steps.pop()
                finally:
                    del steps[placed_from:]

            try:
                descend(
                    list(range(len(calls))),
                    frozenset(),
                    [],
                    bound_vars,
                    binders0,
                    filters0,
                    0.0,
                    0.0,
                    1.0,
                )
            finally:
                # descend reaches itself through its closure cell; emptying
                # the cell breaks that cycle, so the closure (and the
                # estimator, session and probe it holds) frees by
                # reference counting, not at the next full collection
                del descend

        for group in groups:
            best_plan = best_vector = best_key = None
            for expansion in group:
                if estimator is None or sess is None or exhausted:
                    break
                run(expansion, estimator, sess)
            plan = best_plan
            if plan is None:  # nothing priceable: the first executable ordering
                orderings = (
                    ordering
                    for expansion in group
                    for ordering in self._orderings(
                        expansion, query.answer_vars, bound_vars
                    )
                )
                plan = next(orderings, None)
            if plan is not None:
                unified = frozenset().union(*(e.unified_away for e in group))
                results.append(SearchResult(plan, best_vector, stats, unified))
        if sess is not None:
            stats.estimator_lookups = sess.lookups
            stats.estimator_memo_hits = sess.memo_hits
        if not results:
            raise _no_ordering(query)
        return results

    def _expansions(
        self,
        query: Query,
        track_vars: frozenset[Variable] = frozenset(),
        avoid_domains: frozenset[str] = frozenset(),
    ) -> list[Expansion]:
        expansions = _without_avoided(
            self._expand(query, track_vars), avoid_domains, query
        )
        if not expansions:
            raise PlanningError(
                f"every rewriting of the query is unsatisfiable: {query}"
            )
        return expansions

    # -- unfolding --------------------------------------------------------------

    def _expand(
        self, query: Query, track_vars: frozenset[Variable] = frozenset()
    ) -> list[Expansion]:
        expansions: list[Expansion] = []
        budget = [self.config.max_expansions]

        def recurse(
            goals: tuple[Literal, ...],
            subst: dict[Variable, Term],
            rules_used: tuple[str, ...],
            depth: int,
        ) -> None:
            if budget[0] <= 0:
                return
            if depth > self.config.max_depth:
                return
            # find the first IDB predicate to unfold
            for index, literal in enumerate(goals):
                if isinstance(literal, Predicate):
                    resolved = substitute_literal(literal, subst)
                    assert isinstance(resolved, Predicate)
                    rules = self._search_program.rules_for(
                        resolved.name, resolved.arity
                    )
                    if not rules:
                        if self.program.defines(resolved.name, resolved.arity):
                            # every defining rule was statically filtered:
                            # this branch of the rewriting is dead
                            return
                        raise PlanningError(
                            f"predicate {resolved.name}/{resolved.arity} has no "
                            f"defining rules and is not a domain call"
                        )
                    for rule in rules:
                        renaming = rename_apart(rule.variables())
                        head = substitute_literal(rule.head, renaming)
                        assert isinstance(head, Predicate)
                        unified = unify_sequences(
                            head.args, resolved.args, subst
                        )
                        if unified is None:
                            continue
                        body = tuple(
                            substitute_literal(lit, renaming) for lit in rule.body
                        )
                        new_goals = goals[:index] + body + goals[index + 1 :]
                        recurse(
                            new_goals,
                            unified,
                            # full rule text: distinct alternative rules must
                            # yield distinct plan origins (union branches)
                            rules_used + (str(rule),),
                            depth + 1,
                        )
                    return
            # no IDB predicates left: ground out and simplify
            budget[0] -= 1
            literals = tuple(substitute_literal(lit, subst) for lit in goals)
            # a query answer variable may have been unified away to a
            # representative term; re-introduce it with a binding equality
            # so execution can project it
            extras: list[Literal] = []
            for var in query.answer_vars:
                representative = resolve(var, subst)
                if representative != var:
                    extras.append(Comparison("=", var, representative))
            simplified = _simplify(literals + tuple(extras))
            if simplified is not None:
                unified_away = frozenset(
                    v for v in track_vars if resolve(v, subst) != v
                )
                expansions.append(
                    Expansion(simplified, rules_used, unified_away)
                )

        try:
            recurse(tuple(query.goals), {}, (), 0)
        finally:
            del recurse  # a self-referencing closure: see search()
        return expansions

    # -- comparison placement (shared by enumeration and guided search) --------

    @staticmethod
    def _partition_comparisons(
        comparisons: list[Comparison],
    ) -> tuple[list[Comparison], list[Comparison]]:
        """Split comparisons into *potential binders* (an ``=``/``==`` with
        a bare-variable side — the only shape that can ever bind) and pure
        filters, **once per expansion** instead of re-sorting the pending
        list on every fixpoint round."""
        binders: list[Comparison] = []
        filters: list[Comparison] = []
        for comparison in comparisons:
            if comparison.op in ("=", "==") and (
                isinstance(comparison.left, Variable)
                or isinstance(comparison.right, Variable)
            ):
                binders.append(comparison)
            else:
                filters.append(comparison)
        return binders, filters

    @staticmethod
    def _place_comparisons(
        steps: list[PlanStep],
        bound: frozenset[Variable],
        binders: list[Comparison],
        filters: list[Comparison],
    ) -> tuple[frozenset[Variable], list[Comparison], list[Comparison]]:
        """Greedily append every comparison that can already execute.

        Potential binders are tried before filters on each round so a
        ``=`` that makes a filter evaluable runs first.  The two groups
        arrive pre-partitioned; no per-round sorting.
        """
        binders = list(binders)
        filters = list(filters)
        progress = True
        while progress:
            progress = False
            for group in (binders, filters):
                for comparison in list(group):
                    after = adorn_step(comparison, bound)
                    if after is not None:
                        steps.append(CompareStep(comparison))
                        bound = after
                        group.remove(comparison)
                        progress = True
        return bound, binders, filters

    # -- ordering enumeration ------------------------------------------------------

    def _orderings(
        self,
        expansion: Expansion,
        answer_vars: tuple[Variable, ...],
        bound_vars: frozenset[Variable],
    ) -> Iterator[Plan]:
        calls = [lit for lit in expansion.literals if isinstance(lit, InAtom)]
        all_binders, all_filters = self._partition_comparisons(
            [lit for lit in expansion.literals if isinstance(lit, Comparison)]
        )

        emitted = 0

        def recurse(
            remaining_calls: list[InAtom],
            steps: list[PlanStep],
            bound: frozenset[Variable],
            binders: list[Comparison],
            filters: list[Comparison],
        ) -> Iterator[Plan]:
            nonlocal emitted
            if emitted >= self.config.max_plans:
                return
            bound, binders, filters = self._place_comparisons(
                steps, bound, binders, filters
            )
            if not remaining_calls:
                if binders or filters:
                    return  # some comparison never became evaluable
                yield Plan(
                    steps=tuple(steps),
                    answer_vars=answer_vars,
                    origin="; ".join(expansion.rules_used),
                )
                emitted += 1
                return
            for i, atom in enumerate(remaining_calls):
                after = adorn_step(atom, bound)
                if after is None:
                    continue
                next_steps = steps + [CallStep(atom)]
                rest = remaining_calls[:i] + remaining_calls[i + 1 :]
                yield from recurse(
                    rest, next_steps, after, list(binders), list(filters)
                )

        try:
            yield from recurse(calls, [], bound_vars, all_binders, all_filters)
        finally:
            del recurse  # a self-referencing closure: see search()


def _no_ordering(query: Query) -> PlanningError:
    return PlanningError(
        f"no executable subgoal ordering exists for: {query} "
        f"(a domain call's inputs can never all be bound)"
    )


def _without_avoided(
    expansions: list[Expansion],
    avoid_domains: frozenset[str],
    query: Query,
) -> list[Expansion]:
    """Drop rewritings that dial into an avoided domain.

    The repair loop uses this to steer re-planning away from sources the
    health subsystem just watched fail: a union branch or an
    equality-invariant substitute rule that reaches the data through a
    different domain survives; a rewriting with no alternative dies, and
    if *every* rewriting dies the caller gets :class:`PlanningError` and
    falls back to CIM/stale answers or an annotated partial result.
    """
    if not avoid_domains:
        return expansions
    kept = [
        expansion
        for expansion in expansions
        if not any(
            isinstance(lit, InAtom) and lit.call.domain in avoid_domains
            for lit in expansion.literals
        )
    ]
    if not kept and expansions:
        raise PlanningError(
            f"every rewriting of {query} requires an avoided domain "
            f"({', '.join(sorted(avoid_domains))})"
        )
    return kept


def _rank_ratio(fanout: float, t_all_ms: float) -> float:
    """Smith's-rule rank of an independent tail call.

    For calls whose executability and pattern do not depend on order,
    placing A before B is no worse iff
    ``t_A + f_A·t_B ≤ t_B + f_B·t_A`` ⟺ ``(f_A−1)/t_A ≤ (f_B−1)/t_B``,
    so sorting ascending on this ratio minimizes the pipelined T_all.
    Zero-cost calls sort by the sign of their fanout growth alone.
    """
    if t_all_ms > 0:
        return (fanout - 1.0) / t_all_ms
    if fanout > 1.0:
        return math.inf
    if fanout < 1.0:
        return -math.inf
    return 0.0


def _simplify(literals: tuple[Literal, ...]) -> Optional[tuple[Literal, ...]]:
    """Constant-fold ground comparisons.  Returns ``None`` when the
    conjunction is unsatisfiable (a ground comparison is false)."""
    out: list[Literal] = []
    for literal in literals:
        if isinstance(literal, Comparison):
            if isinstance(literal.left, Constant) and isinstance(
                literal.right, Constant
            ):
                try:
                    if literal.evaluate({}):
                        continue  # trivially true: drop
                    return None  # trivially false: dead rewriting
                except (TypeError, NotGroundError):
                    return None
        out.append(literal)
    return tuple(out)
