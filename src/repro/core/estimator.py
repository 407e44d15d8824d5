"""The rule cost estimator (paper §7): price a plan from per-call DCSM
estimates.

For a plan ``g₁, …, gₖ`` executed as pipelined nested loops left to right
with no duplicate elimination, the paper's formulas give

* ``T_all  = Σᵢ T_allᵢ · Πⱼ<ᵢ Cardⱼ``  (each prefix answer re-issues gᵢ),
* ``T_first = Σᵢ T_firstᵢ``            (one first answer per level),
* ``Card  = Πᵢ Cardᵢ``.

Deviations, both documented and switchable:

* a domain call whose *output is already bound* is a membership test; its
  fanout is capped at 1 (``membership_cap``), which only sharpens the
  estimate;
* filter comparisons multiply cardinality by ``comparison_selectivity``
  (default 1.0 = the paper's behaviour of ignoring conditions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.adornment import is_binding_assignment, step as adorn_step, term_is_bound
from repro.core.terms import Constant
from repro.core.plans import CallStep, Plan, PlanStep
from repro.core.terms import Variable
from repro.core.unify import Substitution, resolve
from repro.dcsm.module import DCSM
from repro.dcsm.patterns import BOUND, CallPattern
from repro.dcsm.vectors import CostVector
from repro.errors import EstimationError


@dataclass(frozen=True, slots=True)
class StepEstimate:
    """Estimate of a single plan step in context."""

    step: PlanStep
    pattern: Optional[CallPattern]  # None for comparisons
    vector: Optional[CostVector]
    invocations: float  # expected times this step runs (prefix cardinality)


@dataclass(frozen=True, slots=True)
class PlanEstimate:
    """A priced plan."""

    plan: Plan
    vector: CostVector
    steps: tuple[StepEstimate, ...]

    @property
    def t_first_ms(self) -> float:
        return self.vector.t_first_ms or 0.0

    @property
    def t_all_ms(self) -> float:
        return self.vector.t_all_ms or 0.0

    @property
    def cardinality(self) -> float:
        return self.vector.cardinality or 0.0


class EstimatorSession:
    """A per-planning-session memo of ``CallPattern → CostVector``.

    During one plan search the same call pattern recurs across sibling
    orderings (the pattern depends only on which arguments are constants,
    not on the ordering prefix), so the DCSM lookup — summary-table walk,
    relaxation lattice, metrics — is paid once per *distinct* pattern.  A
    pattern the DCSM cannot price memoizes as ``None`` so the failure is
    not retried either.
    """

    __slots__ = ("estimator", "_memo", "lookups", "memo_hits")

    def __init__(self, estimator: "RuleCostEstimator"):
        self.estimator = estimator
        self._memo: dict[CallPattern, Optional[CostVector]] = {}
        self.lookups = 0  # DCSM lookups actually issued (memo misses)
        self.memo_hits = 0

    def cost(self, pattern: CallPattern) -> Optional[CostVector]:
        """The DCSM cost vector for ``pattern``, or ``None`` when the
        statistics cache cannot price it (missing t_all or cardinality)."""
        if pattern in self._memo:
            self.memo_hits += 1
            return self._memo[pattern]
        self.lookups += 1
        vector: Optional[CostVector]
        try:
            vector = self.estimator.dcsm.cost(pattern)
        except EstimationError:
            vector = None
        if vector is not None and (
            vector.t_all_ms is None or vector.cardinality is None
        ):
            vector = None
        self._memo[pattern] = vector
        return vector


class RuleCostEstimator:
    """Combines DCSM call estimates bottom-up over a plan."""

    def __init__(
        self,
        dcsm: DCSM,
        comparison_selectivity: float = 1.0,
        membership_cap: bool = True,
    ):
        self.dcsm = dcsm
        self.comparison_selectivity = comparison_selectivity
        self.membership_cap = membership_cap

    def session(self) -> EstimatorSession:
        """A fresh memoizing session for one planning episode."""
        return EstimatorSession(self)

    def pattern_for(
        self,
        step: CallStep,
        bound: frozenset[Variable],
        subst: Optional[Substitution] = None,
    ) -> CallPattern:
        """The DCSM call pattern of a plan step: constants stay constants,
        everything bound-but-unknown becomes ``$b``.

        ``subst`` resolves variables first — the plan cache plans over
        parameter variables standing in for the query's constants, and
        resolving them here keeps the pattern (and hence the price) as
        sharp as planning the concrete query would be."""
        args = []
        for arg in step.atom.call.args:
            if subst is not None:
                arg = resolve(arg, subst)
            if isinstance(arg, Constant):
                args.append(arg.value)
            else:
                args.append(BOUND)
        return CallPattern(
            step.atom.call.domain, step.atom.call.function, tuple(args)
        )

    def estimate(
        self,
        plan: Plan,
        bound_vars: frozenset[Variable] = frozenset(),
        session: Optional[EstimatorSession] = None,
    ) -> PlanEstimate:
        """Price ``plan``; raises EstimationError when DCSM has no usable
        statistics for some call.  ``session`` answers pattern lookups
        from its memo (the cost-guided search shares its session so the
        winner's step-by-step estimate costs no extra DCSM work)."""
        bound = bound_vars
        t_first_total = 0.0
        t_all_total = 0.0
        prefix_card = 1.0
        step_estimates: list[StepEstimate] = []
        for step in plan.steps:
            if isinstance(step, CallStep):
                pattern = self.pattern_for(step, bound)
                if session is not None:
                    maybe = session.cost(pattern)
                    if maybe is None:
                        raise EstimationError(
                            f"DCSM has no usable statistics for {pattern}"
                        )
                    vector = maybe
                else:
                    vector = self.dcsm.cost(pattern)
                if vector.t_all_ms is None or vector.cardinality is None:
                    raise EstimationError(
                        f"DCSM returned incomplete vector {vector} for {pattern}"
                    )
                t_first = vector.t_first_ms if vector.t_first_ms is not None else vector.t_all_ms
                step_estimates.append(
                    StepEstimate(step, pattern, vector, prefix_card)
                )
                t_all_total += prefix_card * vector.t_all_ms
                t_first_total += t_first
                fanout = vector.cardinality
                if self.membership_cap and term_is_bound(step.atom.output, bound):
                    fanout = min(fanout, 1.0)
                prefix_card *= fanout
                after = adorn_step(step.atom, bound)
            else:
                comparison = step.comparison
                if not is_binding_assignment(comparison, bound):
                    prefix_card *= self.comparison_selectivity
                step_estimates.append(StepEstimate(step, None, None, prefix_card))
                after = adorn_step(comparison, bound)
            if after is None:
                raise EstimationError(
                    f"plan step {step} is not executable at estimation time — "
                    f"the plan is malformed"
                )
            bound = after
        vector = CostVector(
            t_first_ms=t_first_total,
            t_all_ms=t_all_total,
            cardinality=prefix_card,
        )
        return PlanEstimate(plan=plan, vector=vector, steps=tuple(step_estimates))

    def try_estimate(
        self,
        plan: Plan,
        bound_vars: frozenset[Variable] = frozenset(),
        session: Optional[EstimatorSession] = None,
    ) -> Optional[PlanEstimate]:
        """:meth:`estimate`, or ``None`` when the DCSM cannot price it."""
        try:
            return self.estimate(plan, bound_vars, session)
        except EstimationError:
            return None

    def choose(
        self,
        plans: "tuple[Plan, ...] | list[Plan]",
        objective: str = "all",
        bound_vars: frozenset[Variable] = frozenset(),
    ) -> tuple[Optional[PlanEstimate], tuple[Optional[PlanEstimate], ...]]:
        """Estimate every plan and pick the best by ``objective``
        (``"all"`` → T_all, ``"first"`` → T_first).

        Returns ``(winner_or_None, per_plan_estimates)`` where a plan that
        could not be estimated contributes ``None``.  This prices an
        enumerated list (experiments, baselines, test oracles); the
        mediator itself chooses through ``Rewriter.search``.
        """
        estimates = [self.try_estimate(plan, bound_vars) for plan in plans]
        scored = [e for e in estimates if e is not None]
        if not scored:
            return None, tuple(estimates)
        if objective == "first":
            winner = min(scored, key=lambda e: (e.t_first_ms, e.t_all_ms))
        else:
            winner = min(scored, key=lambda e: (e.t_all_ms, e.t_first_ms))
        return winner, tuple(estimates)
