"""EXPLAIN for mediator queries: show the candidate plans, their
adornments, and the DCSM's pricing — without executing anything.

The paper's optimizer picks silently; a production library should show
its working.  :func:`explain` renders the orderings the rewriter
enumerates, the cost vectors the rule cost estimator assigns them (or
why it could not), and marks the plan :meth:`Mediator.query` would run —
taken from the mediator's own chooser, so the mark is never a plan that
does not run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.estimator import PlanEstimate
from repro.core.model import Query
from repro.core.subplan import canonicalize_prefix

if TYPE_CHECKING:
    from repro.core.answers import QueryResult
    from repro.core.mediator import CimRouting, Mediator
    from repro.core.plans import Plan


def explain(
    mediator: "Mediator",
    query: "str | Query",
    use_cim: "CimRouting" = None,
    objective: str = "all",
) -> str:
    """A human-readable plan report for ``query``.

    ``objective`` is ``"all"`` or ``"first"`` — which time the optimizer
    minimises (matching the all-answers / interactive modes).  When the
    chosen plan is not among the enumerated candidates (enumeration stops
    at ``RewriterConfig.max_plans``), it is listed as an extra entry.
    """
    from repro.core.parser import parse_query

    if isinstance(query, str):
        query = parse_query(query)
    plans = mediator.plans(query, use_cim=use_cim)
    chosen, chosen_estimate = mediator.choose_plan(
        query, objective=objective, use_cim=use_cim
    )
    entries = [(plan, mediator.cost_estimator.try_estimate(plan)) for plan in plans]
    shapes = [_shape(plan) for plan in plans]
    if _shape(chosen) not in shapes:
        entries.append((chosen, chosen_estimate))
        shapes.append(_shape(chosen))
    # an unpriced plan is not chosen on cost: no mark
    chosen_index = shapes.index(_shape(chosen)) if chosen_estimate is not None else None

    lines = [f"EXPLAIN {query}"]
    lines.append(
        f"{len(plans)} candidate plan(s); objective: "
        f"{'time to all answers' if objective == 'all' else 'time to first answer'}"
    )
    for index, (plan, estimate) in enumerate(entries):
        marker = " <== chosen" if index == chosen_index else ""
        if index == len(plans):
            marker += " (found by search beyond the enumerated candidates)"
        lines.append("")
        lines.append(f"Plan {index + 1}{marker}")
        if plan.origin:
            lines.append(f"  rules: {plan.origin}")
        lines.append(f"  adornments: {', '.join(plan.adornments()) or '(no calls)'}")
        for step in plan.steps:
            lines.append(f"    {step}")
        lines.append(f"  {_render_estimate(estimate)}")
    if chosen_estimate is None:
        lines.append("")
        lines.append(
            "no plan could be priced (statistics cache is empty for these "
            "calls); the first plan would run and seed the statistics"
        )
    return "\n".join(lines)


def _shape(plan: "Plan") -> tuple[str, str]:
    """Identity of a plan up to variable naming: each planning run
    renames rule variables apart afresh."""
    return plan.origin, canonicalize_prefix(plan.steps).key


def _render_estimate(estimate: Optional[PlanEstimate]) -> str:
    if estimate is None:
        return "estimate: unavailable (no statistics for some call)"
    parts = [f"estimate: {estimate.vector}"]
    for step_estimate in estimate.steps:
        if step_estimate.pattern is not None:
            parts.append(
                f"    cost({step_estimate.pattern}) = {step_estimate.vector} "
                f"x{step_estimate.invocations:.1f} invocations"
            )
    return "\n  ".join(parts)


def explain_last_execution(result: "QueryResult") -> str:
    """Post-mortem of an executed QueryResult: predicted vs measured."""
    lines = [f"EXECUTED {result.query}"]
    lines.append(f"plan: {result.chosen}")
    comparison = result.predicted_vs_actual()
    predicted_first, actual_first = comparison["t_first_ms"]
    predicted_all, actual_all = comparison["t_all_ms"]

    def fmt(value: Optional[float]) -> str:
        return "n/a" if value is None else f"{value:.1f}ms"

    lines.append(
        f"T_first: predicted {fmt(predicted_first)}, measured {fmt(actual_first)}"
    )
    lines.append(
        f"T_all:   predicted {fmt(predicted_all)}, measured {fmt(actual_all)}"
    )
    lines.append(
        f"{result.cardinality} answers"
        + ("" if result.complete else " (incomplete)")
        + f"; {result.execution.calls} source call(s); "
        f"provenance {dict(result.execution.provenance) or '{}'}"
    )
    lines.append(
        f"resilience: {result.execution.retries} retries, "
        f"{result.execution.degraded_calls} degraded call(s), "
        f"{result.execution.hedged_calls} hedged call(s)"
    )
    if result.completeness is not None and result.completeness.status != "complete":
        lines.append(f"completeness: {result.completeness}")
    return "\n".join(lines)
