"""Cost-guided plan search and the mediator's plan cache.

Covers the branch-and-bound search (`Rewriter.search`) against the
exhaustive enumerate-then-price baseline, the per-session estimator
memo, the constant-abstracted plan cache (hits skip rewriting; templates
instantiate correctly for new constants; value-dependent shapes replan),
and every invalidation path: program reload, `notify_source_changed`,
added invariants, and DCSM re-summarization.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mediator import Mediator
from repro.core.parser import parse_query
from repro.errors import PlanningError
from repro.workloads.generators import generate_star_workload, generate_workload


def _mediator_for(workload) -> Mediator:
    mediator = Mediator()
    mediator.register_domain(workload.domain)
    mediator.load_program(workload.program_text)
    return mediator


def _train_star(mediator: Mediator, workload, calls: int) -> None:
    """One observation per source function, without running the full
    (exponential) cross product."""
    domain = workload.domain.name
    for index in range(calls):
        mediator.query(
            f"?- in(O, {domain}:g{index}('s0')).", optimize=False
        )


def _pq_mediator() -> Mediator:
    """m(A, C): two chained calls whose answers depend on the constant."""
    from repro.domains.base import simple_domain

    p_table = {"a": [1, 2], "b": [3]}
    q_table = {1: ["x"], 2: ["y"], 3: ["z"]}
    d1 = simple_domain("d1", {"p": lambda a: p_table.get(a, [])})
    d2 = simple_domain("d2", {"q": lambda b: q_table.get(b, [])})
    mediator = Mediator()
    mediator.register_domain(d1)
    mediator.register_domain(d2)
    mediator.load_program("m(A, C) :- in(B, d1:p(A)) & in(C, d2:q(B)).")
    return mediator


# ---------------------------------------------------------------------------
# search vs exhaustive baseline
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    layers=st.integers(1, 2),
    width=st.integers(1, 2),
    calls_per_leaf=st.integers(1, 2),
    fanout=st.integers(1, 2),
    seed=st.integers(0, 4),
)
def test_guided_matches_exhaustive_on_generated_workloads(
    layers, width, calls_per_leaf, fanout, seed
):
    """Property: the pruned search prices its winner exactly like the
    exhaustive enumerate-then-price baseline prices its own."""
    workload = generate_workload(
        layers=layers,
        width=width,
        calls_per_leaf=calls_per_leaf,
        fanout=fanout,
        seed=seed,
    )
    mediator = _mediator_for(workload)
    for text in workload.queries:
        mediator.query(text, optimize=False)  # train the DCSM
    for text in workload.queries:
        query = parse_query(text)
        plans = mediator.rewriter.plans(query)
        winner, _ = mediator.cost_estimator.choose(plans, objective="all")
        result = mediator.rewriter.search(
            query, mediator.cost_estimator, objective="all"
        )
        if winner is None:
            assert not result.priced
        else:
            assert result.priced and result.vector is not None
            assert result.vector.t_all_ms == pytest.approx(winner.t_all_ms)


@st.composite
def _union_programs(draw):
    """2-3 alternative rules for p/1, each 1-3 calls; a call's input is
    a constant or an earlier call's output, and each function has its
    own explicit cost."""
    costs = draw(st.lists(st.integers(1, 40), min_size=4, max_size=4))
    rules = []
    for __ in range(draw(st.integers(2, 3))):
        calls = []
        for position in range(draw(st.integers(1, 3))):
            function = draw(st.integers(0, 3))
            source = draw(st.integers(-1, position - 1))
            arg = "'s'" if source < 0 else f"V{source}"
            calls.append(f"in(V{position}, d:f{function}({arg}))")
        rules.append(f"p(V0) :- {' & '.join(calls)}.")
    return costs, rules


@settings(max_examples=15, deadline=None)
@given(program=_union_programs(), objective=st.sampled_from(["all", "first"]))
def test_union_branches_match_exhaustive(program, objective):
    """Property: every rewriting gets a branch, and each branch's chosen
    cost is the minimum over that branch's (complete) enumeration."""
    from repro.domains.base import simple_domain

    costs, rules = program

    def successors(index: int, cost: int):
        return lambda x: ([f"{x}.{index}.{j}" for j in range(1 + cost % 2)], 1.0, cost)

    mediator = Mediator()
    mediator.register_domain(
        simple_domain(
            "d", {f"f{i}": successors(i, cost) for i, cost in enumerate(costs)}
        )
    )
    mediator.load_program("\n".join(rules))
    query = parse_query("?- p(X).")
    plans = mediator.rewriter.plans(query)
    assert len(plans) < mediator.rewriter_config.max_plans  # complete
    for plan in plans:
        mediator.query(query, plan=plan)  # statistics for every ordering
    by_origin: dict[str, list] = {}
    for plan in plans:
        by_origin.setdefault(plan.origin, []).append(plan)
    branches = mediator.rewriter.search_branches(
        query, mediator.cost_estimator, objective=objective
    )
    assert {branch.plan.origin for branch in branches} == set(by_origin)
    for branch in branches:
        winner, _ = mediator.cost_estimator.choose(
            by_origin[branch.plan.origin], objective=objective
        )
        assert winner is not None and branch.vector is not None
        assert (branch.vector.t_all_ms, branch.vector.t_first_ms) == pytest.approx(
            (winner.t_all_ms, winner.t_first_ms)
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_guided_matches_exhaustive_on_small_stars(seed):
    """calls! < max_plans here, so enumeration is complete and the
    winning costs must agree exactly."""
    calls = 4
    workload = generate_star_workload(calls=calls, seed=seed)
    mediator = _mediator_for(workload)
    _train_star(mediator, workload, calls)
    query = parse_query(workload.queries[0])
    winner, _ = mediator.cost_estimator.choose(
        mediator.rewriter.plans(query), objective="all"
    )
    result = mediator.rewriter.search(
        query, mediator.cost_estimator, objective="all"
    )
    assert winner is not None and result.vector is not None
    assert result.vector.t_all_ms == pytest.approx(winner.t_all_ms)
    # the independent star tail resolves in one closed-form completion
    assert result.stats.tail_completions > 0
    assert result.stats.states_expanded <= calls


def test_guided_beats_exhaustive_lookups_on_wide_star():
    """Acceptance: >= 8 source calls -> >= 5x fewer estimator lookups,
    and a winner at least as cheap as the (truncated) baseline's."""
    calls = 8
    workload = generate_star_workload(calls=calls, seed=3)
    mediator = _mediator_for(workload)
    _train_star(mediator, workload, calls)
    query = parse_query(workload.queries[0])

    plans = mediator.rewriter.plans(query)
    before = mediator.metrics.value("dcsm.estimates") + mediator.metrics.value(
        "dcsm.estimates.failed"
    )
    winner, _ = mediator.cost_estimator.choose(plans, objective="all")
    baseline_lookups = (
        mediator.metrics.value("dcsm.estimates")
        + mediator.metrics.value("dcsm.estimates.failed")
        - before
    )

    session = mediator.cost_estimator.session()
    result = mediator.rewriter.search(
        query, mediator.cost_estimator, objective="all", session=session
    )
    assert winner is not None and result.vector is not None
    assert session.lookups * 5 <= baseline_lookups
    assert result.vector.t_all_ms <= winner.t_all_ms + 1e-9
    assert result.stats.tail_completions > 0


def test_search_unpriced_falls_back_to_first_ordering():
    """No statistics at all: search returns the same plan the old path
    would have run (the first enumerated ordering), unpriced."""
    mediator = _pq_mediator()
    query = parse_query("?- m('a', C).")
    result = mediator.rewriter.search(query, mediator.cost_estimator)
    assert not result.priced
    first = mediator.rewriter.plans(query)[0]

    def call_order(plan):
        # fresh-variable names differ between rewrites; the call sequence
        # is what identifies the ordering
        return [
            (s.atom.call.domain, s.atom.call.function) for s in plan.call_steps()
        ]

    assert call_order(result.plan) == call_order(first)


def test_search_raises_when_no_ordering_exists():
    mediator = _pq_mediator()
    query = parse_query("?- in(B, d1:p(A)).")  # A can never become bound
    with pytest.raises(PlanningError):
        mediator.rewriter.search(query, mediator.cost_estimator)


def test_search_respects_interactive_objective():
    """objective='first' must order the key lexicographically by T_first."""
    calls = 4
    workload = generate_star_workload(calls=calls, seed=1)
    mediator = _mediator_for(workload)
    _train_star(mediator, workload, calls)
    query = parse_query(workload.queries[0])
    winner, _ = mediator.cost_estimator.choose(
        mediator.rewriter.plans(query), objective="first"
    )
    result = mediator.rewriter.search(
        query, mediator.cost_estimator, objective="first"
    )
    assert winner is not None and result.vector is not None
    assert result.vector.t_first_ms == pytest.approx(winner.t_first_ms)


# ---------------------------------------------------------------------------
# plan cache: hits, instantiation, value dependence
# ---------------------------------------------------------------------------


def _warm(mediator: Mediator, text: str):
    """Seed statistics, then plan once so the cache holds a priced entry."""
    mediator.query(text, optimize=False)
    return mediator.query(text)


def test_repeated_query_hits_plan_cache_and_skips_rewriting():
    mediator = _pq_mediator()
    first = _warm(mediator, "?- m('a', C).")
    assert mediator.plan_cache.hits == 0 and len(mediator.plan_cache) == 1

    def boom(*args, **kwargs):
        raise AssertionError("cache hit must not invoke the rewriter")

    mediator.rewriter.search = boom  # type: ignore[method-assign]
    dcsm_before = mediator.metrics.value("dcsm.estimates")
    second = mediator.query("?- m('a', C).")
    assert sorted(second.column("C")) == sorted(first.column("C")) == ["x", "y"]
    assert mediator.plan_cache.hits == 1
    assert mediator.metrics.value("planner.plan_cache_hits") == 1
    # pricing is skipped too: the stored vector is reused verbatim
    assert mediator.metrics.value("dcsm.estimates") == dcsm_before
    assert second.chosen_estimate is not None


def test_template_instantiates_new_constants():
    """Same shape, different constant: the cached template must be
    re-instantiated, not replayed with the old constant."""
    mediator = _pq_mediator()
    _warm(mediator, "?- m('a', C).")
    hit = mediator.query("?- m('b', C).")
    assert mediator.plan_cache.hits == 1
    assert sorted(hit.column("C")) == ["z"]
    # and the original instantiation still answers correctly afterwards
    again = mediator.query("?- m('a', C).")
    assert sorted(again.column("C")) == ["x", "y"]


def test_value_dependent_queries_replan_per_constant():
    """Rule heads that carry constants specialise the unfolding, so the
    shape is value-dependent: each constant gets its own (exact) entry."""
    from repro.domains.base import simple_domain

    table = {"pa": [1, 2], "pb": [7]}
    d1 = simple_domain("d1", {"p": lambda key: table.get(key, [])})
    mediator = Mediator()
    mediator.register_domain(d1)
    mediator.load_program(
        """
        r(a, X) :- in(X, d1:p('pa')).
        r(b, X) :- in(X, d1:p('pb')).
        """
    )
    mediator.query("?- r(a, X).", optimize=False)
    mediator.query("?- r(b, X).", optimize=False)
    first = mediator.query("?- r(a, X).")
    assert sorted(first.column("X")) == [1, 2]
    other = mediator.query("?- r(b, X).")
    assert sorted(other.column("X")) == [7]  # must NOT reuse the 'a' plan
    # whether or not the 'b' search's new observations moved the DCSM
    # version (and so dropped the 'a' entry), 'a' gets its own plan...
    replan = mediator.query("?- r(a, X).")
    assert sorted(replan.column("X")) == [1, 2]
    hits_before = mediator.plan_cache.hits
    # ...and an immediate repeat is served from the exact-key entry
    repeat = mediator.query("?- r(a, X).")
    assert sorted(repeat.column("X")) == [1, 2]
    assert mediator.plan_cache.hits == hits_before + 1


# ---------------------------------------------------------------------------
# plan cache: invalidation
# ---------------------------------------------------------------------------


def _assert_invalidated(mediator: Mediator, text: str) -> None:
    """The next identical query must miss (and replan successfully)."""
    hits_before = mediator.plan_cache.hits
    misses_before = mediator.plan_cache.misses
    result = mediator.query(text)
    assert result.cardinality >= 0
    assert mediator.plan_cache.hits == hits_before
    assert mediator.plan_cache.misses == misses_before + 1


def test_plan_cache_invalidated_by_program_reload():
    mediator = _pq_mediator()
    _warm(mediator, "?- m('a', C).")
    mediator.load_program("extra(A, B) :- in(B, d1:p(A)).")
    _assert_invalidated(mediator, "?- m('a', C).")


def test_plan_cache_invalidated_by_add_rule():
    mediator = _pq_mediator()
    _warm(mediator, "?- m('a', C).")
    mediator.add_rule("extra(A, B) :- in(B, d1:p(A)).")
    _assert_invalidated(mediator, "?- m('a', C).")


def test_plan_cache_invalidated_by_added_invariant():
    mediator = _pq_mediator()
    _warm(mediator, "?- m('a', C).")
    mediator.add_invariant("A <= B & B <= A => d1:p(A) = d1:p(B).")
    _assert_invalidated(mediator, "?- m('a', C).")


def test_plan_cache_invalidated_by_source_change():
    mediator = _pq_mediator()
    _warm(mediator, "?- m('a', C).")
    assert len(mediator.plan_cache) == 1
    mediator.notify_source_changed("d1", "p")
    assert len(mediator.plan_cache) == 0
    _assert_invalidated(mediator, "?- m('a', C).")


def test_plan_cache_survives_unrelated_source_change():
    mediator = _pq_mediator()
    _warm(mediator, "?- m('a', C).")
    mediator.notify_source_changed("elsewhere")
    mediator.query("?- m('a', C).")
    assert mediator.plan_cache.hits == 1


def test_plan_cache_invalidated_by_dcsm_summarize():
    mediator = _pq_mediator()
    _warm(mediator, "?- m('a', C).")
    mediator.dcsm.summarize()  # bumps the statistics version
    _assert_invalidated(mediator, "?- m('a', C).")


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------


def test_planner_metrics_and_stats_surface():
    mediator = _pq_mediator()
    _warm(mediator, "?- m('a', C).")
    mediator.query("?- m('a', C).")
    assert mediator.metrics.value("planner.searches") >= 1
    assert mediator.metrics.value("planner.plan_cache_hits") == 1
    assert mediator.metrics.value("planner.plan_cache_misses") >= 1
    rendered = mediator.metrics.render()
    assert "planner.plan_cache_hits" in rendered

    from repro.cli import _planner_summary

    summary = _planner_summary(mediator)
    assert "plan cache 1 hits" in summary
