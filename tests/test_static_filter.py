"""The planner's static pre-rewrite (repro.analysis.relevance).

Covers the answer-preservation property the magic-set-style filter must
satisfy — filtered and unfiltered mediators compute identical answer
multisets over generated workloads, on the sequential and the parallel
engine, with the independent plan verifier as oracle — plus the targeted
facts: dead/infeasible rules leave the search space (not just the lint
report), redundant comparisons are dropped, a fully-filtered predicate
fails planning cleanly, and the plan-cache fingerprint separates
filtered from unfiltered plan templates.
"""

from __future__ import annotations

import dataclasses
import os
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import static_filter
from repro.analysis.verifier import verify_plan
from repro.core.mediator import Mediator
from repro.core.parser import parse_program, parse_query
from repro.core.rewriter import RewriterConfig
from repro.domains.base import simple_domain
from repro.errors import PlanningError
from repro.workloads.generators import generate_star_workload, generate_workload


#: CI's concurrency-stress job oversubscribes the pool-strategy cases
#: (REPRO_STRESS_JOBS=16), like tests/test_runtime.py
_STRESS_JOBS = int(os.environ.get("REPRO_STRESS_JOBS", "0"))


def _mediator_for(workload, enable_filter: bool, jobs: int = 1) -> Mediator:
    if _STRESS_JOBS and jobs > 1:
        jobs = _STRESS_JOBS
    config = RewriterConfig(static_filter=enable_filter)
    mediator = Mediator(rewriter_config=config)
    mediator.register_domain(workload.domain)
    mediator.load_program(workload.program_text)
    if jobs > 1:
        mediator.set_jobs(jobs)
    return mediator


def _answers(mediator: Mediator, text: str) -> Counter:
    result = mediator.query(text)
    # oracle: whatever the (possibly pre-rewritten) planner chose must
    # still be an executable, fully-binding plan
    assert verify_plan(result.chosen, registry=mediator.registry) == ()
    return Counter(result.answers)


# ---------------------------------------------------------------------------
# Answer-multiset parity (the rewrite-correctness property)
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    layers=st.integers(1, 2),
    width=st.integers(1, 2),
    calls_per_leaf=st.integers(1, 2),
    fanout=st.integers(1, 2),
    seed=st.integers(0, 3),
    jobs=st.sampled_from([1, 4]),
)
def test_chain_workload_answer_parity(
    layers, width, calls_per_leaf, fanout, seed, jobs
):
    """Filtered ≡ unfiltered answer multisets on chain workloads, with a
    dead union branch and a redundant-literal branch grafted on so the
    filter has real work to do."""
    workload = generate_workload(
        layers=layers,
        width=width,
        calls_per_leaf=calls_per_leaf,
        fanout=fanout,
        seed=seed,
    )
    top = layers - 1
    augmented = workload.program_text + (
        # redundant literals: a duplicate filter and a ground-true one
        f"\nfilt(A, B) :- p{top}_0(A, B) & B != 'x' & B != 'x' & 1 < 2."
        # statically dead union branch (unsatisfiable string interval)
        f"\nfilt(A, B) :- p{top}_0(A, B) & A < 'a' & A > 'z'."
    )
    workload = dataclasses.replace(workload, program_text=augmented)
    queries = list(workload.queries) + ["?- filt('s0', Out)."]

    filtered = _mediator_for(workload, enable_filter=True, jobs=jobs)
    unfiltered = _mediator_for(workload, enable_filter=False, jobs=jobs)
    assert filtered.rewriter.rules_filtered == 1
    assert filtered.rewriter.literals_filtered == 2
    for text in queries:
        assert _answers(filtered, text) == _answers(unfiltered, text)


@settings(max_examples=8, deadline=None)
@given(
    calls=st.integers(2, 6),
    seed=st.integers(0, 3),
    jobs=st.sampled_from([1, 4]),
)
def test_star_workload_answer_parity(calls, seed, jobs):
    """Filtered ≡ unfiltered answer multisets on star workloads (where
    the guided search also takes the rank-tail completion path)."""
    workload = generate_star_workload(calls=calls, seed=seed)
    filtered = _mediator_for(workload, enable_filter=True, jobs=jobs)
    unfiltered = _mediator_for(workload, enable_filter=False, jobs=jobs)
    for text in workload.queries:
        assert _answers(filtered, text) == _answers(unfiltered, text)


# ---------------------------------------------------------------------------
# Targeted static_filter facts
# ---------------------------------------------------------------------------


def _filter_mediator(program: str) -> Mediator:
    mediator = Mediator()
    mediator.register_domain(
        simple_domain("d", {"f": lambda x: [x], "g": lambda: [1, 2]})
    )
    mediator.load_program(program)
    return mediator


class TestStaticFilter:
    def test_dead_rule_leaves_the_search_space(self):
        """MED130-dead rules are pruned from planning, not just reported:
        no candidate plan's origin mentions the dead union branch."""
        mediator = _filter_mediator(
            """
            p(X) :- in(X, d:g()).
            p(X) :- in(X, d:g()) & X < 1 & X > 2.
            """
        )
        assert mediator.rewriter.rules_filtered == 1
        plans = mediator.rewriter.plans(parse_query("?- p(X)."))
        assert all("X < 1" not in plan.origin for plan in plans)
        assert Counter(mediator.query("?- p(X).").answers) == Counter(
            {(1,): 1, (2,): 1}
        )

    def test_infeasible_rule_leaves_the_search_space(self):
        """A rule stuck under the most generous seeding can never run —
        the MED131-style dead branch disappears before enumeration."""
        mediator = _filter_mediator(
            """
            p(X) :- in(X, d:g()).
            p(X) :- in(X, d:f(Y)).
            """
        )
        assert mediator.rewriter.rules_filtered == 1
        plans = mediator.rewriter.plans(parse_query("?- p(X)."))
        assert all("d:f" not in plan.origin for plan in plans)

    def test_redundant_comparisons_dropped(self):
        mediator = _filter_mediator(
            "p(X) :- in(X, d:g()) & X != 9 & X != 9 & 1 < 2."
        )
        assert mediator.rewriter.literals_filtered == 2
        result = mediator.query("?- p(X).")
        assert Counter(result.answers) == Counter({(1,): 1, (2,): 1})
        assert verify_plan(result.chosen, registry=mediator.registry) == ()

    def test_duplicate_in_atoms_survive(self):
        """Membership re-execution changes answer multiplicities, so the
        filter must never treat duplicate in() atoms as redundant."""
        program = parse_program("p(X) :- in(X, d:g()) & in(X, d:g()).")
        result = static_filter(program)
        assert not result.changed
        assert len(result.program.rules[0].body) == 2

    def test_fully_filtered_predicate_fails_planning(self):
        mediator = _filter_mediator("p(X) :- in(X, d:g()) & X < 1 & X > 2.")
        with pytest.raises(PlanningError):
            mediator.query("?- p(X).")

    def test_search_stats_report_filtering(self):
        mediator = _filter_mediator(
            """
            p(X) :- in(X, d:g()).
            p(X) :- in(X, d:g()) & X < 1 & X > 2.
            """
        )
        result = mediator.rewriter.search(
            parse_query("?- p(X)."), mediator.cost_estimator
        )
        assert result.stats.rules_filtered == 1

    def test_filter_off_keeps_the_program_intact(self):
        config = RewriterConfig(static_filter=False)
        mediator = Mediator(rewriter_config=config)
        mediator.register_domain(simple_domain("d", {"g": lambda: [1, 2]}))
        mediator.load_program(
            """
            p(X) :- in(X, d:g()).
            p(X) :- in(X, d:g()) & X < 1 & X > 2.
            """
        )
        assert mediator.rewriter.rules_filtered == 0
        # the dead branch still plans (and yields nothing at run time)
        assert Counter(mediator.query("?- p(X).").answers) == Counter(
            {(1,): 1, (2,): 1}
        )


class TestFingerprintSeparation:
    def test_filter_knob_changes_the_program_fingerprint(self):
        """Warm-restart safety: a plan template planned against the
        filtered program must not be adopted by a mediator planning the
        unfiltered one (and vice versa)."""
        program = "p(X) :- in(X, d:g())."
        on = Mediator(rewriter_config=RewriterConfig(static_filter=True))
        off = Mediator(rewriter_config=RewriterConfig(static_filter=False))
        for mediator in (on, off):
            mediator.register_domain(simple_domain("d", {"g": lambda: [1]}))
            mediator.load_program(program)
        assert on._program_fingerprint() != off._program_fingerprint()

    def test_same_config_same_fingerprint(self):
        program = "p(X) :- in(X, d:g())."
        first = Mediator()
        second = Mediator()
        for mediator in (first, second):
            mediator.register_domain(simple_domain("d", {"g": lambda: [1]}))
            mediator.load_program(program)
        assert first._program_fingerprint() == second._program_fingerprint()
