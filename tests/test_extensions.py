"""Tests for the paper-motivated extensions: per-domain caches, union
query semantics, and predicate-level first-answer statistics (§8)."""

import pytest

from repro.cim.cache import ResultCache
from repro.cim.manager import CacheInvariantManager
from repro.core.mediator import Mediator
from repro.core.model import GroundCall
from repro.core.parser import parse_invariant
from repro.domains.base import simple_domain
from repro.domains.registry import DomainRegistry
from repro.net.clock import SimClock


# ---------------------------------------------------------------------------
# Per-domain caches (paper §4.1)
# ---------------------------------------------------------------------------


class TestPerDomainCaches:
    def make(self):
        fast = simple_domain("fast", {"f": lambda x: [x]})
        slow = simple_domain("slow", {"g": lambda x: [x, x + 1]})
        registry = DomainRegistry([fast, slow])
        slow_cache = ResultCache(max_entries=2)
        cim = CacheInvariantManager(
            registry, SimClock(), domain_caches={"slow": slow_cache}
        )
        return cim, slow_cache

    def test_domains_use_their_own_caches(self):
        cim, slow_cache = self.make()
        cim.lookup(GroundCall("fast", "f", (1,)))
        cim.lookup(GroundCall("slow", "g", (1,)))
        assert len(cim.cache) == 1  # only the fast call
        assert len(slow_cache) == 1

    def test_per_domain_capacity_is_isolated(self):
        cim, slow_cache = self.make()
        for i in range(5):
            cim.lookup(GroundCall("slow", "g", (i,)))
            cim.lookup(GroundCall("fast", "f", (i,)))
        assert len(slow_cache) == 2  # its own bound
        assert len(cim.cache) == 5  # default cache unbounded

    def test_exact_hits_route_correctly(self):
        cim, __ = self.make()
        cim.lookup(GroundCall("slow", "g", (7,)))
        result = cim.lookup(GroundCall("slow", "g", (7,)))
        assert result.provenance == "cache"

    def test_invariants_scan_the_right_cache(self):
        span_domain = simple_domain(
            "slow", {"span": lambda a, b: list(range(a, b + 1))}
        )
        registry = DomainRegistry([span_domain])
        invariant = parse_invariant(
            "A1 <= A2 & B2 <= B1 => slow:span(A1, B1) >= slow:span(A2, B2)."
        )
        slow_cache = ResultCache()
        cim = CacheInvariantManager(
            registry,
            SimClock(),
            invariants=[invariant],
            domain_caches={"slow": slow_cache},
        )
        cim.lookup(GroundCall("slow", "span", (1, 3)))
        result = cim.lookup(GroundCall("slow", "span", (1, 5)))
        assert result.provenance == "invariant-partial"
        assert set(result.answers) == {1, 2, 3, 4, 5}

    def test_set_domain_cache_later(self):
        cim, __ = self.make()
        special = ResultCache()
        cim.set_domain_cache("fast", special)
        cim.lookup(GroundCall("fast", "f", (9,)))
        assert len(special) == 1


# ---------------------------------------------------------------------------
# Union semantics
# ---------------------------------------------------------------------------


class TestUnionSemantics:
    def make_mediator(self) -> Mediator:
        mediator = Mediator()
        mediator.register_domain(
            simple_domain("d", {"f1": lambda: [1, 2], "f2": lambda: [2, 3]})
        )
        mediator.load_program(
            "p(X) :- in(X, d:f1()).\np(X) :- in(X, d:f2())."
        )
        return mediator

    def test_union_concatenates_branches(self):
        mediator = self.make_mediator()
        result = mediator.query("?- p(X).", semantics="union")
        assert sorted(result.column("X")) == [1, 2, 2, 3]

    def test_union_deduplicates_on_request(self):
        mediator = self.make_mediator()
        result = mediator.query("?- p(X).", semantics="union", deduplicate=True)
        assert sorted(result.column("X")) == [1, 2, 3]

    def test_access_path_semantics_runs_one_branch(self):
        mediator = self.make_mediator()
        result = mediator.query("?- p(X).")
        assert len(result.answers) == 2

    def test_union_max_answers(self):
        mediator = self.make_mediator()
        result = mediator.query("?- p(X).", semantics="union", max_answers=3)
        assert result.cardinality == 3
        assert not result.complete

    def test_union_timing_accumulates(self):
        mediator = self.make_mediator()
        single = mediator.query("?- p(X).")
        union = mediator.query("?- p(X).", semantics="union")
        assert union.t_all_ms > single.t_all_ms
        assert union.t_first_ms is not None
        assert union.t_first_ms < union.t_all_ms

    def test_union_through_joins(self):
        mediator = Mediator()
        mediator.register_domain(
            simple_domain(
                "d",
                {
                    "f1": lambda: [1],
                    "f2": lambda: [2],
                    "g": lambda x: [x * 10],
                },
            )
        )
        mediator.load_program(
            """
            base(X) :- in(X, d:f1()).
            base(X) :- in(X, d:f2()).
            top(Y) :- base(X) & in(Y, d:g(X)).
            """
        )
        result = mediator.query("?- top(Y).", semantics="union")
        assert sorted(result.column("Y")) == [10, 20]

    def test_union_runs_every_rule_past_the_enumeration_bound(
        self, wide_union_mediator
    ):
        """Each rule has 120 orderings, more than enumeration keeps: the
        union must still run one plan per rule, not only rule a's."""
        mediator = wide_union_mediator()
        for optimize in (True, False):
            result = mediator.query("?- p(X).", semantics="union", optimize=optimize)
            assert sorted(result.column("X")) == [0, 10]
            assert len({plan.origin for plan in result.candidate_plans}) == 2

    def test_bad_semantics_rejected(self):
        mediator = self.make_mediator()
        from repro.errors import PlanningError

        with pytest.raises(PlanningError):
            mediator.query("?- p(X).", semantics="quantum")

    # union takes every execution option access-paths takes

    def make_keyed_mediator(self) -> Mediator:
        mediator = Mediator()
        mediator.register_domain(
            simple_domain(
                "d",
                {
                    "f1": lambda a: [a * 10, a * 10 + 1],
                    "f2": lambda a: [a * 10 + 1, a * 10 + 2],
                },
            )
        )
        mediator.load_program(
            "p(A, B) :- in(B, d:f1(A)).\np(A, B) :- in(B, d:f2(A))."
        )
        return mediator

    def test_union_honours_bindings(self):
        mediator = self.make_keyed_mediator()
        bound = mediator.query("?- p(A, B).", bindings={"A": 2})
        assert bound.answers == ((2, 20), (2, 21))
        union = mediator.query("?- p(A, B).", semantics="union", bindings={"A": 2})
        assert union.answers == ((2, 20), (2, 21), (2, 21), (2, 22))
        assert union.complete

    def test_union_honours_a_fired_cancel_token(self):
        from repro.cancellation import CancellationToken
        from repro.errors import ExecutionCancelledError

        mediator = self.make_mediator()
        token = CancellationToken()
        token.cancel()
        with pytest.raises(ExecutionCancelledError):
            mediator.query("?- p(X).", semantics="union", cancel_token=token)

    def test_union_honours_max_time_ms(self):
        mediator = self.make_mediator()
        result = mediator.query("?- p(X).", semantics="union", max_time_ms=0.0)
        # like access-paths: the budget is checked between answers
        assert result.answers == mediator.query("?- p(X).", max_time_ms=0.0).answers
        assert not result.complete

    def test_union_interactive_stop_spans_branches(self):
        mediator = self.make_mediator()
        seen = []

        def stop_after_three(batch, total):
            seen.append(total)
            return total < 3

        result = mediator.query(
            "?- p(X).",
            semantics="union",
            mode="interactive",
            batch_size=1,
            continue_callback=stop_after_three,
        )
        assert seen == [1, 2, 3]
        assert result.cardinality == 3 and not result.complete

    def test_union_trace_spans_branches(self):
        mediator = self.make_mediator()
        result = mediator.query("?- p(X).", semantics="union", trace=True)
        assert [str(event.call) for event in result.execution.trace] == [
            "d:f1()",
            "d:f2()",
        ]


# ---------------------------------------------------------------------------
# Predicate-level first-answer statistics (paper §8 remedy)
# ---------------------------------------------------------------------------


def backtracking_mediator(use_stats: bool) -> Mediator:
    """A query whose first answer needs lots of backtracking: the outer
    call yields many values, only the last of which joins."""
    outer = [f"dead{i}" for i in range(9)] + ["live"]
    mediator = Mediator(use_predicate_first_stats=use_stats)
    mediator.register_domain(
        simple_domain(
            "d",
            {
                "outer": lambda: (list(outer), 1.0, 2.0),
                "inner": lambda o: ([1] if o == "live" else [], 50.0, 50.0),
            },
        )
    )
    mediator.load_program("q(X, Y) :- in(X, d:outer()) & in(Y, d:inner(X)).")
    return mediator


class TestPredicateFirstStats:
    def test_formula_underpredicts_backtracking(self):
        mediator = backtracking_mediator(use_stats=False)
        mediator.query("?- q(X, Y).")  # train DCSM
        result = mediator.query("?- q(X, Y).")
        predicted, actual = result.predicted_vs_actual()["t_first_ms"]
        # the paper's Σ T_first formula misses the 9 dead inner calls
        assert predicted < actual / 3

    def test_history_floor_fixes_it(self):
        mediator = backtracking_mediator(use_stats=True)
        mediator.query("?- q(X, Y).")  # trains both DCSM and history
        result = mediator.query("?- q(X, Y).")
        predicted, actual = result.predicted_vs_actual()["t_first_ms"]
        assert predicted == pytest.approx(actual, rel=0.25)

    def test_disabled_by_default(self):
        mediator = backtracking_mediator(use_stats=False)
        mediator.query("?- q(X, Y).")
        assert mediator.dcsm.predicate_first_estimate("q", 2) is None

    def test_history_never_lowers_prediction(self):
        mediator = backtracking_mediator(use_stats=True)
        mediator.query("?- q(X, Y).")
        # fake a tiny historical value: floor must not reduce the formula
        mediator.dcsm._predicate_t_first[("q", 2)] = [0.001]
        result = mediator.query("?- q(X, Y).")
        predicted, __ = result.predicted_vs_actual()["t_first_ms"]
        assert predicted > 0.001

    def test_conjunctive_queries_not_recorded(self):
        mediator = backtracking_mediator(use_stats=True)
        mediator.query("?- in(X, d:outer()) & X = live.")
        assert mediator.dcsm.predicate_first_estimate("q", 2) is None


# ---------------------------------------------------------------------------
# Source-change invalidation
# ---------------------------------------------------------------------------


class TestSourceInvalidation:
    def make(self):
        state = {"rows": [1, 2, 3]}
        mediator = Mediator()
        mediator.register_domain(
            simple_domain(
                "d",
                {
                    "f": lambda: list(state["rows"]),
                    "g": lambda: ["other"],
                },
            )
        )
        mediator.load_program(
            "p(X) :- in(X, d:f()).\nq(X) :- in(X, d:g())."
        )
        return mediator, state

    def test_stale_answers_served_until_notified(self):
        mediator, state = self.make()
        mediator.query("?- p(X).", use_cim=True)
        state["rows"].append(4)
        stale = mediator.query("?- p(X).", use_cim=True)
        assert stale.cardinality == 3  # the cache hides the update

    def test_notify_function_drops_only_that_function(self):
        mediator, state = self.make()
        mediator.query("?- p(X).", use_cim=True)
        mediator.query("?- q(X).", use_cim=True)
        state["rows"].append(4)
        dropped = mediator.notify_source_changed("d", "f")
        assert dropped == 1
        fresh = mediator.query("?- p(X).", use_cim=True)
        assert fresh.cardinality == 4
        # q is still a cache hit
        other = mediator.query("?- q(X).", use_cim=True)
        assert other.execution.provenance["cache"] == 1

    def test_notify_whole_domain(self):
        mediator, state = self.make()
        mediator.query("?- p(X).", use_cim=True)
        mediator.query("?- q(X).", use_cim=True)
        dropped = mediator.notify_source_changed("d")
        assert dropped == 2
        assert len(mediator.cim.cache) == 0

    def test_notify_unknown_function_is_noop(self):
        mediator, __ = self.make()
        assert mediator.notify_source_changed("d", "nothing") == 0

    def test_statistics_survive_invalidation(self):
        mediator, __ = self.make()
        mediator.query("?- p(X).", use_cim=True)
        before = mediator.dcsm.observation_count()
        mediator.notify_source_changed("d")
        assert mediator.dcsm.observation_count() == before


# ---------------------------------------------------------------------------
# Simulated-time budgets
# ---------------------------------------------------------------------------


class TestTimeBudget:
    def make(self) -> Mediator:
        mediator = Mediator(init_overhead_ms=0.0, display_cost_ms=0.0)
        mediator.register_domain(
            simple_domain("d", {"f": lambda: (list(range(100)), 10.0, 2000.0)})
        )
        mediator.load_program("p(X) :- in(X, d:f()).")
        return mediator

    def test_budget_stops_execution(self):
        mediator = self.make()
        result = mediator.query("?- p(X).", max_time_ms=100.0)
        assert not result.complete
        assert 0 < result.cardinality < 100
        assert result.t_all_ms <= 150.0  # budget + one answer's slack

    def test_generous_budget_completes(self):
        mediator = self.make()
        result = mediator.query("?- p(X).", max_time_ms=1e9)
        assert result.complete
        assert result.cardinality == 100

    def test_budget_with_no_answers_in_time_is_best_effort(self):
        # the first answer takes 10ms; a 5ms budget still yields it
        # (budgets are checked between answers, like a user watching)
        mediator = self.make()
        result = mediator.query("?- p(X).", max_time_ms=5.0)
        assert result.cardinality >= 1
        assert not result.complete


# ---------------------------------------------------------------------------
# Per-query call memoization (paper §7 footnote 2)
# ---------------------------------------------------------------------------


class TestCallMemoization:
    def make(self, memoize: bool):
        from repro.core.executor import Executor
        from repro.core.model import Comparison, make_in
        from repro.core.plans import CallStep, CompareStep, Plan
        from repro.core.terms import AttrPath, Variable
        from repro.domains.registry import DomainRegistry

        counter = {"inner": 0}

        def inner(x):
            counter["inner"] += 1
            return ([x * 10], 30.0, 30.0)

        # six distinct outer rows whose .2 column repeats: 1,1,1,2,2,2 —
        # so the ground inner call repeats (the paper's no-dup-elimination
        # scenario)
        outer_rows = [(f"r{i}", 1 if i < 3 else 2) for i in range(6)]
        domain = simple_domain(
            "d",
            {"outer": lambda: list(outer_rows), "inner": inner},
        )
        registry = DomainRegistry([domain])
        executor = Executor(
            registry, SimClock(), init_overhead_ms=0.0, display_cost_ms=0.0,
            memoize_calls=memoize,
        )
        T, K, Y = Variable("T"), Variable("K"), Variable("Y")
        plan = Plan(
            (
                CallStep(make_in(T, "d", "outer")),
                CompareStep(Comparison("=", AttrPath(T, (2,)), K)),
                CallStep(make_in(Y, "d", "inner", K)),
            ),
            (T, Y),
        )
        return executor, plan, counter

    def test_without_memo_duplicate_calls_reexecute(self):
        executor, plan, counter = self.make(memoize=False)
        result = executor.run(plan)
        assert counter["inner"] == 6  # the paper's no-dup-elimination default
        assert result.cardinality == 6

    def test_memo_collapses_duplicate_calls(self):
        executor, plan, counter = self.make(memoize=True)
        result = executor.run(plan)
        assert counter["inner"] == 2  # one per distinct argument
        assert result.cardinality == 6  # answers unchanged
        assert result.provenance["memo"] == 4

    def test_memo_saves_simulated_time(self):
        plain_exec, plan, __ = self.make(memoize=False)
        plain = plain_exec.run(plan)
        memo_exec, plan2, __ = self.make(memoize=True)
        memoized = memo_exec.run(plan2)
        assert memoized.t_all_ms < plain.t_all_ms / 2
        assert sorted(memoized.answers) == sorted(plain.answers)

    def test_memo_scope_is_one_run(self):
        executor, plan, counter = self.make(memoize=True)
        executor.run(plan)
        executor.run(plan)
        assert counter["inner"] == 4  # fresh memo per run


# ---------------------------------------------------------------------------
# Multi-table DCSM configuration (paper §6.3's table collection)
# ---------------------------------------------------------------------------


class TestMultiTableDcsm:
    def test_section63_table_collection(self):
        """Replicate the §6.3 walk-through end-to-end through the DCSM:
        tables d:f($b,B,C) and d:f($b,$b,$b); probe d:f(A,$b,2)."""
        from repro.core.model import GroundCall
        from repro.dcsm.module import DCSM
        from repro.dcsm.patterns import BOUND, CallPattern
        from repro.domains.base import CallResult

        dcsm = DCSM(mode="lossy", use_raw_fallback=False)
        data = [
            (("a", 1, 2), 10.0),
            (("b", 1, 2), 20.0),
            (("b", 2, 3), 40.0),
        ]
        for args, t in data:
            dcsm.record(
                CallResult(
                    call=GroundCall("d", "f", args),
                    answers=(1,),
                    t_first_ms=t / 2,
                    t_all_ms=t,
                )
            )
        dcsm.configure_tables("d", "f", [(1, 2), ()])
        dcsm.summarize()
        # probe d:f(A, $b, 2): no dims-{0,2} table; relax A -> $b;
        # no dims-{2} table either, but the dims-{1,2} table can
        # aggregate it; groups (1,2) match -> avg(10, 20) = 15
        vector = dcsm.cost(CallPattern("d", "f", ("a", BOUND, 2)))
        assert vector.t_all_ms == pytest.approx(15.0)
        # probe with unseen C: falls through to the global table
        vector = dcsm.cost(CallPattern("d", "f", (BOUND, BOUND, 9)))
        assert vector.t_all_ms == pytest.approx((10 + 20 + 40) / 3)

    def test_multi_table_direct_lookups(self):
        from repro.core.model import GroundCall
        from repro.dcsm.module import DCSM
        from repro.dcsm.patterns import BOUND, CallPattern
        from repro.domains.base import CallResult

        dcsm = DCSM(mode="lossy", use_raw_fallback=False)
        for args, t in [((1, "x"), 10.0), ((2, "x"), 30.0), ((2, "y"), 50.0)]:
            dcsm.record(
                CallResult(
                    call=GroundCall("d", "g", args),
                    answers=(1,),
                    t_first_ms=t / 2,
                    t_all_ms=t,
                )
            )
        dcsm.configure_tables("d", "g", [(0, 1), (0,), (1,)])
        dcsm.summarize()
        assert dcsm.cost(CallPattern("d", "g", (2, "x"))).t_all_ms == pytest.approx(30.0)
        assert dcsm.cost(CallPattern("d", "g", (2, BOUND))).t_all_ms == pytest.approx(40.0)
        assert dcsm.cost(CallPattern("d", "g", (BOUND, "x"))).t_all_ms == pytest.approx(20.0)
