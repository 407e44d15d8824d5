"""Mediator integration tests: the full Figure-1 pipeline end to end."""

import pytest

from repro.cim.manager import CimPolicy
from repro.core.mediator import Mediator
from repro.core.model import Query
from repro.core.parser import parse_query
from repro.domains.base import simple_domain
from repro.errors import PlanningError
from repro.workloads.datasets import build_rope_testbed


class TestM1EndToEnd:
    """The paper's M1/Q7 example executed for real."""

    def test_all_answers_correct(self, m1_mediator: Mediator):
        result = m1_mediator.query("?- m(a, C).")
        assert sorted(result.column("C")) == ["x", "y"]
        assert result.complete

    def test_all_plans_agree_on_answers(self, m1_mediator: Mediator):
        baseline = None
        for plan in m1_mediator.plans("?- m(a, C)."):
            result = m1_mediator.query("?- m(a, C).", plan=plan)
            answers = sorted(result.column("C"))
            if baseline is None:
                baseline = answers
            assert answers == baseline

    def test_optimizer_converges_to_best_plan(self, m1_mediator: Mediator):
        query = "?- m(a, C)."
        # train: run every plan once so DCSM has statistics for all calls
        for plan in m1_mediator.plans(query):
            m1_mediator.query(query, plan=plan)
        result = m1_mediator.query(query)
        assert result.chosen_estimate is not None
        # the optimizer's pick must be (near-)optimal among every ordering
        timings = [
            m1_mediator.query(query, plan=plan).t_all_ms
            for plan in m1_mediator.plans(query)
        ]
        assert len(timings) > 1
        chosen = m1_mediator.query(query, plan=result.chosen)
        assert chosen.t_all_ms <= min(timings) * 1.2

    def test_query_object_accepted(self, m1_mediator: Mediator):
        query = parse_query("?- m(a, C).")
        result = m1_mediator.query(query)
        assert isinstance(result.query, Query)
        assert result.cardinality == 2

    def test_statistics_accumulate(self, m1_mediator: Mediator):
        assert m1_mediator.dcsm.observation_count() == 0
        m1_mediator.query("?- m(a, C).")
        assert m1_mediator.dcsm.observation_count() > 0


class TestCimIntegration:
    def test_cim_routing_all(self, m1_mediator: Mediator):
        first = m1_mediator.query("?- m(a, C).", use_cim=True)
        second = m1_mediator.query("?- m(a, C).", use_cim=True)
        assert second.t_all_ms < first.t_all_ms
        assert second.execution.provenance["cache"] > 0

    def test_cim_routing_subset(self, m1_mediator: Mediator):
        m1_mediator.query("?- m(a, C).", use_cim={"d1"})
        result = m1_mediator.query("?- m(a, C).", use_cim={"d1"})
        # d1 calls cached, d2 calls still real
        assert result.execution.provenance["cache"] > 0
        assert result.execution.provenance["domain"] > 0

    def test_invariant_through_mediator(self):
        mediator = build_rope_testbed()
        warm = mediator.query("?- objects(4, 47, O).", use_cim=True)
        wider = mediator.query("?- objects(4, 127, O).", use_cim=True)
        assert wider.execution.provenance["invariant-partial"] == 1
        assert set(warm.column("O")) <= set(wider.column("O"))
        assert wider.cardinality == 24

    def test_partial_only_mode_incomplete(self):
        mediator = build_rope_testbed()
        mediator.cim.policy = CimPolicy.PARTIAL_ONLY
        mediator.query("?- objects(4, 47, O).", use_cim=True)
        partial = mediator.query("?- objects(4, 127, O).", use_cim=True)
        assert not partial.complete
        assert partial.cardinality == 19


class TestModes:
    def test_interactive_stops(self, m1_mediator: Mediator):
        stops = []

        def no_more(batch, total):
            stops.append(total)
            return False

        result = m1_mediator.query(
            "?- m(a, C).",
            mode="interactive",
            batch_size=1,
            continue_callback=no_more,
        )
        assert not result.complete
        assert result.cardinality == 1

    def test_max_answers(self, m1_mediator: Mediator):
        result = m1_mediator.query("?- m(a, C).", max_answers=1)
        assert result.cardinality == 1
        assert not result.complete


class TestResultApi:
    def test_rows_and_column(self, m1_mediator: Mediator):
        result = m1_mediator.query("?- m(a, C).")
        rows = result.rows()
        assert all(set(row) == {"C"} for row in rows)
        assert sorted(result.column("C")) == ["x", "y"]
        with pytest.raises(KeyError):
            result.column("Nope")

    def test_str_contains_timings(self, m1_mediator: Mediator):
        result = m1_mediator.query("?- m(a, C).")
        rendered = str(result)
        assert "T_first" in rendered and "T_all" in rendered

    def test_predicted_vs_actual(self, m1_mediator: Mediator):
        m1_mediator.query("?- m(a, C).")  # train
        result = m1_mediator.query("?- m(a, C).")
        comparison = result.predicted_vs_actual()
        predicted, actual = comparison["t_all_ms"]
        assert actual > 0
        # after training at least one plan is priceable
        assert predicted is None or predicted > 0


class TestRegistration:
    def test_local_registration(self):
        mediator = Mediator()
        mediator.register_domain(simple_domain("d", {"f": lambda: [1]}))
        mediator.load_program("p(X) :- in(X, d:f()).")
        assert mediator.query("?- p(X).").answers == ((1,),)

    def test_remote_registration_slower(self):
        def build(site):
            mediator = Mediator()
            mediator.register_domain(
                simple_domain("d", {"f": lambda: list(range(20))}), site=site
            )
            mediator.load_program("p(X) :- in(X, d:f()).")
            return mediator.query("?- p(X).").t_all_ms

        assert build("italy") > build("cornell") > build(None)

    def test_train_helper(self, m1_mediator: Mediator):
        count = m1_mediator.train(["?- m(a, C).", "?- m(b, C)."])
        assert count == m1_mediator.dcsm.observation_count()
        assert count > 0

    def test_planning_error_propagates(self):
        mediator = Mediator()
        mediator.load_program("p(X) :- q(X).")
        with pytest.raises(PlanningError):
            mediator.query("?- p(X).")


class TestRopeTestbedFidelity:
    """The workload's cardinalities must match the paper's tables."""

    def test_paper_cardinalities(self):
        mediator = build_rope_testbed()
        assert mediator.query("?- actors(A).").cardinality == 6
        assert mediator.query("?- objects(4, 47, O).").cardinality == 19
        assert mediator.query("?- objects(4, 127, O).").cardinality == 24

    def test_appendix_queries_run(self):
        mediator = build_rope_testbed()
        for text in (
            "?- query1(4, 47, O, S).",
            "?- query2(4, 47, O, F, A).",
            "?- query3(4, 47, O, A).",
            "?- query4(4, 47, O, A).",
        ):
            result = mediator.query(text)
            assert result.cardinality > 0

    def test_query3_and_query4_equivalent(self):
        mediator = build_rope_testbed()
        r3 = mediator.query("?- query3(4, 47, O, A).")
        r4 = mediator.query("?- query4(4, 47, O, A).")
        assert sorted(r3.answers) == sorted(r4.answers)
