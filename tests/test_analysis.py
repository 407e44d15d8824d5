"""Static analyzer tests: diagnostics core, adornment feasibility,
interval satisfiability, dead rules, reachability, and invariant lint."""

import json

import pytest

from repro.analysis import (
    CODES,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Diagnostic,
    analyze_program,
    bindingflow_pass,
    compute_bindingflow,
    lint_invariants,
    make_report,
    relevance_pass,
    unsatisfiable_reason,
)
from repro.analysis.bindingflow import TOP
from repro.analysis.diagnostics import SCHEMA_VERSION
from repro.analysis.passes import (
    dead_rule_pass,
    feasibility_pass,
    query_pass,
    reachability_pass,
    structure_pass,
)
from repro.core.adornment import adornment_of, call_adornment
from repro.core.mediator import Mediator
from repro.core.model import Comparison, InAtom
from repro.core.parser import parse_invariant, parse_program, parse_query
from repro.core.terms import AttrPath, Constant, Variable
from repro.domains.base import simple_domain
from repro.domains.registry import DomainRegistry
from repro.workloads.datasets import build_rope_testbed


@pytest.fixture
def registry() -> DomainRegistry:
    return DomainRegistry(
        [
            simple_domain(
                "d",
                {
                    "f": lambda x: [x],
                    "g": lambda: [1],
                    "g2": lambda x: [x],
                },
            )
        ]
    )


def codes_of(diagnostics) -> set:
    return {diagnostic.code for diagnostic in diagnostics}


# ---------------------------------------------------------------------------
# Diagnostics core
# ---------------------------------------------------------------------------


class TestDiagnostics:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("MED999", SEVERITY_ERROR, "nope")

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("MED101", "fatal", "nope")

    def test_str_includes_code_rule_and_hint(self):
        diagnostic = Diagnostic(
            "MED101",
            SEVERITY_ERROR,
            "boom",
            rule="p(X) :- q(X).",
            hint="fix it",
        )
        rendered = str(diagnostic)
        assert "MED101" in rendered
        assert "p(X) :- q(X)." in rendered
        assert "hint: fix it" in rendered

    def test_to_dict_round_trips_through_json(self):
        diagnostic = Diagnostic("MED130", SEVERITY_ERROR, "dead")
        payload = json.loads(json.dumps(diagnostic.to_dict()))
        assert payload["code"] == "MED130"
        assert payload["severity"] == SEVERITY_ERROR
        assert payload["title"] == CODES["MED130"]

    def test_every_code_has_a_title(self):
        for code, title in CODES.items():
            assert code.startswith("MED")
            assert title


class TestAnalysisReport:
    def test_errors_sort_before_warnings(self):
        report = make_report(
            [
                Diagnostic("MED131", SEVERITY_WARNING, "later"),
                Diagnostic("MED101", SEVERITY_ERROR, "first"),
            ]
        )
        assert [d.code for d in report.diagnostics] == ["MED101", "MED131"]

    def test_exit_codes(self):
        assert make_report([]).exit_code == 0
        warn = make_report([Diagnostic("MED131", SEVERITY_WARNING, "w")])
        assert warn.exit_code == 1
        assert warn.ok and not warn.clean
        err = make_report([Diagnostic("MED101", SEVERITY_ERROR, "e")])
        assert err.exit_code == 2
        assert not err.ok

    def test_render_text_counts(self):
        report = make_report(
            [
                Diagnostic("MED101", SEVERITY_ERROR, "e"),
                Diagnostic("MED131", SEVERITY_WARNING, "w"),
            ]
        )
        assert "1 error(s), 1 warning(s)." in report.render_text()
        assert "no issues found." in make_report([]).render_text()

    def test_render_json_is_parseable(self):
        report = make_report([Diagnostic("MED101", SEVERITY_ERROR, "e")])
        payload = json.loads(report.render_json())
        assert payload["errors"] == 1
        assert payload["exit_code"] == 2
        assert payload["diagnostics"][0]["code"] == "MED101"

    def test_by_code(self):
        report = make_report(
            [
                Diagnostic("MED131", SEVERITY_WARNING, "one"),
                Diagnostic("MED131", SEVERITY_WARNING, "two"),
            ]
        )
        assert len(report.by_code("MED131")) == 2
        assert report.by_code("MED101") == ()


# ---------------------------------------------------------------------------
# Structure pass (MED101-105)
# ---------------------------------------------------------------------------


class TestStructurePass:
    def test_unknown_domain(self, registry):
        program = parse_program("p(X) :- in(X, mystery:f(1)).")
        diagnostics = structure_pass(program, registry)
        assert codes_of(diagnostics) == {"MED101"}

    def test_unknown_function(self, registry):
        program = parse_program("p(X) :- in(X, d:zap(1)).")
        diagnostics = structure_pass(program, registry)
        assert codes_of(diagnostics) == {"MED102"}

    def test_arity_mismatch(self, registry):
        program = parse_program("p(X) :- in(X, d:f(1, 2)).")
        diagnostics = structure_pass(program, registry)
        assert codes_of(diagnostics) == {"MED103"}

    def test_undefined_predicate(self, registry):
        program = parse_program("p(X) :- q(X).")
        diagnostics = structure_pass(program, registry)
        assert codes_of(diagnostics) == {"MED104"}
        assert "q/1" in diagnostics[0].message

    def test_recursion(self, registry):
        program = parse_program("p(X) :- p(X).")
        diagnostics = structure_pass(program, registry)
        assert "MED105" in codes_of(diagnostics)

    def test_opaque_endpoint_skips_function_checks(self):
        """Endpoints without a ``functions`` table (like the CIM) resolve
        the domain but cannot be checked further."""

        class Opaque:
            name = "cim"

            def execute(self, call):
                raise NotImplementedError

        registry = DomainRegistry([Opaque()])
        program = parse_program("p(X) :- in(X, cim:anything(1, 2, 3)).")
        assert structure_pass(program, registry) == []


# ---------------------------------------------------------------------------
# Adornment feasibility (MED120-122, MED125)
# ---------------------------------------------------------------------------


class TestFeasibilityPass:
    def test_never_ground_call_names_variables(self, registry):
        program = parse_program("p(X) :- in(X, d:f(Y)).")
        diagnostics = feasibility_pass(program)
        assert codes_of(diagnostics) == {"MED120"}
        assert "Y" in diagnostics[0].message
        assert "never bound" in diagnostics[0].message

    def test_clean_chain_has_no_diagnostics(self, registry):
        program = parse_program("p(X, Y) :- in(X, d:g()) & in(Y, d:f(X)).")
        assert feasibility_pass(program) == []

    def test_stuck_comparison(self, registry):
        program = parse_program("p(X) :- in(X, d:g()) & Y < X.")
        diagnostics = feasibility_pass(program)
        assert codes_of(diagnostics) == {"MED122"}
        assert "Y" in diagnostics[0].message

    def test_old_heuristic_false_negative_now_caught(self, registry):
        """The retired validator assumed every IDB body variable bindable,
        so ``base(Y) :- in(Z, d:g2(Y))`` looked fine and ``p`` looked
        orderable.  Unfolding ``base`` the way the rewriter does shows Y
        is an *input* no rule can produce."""
        program = parse_program(
            """
            base(Y) :- in(Z, d:g2(Y)).
            p(X) :- base(Y) & in(X, d:f(Y)).
            """
        )
        diagnostics = feasibility_pass(program)
        codes = codes_of(diagnostics)
        assert "MED120" in codes  # d:g2(Y) stuck inside base/1
        assert "MED121" in codes  # base(Y) subgoal stuck inside p/1

    def test_head_variables_still_assumed_bindable(self, registry):
        """A call whose inputs are head variables is fine: the caller can
        bind them (the rewriter checks per-query via query_pass)."""
        program = parse_program("p(X, Y) :- in(Y, d:f(X)).")
        assert feasibility_pass(program) == []


class TestQueryPass:
    def test_query_with_free_input_flagged(self, registry):
        program = parse_program("p(X, Y) :- in(Y, d:f(X)).")
        query = parse_query("?- p(X, Y).")
        diagnostics = query_pass(program, [query])
        codes = codes_of(diagnostics)
        assert "MED121" in codes
        assert "MED125" in codes
        patterns = {
            d.literal for d in diagnostics if d.code == "MED125"
        }
        assert "p/2^ff" in patterns

    def test_query_with_bound_input_clean(self, registry):
        program = parse_program("p(X, Y) :- in(Y, d:f(X)).")
        query = parse_query("?- p(1, Y).")
        assert query_pass(program, [query]) == []


# ---------------------------------------------------------------------------
# Interval satisfiability (MED130) and reachability (MED131)
# ---------------------------------------------------------------------------


def comparisons(text: str) -> list:
    program = parse_program(f"p(X, Y, Z) :- in(X, d:g()) & {text}.")
    return [
        literal
        for literal in program.rules[0].body
        if isinstance(literal, Comparison)
    ]


class TestUnsatisfiableReason:
    @pytest.mark.parametrize(
        "text",
        [
            "X < 3 & X > 5",
            "X = 3 & X > 5",
            "X = Y & X < 3 & Y > 5",
            "X < Y & Y < X",
            "X = 3 & X != 3",
            "X = 'a' & X = 'b'",
            "1 > 2",
            "X < Y & Y < 3 & X > 5",
            "X < 3 & X >= 3",
            "X != Y & X = Y",
            "X >= 'b' & X <= 'a'",
        ],
    )
    def test_unsatisfiable(self, text):
        assert unsatisfiable_reason(comparisons(text)) is not None

    @pytest.mark.parametrize(
        "text",
        [
            "X < 3 & X < 5",
            "X <= Y & Y <= X",
            "1 < 2",
            "X <= 3 & X >= 3",
            "X > 'a' & X < 1",  # mixed types: soundly skipped
            "X != 3",
            "X < 3",
        ],
    )
    def test_satisfiable_or_unknown(self, text):
        assert unsatisfiable_reason(comparisons(text)) is None


class TestDeadRulePass:
    def test_contradictory_chain_is_an_error(self, registry):
        program = parse_program(
            "p(X) :- in(X, d:g()) & X < 3 & X > 5."
        )
        diagnostics = dead_rule_pass(program)
        assert codes_of(diagnostics) == {"MED130"}
        assert diagnostics[0].severity == SEVERITY_ERROR

    def test_satisfiable_rule_not_flagged(self, registry):
        program = parse_program("p(X) :- in(X, d:g()) & X < 3.")
        assert dead_rule_pass(program) == []


class TestReachabilityPass:
    PROGRAM = """
        top(X) :- mid(X).
        mid(X) :- in(X, d:g()).
        orphan(X) :- in(X, d:g()).
    """

    def test_unreachable_from_queries(self):
        program = parse_program(self.PROGRAM)
        diagnostics = reachability_pass(
            program, [parse_query("?- top(X).")]
        )
        assert codes_of(diagnostics) == {"MED131"}
        assert any("orphan/1" in d.message for d in diagnostics)
        assert not any("mid/1" in d.message for d in diagnostics)

    def test_without_queries_roots_are_unreferenced_heads(self):
        program = parse_program(self.PROGRAM)
        assert reachability_pass(program) == []

    def test_unreferenced_by_anything(self):
        program = parse_program(
            """
            top(X) :- mid(X).
            mid(X) :- in(X, d:g()).
            shadow(X) :- mid(X).
            """
        )
        # without queries both top and shadow are roots -> clean
        assert reachability_pass(program) == []
        diagnostics = reachability_pass(program, [parse_query("?- top(X).")])
        assert any("shadow/1" in d.message for d in diagnostics)


# ---------------------------------------------------------------------------
# Invariant lint (MED140-147)
# ---------------------------------------------------------------------------


class TestInvariantLint:
    def test_unknown_domain_on_either_side(self, registry):
        invariant = parse_invariant("ghost:f(X) >= d:f(X).")
        assert "MED140" in codes_of(lint_invariants([invariant], registry=registry))
        invariant = parse_invariant("d:f(X) >= ghost:f(X).")
        assert "MED140" in codes_of(lint_invariants([invariant], registry=registry))

    def test_unknown_function_and_arity(self, registry):
        bad_fn = parse_invariant("d:zap(X) >= d:f(X).")
        assert "MED141" in codes_of(lint_invariants([bad_fn], registry=registry))
        bad_arity = parse_invariant("d:f(X, Y) >= d:f(X).")
        assert "MED142" in codes_of(lint_invariants([bad_arity], registry=registry))

    def test_self_rewrite(self):
        invariant = parse_invariant("d:f(X) >= d:f(X).")
        assert "MED143" in codes_of(lint_invariants([invariant]))

    def test_cycle_across_distinct_calls(self):
        pair = [
            parse_invariant("d:f(X) >= d:g2(X)."),
            parse_invariant("d:g2(X) >= d:f(X)."),
        ]
        diagnostics = lint_invariants(pair)
        assert sum(1 for d in diagnostics if d.code == "MED144") == 2

    def test_containment_self_edge_is_not_a_cycle(self):
        """The paper's §4 pattern — same call with wider arguments — must
        not be flagged as a loop."""
        invariant = parse_invariant(
            "A1 <= A2 & B2 <= B1 => d:span(A1, B1) >= d:span(A2, B2)."
        )
        assert lint_invariants([invariant]) == []

    def test_unsatisfiable_condition(self):
        invariant = parse_invariant("A < 1 & A > 2 => d:f(A) >= d:f(1).")
        diagnostics = lint_invariants([invariant])
        assert "MED145" in codes_of(diagnostics)

    def test_unsafe_invariant(self):
        """The parser refuses unsafe invariants, so build one directly
        (it could arrive through the API) and check the linter reports it
        instead of raising."""
        from repro.core.model import (
            INVARIANT_SUPSET,
            DomainCall,
            Invariant,
        )
        from repro.core.terms import Constant

        invariant = Invariant(
            condition=(Comparison("<", Variable("C"), Constant(1)),),
            left=DomainCall("d", "f", (Variable("A"),)),
            relation=INVARIANT_SUPSET,
            right=DomainCall("d", "f", (Constant(1),)),
        )
        diagnostics = lint_invariants([invariant])
        assert "MED147" in codes_of(diagnostics)

    def test_unmatched_left_side(self, registry):
        program = parse_program("p(X) :- in(X, d:g()).")
        invariant = parse_invariant("d:f('never') >= d:g().")
        diagnostics = lint_invariants(
            [invariant], program=program, registry=registry
        )
        assert "MED146" in codes_of(diagnostics)

    def test_matched_left_side_clean(self, registry):
        program = parse_program("p(X) :- in(X, d:f('never')).")
        invariant = parse_invariant("d:f('never') >= d:g().")
        diagnostics = lint_invariants(
            [invariant], program=program, registry=registry
        )
        assert "MED146" not in codes_of(diagnostics)

    def test_empty_program_skips_match_check(self, registry):
        invariant = parse_invariant("d:f('never') >= d:g().")
        diagnostics = lint_invariants(
            [invariant], program=parse_program(""), registry=registry
        )
        assert "MED146" not in codes_of(diagnostics)


# ---------------------------------------------------------------------------
# analyze_program / Mediator.analyze
# ---------------------------------------------------------------------------


class TestAnalyzeProgram:
    def test_rope_testbed_is_clean(self):
        mediator = build_rope_testbed()
        report = mediator.analyze()
        assert report.clean
        assert report.exit_code == 0

    def test_recursive_program_skips_downstream_passes(self, registry):
        program = parse_program("p(X) :- p(X).")
        report = analyze_program(program, registry=registry)
        assert codes_of(report.diagnostics) == {"MED105"}

    def test_mediator_analyze_with_string_queries(self):
        mediator = Mediator()
        mediator.register_domain(simple_domain("d", {"g": lambda: [1]}))
        mediator.load_program(
            """
            p(X) :- in(X, d:g()).
            orphan(X) :- in(X, d:g()).
            """
        )
        report = mediator.analyze(queries=["?- p(X)."])
        assert "MED131" in codes_of(report.diagnostics)

    def test_metrics_recorded(self):
        mediator = Mediator()
        mediator.register_domain(simple_domain("d", {"g": lambda: [1]}))
        mediator.load_program("p(X) :- in(X, d:f(Y)).")
        report = mediator.analyze()
        assert not report.clean
        metrics = mediator.metrics
        assert metrics.value("analysis.runs") == 1.0
        assert metrics.value("analysis.code.MED102") >= 1.0
        assert metrics.value("analysis.errors") >= 1.0


# ---------------------------------------------------------------------------
# Binding flow (MED150) and relevance (MED151-155)
# ---------------------------------------------------------------------------


class TestBindingFlowPass:
    def test_never_bindable_argument(self):
        """helper's first argument is an input: no call site binds it and
        no defining rule computes it, so nothing can ever supply it."""
        program = parse_program(
            """
            helper(Obj, F) :- in(F, d:f(Obj)).
            caller(F) :- helper(Obj, F).
            """
        )
        diagnostics = bindingflow_pass(program)
        meds = [d for d in diagnostics if d.code == "MED150"]
        assert any("helper/2" in d.message for d in meds)

    def test_bound_call_site_is_clean(self):
        program = parse_program(
            """
            helper(Obj, F) :- in(F, d:f(Obj)).
            caller(F) :- helper(1, F).
            """
        )
        assert bindingflow_pass(program) == []

    def test_query_goals_count_as_call_sites(self):
        program = parse_program("p(X, Y) :- in(Y, d:f(X)).")
        query = parse_query("?- p(1, Y).")
        assert bindingflow_pass(program, [query]) == []

    def test_constant_flow_and_produced_positions(self):
        program = parse_program(
            """
            t('a', S) :- in(S, d:g()).
            t('b', S) :- in(S, d:g()).
            top(S) :- t('a', S).
            """
        )
        facts = compute_bindingflow(program)
        key = ("t", 2)
        assert facts.constant_flow[(key, 0)] == {Constant("a")}
        assert facts.constant_flow[(key, 1)] is TOP
        assert 1 in facts.produced_positions[key]
        assert len(facts.call_sites[key]) == 1


class TestRelevancePass:
    def test_unreached_specialization(self):
        program = parse_program(
            """
            t('a', S) :- in(S, d:g()).
            t('b', S) :- in(S, d:g()).
            top(S) :- t('a', S).
            """
        )
        meds = [d for d in relevance_pass(program) if d.code == "MED151"]
        assert len(meds) == 1
        assert "'b'" in meds[0].message

    def test_duplicate_comparison(self):
        program = parse_program("p(X) :- in(X, d:g()) & X > 1 & X > 1.")
        codes = codes_of(relevance_pass(program))
        assert "MED152" in codes

    def test_statically_true_comparison(self):
        program = parse_program("p(X) :- in(X, d:g()) & 1 < 2.")
        codes = codes_of(relevance_pass(program))
        assert "MED155" in codes

    def test_filtered_dead_rule_reported(self):
        program = parse_program("p(X) :- in(X, d:g()) & X < 1 & X > 2.")
        meds = [d for d in relevance_pass(program) if d.code == "MED153"]
        assert len(meds) == 1
        assert "unsatisfiable" in meds[0].message

    def test_filtered_infeasible_rule_reported(self):
        program = parse_program("p(X) :- in(X, d:f(Y)).")
        meds = [d for d in relevance_pass(program) if d.code == "MED153"]
        assert len(meds) == 1
        assert "no subgoal ordering" in meds[0].message

    def test_unused_domain_call_output(self):
        program = parse_program("p(X) :- in(X, d:g()) & in(Y, d:g()).")
        meds = [d for d in relevance_pass(program) if d.code == "MED154"]
        assert len(meds) == 1
        assert "Y" in meds[0].message

    def test_clean_program_has_no_relevance_diagnostics(self):
        program = parse_program("p(X, Y) :- in(X, d:g()) & in(Y, d:f(X)).")
        assert relevance_pass(program) == []


class TestDeterministicReports:
    def test_report_sorted_by_code_then_location(self):
        a = Diagnostic("MED131", SEVERITY_WARNING, "m", rule="z")
        b = Diagnostic("MED101", SEVERITY_ERROR, "m", rule="b")
        c = Diagnostic("MED101", SEVERITY_ERROR, "m", rule="a")
        report = make_report([a, b, c])
        assert [d.rule for d in report.diagnostics] == ["a", "b", "z"]
        assert [d.code for d in report.diagnostics] == [
            "MED101",
            "MED101",
            "MED131",
        ]

    def test_schema_version_in_json(self):
        report = make_report(
            [Diagnostic("MED101", SEVERITY_ERROR, "boom")]
        )
        payload = json.loads(report.render_json())
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_pass_timings_recorded(self):
        mediator = Mediator()
        mediator.register_domain(simple_domain("d", {"g": lambda: [1]}))
        mediator.load_program("p(X) :- in(X, d:g()).")
        mediator.analyze()
        for name in ("bindingflow", "relevance", "structure"):
            histogram = mediator.metrics.histogram(f"analysis.pass_ms.{name}")
            assert histogram.count >= 1


# ---------------------------------------------------------------------------
# Adornment helpers with AttrPath outputs (satellite)
# ---------------------------------------------------------------------------


class TestAdornmentWithAttrPaths:
    def test_adornment_of_attrpath_follows_base(self):
        T = Variable("T")
        path = AttrPath(T, ("name",))
        assert adornment_of((path,), frozenset()) == "f"
        assert adornment_of((path,), frozenset({T})) == "b"

    def test_call_adornment_attrpath_output(self):
        program = parse_program("p(A) :- in(T, d:f(A)) & =(T.name, A).")
        atom = next(
            literal
            for literal in program.rules[0].body
            if isinstance(literal, InAtom)
        )
        A, T = Variable("A"), Variable("T")
        assert call_adornment(atom, frozenset({A})) == "bf"
        assert call_adornment(atom, frozenset({A, T})) == "bb"

    def test_call_adornment_mixed_args(self):
        program = parse_program(
            "p(A, B) :- in(X, d:h('c', A, B.k))."
        )
        atom = program.rules[0].body[0]
        A, B = Variable("A"), Variable("B")
        assert call_adornment(atom, frozenset({A})) == "bbff"
        assert call_adornment(atom, frozenset({A, B})) == "bbbf"
