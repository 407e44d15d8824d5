"""Program validation: the pre-flight checks behind the shell's
``:validate``, asserted on :meth:`Mediator.analyze`'s diagnostic codes.

Each case names the check it covers; the analyzer's own pass-level tests
live in ``test_analysis.py``.
"""

import pytest

from repro.analysis import SEVERITY_ERROR, analyze_program
from repro.core.mediator import Mediator
from repro.core.parser import parse_program
from repro.domains.base import simple_domain
from repro.domains.registry import DomainRegistry


@pytest.fixture
def registry() -> DomainRegistry:
    return DomainRegistry([simple_domain("d", {"f": lambda x: [x], "g": lambda: [1]})])


def report_for(text: str, registry):
    return analyze_program(parse_program(text), registry)


def codes_for(text: str, registry) -> set:
    return {diagnostic.code for diagnostic in report_for(text, registry).diagnostics}


class TestCallChecks:
    def test_clean_program(self, registry):
        assert report_for("p(X) :- in(X, d:g()).", registry).clean

    def test_unknown_domain(self, registry):
        [error] = report_for("p(X) :- in(X, mystery:f(1)).", registry).errors
        assert error.code == "MED101" and "mystery" in error.message

    def test_unknown_function(self, registry):
        assert "MED102" in codes_for("p(X) :- in(X, d:zap(1)).", registry)

    def test_arity_mismatch(self, registry):
        assert "MED103" in codes_for("p(X) :- in(X, d:f(1, 2)).", registry)

    def test_remote_domains_unwrapped(self):
        """A domain behind a simulated site is checked as the domain it
        wraps."""
        mediator = Mediator()
        mediator.register_domain(simple_domain("d", {"f": lambda x: [x]}), site="italy")
        mediator.load_program("p(X) :- in(X, d:f(1)).")
        assert mediator.analyze().clean


class TestStructuralChecks:
    def test_undefined_predicate(self, registry):
        [error] = report_for("p(X) :- q(X).", registry).by_code("MED104")
        assert "q/1" in error.message

    def test_recursion_detected(self, registry):
        assert "MED105" in codes_for("p(X) :- p(X).", registry)

    def test_unorderable_body_warned(self, registry):
        # Y is never bound: d:f(Y) can never execute
        assert "MED120" in codes_for("p(X) :- in(X, d:f(Y)).", registry)

    def test_head_vars_assumed_bindable(self, registry):
        # Y is a head variable: a query may bind it
        assert "MED120" not in codes_for("p(X, Y) :- in(X, d:f(Y)).", registry)

    def test_binding_equality_counts(self, registry):
        assert "MED120" not in codes_for("p(X) :- =(Y, 5) & in(X, d:f(Y)).", registry)

    def test_idb_outputs_assumed_bindable(self, registry):
        text = "base(Y) :- in(Y, d:g()).\np(X) :- base(Y) & in(X, d:f(Y))."
        assert not codes_for(text, registry) & {"MED120", "MED121"}

    def test_errors_sorted_before_warnings(self, registry):
        text = "p(X) :- in(X, mystery:f(Y)) & in(X, d:f(Z))."
        severities = [d.severity for d in report_for(text, registry).diagnostics]
        assert len(severities) > 1
        assert severities == sorted(severities, key=lambda s: s != SEVERITY_ERROR)

    def test_issue_str(self, registry):
        [error] = report_for("p(X) :- q(X).", registry).errors
        assert "MED104" in str(error) and "p(X) :- q(X)." in str(error)


class TestMediatorIntegration:
    def test_validate_via_mediator(self):
        mediator = Mediator()
        mediator.register_domain(simple_domain("d", {"g": lambda: [1]}))
        mediator.load_program("p(X) :- in(X, d:g()).\nbad(X) :- in(X, nowhere:f()).")
        [error] = mediator.analyze().errors
        assert error.code == "MED101" and "nowhere" in error.message
