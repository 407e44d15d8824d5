"""Static analysis of mediator programs, invariants, and plans.

The diagnostics engine behind ``repro lint``, ``Mediator.analyze()``, and
the shell's ``:validate``:

* :mod:`repro.analysis.diagnostics` — :class:`Diagnostic` records with
  stable ``MEDxxx`` codes, :class:`AnalysisReport`, text/JSON renderers;
* :mod:`repro.analysis.feasibility` — real adornment feasibility by
  recursive rule unfolding (paper §3/§5);
* :mod:`repro.analysis.intervals` — interval/equality satisfiability of
  comparison conjunctions;
* :mod:`repro.analysis.passes` — structure, feasibility, dead-rule, and
  reachability passes;
* :mod:`repro.analysis.bindingflow` — whole-program binding-flow dataflow
  (which argument positions can ever be bound at call time): MED150;
* :mod:`repro.analysis.relevance` — rule/literal relevance (MED151–155)
  and :func:`static_filter`, the planner's magic-set-style pre-rewrite;
* :mod:`repro.analysis.invariant_lint` — the §4 invariant linter;
* :mod:`repro.analysis.verifier` — the independent plan verifier;
* :mod:`repro.analysis.analyzer` — :func:`analyze_program`, the façade.

The full diagnostic-code catalog lives in ``docs/ANALYSIS.md``.
"""

from repro.analysis.analyzer import analyze_program
from repro.analysis.bindingflow import (
    BindingFlowFacts,
    bindingflow_pass,
    compute_bindingflow,
)
from repro.analysis.diagnostics import (
    CODES,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    AnalysisReport,
    Diagnostic,
    make_report,
)
from repro.analysis.feasibility import FeasibilityAnalysis
from repro.analysis.intervals import unsatisfiable_reason
from repro.analysis.invariant_lint import lint_invariants
from repro.analysis.passes import (
    dead_rule_pass,
    feasibility_pass,
    query_pass,
    reachability_pass,
    structure_pass,
)
from repro.analysis.relevance import (
    StaticFilterResult,
    relevance_pass,
    rule_facts,
    static_filter,
)
from repro.analysis.verifier import assert_plan_verified, verify_plan

__all__ = [
    "AnalysisReport",
    "BindingFlowFacts",
    "CODES",
    "Diagnostic",
    "FeasibilityAnalysis",
    "StaticFilterResult",
    "SEVERITY_ERROR",
    "SEVERITY_INFO",
    "SEVERITY_WARNING",
    "analyze_program",
    "assert_plan_verified",
    "bindingflow_pass",
    "compute_bindingflow",
    "dead_rule_pass",
    "feasibility_pass",
    "lint_invariants",
    "make_report",
    "query_pass",
    "reachability_pass",
    "relevance_pass",
    "rule_facts",
    "static_filter",
    "structure_pass",
    "unsatisfiable_reason",
    "verify_plan",
]
