"""Abstract syntax of mediator programs, queries, and ground calls.

A mediator (paper §2) is a set of rules

    A :- B1 & ... & Bn & D1 & ... & Dm & E1 & ... & Ek.

where the ``B``s are ordinary (IDB) predicates, the ``D``s are domain
calls ``in(X, domain:function(args))`` into external packages, and the
``E``s are comparison conditions, possibly over attribute paths into
structured answers.

This module defines the AST node types plus :class:`GroundCall` — the
fully-instantiated domain call that is the unit of execution, caching
(CIM keys), and statistics recording (DCSM observations).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Union

from repro.core.terms import (
    Term,
    Value,
    Variable,
    format_value,
    term_from,
)
from repro.core.unify import Substitution, resolve_ground
from repro.errors import ReproError

# ---------------------------------------------------------------------------
# Comparison operators
# ---------------------------------------------------------------------------

def _prefix_of(left: Value, right: Value) -> bool:
    """``prefix_of(A, B)``: A is a raw string prefix of B."""
    if not isinstance(left, str) or not isinstance(right, str):
        return False
    return right.startswith(left)


def _subpath_of(left: Value, right: Value) -> bool:
    """``subpath_of(A, B)``: B equals A or extends it at a ``.`` component
    boundary — ``'a.b'`` covers ``'a.b.c'`` but NOT ``'a.bc'``.  The sound
    condition for hierarchical-category invariants (MACS paths)."""
    if not isinstance(left, str) or not isinstance(right, str):
        return False
    return right == left or right.startswith(left + ".")


_COMPARISONS: dict[str, Callable[[Value, Value], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "prefix_of": _prefix_of,
    "not_prefix_of": lambda left, right: not _prefix_of(left, right),
    "subpath_of": _subpath_of,
    "not_subpath_of": lambda left, right: not _subpath_of(left, right),
}

COMPARISON_OPS = frozenset(_COMPARISONS)

#: Comparison operators written as identifiers (prefix form only):
#: ``prefix_of('media.video', P)``, ``subpath_of(P1, P2)``.
NAMED_COMPARISON_OPS = frozenset(
    {"prefix_of", "not_prefix_of", "subpath_of", "not_subpath_of"}
)

_NEGATION = {
    "=": "!=",
    "==": "!=",
    "!=": "=",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
    "prefix_of": "not_prefix_of",
    "not_prefix_of": "prefix_of",
    "subpath_of": "not_subpath_of",
    "not_subpath_of": "subpath_of",
}


def evaluate_comparison(op: str, left: Value, right: Value) -> bool:
    """Evaluate a ground comparison; ordered ops require comparable values."""
    try:
        fn = _COMPARISONS[op]
    except KeyError:
        raise ReproError(f"unknown comparison operator {op!r}") from None
    try:
        return bool(fn(left, right))
    except TypeError:
        # Mixed-type ordered comparison: fall back to type-name ordering so
        # heterogeneous sources never crash a filter (deterministic, total).
        if op in ("=", "==", "!="):
            raise
        key_left = (type(left).__name__, repr(left))
        key_right = (type(right).__name__, repr(right))
        return bool(fn(key_left, key_right))


# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Predicate:
    """An IDB atom ``name(arg1, ..., argN)`` (also used for rule heads)."""

    name: str
    args: tuple[Term, ...]

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def key(self) -> tuple[str, int]:
        return (self.name, self.arity)

    def variables(self) -> frozenset[Variable]:
        out: frozenset[Variable] = frozenset()
        for arg in self.args:
            out |= arg.variables()
        return out

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True, slots=True)
class DomainCall:
    """The ``domain:function(args)`` part of an ``in()`` literal."""

    domain: str
    function: str
    args: tuple[Term, ...]

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def qualified_name(self) -> str:
        return f"{self.domain}:{self.function}"

    def variables(self) -> frozenset[Variable]:
        out: frozenset[Variable] = frozenset()
        for arg in self.args:
            out |= arg.variables()
        return out

    def ground(self, subst: Substitution) -> "GroundCall":
        """Instantiate under ``subst``; raises NotGroundError if any
        argument is unbound (the paper requires ground domain calls)."""
        values = tuple(resolve_ground(arg, subst) for arg in self.args)
        return GroundCall(self.domain, self.function, values)

    def __str__(self) -> str:
        return f"{self.domain}:{self.function}({', '.join(map(str, self.args))})"


@dataclass(frozen=True, slots=True)
class InAtom:
    """``in(Output, domain:function(args))`` — membership in a source's
    answer set.  ``output`` may be a variable (to be instantiated) or a
    ground term (membership test, usable for pruning)."""

    output: Term
    call: DomainCall

    def variables(self) -> frozenset[Variable]:
        return self.output.variables() | self.call.variables()

    def __str__(self) -> str:
        return f"in({self.output}, {self.call})"


@dataclass(frozen=True, slots=True)
class Comparison:
    """A condition ``left op right``; ``=`` with exactly one side bound acts
    as an assignment (binds the unbound side), matching the paper's
    ``=($ans.1, A)`` usage."""

    op: str
    left: Term
    right: Term

    def variables(self) -> frozenset[Variable]:
        return self.left.variables() | self.right.variables()

    def negated(self) -> "Comparison":
        return Comparison(_NEGATION[self.op], self.left, self.right)

    def evaluate(self, subst: Substitution) -> bool:
        """Evaluate under a substitution that grounds both sides."""
        left = resolve_ground(self.left, subst)
        right = resolve_ground(self.right, subst)
        return evaluate_comparison(self.op, left, right)

    def __str__(self) -> str:
        if self.op in NAMED_COMPARISON_OPS:
            return f"{self.op}({self.left}, {self.right})"
        return f"{self.left} {self.op} {self.right}"


#: Anything allowed in a rule body.
Literal = Union[Predicate, InAtom, Comparison]


# ---------------------------------------------------------------------------
# Rules, programs, queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Rule:
    """``head :- body1 & ... & bodyN.``"""

    head: Predicate
    body: tuple[Literal, ...]

    def variables(self) -> frozenset[Variable]:
        out = self.head.variables()
        for literal in self.body:
            out |= literal.variables()
        return out

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {' & '.join(map(str, self.body))}."


class Program:
    """An ordered collection of rules, indexed by head predicate."""

    def __init__(self, rules: Iterable[Rule] = ()):
        self._rules: list[Rule] = []
        self._by_head: dict[tuple[str, int], list[Rule]] = {}
        for rule in rules:
            self.add(rule)

    def add(self, rule: Rule) -> None:
        self._rules.append(rule)
        self._by_head.setdefault(rule.head.key, []).append(rule)

    @property
    def rules(self) -> tuple[Rule, ...]:
        return tuple(self._rules)

    def rules_for(self, name: str, arity: int) -> tuple[Rule, ...]:
        return tuple(self._by_head.get((name, arity), ()))

    def defines(self, name: str, arity: int) -> bool:
        return (name, arity) in self._by_head

    def predicates(self) -> tuple[tuple[str, int], ...]:
        return tuple(self._by_head)

    def domain_calls(self) -> tuple[DomainCall, ...]:
        """All domain calls syntactically present in the program."""
        calls = []
        for rule in self._rules:
            for literal in rule.body:
                if isinstance(literal, InAtom):
                    calls.append(literal.call)
        return tuple(calls)

    def dependency_edges(self) -> tuple[tuple[tuple[str, int], tuple[str, int]], ...]:
        """(head, body-predicate) edges, for recursion detection."""
        edges = []
        for rule in self._rules:
            for literal in rule.body:
                if isinstance(literal, Predicate):
                    edges.append((rule.head.key, literal.key))
        return tuple(edges)

    def is_recursive(self) -> bool:
        """True when the predicate dependency graph has a cycle."""
        edges = self.dependency_edges()
        graph: dict[tuple[str, int], list[tuple[str, int]]] = {}
        for src, dst in edges:
            graph.setdefault(src, []).append(dst)
        visiting: set[tuple[str, int]] = set()
        done: set[tuple[str, int]] = set()

        def visit(node: tuple[str, int]) -> bool:
            if node in done:
                return False
            if node in visiting:
                return True
            visiting.add(node)
            for nxt in graph.get(node, ()):
                if visit(nxt):
                    return True
            visiting.discard(node)
            done.add(node)
            return False

        try:
            return any(visit(node) for node in list(graph))
        finally:
            del visit  # visit reaches itself through its closure cell

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> "Iterator[Rule]":
        return iter(self._rules)

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self._rules)


@dataclass(frozen=True, slots=True)
class Query:
    """A conjunctive query ``?- g1 & ... & gN.`` over a program.

    ``answer_vars`` fixes the projection and ordering of reported answers;
    by default it is every variable appearing in the goals, in first-use
    order.
    """

    goals: tuple[Literal, ...]
    answer_vars: tuple[Variable, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.answer_vars:
            seen: list[Variable] = []
            for goal in self.goals:
                for var in _ordered_variables(goal):
                    if var not in seen:
                        seen.append(var)
            object.__setattr__(self, "answer_vars", tuple(seen))

    def variables(self) -> frozenset[Variable]:
        out: frozenset[Variable] = frozenset()
        for goal in self.goals:
            out |= goal.variables()
        return out

    def __str__(self) -> str:
        return f"?- {' & '.join(map(str, self.goals))}."


def _ordered_variables(literal: Literal) -> list[Variable]:
    """Variables of a literal in left-to-right textual order."""
    ordered: list[Variable] = []

    def visit(term: Term) -> None:
        for var in sorted(term.variables(), key=lambda v: v.name):
            ordered.append(var)

    if isinstance(literal, Predicate):
        for arg in literal.args:
            visit(arg)
    elif isinstance(literal, InAtom):
        visit(literal.output)
        for arg in literal.call.args:
            visit(arg)
    else:
        visit(literal.left)
        visit(literal.right)
    # preserve first occurrence only
    out: list[Variable] = []
    for var in ordered:
        if var not in out:
            out.append(var)
    return out


# ---------------------------------------------------------------------------
# Invariants (paper §4)
# ---------------------------------------------------------------------------

#: Invariant relations: answer-set equality, or left ⊇ right containment.
INVARIANT_EQ = "="
INVARIANT_SUPSET = ">="


@dataclass(frozen=True, slots=True)
class Invariant:
    """``Condition ⇒ Call₁ R Call₂`` with ``R ∈ {=, ⊇}`` (paper §4).

    Semantics: whenever ``Condition`` holds, the answer set of ``Call₁``
    equals (``=``) or contains (``>=`` rendering ⊇) the answer set of
    ``Call₂``.  Invariants are *sound but not necessarily complete* rewrite
    rules: a ⊇ match yields a partial answer set that the CIM may need to
    complete with the real call.

    Safety requirement (paper §4): every variable in ``condition`` appears
    in ``left`` or ``right``.  Checked by :meth:`validate`.
    """

    condition: tuple[Comparison, ...]
    left: DomainCall
    relation: str
    right: DomainCall

    def validate(self) -> None:
        from repro.errors import InvariantError

        if self.relation not in (INVARIANT_EQ, INVARIANT_SUPSET):
            raise InvariantError(f"bad invariant relation {self.relation!r}")
        call_vars = self.left.variables() | self.right.variables()
        for comparison in self.condition:
            loose = comparison.variables() - call_vars
            if loose:
                names = ", ".join(sorted(v.name for v in loose))
                raise InvariantError(
                    f"unsafe invariant: condition variables {{{names}}} do not "
                    f"appear in either domain call"
                )

    def variables(self) -> frozenset[Variable]:
        out = self.left.variables() | self.right.variables()
        for comparison in self.condition:
            out |= comparison.variables()
        return out

    def __str__(self) -> str:
        rel = "=" if self.relation == INVARIANT_EQ else ">="
        cond = " & ".join(map(str, self.condition)) if self.condition else "true"
        return f"{cond} => {self.left} {rel} {self.right}."


# ---------------------------------------------------------------------------
# Ground calls
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GroundCall:
    """A fully-instantiated domain call — the unit of execution and caching.

    Hashable; equality is structural, so two identical calls hit the same
    cache entry and the same statistics bucket.
    """

    domain: str
    function: str
    args: tuple[Value, ...]

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def qualified_name(self) -> str:
        return f"{self.domain}:{self.function}"

    def as_call(self) -> DomainCall:
        return DomainCall(self.domain, self.function, tuple(map(term_from, self.args)))

    def __str__(self) -> str:
        rendered = ", ".join(format_value(arg) for arg in self.args)
        return f"{self.domain}:{self.function}({rendered})"


def make_in(output: "Term | Value", domain: str, function: str, *args: "Term | Value") -> InAtom:
    """Convenience constructor used by tests and examples."""
    return InAtom(
        term_from(output),
        DomainCall(domain, function, tuple(term_from(a) for a in args)),
    )


def make_rule(head: Predicate, *body: Literal) -> Rule:
    return Rule(head, tuple(body))
