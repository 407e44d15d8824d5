"""Adornment feasibility: which calls can *ever* be ground (paper §3, §5).

The rewriter only emits orderings where every domain call is ground when
reached.  The retired ``core/validation.py`` approximated this with "assume
every head variable and every IDB body variable is bound" — generous
enough to miss real failures (an IDB subgoal whose defining rules can
never bind an argument still counted as binding it).

This module computes the real thing, the way the rewriter would: for a
predicate under a binding pattern (adornment), try each defining rule,
seed the bound-variable set from the bound head positions, and saturate
the body through :func:`repro.core.adornment.step` — recursing into IDB
subgoals under *their* computed adornment.  The result is the set of head
positions guaranteed bound after evaluation, or ``None`` when no rule of
the predicate admits any executable ordering under that adornment.

Only meaningful for nonrecursive programs (the optimizer's fragment);
re-entry on a (predicate, adornment) pair conservatively reports
infeasible so recursive inputs still terminate.
"""

from __future__ import annotations

from typing import Optional

from repro.core.adornment import adornment_of, step as adorn_step, term_is_bound
from repro.core.model import Literal, Predicate, Program
from repro.core.terms import Variable

#: (predicate key, adornment string) — one analysis cell.
AdornedKey = tuple[tuple[str, int], str]


class FeasibilityAnalysis:
    """Memoized per-(predicate, adornment) dataflow over a program."""

    def __init__(self, program: Program):
        self.program = program
        self._memo: dict[AdornedKey, Optional[frozenset[int]]] = {}
        self._active: set[AdornedKey] = set()
        #: every (predicate, adornment) pair this analysis was asked about,
        #: mapped to feasibility — the query pass reads this to report the
        #: reachable-but-infeasible adornments.
        self.reached: dict[AdornedKey, bool] = {}

    # -- public API ----------------------------------------------------------

    def predicate_bindings(
        self, key: tuple[str, int], adornment: str
    ) -> Optional[frozenset[int]]:
        """Head positions bound after evaluating ``key`` under ``adornment``
        (union over feasible rules), or ``None`` when no defining rule has
        an executable ordering under that binding pattern.

        Undefined predicates report every position bound: the structure
        pass already flags them (MED104), and cascading infeasibility
        noise would drown that message.
        """
        name, arity = key
        if not self.program.defines(name, arity):
            result: Optional[frozenset[int]] = frozenset(range(arity))
            self.reached[(key, adornment)] = True
            return result
        cell = (key, adornment)
        if cell in self._memo:
            return self._memo[cell]
        if cell in self._active:
            return None  # recursion guard: treat the cycle as infeasible
        self._active.add(cell)
        try:
            bound_positions = {i for i, ch in enumerate(adornment) if ch == "b"}
            out: set[int] = set()
            feasible = False
            for rule in self.program.rules_for(name, arity):
                seed: frozenset[Variable] = frozenset()
                for position in bound_positions:
                    if position < len(rule.head.args):
                        seed |= rule.head.args[position].variables()
                bound, stuck = self.saturate(rule.body, seed)
                if stuck:
                    continue
                feasible = True
                out |= {
                    i
                    for i, arg in enumerate(rule.head.args)
                    if term_is_bound(arg, bound)
                }
            result = frozenset(out) if feasible else None
        finally:
            self._active.discard(cell)
        self._memo[cell] = result
        self.reached[cell] = result is not None
        return result

    def saturate(
        self,
        literals: tuple[Literal, ...],
        bound: frozenset[Variable],
    ) -> tuple[frozenset[Variable], list[Literal]]:
        """Run the body to a dataflow fixpoint from ``bound``.

        Returns the final bound-variable set and the literals that never
        became executable (empty list ⇒ some ordering executes fully).
        """
        remaining = list(literals)
        progress = True
        while progress and remaining:
            progress = False
            for literal in list(remaining):
                after = self._step(literal, bound)
                if after is not None:
                    bound = after
                    remaining.remove(literal)
                    progress = True
        return bound, remaining

    def never_bound(
        self, literal: Literal, bound: frozenset[Variable]
    ) -> tuple[str, ...]:
        """Names of the literal's variables not bound at the fixpoint —
        the actionable part of an infeasibility message."""
        return tuple(
            sorted(v.name for v in literal.variables() if v not in bound)
        )

    # -- single step ---------------------------------------------------------

    def _step(
        self, literal: Literal, bound: frozenset[Variable]
    ) -> Optional[frozenset[Variable]]:
        if isinstance(literal, Predicate):
            adornment = adornment_of(literal.args, bound)
            produced = self.predicate_bindings(literal.key, adornment)
            if produced is None:
                return None
            new_bound = bound
            for position in produced:
                if position < len(literal.args):
                    arg = literal.args[position]
                    if isinstance(arg, Variable):
                        new_bound |= {arg}
            return new_bound
        return adorn_step(literal, bound)
