"""Summary tables: lossless and lossy compaction of the statistics cache
(paper §6.2).

A summary table for ``d:f`` keeps, per distinct combination of the
retained *dimension* positions, count-weighted aggregates of the metric
attributes.  Retaining **all** argument positions gives the paper's
**lossless** summarization: any average the cost estimator could compute
from the raw table comes out identical (we keep sums + counts, so
averages of merged groups stay exact).  Retaining a strict subset —
down to the empty set, one global row — gives **lossy** summarizations.

:func:`instantiable_positions` implements the paper's §6.2.2 program
analysis: an argument position that can never be instantiated to a known
constant at rewrite time will never be probed with a constant, so
dropping it from the dimensions loses nothing *for that program*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.model import Comparison, InAtom, Predicate, Program
from repro.core.terms import Constant, Variable
from repro.core.terms import Value
from repro.dcsm.patterns import CallPattern
from repro.dcsm.vectors import CostVector, Observation


@dataclass
class AggCell:
    """Count-weighted aggregates for one group of observations.

    Sums and counts are kept separately per metric (metrics can be missing
    per observation), so merging cells — which is how a lossy table is
    derived from a lossless one — preserves exact averages.
    """

    sum_t_first: float = 0.0
    n_t_first: int = 0
    sum_t_all: float = 0.0
    n_t_all: int = 0
    sum_card: float = 0.0
    n_card: int = 0
    count: int = 0  # the paper's "l" column: original tuples aggregated
    last_record_ms: float = 0.0

    def add(self, observation: Observation) -> None:
        vec = observation.vector
        if vec.t_first_ms is not None:
            self.sum_t_first += vec.t_first_ms
            self.n_t_first += 1
        if observation.complete and vec.t_all_ms is not None:
            self.sum_t_all += vec.t_all_ms
            self.n_t_all += 1
        if observation.complete and vec.cardinality is not None:
            self.sum_card += vec.cardinality
            self.n_card += 1
        self.count += 1
        self.last_record_ms = max(self.last_record_ms, observation.record_time_ms)

    def moved_by(self, observation: Observation) -> bool:
        """Would :meth:`add` move this cell's mean vector?  A component
        moves unless the new value equals its current mean, i.e. unless
        ``x·n == Σ`` up to float noise; a component's first value always
        moves it."""
        vec = observation.vector
        if vec.t_first_ms is not None and _moves(
            self.sum_t_first, self.n_t_first, vec.t_first_ms
        ):
            return True
        if not observation.complete:
            return False  # add() leaves T_all and Card alone
        return (
            vec.t_all_ms is not None and _moves(self.sum_t_all, self.n_t_all, vec.t_all_ms)
        ) or (
            vec.cardinality is not None
            and _moves(self.sum_card, self.n_card, vec.cardinality)
        )

    def merge(self, other: "AggCell") -> None:
        self.sum_t_first += other.sum_t_first
        self.n_t_first += other.n_t_first
        self.sum_t_all += other.sum_t_all
        self.n_t_all += other.n_t_all
        self.sum_card += other.sum_card
        self.n_card += other.n_card
        self.count += other.count
        self.last_record_ms = max(self.last_record_ms, other.last_record_ms)

    def vector(self) -> CostVector:
        return CostVector(
            t_first_ms=self.sum_t_first / self.n_t_first if self.n_t_first else None,
            t_all_ms=self.sum_t_all / self.n_t_all if self.n_t_all else None,
            cardinality=self.sum_card / self.n_card if self.n_card else None,
        )

    def copy(self) -> "AggCell":
        return AggCell(
            self.sum_t_first, self.n_t_first,
            self.sum_t_all, self.n_t_all,
            self.sum_card, self.n_card,
            self.count, self.last_record_ms,
        )


def _moves(total: float, count: int, value: float) -> bool:
    return count == 0 or abs(value * count - total) > 1e-9 * max(abs(total), 1.0)


@dataclass
class SummaryTable:
    """Aggregated statistics for one source function, grouped by the
    retained dimension positions (0-based argument indexes)."""

    domain: str
    function: str
    arity: int
    dims: tuple[int, ...]
    rows: dict[tuple[Value, ...], AggCell] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.dims = tuple(sorted(self.dims))

    @property
    def is_lossless(self) -> bool:
        return self.dims == tuple(range(self.arity))

    @property
    def is_global(self) -> bool:
        """True for the fully-aggregated one-row table d:f($b, ..., $b)."""
        return not self.dims

    def add(self, observation: Observation) -> None:
        key = tuple(observation.call.args[i] for i in self.dims)
        cell = self.rows.get(key)
        if cell is None:
            cell = AggCell()
            self.rows[key] = cell
        cell.add(observation)

    def fold(self, observation: Observation) -> bool:
        """:meth:`add` one more observation; True when that moved what
        the table answers — a new row, or a row whose mean vector moved
        (:meth:`AggCell.moved_by`)."""
        key = tuple(observation.call.args[i] for i in self.dims)
        cell = self.rows.get(key)
        if cell is None:
            cell = self.rows[key] = AggCell()
            moved = True
        else:
            moved = cell.moved_by(observation)
        cell.add(observation)
        return moved

    def answers(self, pattern: CallPattern) -> bool:
        """Can this table answer ``pattern`` by direct lookup?  Yes exactly
        when the pattern's constants sit at this table's dimensions."""
        return (
            pattern.domain == self.domain
            and pattern.function == self.function
            and pattern.arity == self.arity
            and pattern.mask == self.dims
        )

    def lookup(self, pattern: CallPattern) -> Optional[CostVector]:
        """Direct tuple lookup; None when the group was never observed."""
        if not self.answers(pattern):
            return None
        cell = self.rows.get(pattern.key_for(self.dims))
        if cell is None:
            return None
        return cell.vector()

    def can_aggregate(self, pattern: CallPattern) -> bool:
        """Can this table answer ``pattern`` at all?  Yes when the
        pattern's constants all sit at retained dimensions — possibly
        requiring aggregation over the remaining dimensions."""
        return (
            pattern.domain == self.domain
            and pattern.function == self.function
            and pattern.arity == self.arity
            and set(pattern.mask) <= set(self.dims)
        )

    def aggregate(self, pattern: CallPattern) -> tuple[Optional[CostVector], int]:
        """Answer ``pattern`` by scanning the groups compatible with its
        constants and merging their cells (count-weighted, hence exact).

        Returns ``(vector_or_None, rows_scanned)`` — the scan count is the
        "expensive aggregation" the paper's lossy tables exist to avoid.
        """
        if not self.can_aggregate(pattern):
            return None, 0
        if pattern.mask == self.dims:
            cell = self.rows.get(pattern.key_for(self.dims))
            return (cell.vector() if cell is not None else None), 1
        wanted = {
            self.dims.index(position): pattern.args[position]
            for position in pattern.mask
        }
        merged: Optional[AggCell] = None
        scanned = 0
        for key, cell in self.rows.items():
            scanned += 1
            if all(key[i] == value for i, value in wanted.items()):
                if merged is None:
                    merged = cell.copy()
                else:
                    merged.merge(cell)
        return (merged.vector() if merged is not None else None), scanned

    def size_cells(self) -> int:
        """Footprint in cells: per row, the dims plus 7 aggregate fields."""
        return len(self.rows) * (len(self.dims) + 7)

    def coarsen(self, dims: tuple[int, ...]) -> "SummaryTable":
        """Derive a lossy table retaining a subset of the dimensions.

        Because cells store sums + counts, coarsening is exact aggregation
        — the derived averages equal what the raw data would give.
        """
        dims = tuple(sorted(dims))
        if not set(dims) <= set(self.dims):
            raise ValueError(
                f"cannot coarsen dims {self.dims} to non-subset {dims}"
            )
        positions = [self.dims.index(d) for d in dims]
        coarse = SummaryTable(self.domain, self.function, self.arity, dims)
        for key, cell in self.rows.items():
            new_key = tuple(key[p] for p in positions)
            existing = coarse.rows.get(new_key)
            if existing is None:
                coarse.rows[new_key] = cell.copy()
            else:
                existing.merge(cell)
        return coarse

    @classmethod
    def summarize(
        cls,
        observations: Iterable[Observation],
        domain: str,
        function: str,
        arity: int,
        dims: Optional[tuple[int, ...]] = None,
    ) -> "SummaryTable":
        """Build a table from raw observations.  ``dims=None`` keeps every
        position — the lossless summarization of §6.2.1."""
        if dims is None:
            dims = tuple(range(arity))
        table = cls(domain, function, arity, dims)
        for observation in observations:
            if (observation.domain, observation.function) == (domain, function):
                table.add(observation)
        return table

    def __str__(self) -> str:
        dim_names = ", ".join(f"arg{d + 1}" for d in self.dims) or "(global)"
        return (
            f"SummaryTable({self.domain}:{self.function}, dims=[{dim_names}], "
            f"rows={len(self.rows)})"
        )


def instantiable_positions(program: Program) -> dict[tuple[str, str], set[int]]:
    """Which argument positions of each source function can ever hold a
    known constant at rewrite time (paper §6.2.2)?

    Constants flow *top-down*: from queries into entry-point predicates,
    through rule heads into body literals, and finally into domain-call
    arguments.  A domain-call position is instantiable when some rule has

    * a constant there,
    * a body equality pinning the variable to a constant, or
    * a variable occupying an *instantiable head position* of the rule's
      own predicate.

    A head position of predicate ``p`` is instantiable when ``p`` is an
    entry point (never called in any body — queries may bind anything) or
    some call site can pass a constant there, computed to fixpoint.  This
    captures the paper's "hidden predicate" example: the ``B`` argument of
    ``d2:q_bf`` is never instantiable when ``q`` is only reached through
    ``m`` with ``B`` fed by ``p``'s output.
    """
    # which predicates appear in rule bodies (non-entry points)
    called: set[tuple[str, int]] = set()
    for rule in program.rules:
        for literal in rule.body:
            if isinstance(literal, Predicate):
                called.add(literal.key)

    # instantiable head positions per predicate, seeded with entry points
    head_inst: dict[tuple[str, int], set[int]] = {}
    for key in program.predicates():
        name, arity = key
        head_inst[key] = set(range(arity)) if key not in called else set()

    def pinned_variables(rule) -> set[Variable]:
        """Variables equated to a constant in the rule body."""
        pinned: set[Variable] = set()
        for literal in rule.body:
            if isinstance(literal, Comparison) and literal.op in ("=", "=="):
                if isinstance(literal.left, Variable) and isinstance(
                    literal.right, Constant
                ):
                    pinned.add(literal.left)
                if isinstance(literal.right, Variable) and isinstance(
                    literal.left, Constant
                ):
                    pinned.add(literal.right)
        return pinned

    def constantish_variables(rule) -> set[Variable]:
        """Variables that can be a known constant at rewrite time."""
        out = pinned_variables(rule)
        allowed = head_inst.get(rule.head.key, set())
        for i, arg in enumerate(rule.head.args):
            if i in allowed:
                out |= arg.variables()
        return out

    # fixpoint over predicate head positions
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            known = constantish_variables(rule)
            for literal in rule.body:
                if not isinstance(literal, Predicate):
                    continue
                target = head_inst.setdefault(literal.key, set())
                for i, arg in enumerate(literal.args):
                    if i in target:
                        continue
                    if isinstance(arg, Constant) or (
                        isinstance(arg, Variable) and arg in known
                    ):
                        target.add(i)
                        changed = True

    # project onto domain calls
    out: dict[tuple[str, str], set[int]] = {}
    for rule in program.rules:
        known = constantish_variables(rule)
        for literal in rule.body:
            if not isinstance(literal, InAtom):
                continue
            key = (literal.call.domain, literal.call.function)
            positions = out.setdefault(key, set())
            for i, arg in enumerate(literal.call.args):
                if isinstance(arg, Constant):
                    positions.add(i)
                elif isinstance(arg, Variable) and arg in known:
                    positions.add(i)
                elif arg.variables() and arg.variables() <= known:
                    positions.add(i)
    return out


def lossy_dims_from_program(
    program: Program, domain: str, function: str, arity: int
) -> tuple[int, ...]:
    """Dimensions to retain for ``domain:function`` given the program: the
    instantiable positions (everything else can be dropped losslessly
    *with respect to this program's possible probes*)."""
    table = instantiable_positions(program)
    return tuple(sorted(table.get((domain, function), set()) & set(range(arity))))
