"""The lookup-with-relaxation estimation algorithm (paper §6.3).

Given a call pattern ``p(c₁,…,cₙ,$b,…,$b)`` and a collection of summary
tables:

1. find a table whose dimensions equal the pattern's constant positions
   and look up the exact group tuple; if found, done;
2. otherwise relax — replace one constant with ``$b`` — and recurse,
   breadth-first over decreasing constant counts (so the estimate uses as
   many known constants as any table can honour);
3. as a last resort fall back to the raw cost-vector database (full
   aggregation), when one is attached.

Missing metric components (a group that never completed a call has no
``T_all``) are filled from the next, more relaxed, lookup level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dcsm.database import CostVectorDatabase
from repro.dcsm.patterns import CallPattern
from repro.dcsm.summary import SummaryTable
from repro.dcsm.vectors import CostVector, EMPTY_VECTOR
from repro.errors import EstimationError


@dataclass(frozen=True, slots=True)
class Estimate:
    """A cost estimate plus how it was obtained (for experiments/EXPLAIN)."""

    vector: CostVector
    pattern: CallPattern
    relaxations: int  # constants dropped from the request to the answer
    table_lookups: int  # direct tuple probes performed
    raw_aggregations: int  # full raw-database aggregations performed
    source: str  # 'summary' | 'raw' | 'mixed' | 'none'


@dataclass
class EstimatorStats:
    """Cumulative work counters (the summarization experiment's y-axis)."""

    estimates: int = 0
    table_lookups: int = 0
    table_rows_scanned: int = 0
    raw_aggregations: int = 0
    raw_observations_scanned: int = 0


class CostEstimator:
    """Estimates call patterns from summary tables and/or the raw database."""

    def __init__(
        self,
        tables: "list[SummaryTable] | tuple[SummaryTable, ...]" = (),
        database: Optional[CostVectorDatabase] = None,
        use_raw_fallback: bool = True,
        decay_tau_ms: Optional[float] = None,
    ):
        self._tables: dict[tuple[str, str], list[SummaryTable]] = {}
        for table in tables:
            self.add_table(table)
        self.database = database
        self.use_raw_fallback = use_raw_fallback
        self.decay_tau_ms = decay_tau_ms
        self.stats = EstimatorStats()

    def add_table(self, table: SummaryTable) -> None:
        self._tables.setdefault((table.domain, table.function), []).append(table)

    def tables_for(self, domain: str, function: str) -> tuple[SummaryTable, ...]:
        return tuple(self._tables.get((domain, function), ()))

    def set_tables(self, domain: str, function: str, tables: list[SummaryTable]) -> None:
        """Replace every table of ``domain:function``."""
        self._tables[(domain, function)] = tables

    def clear_tables(self) -> None:
        self._tables.clear()

    # -- the algorithm -------------------------------------------------------

    def estimate(self, pattern: CallPattern, now_ms: Optional[float] = None) -> Estimate:
        """Estimate ``pattern``; raises EstimationError when no statistics
        exist anywhere for the function."""
        self.stats.estimates += 1
        tables = self._tables.get((pattern.domain, pattern.function), ())
        lookups = 0
        raw_aggs = 0
        relaxations_used = 0
        accumulated = EMPTY_VECTOR
        used_summary = False

        # BFS over the relaxation lattice: all patterns with k constants
        # before any pattern with k-1.  Per candidate, prefer a direct
        # tuple lookup (table dims == pattern mask) and only then fall
        # back to aggregating a finer-grained table (dims ⊃ mask) — the
        # paper's "expensive aggregation" path that lossy tables avoid.
        frontier: list[CallPattern] = [pattern]
        seen: set[tuple] = {pattern.args}
        level = 0
        rows_scanned = 0
        while frontier and not accumulated.is_full():
            next_frontier: list[CallPattern] = []
            for candidate in frontier:
                exact = [t for t in tables if t.answers(candidate)]
                finer = [
                    t for t in tables
                    if t.can_aggregate(candidate) and not t.answers(candidate)
                ]
                for table in exact + finer:
                    lookups += 1
                    vector, scanned = table.aggregate(candidate)
                    rows_scanned += scanned
                    if vector is None or vector.is_empty():
                        continue
                    before = accumulated
                    accumulated = accumulated.fill_missing_from(vector)
                    if accumulated != before:
                        used_summary = True
                        relaxations_used = max(relaxations_used, level)
                    if accumulated.is_full():
                        break
                if accumulated.is_full():
                    break
                for relaxed in candidate.relaxations():
                    if relaxed.args not in seen:
                        seen.add(relaxed.args)
                        next_frontier.append(relaxed)
            frontier = next_frontier
            level += 1
        self.stats.table_rows_scanned += rows_scanned

        used_raw = False
        if not accumulated.is_full() and self.use_raw_fallback and self.database is not None:
            vector, trace = self.database.estimate(
                pattern, now_ms=now_ms, decay_tau_ms=self.decay_tau_ms
            )
            raw_aggs += 1
            self.stats.raw_observations_scanned += trace.observations_scanned
            if not vector.is_empty():
                used_raw = True
                accumulated = accumulated.fill_missing_from(vector)

        self.stats.table_lookups += lookups
        self.stats.raw_aggregations += raw_aggs

        if accumulated.is_empty():
            raise EstimationError(
                f"no statistics recorded for {pattern.qualified_name} "
                f"(pattern {pattern})"
            )
        source = (
            "mixed" if used_summary and used_raw
            else "summary" if used_summary
            else "raw"
        )
        return Estimate(
            vector=accumulated,
            pattern=pattern,
            relaxations=relaxations_used,
            table_lookups=lookups,
            raw_aggregations=raw_aggs,
            source=source,
        )
