"""The DCSM façade (paper §6): record actual call costs, summarize them,
and answer ``cost(pattern)`` queries for the rule cost estimator.

Summaries
---------
:meth:`DCSM.summarize` is the paper's offline step: every summary table
rebuilt from the whole observation log.  Estimates do not wait for it.
``record`` only appends to the log; the next estimate folds what was
recorded since into the live tables' cells — exact, because a cell keeps
sums and counts — and rebuilds a function only when it is new, when the
log's cap trimmed what its tables summarise, or after a ``configure_*``
change.  :attr:`DCSM.version`, which the plan and subplan caches stamp
their entries with, moves only when a fold changed what a table answers:
a new row, or a row whose mean vector moved beyond float noise.

Modes
-----
``raw``
    Every estimate aggregates the cost-vector database directly (the
    expensive baseline of §6.2).
``lossless``
    Estimates hit lossless summary tables (all argument positions
    retained) plus the global table; raw fallback optional.
``lossy``
    Estimates hit lossy tables whose dimensions come from program
    analysis (:func:`~repro.dcsm.summary.lossy_dims_from_program`),
    explicit configuration, or — for the paper's Figure 6 "Lossy Tables"
    column — dropping *all* attributes (global averages only).

Extensibility (paper §6): a domain that exposes its own
``cost_estimator`` gets consulted first; components it cannot supply are
filled from the statistics cache.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.model import GroundCall, Program
from repro.dcsm.database import CostVectorDatabase
from repro.dcsm.estimation import CostEstimator, Estimate
from repro.dcsm.patterns import CallPattern
from repro.dcsm.summary import SummaryTable, lossy_dims_from_program
from repro.dcsm.vectors import CostVector, Observation
from repro.domains.base import CallResult
from repro.errors import EstimationError
from repro.metrics import MetricsRegistry
from repro.net.clock import SimClock

if TYPE_CHECKING:
    from repro.storage.backend import StorageBackend

MODE_RAW = "raw"
MODE_LOSSLESS = "lossless"
MODE_LOSSY = "lossy"


@dataclass
class _FunctionInfo:
    arity: int
    probe_masks: dict[tuple[int, ...], int] = field(default_factory=dict)


class DCSM:
    """Domain Cost and Statistics Module."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        mode: str = MODE_LOSSLESS,
        use_raw_fallback: bool = True,
        decay_tau_ms: Optional[float] = None,
        prior_vector: Optional[CostVector] = None,
        external_estimators: Optional[
            dict[str, Callable[[CallPattern], Optional[CostVector]]]
        ] = None,
        max_observations_per_function: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if mode not in (MODE_RAW, MODE_LOSSLESS, MODE_LOSSY):
            raise EstimationError(f"unknown DCSM mode {mode!r}")
        self.clock = clock
        self.mode = mode
        self.metrics = metrics
        self.database = CostVectorDatabase(max_observations_per_function)
        self.estimator = CostEstimator(
            database=self.database,
            use_raw_fallback=use_raw_fallback,
            decay_tau_ms=decay_tau_ms,
        )
        self.prior_vector = prior_vector
        self.external_estimators = dict(external_estimators or {})
        self._functions: dict[tuple[str, str], _FunctionInfo] = {}
        self._lossy_dims: dict[tuple[str, str], tuple[int, ...]] = {}
        self._multi_dims: dict[tuple[str, str], tuple[tuple[int, ...], ...]] = {}
        # a full rebuild is pending (configuration changed, or a warm start)
        self._summaries_stale = True
        # functions recorded since the last fold, and per function the
        # database's recorded() count its tables summarise
        self._dirty: set[tuple[str, str]] = set()
        self._folded: dict[tuple[str, str], int] = {}
        # moves whenever an estimate may come out differently (see
        # _refresh_locked): consumers holding estimates derived from the
        # statistics cache (the plan and subplan caches) compare the
        # version they saw against the current one to detect staleness
        self.version = 0
        # predicate-level first-answer statistics (paper §8's proposed
        # remedy for backtracking underprediction)
        self._predicate_t_first: dict[tuple[str, int], list[float]] = {}
        # re-entrant: summarize() may be entered from estimate() while a
        # concurrent runtime worker records; guards _functions, the
        # fold state and the summary tables (folds update cells in place,
        # so every table read holds it too), probe masks, and the
        # predicate T_first samples (the raw database carries its own lock)
        self._lock = threading.RLock()

    # -- recording -------------------------------------------------------------

    @property
    def _now(self) -> float:
        return self.clock.now_ms if self.clock is not None else 0.0

    def record(self, result: CallResult) -> Observation:
        """Record the outcome of a real call (the executor's observer)."""
        observation = Observation(
            call=result.call,
            vector=CostVector(
                t_first_ms=result.t_first_ms if result.answers else None,
                t_all_ms=result.t_all_ms,
                cardinality=float(result.cardinality),
            ),
            record_time_ms=self._now,
            complete=result.complete,
        )
        self.database.record(observation)
        if self.metrics is not None:
            self.metrics.inc("dcsm.observations")
        key = (result.call.domain, result.call.function)
        with self._lock:
            info = self._functions.get(key)
            if info is None:
                self._functions[key] = _FunctionInfo(arity=result.call.arity)
            self._dirty.add(key)
        return observation

    # -- storage backend (persistence) ------------------------------------------

    def attach_backend(self, backend: "StorageBackend", store: str = "dcsm") -> None:
        """Mirror every recorded observation into ``backend`` (see
        :mod:`repro.storage`); estimates keep reading memory only."""
        self.database.attach_backend(backend, store=store)

    def sync_backend(self) -> int:
        """Write the whole current log to the attached backend (replacing
        what it held) — for a backend attached after observations were
        recorded.  Returns the number written."""
        return self.database.sync_backend()

    def load_from_backend(self) -> int:
        """Warm restart: replay persisted observations and re-register
        their source functions so summary tables rebuild over them.
        Returns the number of observations restored."""
        count = self.database.load_from_backend()
        with self._lock:
            for domain, function in self.database.functions():
                key = (domain, function)
                if key not in self._functions:
                    observations = self.database.observations(domain, function)
                    if observations:
                        self._functions[key] = _FunctionInfo(
                            arity=observations[0].call.arity
                        )
            self._summaries_stale = True
        return count

    def record_estimate_error(
        self,
        predicted: "CostVector",
        actual_t_first_ms: Optional[float],
        actual_t_all_ms: float,
    ) -> None:
        """Record how far an estimate landed from the measured outcome.

        Feeds the ``dcsm.error.*`` histograms (relative error, so 0.5
        means 50% off regardless of scale) — the observable the paper's
        Figure 6 "utility of the DCSM" argument rests on.
        """
        if self.metrics is None:
            return
        if predicted.t_all_ms is not None and actual_t_all_ms > 0:
            self.metrics.observe(
                "dcsm.error.t_all_rel",
                abs(predicted.t_all_ms - actual_t_all_ms) / actual_t_all_ms,
            )
        if (
            predicted.t_first_ms is not None
            and actual_t_first_ms is not None
            and actual_t_first_ms > 0
        ):
            self.metrics.observe(
                "dcsm.error.t_first_rel",
                abs(predicted.t_first_ms - actual_t_first_ms) / actual_t_first_ms,
            )

    def record_predicate_first(self, name: str, arity: int, t_first_ms: float) -> None:
        """Record an observed predicate-level time-to-first-answer."""
        with self._lock:
            self._predicate_t_first.setdefault((name, arity), []).append(t_first_ms)

    def predicate_first_estimate(self, name: str, arity: int) -> Optional[float]:
        with self._lock:
            samples = self._predicate_t_first.get((name, arity))
            if not samples:
                return None
            return sum(samples) / len(samples)

    # -- summarization (offline step) ------------------------------------------

    def configure_lossy(self, domain: str, function: str, dims: tuple[int, ...]) -> None:
        """Explicitly choose the retained dimensions of one function."""
        self._lossy_dims[(domain, function)] = tuple(sorted(dims))
        self._summaries_stale = True

    def configure_tables(
        self,
        domain: str,
        function: str,
        dims_list: "list[tuple[int, ...]] | tuple[tuple[int, ...], ...]",
    ) -> None:
        """Maintain *several* summary tables for one function — the §6.3
        example keeps ``d:f(A,B,C)``, ``d:f($b,B,C)``, ``d:f($b,$b,C)``
        and ``d:f($b,$b,$b)`` side by side so differently-shaped cost
        probes each find a direct-lookup table.  Applies in LOSSY mode."""
        self._multi_dims[(domain, function)] = tuple(
            tuple(sorted(dims)) for dims in dims_list
        )
        self._summaries_stale = True

    def configure_lossy_from_program(self, program: Program) -> None:
        """Derive lossy dimensions via the §6.2.2 instantiable-attribute
        analysis for every function the program calls."""
        for key, info in self._functions.items():
            domain, function = key
            dims = lossy_dims_from_program(program, domain, function, info.arity)
            self._lossy_dims[key] = dims
        self._summaries_stale = True

    def configure_lossy_drop_all(self) -> None:
        """Figure 6's lossy variant: drop every dimension attribute."""
        for key in self._functions:
            self._lossy_dims[key] = ()
        self._summaries_stale = True

    def summarize(self) -> None:
        """Rebuild every summary table for the current mode from the whole
        observation log, and move :attr:`version` — the paper's offline
        summarization step.  Estimates never need it: they fold what was
        recorded since into the live tables first (module docstring)."""
        with self._lock:
            self._summarize_locked()

    def _summarize_locked(self) -> None:
        self.version += 1
        self.estimator.clear_tables()
        self._folded.clear()
        self._dirty.clear()
        self._summaries_stale = False
        if self.mode == MODE_RAW:
            return
        for key in list(self._functions):
            self._build_locked(key)

    def _build_locked(self, key: tuple[str, str]) -> None:
        """Summarise one function's whole log into fresh tables."""
        domain, function = key
        arity = self._functions[key].arity
        while True:  # the log and the recorded() count it ends at, consistently
            mark = self.database.recorded(domain, function)
            observations = self.database.observations(domain, function)
            if self.database.recorded(domain, function) == mark:
                break
        if self.mode == MODE_LOSSLESS:
            dims_list: tuple[tuple[int, ...], ...] = (tuple(range(arity)),)
        elif key in self._multi_dims:
            dims_list = self._multi_dims[key]
        else:
            dims_list = (self._lossy_dims.get(key, ()),)
        finest = max(dims_list, key=len) if dims_list else ()
        base = SummaryTable.summarize(observations, domain, function, arity, finest)
        tables: list[SummaryTable] = []
        seen_dims: set[tuple[int, ...]] = set()
        for dims in dims_list:
            if dims in seen_dims:
                continue
            seen_dims.add(dims)
            if dims == base.dims:
                tables.append(base)
            elif set(dims) <= set(base.dims):
                tables.append(base.coarsen(dims))
            else:
                tables.append(
                    SummaryTable.summarize(observations, domain, function, arity, dims)
                )
        if () not in seen_dims:  # always provide the global fall-through
            tables.append(base.coarsen(()))
        self.estimator.set_tables(domain, function, tables)
        self._folded[key] = mark

    def _refresh_locked(self) -> None:
        """Bring the tables up to the log before they are read: the
        pending full rebuild if there is one, else fold each dirty
        function's new observations into every one of its tables, or
        rebuild it when it is new or the cap trimmed what its tables
        summarise.  :attr:`version` moves when an answer may have: a
        rebuild, or a fold that added a row or moved a row's mean.  RAW
        mode and recency weighting read the log itself, so there any new
        observation moves it."""
        if self._summaries_stale:
            self._summarize_locked()
            return
        if not self._dirty:
            return
        dirty, self._dirty = self._dirty, set()
        moved = self.mode == MODE_RAW or self.estimator.decay_tau_ms is not None
        if self.mode != MODE_RAW:
            for key in dirty:
                mark = self._folded.get(key)
                new = None if mark is None else self.database.since(*key, mark)
                if new is None:
                    self._build_locked(key)
                    moved = True
                    continue
                tables = self.estimator.tables_for(*key)
                for observation in new:
                    for table in tables:
                        moved |= table.fold(observation)
                self._folded[key] = mark + len(new)
        if moved:
            self.version += 1

    # -- estimation --------------------------------------------------------------

    def cost(self, request: "CallPattern | GroundCall") -> CostVector:
        """The paper's single entry point: ``DCSM:cost(d:f(5, $b))``."""
        return self.estimate(request).vector

    def estimate(self, request: "CallPattern | GroundCall") -> Estimate:
        try:
            estimate = self._estimate(request)
        except EstimationError:
            if self.metrics is not None:
                self.metrics.inc("dcsm.estimates.failed")
            raise
        if self.metrics is not None:
            self.metrics.inc("dcsm.estimates")
            self.metrics.inc(f"dcsm.estimates.{estimate.source}")
        return estimate

    def _estimate(self, request: "CallPattern | GroundCall") -> Estimate:
        if isinstance(request, GroundCall):
            pattern = CallPattern.from_call(request)
        else:
            pattern = request
        with self._lock:
            self._note_probe(pattern)

        external = self.external_estimators.get(pattern.domain)
        external_vector: Optional[CostVector] = None
        if external is not None:
            external_vector = external(pattern)
            if external_vector is not None and external_vector.is_full():
                return Estimate(
                    vector=external_vector,
                    pattern=pattern,
                    relaxations=0,
                    table_lookups=0,
                    raw_aggregations=0,
                    source="external",
                )

        try:
            with self._lock:
                self._refresh_locked()
                if self.estimator.decay_tau_ms is not None:
                    # recency weighting needs per-observation timestamps,
                    # which summary cells deliberately aggregate away —
                    # estimate from the raw log (the paper treats
                    # recency-biased summaries as future work, §6.2.2)
                    estimate = self._estimate_decayed(pattern)
                else:
                    estimate = self.estimator.estimate(pattern, now_ms=self._now)
        except EstimationError:
            if external_vector is not None and not external_vector.is_empty():
                return Estimate(external_vector, pattern, 0, 0, 0, "external")
            if self.prior_vector is not None:
                return Estimate(self.prior_vector, pattern, 0, 0, 0, "prior")
            raise
        if external_vector is not None:
            merged = external_vector.fill_missing_from(estimate.vector)
            return Estimate(
                merged, pattern, estimate.relaxations, estimate.table_lookups,
                estimate.raw_aggregations, "external+" + estimate.source,
            )
        return estimate

    def _estimate_decayed(self, pattern: CallPattern) -> Estimate:
        vector, trace = self.database.estimate(
            pattern,
            now_ms=self._now,
            decay_tau_ms=self.estimator.decay_tau_ms,
        )
        self.estimator.stats.raw_aggregations += 1
        self.estimator.stats.raw_observations_scanned += trace.observations_scanned
        if vector.is_empty():
            raise EstimationError(
                f"no statistics recorded for {pattern.qualified_name}"
            )
        return Estimate(
            vector=vector,
            pattern=pattern,
            relaxations=0,
            table_lookups=0,
            raw_aggregations=1,
            source="raw-decayed",
        )

    # -- probe bookkeeping (usage-based lossy suggestion) ---------------------------

    def _note_probe(self, pattern: CallPattern) -> None:
        key = (pattern.domain, pattern.function)
        info = self._functions.get(key)
        if info is None:
            info = _FunctionInfo(arity=pattern.arity)
            self._functions[key] = info
        info.probe_masks[pattern.mask] = info.probe_masks.get(pattern.mask, 0) + 1

    def suggest_dims(self, domain: str, function: str) -> tuple[int, ...]:
        """Dimensions worth retaining judging by actual probe traffic: the
        union of constant positions across observed cost() requests
        (paper §6.2.2: "watch for the access patterns ... and decide")."""
        info = self._functions.get((domain, function))
        if info is None or not info.probe_masks:
            return ()
        retained: set[int] = set()
        for mask in info.probe_masks:
            retained.update(mask)
        return tuple(sorted(retained))

    # -- introspection ----------------------------------------------------------

    def size_cells(self) -> int:
        """Current storage footprint in cells (raw db in RAW mode, summary
        tables otherwise)."""
        if self.mode == MODE_RAW:
            return self.database.size_cells()
        with self._lock:
            self._refresh_locked()
            return sum(
                table.size_cells()
                for tables in self.estimator._tables.values()
                for table in tables
            )

    def observation_count(self) -> int:
        return len(self.database)

    def describe(self) -> str:
        """Human-readable snapshot of the statistics cache: per-function
        observation counts and the summary tables currently maintained."""
        with self._lock:
            self._refresh_locked()
            lines = [
                f"DCSM mode={self.mode}, {len(self.database)} observations, "
                f"{self.size_cells()} cells"
            ]
            for domain, function in self.database.functions():
                count = len(self.database.observations(domain, function))
                tables = self.estimator.tables_for(domain, function)
                rendered = (
                    ", ".join(str(table) for table in tables) or "(no tables)"
                )
                lines.append(f"  {domain}:{function}: {count} obs; {rendered}")
        if self.external_estimators:
            lines.append(
                "  external estimators: "
                + ", ".join(sorted(self.external_estimators))
            )
        return "\n".join(lines)
