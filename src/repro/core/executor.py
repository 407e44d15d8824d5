"""The execution engine: pipelined nested-loop evaluation of plans.

Evaluation is generator-based and *streaming*: a domain call's answers are
consumed one at a time, and simulated time is charged per answer (the
first answer costs the call's ``T_first``, the rest spread evenly up to
``T_all``).  Consequences that match the paper's observations:

* the query's time-to-first-answer accumulates genuine *backtracking*
  cost — if early branches of the outer call yield no inner matches, the
  clock keeps running, which is exactly why the paper found first-answer
  times hard to predict (§8);
* stopping early (interactive mode, ``max_answers``) leaves the remaining
  simulated work uncharged, like HERMES killing still-running external
  programs.

Two answer modes (paper §3): ``all`` computes everything; ``interactive``
delivers answers in batches and asks a callback whether to continue.

One class interprets every plan.  :meth:`Executor.run` picks a *dispatch
strategy* from what it can observe — ``jobs`` and the plan's dependency
DAG: the **inline** strategy is the nested loop on the caller's thread;
the **pool** strategy (:mod:`repro.runtime.scheduler`) overlaps
independent calls on worker threads.  Both drive the same
``_solve``/``_dispatch`` under a per-run :class:`_RunContext`, feed the
same answer loop, and populate the subplan tier through the same routine.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Iterator, Optional, Sequence

from repro.cancellation import CancellationToken
from repro.cim.manager import CacheInvariantManager
from repro.core.model import Comparison, GroundCall
from repro.core.plans import CallStep, CompareStep, Plan, PlanStep
from repro.core.subplan import (
    CanonicalPrefix,
    SubplanResultCache,
    SubplanRow,
    canonicalize_prefix,
    project_row,
    replay_cost_ms,
    row_subst,
    subplan_cuts,
)
from repro.core.terms import Constant, Term, Value, Variable
from repro.core.unify import Substitution, resolve, resolve_ground, unify
from repro.dcsm.module import DCSM
from repro.domains.base import SOURCE_DOMAIN, SOURCE_MISSING, CallResult
from repro.domains.registry import DomainRegistry
from repro.errors import (
    NotGroundError,
    ReproError,
    is_terminal_source_error,
)
from repro.metrics import MetricsRegistry
from repro.net.clock import SimClock
from repro.net.health import HealthRegistry, HedgePolicy
from repro.net.policy import RetryPolicy, run_with_retry
from repro.storage.tier import Ticket

if TYPE_CHECKING:
    from repro.runtime.singleflight import SingleFlight

MODE_ALL = "all"
MODE_INTERACTIVE = "interactive"

#: Decides after each interactive batch whether to fetch more answers.
ContinueCallback = Callable[[list[tuple[Value, ...]], int], bool]

#: A prefetch/single-flight key: one ground call and its routing.
CallKey = tuple[GroundCall, bool]

#: A stream of solved substitutions.
Bindings = Generator[dict[Variable, Term], None, None]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One dispatched source call, as recorded by ``run(..., trace=True)``."""

    call: GroundCall
    provenance: str
    cardinality: int
    t_first_ms: float
    t_all_ms: float
    at_ms: float  # simulated instant the call was issued

    def __str__(self) -> str:
        return (
            f"[{self.at_ms:9.2f}ms] {self.call} -> {self.cardinality} answers "
            f"({self.provenance}, Tf={self.t_first_ms:.2f} Ta={self.t_all_ms:.2f})"
        )


@dataclass
class ExecutionResult:
    """What one plan execution produced and cost.

    ``complete`` is False when the consumer stopped early (interactive /
    ``max_answers``) *or* when any source served an incomplete answer set
    (a CIM partial-only hit or stale answers during an outage).
    """

    answers: tuple[tuple[Value, ...], ...]
    answer_vars: tuple[Variable, ...]
    t_first_ms: Optional[float]
    t_all_ms: float
    complete: bool
    calls: int
    provenance: Counter = field(default_factory=Counter)
    trace: tuple[TraceEvent, ...] = ()
    retries: int = 0
    degraded_calls: int = 0
    hedged_calls: int = 0
    # domains whose call-steps failed terminally and were replaced by an
    # empty placeholder (partial-answer mode): answers that needed them
    # are absent, and the Completeness annotation reports them by name
    missing_sources: frozenset = frozenset()

    @property
    def cardinality(self) -> int:
        return len(self.answers)

    @property
    def degraded(self) -> bool:
        """True when any call was answered from stale cache state because
        its source stayed unreachable through the retry policy."""
        return self.degraded_calls > 0

    def rows(self) -> list[dict[str, Value]]:
        """Answers as dicts keyed by variable name."""
        names = [var.name for var in self.answer_vars]
        return [dict(zip(names, answer)) for answer in self.answers]


@dataclass(slots=True)
class _RunContext:
    """Everything one run — or one worker task of it — owns while it solves.

    The main run charges the executor's shared clock; a pool-strategy
    worker task solves under a :meth:`child` with a private clock, memo,
    counters and row collectors, sharing only the run's prefetch table,
    single-flight group and cancellation token.  The counters carry the
    names of the :class:`ExecutionResult` fields they become, so
    :meth:`absorb` folds in either a finished child or
    (:func:`merge_results`) a finished run's result.
    """

    clock: SimClock
    provenance: Counter = field(default_factory=Counter)
    calls: int = 0
    retries: int = 0
    degraded_calls: int = 0
    hedged_calls: int = 0
    missing_sources: set = field(default_factory=set)
    # False once any source served an incomplete answer set
    complete: bool = True
    memo: dict = field(default_factory=dict)
    trace: Optional[list[TraceEvent]] = None
    # per-run retry-jitter stream: seeded fresh for every run (salted per
    # worker task) so executions are reproducible and never share RNG state
    rng: Optional[random.Random] = None
    # the stop signal, checked before every source dial so a cancelled
    # query freezes its dial count mid-plan (paper §3: killing a running
    # query must stop the external programs it spawned)
    cancel_token: Optional[CancellationToken] = None
    # pool strategy: wave results replayed at memo cost, and the group
    # that lets concurrent identical calls share one source round trip
    prefetch: Optional[dict[CallKey, CallResult]] = None
    flight: Optional["SingleFlight"] = None
    # subplan tier: per cut, the rows that streamed past it (None once an
    # unground binding made the cut unreplayable)
    collectors: Optional[list[Optional[list[SubplanRow]]]] = None
    start_ms: float = 0.0
    # pool strategy: the instant the first answer existed — its branch
    # finished before the merge loop reached it
    first_answer_at_ms: Optional[float] = None

    def child(self, now_ms: float, rng: Optional[random.Random]) -> "_RunContext":
        """The context of one worker task starting at ``now_ms``."""
        return _RunContext(
            clock=SimClock(now_ms),
            trace=None if self.trace is None else [],
            rng=rng,
            cancel_token=self.cancel_token,
            prefetch=self.prefetch,
            flight=self.flight,
            collectors=(
                None if self.collectors is None else [[] for _ in self.collectors]
            ),
        )

    def absorb(self, other: "_RunContext | ExecutionResult") -> None:
        """Fold a finished child context (or a union branch's result) in;
        children must be absorbed in binding order."""
        self.calls += other.calls
        self.retries += other.retries
        self.degraded_calls += other.degraded_calls
        self.hedged_calls += other.hedged_calls
        self.missing_sources |= other.missing_sources
        self.complete = self.complete and other.complete
        self.provenance.update(other.provenance)
        if self.trace is not None and other.trace:
            self.trace.extend(other.trace)
        if self.collectors is not None and isinstance(other, _RunContext):
            assert other.collectors is not None
            for which, rows in enumerate(other.collectors):
                mine = self.collectors[which]
                if rows is None:
                    self.collectors[which] = None
                elif mine is not None:
                    mine.extend(rows)

    def clean(self) -> bool:
        """True while nothing this run consumed was partial, stale or
        missing — the only state in which what it enumerated may populate
        the subplan tier (a partial prefix replayed later would silently
        drop answers)."""
        return self.complete and self.degraded_calls == 0 and not self.missing_sources

    def result(
        self,
        answers: Sequence[tuple[Value, ...]],
        answer_vars: tuple[Variable, ...],
        t_first_ms: Optional[float],
        t_all_ms: float,
        exhausted: bool,
    ) -> ExecutionResult:
        return ExecutionResult(
            answers=tuple(answers),
            answer_vars=answer_vars,
            t_first_ms=t_first_ms,
            t_all_ms=t_all_ms,
            complete=exhausted and self.complete,
            calls=self.calls,
            provenance=self.provenance,
            trace=tuple(self.trace) if self.trace is not None else (),
            retries=self.retries,
            degraded_calls=self.degraded_calls,
            hedged_calls=self.hedged_calls,
            missing_sources=frozenset(self.missing_sources),
        )


def merge_results(
    results: Sequence[ExecutionResult],
    answers: Sequence[tuple[Value, ...]],
    answer_vars: tuple[Variable, ...],
    t_first_ms: Optional[float],
    t_all_ms: float,
    exhausted: bool,
) -> ExecutionResult:
    """One result for several runs (union semantics): the caller supplies
    the merged answers and timing, the counters fold through the same
    field list that merges a worker task into its run."""
    merged = _RunContext(SimClock(), trace=[])
    for result in results:
        merged.absorb(result)
    return merged.result(answers, answer_vars, t_first_ms, t_all_ms, exhausted)


@dataclass(slots=True)
class _SubplanRun:
    """One run's view of the subplan tier: the plan's cuts with their
    canonical keys, which cut (if any) was replayed, and how many of the
    cuts the cache already holds."""

    cache: SubplanResultCache
    steps: tuple[PlanStep, ...]
    cuts: tuple[int, ...]
    prefixes: list[tuple[PlanStep, ...]]  # steps[:cut] per cut
    canons: list[CanonicalPrefix]
    opened_ms: float
    # taken before the first probe: rows are refused at finalize if the
    # program or one of their sources changed while the run was in flight
    ticket: Ticket
    hit: int = -1  # index into cuts of the replayed cut
    rows: tuple[SubplanRow, ...] = ()
    base_cost_ms: float = 0.0  # what materializing the replayed cut cost
    stored: int = 0  # cuts[:stored] are in the cache


class Executor:
    """Runs plans against the domain registry and/or the CIM."""

    def __init__(
        self,
        registry: DomainRegistry,
        clock: SimClock,
        cim: Optional[CacheInvariantManager] = None,
        dcsm: Optional[DCSM] = None,
        record_statistics: bool = True,
        init_overhead_ms: float = 5.0,
        display_cost_ms: float = 0.05,
        memoize_calls: bool = False,
        memo_hit_cost_ms: float = 0.01,
        policy: Optional[RetryPolicy] = None,
        degrade_on_failure: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        verify_plans: bool = False,
        health: Optional[HealthRegistry] = None,
        hedge_policy: Optional[HedgePolicy] = None,
        partial_on_failure: bool = False,
        subplan: Optional[SubplanResultCache] = None,
        jobs: int = 1,
        subplan_flight: Optional["SingleFlight"] = None,
    ):
        self.registry = registry
        self.clock = clock
        self.cim = cim
        self.dcsm = dcsm
        self.record_statistics = record_statistics
        self.init_overhead_ms = init_overhead_ms
        self.display_cost_ms = display_cost_ms
        # resilience: with a policy, failing dispatches are retried with
        # backoff; when the source stays down the CIM is consulted for
        # degraded (stale-but-usable) answers before the error propagates
        self.policy = policy
        self.degrade_on_failure = degrade_on_failure
        self.metrics = metrics
        # the paper (§7 footnote 2) executes nested loops with NO duplicate
        # elimination, so the same ground call may be issued repeatedly;
        # "caching gets around the disadvantages".  memoize_calls=True is
        # the lightweight in-query version of that remark: identical calls
        # within ONE plan execution are answered from a per-run memo.
        self.memoize_calls = memoize_calls
        self.memo_hit_cost_ms = memo_hit_cost_ms
        # debug assertion: replay every plan through the independent
        # verifier (repro.analysis.verifier) before executing it
        self.verify_plans = verify_plans
        # self-healing: the health registry supplies per-source latency
        # quantiles (hedging thresholds); with a hedge policy, a call
        # running past its source's quantile dispatches a duplicate and
        # the first finisher wins.  partial_on_failure turns terminal
        # call-step failures into empty incomplete placeholders so the
        # rest of the plan still produces (annotated) partial answers.
        self.health = health
        self.hedge_policy = hedge_policy
        self.partial_on_failure = partial_on_failure
        # the middle caching tier (docs/CACHING.md): materialized results
        # of plan prefixes, replayed for any plan with the same canonical
        # prefix — across queries, not just within one run like the memo
        self.subplan = subplan
        # worker count of the pool strategy; 1 always runs inline
        self.jobs = max(1, int(jobs))
        # single-flight over subplan keys, shared across runs (the mediator
        # owns it): one concurrent query's materialization of the fan-out
        # prefix feeds another query's
        self.subplan_flight = subplan_flight

    def set_policy(self, policy: Optional[RetryPolicy]) -> None:
        """Swap the retry policy (each run seeds its own jitter stream)."""
        self.policy = policy

    def _fresh_rng(self, salt: int = 0) -> Optional[random.Random]:
        """A per-run (or per-worker, via ``salt``) retry-jitter stream."""
        if self.policy is None:
            return None
        return random.Random(self.policy.seed * 2_654_435_761 + salt)

    # -- public API -----------------------------------------------------------

    def run(
        self,
        plan: Plan,
        mode: str = MODE_ALL,
        max_answers: Optional[int] = None,
        batch_size: int = 10,
        continue_callback: Optional[ContinueCallback] = None,
        initial_subst: Optional[dict[Variable, Term]] = None,
        max_time_ms: Optional[float] = None,
        trace: bool = False,
        cancel_token: Optional[CancellationToken] = None,
    ) -> ExecutionResult:
        """Execute ``plan`` and collect its answers with timing.

        ``mode="interactive"`` delivers batches of ``batch_size`` and
        consults ``continue_callback(batch, total_so_far)`` between them —
        a ``False`` stops execution (the result is flagged incomplete).

        ``max_time_ms`` is a simulated-time budget: execution stops (and
        the result is flagged incomplete) once the budget is exhausted,
        checked between answers — like a user abandoning a slow query.

        ``cancel_token`` is the wire-level kill switch: it is checked
        before every source dial and between answers, and a fired token
        aborts the run with :class:`~repro.errors.ExecutionCancelledError`
        rather than returning a truncated result.

        With ``jobs > 1`` and a plan that has independent calls to overlap
        the bindings come from the worker pool; answers, their order and
        the result contract are the same either way.
        """
        if mode not in (MODE_ALL, MODE_INTERACTIVE):
            raise ReproError(f"unknown execution mode {mode!r}")
        ctx, sub, bindings = self._open(plan, initial_subst, trace, cancel_token)
        clock = self.clock
        start_ms = ctx.start_ms
        answers: list[tuple[Value, ...]] = []
        t_first: Optional[float] = None
        exhausted = True
        batch: list[tuple[Value, ...]] = []
        try:
            for subst in bindings:
                if cancel_token is not None:
                    cancel_token.raise_if_cancelled("between answers")
                answer = self._project(plan.answer_vars, subst)
                clock.advance(self.display_cost_ms)
                if t_first is None:
                    at_ms = ctx.first_answer_at_ms
                    t_first = (
                        clock.now_ms
                        if at_ms is None
                        else at_ms + self.display_cost_ms
                    ) - start_ms
                answers.append(answer)
                if max_answers is not None and len(answers) >= max_answers:
                    exhausted = False
                    break
                if (
                    max_time_ms is not None
                    and clock.now_ms - start_ms >= max_time_ms
                ):
                    exhausted = False
                    break
                if mode == MODE_INTERACTIVE:
                    batch.append(answer)
                    if len(batch) >= batch_size:
                        keep_going = (
                            continue_callback(batch, len(answers))
                            if continue_callback is not None
                            else True
                        )
                        batch = []
                        if not keep_going:
                            exhausted = False
                            break
        finally:
            # stops the pool strategy's workers; a no-op once exhausted
            bindings.close()
        if exhausted and sub is not None:
            self._subplan_finalize(sub, ctx)
        return ctx.result(
            answers, plan.answer_vars, t_first, clock.now_ms - start_ms, exhausted
        )

    def stream(
        self,
        plan: Plan,
        initial_subst: Optional[dict[Variable, Term]] = None,
    ) -> "Iterator[tuple[Value, ...]]":
        """Lazily yield projected answers, charging simulated time as the
        consumer pulls.  Abandoning the iterator abandons the remaining
        (uncharged) work — the cursor/interactive building block, so it
        always solves inline (the pool strategy works ahead of its
        consumer) and stays out of the subplan tier: the consumer decides
        how long the enumeration stays open, and rows read before a
        ``notify_source_changed`` must not be stored after it."""
        _ctx, _sub, bindings = self._open(plan, initial_subst, lazy=True)
        for subst in bindings:
            self.clock.advance(self.display_cost_ms)
            yield self._project(plan.answer_vars, subst)

    def _open(
        self,
        plan: Plan,
        initial_subst: Optional[dict[Variable, Term]],
        trace: bool = False,
        cancel_token: Optional[CancellationToken] = None,
        lazy: bool = False,
    ) -> tuple[_RunContext, Optional[_SubplanRun], Bindings]:
        """Start one execution: the run context, its subplan-tier state and
        the plan's binding stream under the strategy that fits.  A ``lazy``
        execution (a cursor) is pulled at its consumer's pace: inline, and
        outside the subplan tier."""
        subst0: dict[Variable, Term] = dict(initial_subst or {})
        if self.verify_plans:
            # imported lazily: the executor must not pull the analysis
            # package in on the hot path when the assertion is off
            from repro.analysis.verifier import assert_plan_verified

            assert_plan_verified(
                plan, bound_vars=frozenset(subst0), registry=self.registry
            )
        clock = self.clock
        ctx = _RunContext(
            clock,
            trace=[] if trace else None,
            rng=self._fresh_rng(),
            cancel_token=cancel_token,
            start_ms=clock.now_ms,
        )
        clock.advance(self.init_overhead_ms)
        sub = None if lazy else self._subplan_open(plan.steps, subst0, ctx)
        if self.jobs > 1 and not lazy:
            # imported lazily: repro.runtime builds on this module
            from repro.runtime.dag import build_dag
            from repro.runtime.scheduler import pool_bindings

            dag = build_dag(plan, frozenset(subst0))
            if len(dag.root_calls) > 1 or dag.first_dependent_call() is not None:
                return ctx, sub, pool_bindings(self, plan, dag, subst0, ctx, sub)
        return ctx, sub, self._bindings(plan.steps, sub, subst0, ctx)

    def _bindings(
        self,
        tail: tuple[PlanStep, ...],
        sub: Optional[_SubplanRun],
        subst0: dict[Variable, Term],
        ctx: _RunContext,
        stop: Optional[int] = None,
    ) -> Bindings:
        """The inline strategy: ``tail``'s nested loops under ``ctx`` — the
        whole plan, or ``steps[:cuts[stop - 1]]`` for the pool strategy's
        outer loop.  Through the subplan tier when the run has one: replay
        the hit (if any cut hit), then solve on to the end of ``tail``,
        collecting the rows of ``cuts[hit + 1:stop]`` on the way."""
        if sub is None:
            return self._solve(tail, 0, subst0, ctx)
        if stop is None:
            stop = len(sub.cuts)
        if sub.hit < 0:
            return self._subplan_tee(sub, 0, stop, tail, 0, subst0, ctx)
        return self._subplan_replay(sub, stop, tail, subst0, ctx)

    # -- subplan tier ---------------------------------------------------------

    def _subplan_open(
        self,
        steps: tuple[PlanStep, ...],
        subst0: dict[Variable, Term],
        ctx: _RunContext,
    ) -> Optional[_SubplanRun]:
        """Probe every cut of the plan, longest prefix first.  A hit is
        adopted for replay (its source calls never dispatch); every cut
        deeper than it gets a row collector."""
        cache = self.subplan
        if cache is None:
            return None
        cuts = subplan_cuts(steps)
        if not cuts:
            return None
        prefixes = [steps[:cut] for cut in cuts]
        canons = [canonicalize_prefix(prefix, subst0) for prefix in prefixes]
        now_ms = ctx.clock.now_ms
        sub = _SubplanRun(cache, steps, cuts, prefixes, canons, now_ms, cache.ticket())
        found = cache.match([canon.key for canon in reversed(canons)], now_ms=now_ms)
        if found is not None:
            key, entry = found
            which = next(i for i, canon in enumerate(canons) if canon.key == key)
            self._subplan_adopt(sub, which, entry.rows, entry.cost_ms, ctx)
        if sub.stored < len(cuts):
            ctx.collectors = [[] for _ in cuts]
        return sub

    def _subplan_adopt(
        self,
        sub: _SubplanRun,
        which: int,
        rows: tuple[SubplanRow, ...],
        cost_ms: float,
        ctx: _RunContext,
    ) -> None:
        """Replay ``rows`` in place of the prefix up to ``cuts[which]``."""
        sub.hit = which
        sub.rows = rows
        sub.base_cost_ms = cost_ms
        sub.stored = which + 1
        ctx.clock.advance(replay_cost_ms(len(rows), self.memo_hit_cost_ms))
        ctx.provenance["subplan"] += len(rows)

    def _subplan_replay(
        self,
        sub: _SubplanRun,
        stop: int,
        tail: tuple[PlanStep, ...],
        subst0: dict[Variable, Term],
        ctx: _RunContext,
    ) -> Bindings:
        """Feed the cached rows into the steps after their cut, in
        materialization order (answer-sequence parity with a cold run)."""
        cut = sub.cuts[sub.hit]
        var_order = sub.canons[sub.hit].var_order
        if sub.hit + 1 == stop:
            # nothing deeper to collect
            for row in sub.rows:
                yield from self._solve(
                    tail, cut, row_subst(var_order, row, subst0), ctx
                )
            return
        for row in sub.rows:
            yield from self._subplan_tee(
                sub, sub.hit + 1, stop, tail, cut, row_subst(var_order, row, subst0), ctx
            )

    def _subplan_tee(
        self,
        sub: _SubplanRun,
        which: int,
        stop: int,
        tail: tuple[PlanStep, ...],
        lo: int,
        subst: dict[Variable, Term],
        ctx: _RunContext,
    ) -> Bindings:
        """Solve ``tail`` on from step ``lo``, collecting into
        ``ctx.collectors`` the bindings that stream past
        ``cuts[which:stop]`` — streaming order and timing are exactly
        ``_solve``'s."""
        if which == stop:
            yield from self._solve(tail, lo, subst, ctx)
            return
        collectors = ctx.collectors
        assert collectors is not None
        var_order = sub.canons[which].var_order
        for out in self._solve(sub.prefixes[which], lo, subst, ctx):
            rows = collectors[which]
            if rows is not None:
                row = project_row(var_order, out)
                if row is None:
                    # an unground prefix variable: replaying this cut
                    # later could not reconstruct the substitution
                    collectors[which] = None
                else:
                    rows.append(row)
            yield from self._subplan_tee(
                sub, which + 1, stop, tail, sub.cuts[which], out, ctx
            )

    def _subplan_finalize(self, sub: _SubplanRun, ctx: _RunContext) -> None:
        """The one populate rule: store the collected cuts the cache lacks.
        The caller invokes it only once every binding of the plan was
        enumerated; it stores nothing unless the run is also clean."""
        if sub.stored >= len(sub.cuts) or not ctx.clean():
            return
        assert ctx.collectors is not None
        calls_before = [0]
        for step in sub.steps:
            calls_before.append(calls_before[-1] + isinstance(step, CallStep))
        replayed = calls_before[sub.cuts[sub.hit]] if sub.hit >= 0 else 0
        span = max(calls_before[-1] - replayed, 1)
        now_ms = ctx.clock.now_ms
        elapsed = now_ms - sub.opened_ms
        for which in range(sub.stored, len(sub.cuts)):
            rows = ctx.collectors[which]
            if rows is None:
                continue
            # the prefix's share, by call count, of the work since the replay
            share = (calls_before[sub.cuts[which]] - replayed) / span
            sub.cache.put(
                sub.canons[which],
                rows,
                now_ms=now_ms,
                cost_ms=sub.base_cost_ms + elapsed * share,
                ticket=sub.ticket,
            )
        sub.stored = len(sub.cuts)

    # -- evaluation core -----------------------------------------------------------

    def _solve(
        self,
        steps: tuple,
        index: int,
        subst: dict[Variable, Term],
        ctx: _RunContext,
    ) -> Bindings:
        if index == len(steps):
            yield subst
            return
        step = steps[index]
        if isinstance(step, CompareStep):
            yield from self._eval_comparison(step.comparison, steps, index, subst, ctx)
            return
        assert isinstance(step, CallStep)
        ground = step.atom.call.ground(subst)
        if self.memoize_calls:
            memo_key = (ground, step.via_cim)
            cached = ctx.memo.get(memo_key)
            if cached is not None:
                result = self._at_memo_cost(ground, cached, "memo")
            else:
                result = ctx.memo[memo_key] = self._dispatch(ground, step.via_cim, ctx)
        else:
            result = self._dispatch(ground, step.via_cim, ctx)
        ctx.provenance[result.provenance] += 1
        ctx.calls += 1
        if not result.complete:
            ctx.complete = False
        if ctx.trace is not None:
            ctx.trace.append(
                TraceEvent(
                    call=ground,
                    provenance=result.provenance,
                    cardinality=result.cardinality,
                    t_first_ms=result.t_first_ms,
                    t_all_ms=result.t_all_ms,
                    at_ms=ctx.clock.now_ms,
                )
            )
        yield from self._consume(result, step, steps, index, subst, ctx)

    def _consume(
        self,
        result: CallResult,
        step: CallStep,
        steps: tuple,
        index: int,
        subst: dict[Variable, Term],
        ctx: _RunContext,
    ) -> Bindings:
        """Stream a call's answers, charging simulated time per answer."""
        clock = ctx.clock
        n = len(result.answers)
        if n == 0:
            clock.advance(result.t_all_ms)
            return
        gap = (result.t_all_ms - result.t_first_ms) / (n - 1) if n > 1 else 0.0
        output = step.atom.output
        try:
            membership_value = resolve_ground(output, subst)
            is_test = True
        except NotGroundError:
            membership_value = None
            is_test = False
        charged = 0.0
        for k, answer in enumerate(result.answers):
            delta = result.t_first_ms if k == 0 else gap
            clock.advance(delta)
            charged += delta
            if is_test:
                if answer == membership_value:
                    # membership confirmed; the rest of the stream is moot
                    yield from self._solve(steps, index + 1, subst, ctx)
                    return
                continue
            extended = unify(output, Constant(answer), subst)
            if extended is None:
                continue
            yield from self._solve(steps, index + 1, extended, ctx)
        # single-answer calls carry their full duration on the one answer
        if n == 1 and result.t_all_ms > charged:
            clock.advance(result.t_all_ms - charged)

    def _eval_comparison(
        self,
        comparison: Comparison,
        steps: tuple,
        index: int,
        subst: dict[Variable, Term],
        ctx: _RunContext,
    ) -> Bindings:
        left = resolve(comparison.left, subst)
        right = resolve(comparison.right, subst)
        if isinstance(left, Constant) and isinstance(right, Constant):
            if comparison.evaluate(subst):
                yield from self._solve(steps, index + 1, subst, ctx)
            return
        if comparison.op in ("=", "=="):
            extended = unify(left, right, subst)
            if extended is not None and (
                isinstance(left, Constant)
                or isinstance(right, Constant)
                or isinstance(left, Variable)
                or isinstance(right, Variable)
            ):
                yield from self._solve(steps, index + 1, extended, ctx)
                return
        raise NotGroundError(
            f"comparison {comparison} is not evaluable at execution time "
            f"(plan ordering bug)"
        )

    # -- dispatch ------------------------------------------------------------------

    def _dispatch(self, call: GroundCall, via_cim: bool, ctx: _RunContext) -> CallResult:
        """One call step's result: cancellation → the run's prefetch table
        → its single-flight group → the resilient dial."""
        token = ctx.cancel_token
        if token is not None:
            # checked before ANY network work so a cancelled/timed-out
            # query stops dialing sources immediately, mid-plan
            token.raise_if_cancelled(f"before dispatching {call}")
        if ctx.prefetch is not None:
            cached = ctx.prefetch.get((call, via_cim))
            if cached is not None:
                # the wave already paid the call's real latency
                if self.metrics is not None:
                    self.metrics.inc("runtime.prefetch_hits")
                return self._at_memo_cost(call, cached, cached.provenance)
        if ctx.flight is None:
            return self._dial(call, via_cim, ctx)
        # concurrent identical calls share one source round trip
        result, _shared = ctx.flight.do(
            (call, via_cim),
            lambda: self._dial(call, via_cim, ctx),
            cancelled=token.is_cancelled if token is not None else None,
        )
        return result

    def _at_memo_cost(
        self, call: GroundCall, cached: CallResult, provenance: str
    ) -> CallResult:
        """An already-paid-for result replayed at memo cost."""
        base_ms = self.memo_hit_cost_ms
        return CallResult(
            call=call,
            answers=cached.answers,
            t_first_ms=base_ms,
            t_all_ms=replay_cost_ms(len(cached.answers), base_ms),
            provenance=provenance,
            complete=cached.complete,
        )

    def _dial(self, call: GroundCall, via_cim: bool, ctx: _RunContext) -> CallResult:
        """Reach the source under the retry policy, falling back to stale
        or placeholder answers when it stays down, hedging when slow."""
        if self.metrics is not None:
            self.metrics.inc("executor.dispatches")
        if self.policy is None:
            # without a retry policy, failures historically propagate
            # unchanged; only the opt-in partial mode intercepts them
            try:
                result = self._dispatch_once(call, via_cim)
            except ReproError as exc:
                if not self.partial_on_failure or not is_terminal_source_error(exc):
                    raise
                return self._terminal_fallback(call, exc, ctx)
            return self._maybe_hedge(call, via_cim, result, ctx)

        def on_retry(attempt: int, error: Exception, backoff_ms: float) -> None:
            ctx.retries += 1
            if self.metrics is not None:
                self.metrics.inc("executor.retries")
                self.metrics.inc("executor.backoff_ms", backoff_ms)

        try:
            result = run_with_retry(
                lambda: self._dispatch_once(call, via_cim),
                self.policy,
                ctx.clock,
                rng=ctx.rng if ctx.rng is not None else self._fresh_rng(),
                on_retry=on_retry,
            )
        except ReproError as exc:
            # one taxonomy for "this call will not succeed this run":
            # breaker open, scheduled outage, hard-down source, or the
            # retry/deadline budget spent (see repro.errors.classify)
            if not is_terminal_source_error(exc):
                raise
            return self._terminal_fallback(call, exc, ctx)
        return self._maybe_hedge(call, via_cim, result, ctx)

    def _terminal_fallback(
        self, call: GroundCall, exc: ReproError, ctx: _RunContext
    ) -> CallResult:
        """Degraded answers, an empty partial placeholder, or re-raise."""
        degraded = self._degraded_fallback(call)
        if degraded is not None:
            ctx.degraded_calls += 1
            if self.metrics is not None:
                self.metrics.inc("executor.degraded_calls")
            return degraded
        if self.partial_on_failure:
            ctx.missing_sources.add(call.domain)
            if self.metrics is not None:
                self.metrics.inc("executor.missing_source_calls")
            return CallResult(
                call=call,
                answers=(),
                t_first_ms=0.0,
                t_all_ms=0.0,
                provenance=SOURCE_MISSING,
                complete=False,
            )
        if self.metrics is not None:
            self.metrics.inc("executor.failures")
        raise exc

    def _maybe_hedge(
        self,
        call: GroundCall,
        via_cim: bool,
        result: CallResult,
        ctx: _RunContext,
    ) -> CallResult:
        """Hedged requests: when the primary ran past this source's
        latency quantile, model a duplicate dispatched at that threshold
        and let the first finisher win.

        Simulated-time semantics: the primary's ``t_all_ms`` is a
        duration not yet charged to the clock (charging happens as
        answers are consumed), so "the call exceeded the threshold" is
        decided on the returned duration, and the winning timeline is
        ``min(primary_t_all, threshold + hedge_t_all)``.
        """
        if (
            self.hedge_policy is None
            or self.health is None
            or via_cim
            or result.provenance != SOURCE_DOMAIN
        ):
            return result
        threshold = self.health.hedge_threshold_ms(call.domain, self.hedge_policy)
        if threshold is None or result.t_all_ms <= threshold:
            return result
        ctx.hedged_calls += 1
        if self.metrics is not None:
            self.metrics.inc("health.hedges")
        try:
            if ctx.flight is None:
                hedge = self._dispatch_once(call, via_cim)
            else:
                # concurrent branches hedging the same slow call share one
                # duplicate round trip; the salted key keeps the hedge
                # distinct from the primary in-flight entry so it is a
                # real second dial
                token = ctx.cancel_token
                hedge, _shared = ctx.flight.do(
                    (call, via_cim, "hedge"),
                    lambda: self._dispatch_once(call, via_cim),
                    cancelled=token.is_cancelled if token is not None else None,
                )
        except ReproError:
            # the hedge lost by failing; keep the primary
            return result
        hedged_t_all = threshold + hedge.t_all_ms
        if hedged_t_all >= result.t_all_ms:
            return result
        if self.metrics is not None:
            self.metrics.inc("health.hedge_wins")
        return CallResult(
            call=call,
            answers=hedge.answers,
            t_first_ms=min(result.t_all_ms, threshold + hedge.t_first_ms),
            t_all_ms=hedged_t_all,
            provenance=hedge.provenance,
            complete=hedge.complete,
        )

    def _dispatch_once(self, call: GroundCall, via_cim: bool) -> CallResult:
        if via_cim and self.cim is not None:
            return self.cim.execute(call)
        result = self.registry.execute(call)
        if self.record_statistics and self.dcsm is not None:
            self.dcsm.record(result)
        return result

    def _degraded_fallback(self, call: GroundCall) -> Optional[CallResult]:
        """Stale-but-usable answers for a call whose source stayed down."""
        if not self.degrade_on_failure or self.cim is None:
            return None
        return self.cim.lookup_degraded(call)

    @staticmethod
    def _project(
        answer_vars: tuple[Variable, ...], subst: Substitution
    ) -> tuple[Value, ...]:
        values: list[Value] = []
        for var in answer_vars:
            try:
                values.append(resolve_ground(var, subst))
            except NotGroundError:
                values.append(None)  # variable genuinely unconstrained
        return tuple(values)
