"""The worker-pool dispatch strategy: overlap independent source calls.

The inline strategy walks a plan's nested loops one call at a time, so a
query over four independent wide-area sources pays the *sum* of their
latencies.  The paper's cost model (§5–§8) makes those latencies the
dominant term — which means the dominant speedup is overlapping them.
:func:`pool_bindings` is the binding stream
:class:`~repro.core.executor.Executor` consumes when ``jobs > 1`` and the
plan's DAG has something to overlap; it does exactly that, in two phases:

**Wave 0 — root prefetch.**  :func:`repro.runtime.dag.build_dag` finds
the call steps that are ground the moment execution starts (no step
feeds them).  All of them are dispatched together on the worker pool;
their results are kept in the run's prefetch table and *replayed* at memo
cost when the nested loops later consume them, so the loops only pay each
root's latency once — and all roots pay it at the same time.

**Phase B — partitioned nested loop.**  The first call step that
*depends* on an earlier step's output is the fan-out point: the plan
prefix up to it is enumerated (cheap — the roots replay from the
prefetch table), and each outer binding becomes one branch task that
solves the plan suffix under a child run context on its own worker.
Branches are merged in the original binding order, so the answer
*sequence* matches the inline strategy's — multiset equality is by
construction, not luck.

**Simulated time under real threads.**  All timing in this repository
is virtual (:class:`~repro.net.clock.SimClock`).  Real threads do the
work, but each worker task charges a *private* clock; when a phase's
results are merged, the shared clock advances by the phase's **greedy
list-scheduling makespan** over ``jobs`` virtual workers (task *i*
starts on the earliest-free worker).  The model is deterministic given
the task durations and never depends on actual thread interleaving.
Two honest approximations: a branch that *shares* an in-flight call
through the single-flight layer charges the full call duration (it
really would have waited), and fault-injection latencies land on the
shared clock directly.

**Cancellation.**  ``max_answers``, interactive stop, ``max_time_ms``
(the consumer closing the stream), or a failing branch set the run's
:class:`CancellationToken` — the runtime analogue of HERMES killing
still-running external programs (§3).  Workers check the token before
starting a queued task and between answers; tasks that never ran count
toward ``runtime.cancelled``.  Branch submission is windowed (queue
capacity + worker count) so a small ``max_answers`` never floods the
queue with work it is about to abandon.

**Subplan tier.**  The run's cuts are probed once, before the wave (a
replayed prefix's roots are not prefetched).  Cuts up to the fan-out
point are teed while the outer bindings are enumerated — through the
mediator-owned single-flight, so a concurrent query with the same
canonical prefix consumes this query's rows instead of dialing the
sources itself.  Deeper cuts are teed inside the branches, each into its
child context's collectors, concatenated in binding order as the branches
merge.  The executor stores all of them after full, clean exhaustion —
the same rule, the same entries, as the inline strategy.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Any, Callable, Iterator, Optional

from repro.cancellation import CancellationToken
from repro.core.executor import Bindings, CallKey, Executor, _RunContext, _SubplanRun
from repro.core.plans import CallStep, Plan
from repro.core.terms import Term, Variable
from repro.errors import ErrorClass, ExecutionCancelledError, ReproError, classify
from repro.metrics import MetricsRegistry
from repro.runtime.dag import PlanDag
from repro.runtime.singleflight import SingleFlight
from repro.storage.tier import Ticket

__all__ = ["CancellationToken", "WorkerPool", "pool_bindings"]


class WorkerPool:
    """A fixed pool of daemon threads fed by a bounded queue.

    The bounded queue is the backpressure mechanism: ``submit`` blocks
    once ``queue_capacity`` tasks are waiting, so a producer can never
    race arbitrarily far ahead of the workers.  The deepest the queue
    ever got is exported as ``runtime.queue.high_watermark``.

    A worker checks the pool's :class:`CancellationToken` before
    *starting* a queued task; a task skipped that way fails its future
    with :class:`~repro.errors.ExecutionCancelledError` without running.
    """

    def __init__(
        self,
        jobs: int,
        queue_capacity: Optional[int] = None,
        token: Optional[CancellationToken] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if jobs < 1:
            raise ReproError(f"worker pool needs at least 1 worker, got {jobs}")
        self.jobs = jobs
        self.capacity = queue_capacity if queue_capacity is not None else 2 * jobs
        if self.capacity < 1:
            raise ReproError(f"queue capacity must be >= 1, got {self.capacity}")
        self.token = token
        self.metrics = metrics
        self._queue: "queue.Queue[Optional[tuple[Callable[[], Any], Future]]]" = (
            queue.Queue(maxsize=self.capacity)
        )
        self._watermark = 0
        self._watermark_lock = threading.Lock()
        self._shutdown = False
        self._threads = [
            threading.Thread(target=self._worker, daemon=True, name=f"repro-worker-{i}")
            for i in range(jobs)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def queue_high_watermark(self) -> int:
        with self._watermark_lock:
            return self._watermark

    def submit(self, fn: Callable[[], Any]) -> "Future[Any]":
        """Enqueue ``fn``; blocks (backpressure) while the queue is full."""
        if self._shutdown:
            raise ReproError("worker pool is shut down")
        future: "Future[Any]" = Future()
        self._queue.put((fn, future))
        self._note_depth(self._queue.qsize())
        if self.metrics is not None:
            self.metrics.inc("runtime.tasks")
        return future

    def _note_depth(self, depth: int) -> None:
        # the metric is a monotonic counter, so the gauge-like watermark
        # is exported as increments of (new_max - old_max)
        with self._watermark_lock:
            if depth > self._watermark:
                if self.metrics is not None:
                    self.metrics.inc(
                        "runtime.queue.high_watermark", float(depth - self._watermark)
                    )
                self._watermark = depth

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            fn, future = item
            if self.token is not None and self.token.is_cancelled():
                future.set_exception(
                    ExecutionCancelledError("task cancelled while queued")
                )
                continue
            if not future.set_running_or_notify_cancel():
                continue
            if self.metrics is not None:
                self.metrics.inc("runtime.dispatched")
            try:
                future.set_result(fn())
            except BaseException as exc:  # delivered through the future
                future.set_exception(exc)

    def shutdown(self) -> None:
        """Stop the workers once the queue drains; idempotent."""
        if self._shutdown:
            return
        self._shutdown = True
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=30.0)


def pool_bindings(
    executor: Executor,
    plan: Plan,
    dag: PlanDag,
    subst0: dict[Variable, Term],
    ctx: _RunContext,
    sub: Optional[_SubplanRun],
) -> Bindings:
    """``plan``'s bindings with independent calls overlapped on a worker
    pool, in the inline strategy's order.  The consumer closing the stream
    (it has enough answers) cancels whatever is still queued or running."""
    metrics = executor.metrics
    if metrics is not None:
        metrics.inc("runtime.runs")
    # the run's internal token is linked to the caller's request token
    # (serving-tier cancel/deadline/disconnect): an external cancel stops
    # every worker, while the teardown below never marks the caller's
    # request cancelled
    token = ctx.cancel_token = CancellationToken(parent=ctx.cancel_token)
    ctx.flight = SingleFlight(metrics)
    ctx.prefetch = {}
    pool = WorkerPool(executor.jobs, token=token, metrics=metrics)
    try:
        replayed = sub.cuts[sub.hit] if sub is not None and sub.hit >= 0 else 0
        wave_keys = _wave_keys(plan, dag.root_calls, replayed, subst0)
        if len(wave_keys) > 1:
            _run_wave(executor, wave_keys, pool, ctx)
        fanout = dag.first_dependent_call()
        if fanout is None:
            # every call was prefetched: the nested loops run right here,
            # replaying the wave at memo cost
            yield from executor._bindings(plan.steps, sub, subst0, ctx)
        else:
            yield from _fan_out(executor, plan, fanout, subst0, ctx, sub, pool)
    finally:
        token.cancel()
        pool.shutdown()


# -- wave 0: concurrent root prefetch -----------------------------------------


def _wave_keys(
    plan: Plan,
    roots: tuple[int, ...],
    replayed: int,
    subst0: dict[Variable, Term],
) -> list[CallKey]:
    """The distinct ground calls of the plan's independent root steps that
    a subplan replay does not already cover (``steps[:replayed]``)."""
    keys: list[CallKey] = []
    for index in roots:
        if index < replayed:
            continue
        step = plan.steps[index]
        assert isinstance(step, CallStep)
        key: CallKey = (step.atom.call.ground(subst0), step.via_cim)
        if key not in keys:
            keys.append(key)
    return keys


def _run_wave(
    executor: Executor, wave_keys: list[CallKey], pool: WorkerPool, ctx: _RunContext
) -> None:
    """Dispatch all independent roots concurrently; advance the shared
    clock by the wave's makespan.  Each task eagerly charges the full
    ``T_all`` of its call (honest work-ahead); consumption later replays
    the result at memo cost."""
    phase_start = ctx.clock.now_ms
    if executor.metrics is not None:
        executor.metrics.inc("runtime.wave_calls", float(len(wave_keys)))

    def make_task(key: CallKey, salt: int) -> Callable[[], tuple[Any, _RunContext]]:
        def task() -> tuple[Any, _RunContext]:
            # retry backoff / fault latency land on the private clock
            child = ctx.child(phase_start, executor._fresh_rng(salt + 1))
            return executor._dispatch(key[0], key[1], child), child

        return task

    futures = [
        pool.submit(make_task(key, salt)) for salt, key in enumerate(wave_keys)
    ]
    assert ctx.prefetch is not None and ctx.cancel_token is not None
    worker_free = [0.0] * pool.jobs
    error: Optional[BaseException] = None
    for future, key in zip(futures, wave_keys):
        try:
            result, child = future.result()
        except BaseException as exc:
            if error is None:
                # fail like the inline strategy would on reaching this
                # call: stop the remaining wave and propagate
                error = exc
                ctx.cancel_token.cancel()
            continue
        if error is not None:
            continue
        ctx.prefetch[key] = result
        ctx.absorb(child)
        slot = min(range(pool.jobs), key=worker_free.__getitem__)
        worker_free[slot] += (child.clock.now_ms - phase_start) + result.t_all_ms
    if error is not None:
        raise error
    ctx.clock.advance(max(worker_free))


# -- phase B: partitioned nested loop -----------------------------------------


def _outer_bindings(
    executor: Executor,
    steps: tuple,
    fanout: int,
    subst0: dict[Variable, Term],
    ctx: _RunContext,
    sub: Optional[_SubplanRun],
) -> tuple[list[dict[Variable, Term]], int, int]:
    """Enumerate the outer loop.  Returns the outer bindings, the step the
    branches resume at, and the first cut that lies inside the branches."""
    if sub is None or (sub.hit < 0 and fanout not in sub.cuts):
        # (a fan-out point that is no cut has no call, hence no cut, before it)
        return list(executor._solve(steps[:fanout], 0, subst0, ctx)), fanout, 0
    if sub.hit >= 0 and sub.cuts[sub.hit] >= fanout:
        # the replayed prefix covers the whole outer loop: fan out its rows
        stop = sub.hit + 1
    else:
        stop = sub.cuts.index(fanout) + 1
    boundary = sub.prefixes[stop - 1]
    ticket = sub.ticket

    def materialize() -> tuple[Optional[tuple], list[dict[Variable, Term]], Ticket]:
        outer = list(executor._bindings(boundary, sub, subst0, ctx, stop))
        # only a clean, fully enumerated prefix is handed to other queries
        rows = ctx.collectors[stop - 1] if ctx.collectors and ctx.clean() else None
        return (None if rows is None else tuple(rows)), outer, ticket

    # A miss at the fan-out cut materializes it through the mediator-owned
    # single-flight, so a concurrent query with the same canonical prefix
    # consumes these rows instead of dialing the sources itself.  Rows — not
    # substitutions — cross the flight: they are canonical value tuples, safe
    # to rebind against another query's variables.  Nothing is stored here:
    # the executor stores every cut once the whole run exhausted cleanly.
    flight = executor.subplan_flight
    if flight is None or sub.stored >= stop:
        return materialize()[1], len(boundary), stop
    assert ctx.cancel_token is not None
    (rows, outer, since), shared = flight.do(
        sub.canons[stop - 1].key, materialize, cancelled=ctx.cancel_token.is_cancelled
    )
    if shared:
        if rows is not None:
            if executor.metrics is not None:
                executor.metrics.inc("subplan.shared_flights")
            executor._subplan_adopt(sub, stop - 1, rows, 0.0, ctx)
            # the leader may have dialed before this run opened: what is
            # built on its rows is only as fresh as its ticket
            sub.ticket = min(sub.ticket, since)
        # (a leader whose prefix was not cleanly materializable hands over
        # no rows: enumerate locally rather than trust a partial result)
        outer = materialize()[1]
    return outer, len(boundary), stop


def _fan_out(
    executor: Executor,
    plan: Plan,
    fanout: int,
    subst0: dict[Variable, Term],
    ctx: _RunContext,
    sub: Optional[_SubplanRun],
    pool: WorkerPool,
) -> Bindings:
    """Enumerate outer bindings up to the fan-out point, run one branch
    task per binding across the pool, merge the branches in binding order."""
    steps = plan.steps
    token = ctx.cancel_token
    assert token is not None
    outer, resume, which = _outer_bindings(executor, steps, fanout, subst0, ctx, sub)
    phase_start = ctx.clock.now_ms

    def make_task(index: int) -> Callable[[], tuple[_RunContext, list, Optional[float]]]:
        def task() -> tuple[_RunContext, list, Optional[float]]:
            child = ctx.child(phase_start, executor._fresh_rng(index + 1))
            bindings: Iterator = (
                executor._solve(steps, resume, outer[index], child)
                if sub is None
                else executor._subplan_tee(
                    sub, which, len(sub.cuts), steps, resume, outer[index], child
                )
            )
            solved = []
            first_offset: Optional[float] = None
            for subst in bindings:
                token.raise_if_cancelled(f"branch {index} abandoned mid-answer")
                if first_offset is None:
                    first_offset = child.clock.now_ms - phase_start
                solved.append(subst)
            return child, solved, first_offset

        return task

    total = len(outer)
    window = pool.capacity + pool.jobs
    futures: dict[int, Future] = {}
    submitted = 0
    worker_free = [0.0] * pool.jobs
    abandoned = 0
    try:
        for index in range(total):
            while submitted < total and submitted < index + window:
                futures[submitted] = pool.submit(make_task(submitted))
                submitted += 1
            try:
                child, solved, first_offset = futures.pop(index).result()
            except BaseException as exc:
                if classify(exc) is ErrorClass.CANCELLED:
                    # only the caller's token stops a branch while the
                    # stream is open: surface its reason, not the branch's
                    abandoned += 1
                    token.raise_if_cancelled("run cancelled externally")
                # fail fast, like the inline strategy raising mid-loop
                raise
            slot = min(range(pool.jobs), key=worker_free.__getitem__)
            virtual_start = worker_free[slot]
            worker_free[slot] = virtual_start + (child.clock.now_ms - phase_start)
            ctx.clock.advance_to(phase_start + worker_free[slot])
            ctx.absorb(child)
            if ctx.first_answer_at_ms is None and first_offset is not None:
                ctx.first_answer_at_ms = phase_start + virtual_start + first_offset
            yield from solved
    finally:
        # drain: outstanding branches are cancelled (or moot)
        token.cancel()
        for future in futures.values():
            try:
                future.result()
            except BaseException:
                pass
        abandoned += len(futures) + total - submitted
        if abandoned and executor.metrics is not None:
            executor.metrics.inc("runtime.cancelled", float(abandoned))
