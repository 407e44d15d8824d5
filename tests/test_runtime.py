"""Parallel execution runtime tests: DAG analysis, worker pool,
single-flight dedup, answer parity with the sequential engine,
cancellation, and fault behaviour under concurrency.

The load-bearing property here is the one the subsystem is built
around: for any plan, ``Executor.run`` under the pool strategy
(``jobs > 1``) returns the *same answer multiset* as under the inline
strategy — parallelism may only change simulated timings, never results.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mediator import Mediator
from repro.errors import (
    ExecutionCancelledError,
    PermanentSourceError,
    ReproError,
    RetryExhaustedError,
    SourceUnavailableError,
)
from repro.net.faults import FaultSpec
from repro.net.policy import RetryPolicy
from repro.runtime import (
    CancellationToken,
    SingleFlight,
    WorkerPool,
    build_dag,
)
from repro.workloads.generators import (
    generate_fanout_workload,
    generate_star_workload,
    generate_workload,
)


#: CI's concurrency-stress job re-runs this suite with the parallel
#: engine oversubscribed (e.g. REPRO_STRESS_JOBS=16) to shake out races
#: that small worker counts hide.
_STRESS_JOBS = int(os.environ.get("REPRO_STRESS_JOBS", "0"))


def _mediator_for(workload, jobs=1, site=None, faults=None, policy=None,
                  degrade=True, memoize=False):
    if _STRESS_JOBS and jobs > 1:
        jobs = _STRESS_JOBS
    mediator = Mediator(
        retry_policy=policy,
        degrade_on_failure=degrade,
        memoize_calls=memoize,
        jobs=jobs,
    )
    mediator.register_domain(workload.domain, site=site, faults=faults)
    mediator.load_program(workload.program_text)
    return mediator


def _answers(mediator, query, **kwargs):
    return mediator.query(query, **kwargs).execution.answers


# ---------------------------------------------------------------------------
# dependency DAG
# ---------------------------------------------------------------------------


class TestPlanDag:
    def _plan(self, workload, query=None):
        mediator = _mediator_for(workload)
        return mediator.plans(query or workload.queries[0])[0]

    def test_star_roots_are_all_independent(self):
        workload = generate_star_workload(calls=4, max_fanout=2, seed=0)
        dag = build_dag(self._plan(workload))
        assert len(dag.root_calls) == 4
        assert dag.first_dependent_call() is None
        assert dag.width() >= 4

    def test_chain_has_single_root(self):
        workload = generate_workload(layers=1, width=1, calls_per_leaf=3)
        dag = build_dag(self._plan(workload))
        assert len(dag.root_calls) == 1
        assert dag.first_dependent_call() is not None

    def test_fanout_workload_shape(self):
        workload = generate_fanout_workload(roots=3, fanout=2)
        dag = build_dag(self._plan(workload))
        # the planner may interleave roots and dependents, but at least
        # the first step is always a root and some step depends on one
        assert len(dag.root_calls) >= 1
        assert dag.width() >= 1


# ---------------------------------------------------------------------------
# worker pool + cancellation token
# ---------------------------------------------------------------------------


class TestWorkerPool:
    def test_runs_submitted_tasks(self):
        pool = WorkerPool(jobs=3)
        try:
            futures = [pool.submit(lambda i=i: i * i) for i in range(10)]
            assert [f.result(timeout=5) for f in futures] == [
                i * i for i in range(10)
            ]
        finally:
            pool.shutdown()

    def test_propagates_exceptions(self):
        pool = WorkerPool(jobs=1)
        try:
            def boom():
                raise ValueError("nope")

            with pytest.raises(ValueError):
                pool.submit(boom).result(timeout=5)
        finally:
            pool.shutdown()

    def test_cancelled_queued_tasks_fail_fast(self):
        token = CancellationToken()
        pool = WorkerPool(jobs=1, queue_capacity=8, token=token)
        try:
            gate = threading.Event()
            started = threading.Event()

            def blocker_fn():
                started.set()
                gate.wait(timeout=5)

            blocker = pool.submit(blocker_fn)  # occupies the only worker
            assert started.wait(timeout=5)
            queued = [pool.submit(lambda: "ran") for _ in range(3)]
            token.cancel()
            gate.set()
            blocker.result(timeout=5)
            for future in queued:
                with pytest.raises(ExecutionCancelledError):
                    future.result(timeout=5)
        finally:
            pool.shutdown()

    def test_rejects_zero_workers(self):
        with pytest.raises(ReproError):
            WorkerPool(jobs=0)

    def test_token_raise_if_cancelled(self):
        token = CancellationToken()
        token.raise_if_cancelled("anywhere")  # no-op before cancel
        token.cancel()
        assert token.is_cancelled()
        with pytest.raises(ExecutionCancelledError):
            token.raise_if_cancelled("here")


# ---------------------------------------------------------------------------
# single-flight
# ---------------------------------------------------------------------------


class TestSingleFlight:
    def test_concurrent_identical_calls_collapse(self):
        flight = SingleFlight()
        executions = []
        start = threading.Barrier(4)

        def fn():
            executions.append(threading.get_ident())
            time.sleep(0.05)
            return 42

        results = []

        def caller():
            start.wait()
            results.append(flight.do("key", fn))

        threads = [threading.Thread(target=caller) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(executions) == 1
        assert [value for value, _shared in results] == [42] * 4
        assert sum(1 for _v, shared in results if shared) == 3
        assert flight.deduped == 3
        assert flight.leads == 1
        assert flight.inflight_count() == 0

    def test_distinct_keys_do_not_collapse(self):
        flight = SingleFlight()
        a, shared_a = flight.do("a", lambda: 1)
        b, shared_b = flight.do("b", lambda: 2)
        assert (a, b) == (1, 2)
        assert not shared_a and not shared_b
        assert flight.deduped == 0

    def test_leader_failure_propagates_to_followers(self):
        flight = SingleFlight()
        start = threading.Barrier(3)
        outcomes = []

        def fn():
            time.sleep(0.05)
            raise ValueError("boom")

        def caller():
            start.wait()
            try:
                flight.do("key", fn)
                outcomes.append("ok")
            except ValueError:
                outcomes.append("error")

        threads = [threading.Thread(target=caller) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes == ["error"] * 3
        assert flight.inflight_count() == 0

    def test_follower_cancellation_raises(self):
        flight = SingleFlight()
        token = CancellationToken()
        release = threading.Event()
        entered = threading.Event()

        def slow():
            entered.set()
            release.wait(timeout=5)
            return "late"

        leader = threading.Thread(target=lambda: flight.do("key", slow))
        leader.start()
        assert entered.wait(timeout=5)
        token.cancel()
        with pytest.raises(ExecutionCancelledError):
            flight.do("key", lambda: "never", cancelled=token.is_cancelled)
        release.set()
        leader.join()


# ---------------------------------------------------------------------------
# answer parity with the sequential engine (the core property)
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    calls=st.integers(min_value=1, max_value=6),
    max_fanout=st.integers(min_value=1, max_value=3),
    jobs=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=10),
)
def test_star_answers_match_sequential(calls, max_fanout, jobs, seed):
    workload = generate_star_workload(calls=calls, max_fanout=max_fanout, seed=seed)
    query = workload.queries[0]
    sequential = _mediator_for(workload, jobs=1)
    parallel = _mediator_for(workload, jobs=jobs)
    seq = sequential.query(query).execution
    par = parallel.query(query).execution
    assert Counter(par.answers) == Counter(seq.answers)
    assert par.complete and seq.complete


@settings(max_examples=10, deadline=None)
@given(
    roots=st.integers(min_value=1, max_value=5),
    fanout=st.integers(min_value=1, max_value=3),
    jobs=st.integers(min_value=2, max_value=6),
)
def test_fanout_answers_match_sequential(roots, fanout, jobs):
    workload = generate_fanout_workload(roots=roots, fanout=fanout)
    query = workload.queries[0]
    seq = _answers(_mediator_for(workload, jobs=1), query)
    par = _answers(_mediator_for(workload, jobs=jobs), query)
    assert Counter(par) == Counter(seq)
    # answers also arrive in the same order: branches merge in
    # submission order, which is the sequential enumeration order
    assert par == seq


@settings(max_examples=6, deadline=None)
@given(
    layers=st.integers(min_value=1, max_value=2),
    width=st.integers(min_value=1, max_value=2),
    calls_per_leaf=st.integers(min_value=1, max_value=3),
    jobs=st.integers(min_value=2, max_value=4),
)
def test_chain_answers_match_sequential(layers, width, calls_per_leaf, jobs):
    workload = generate_workload(
        layers=layers, width=width, calls_per_leaf=calls_per_leaf, fanout=2
    )
    query = workload.queries[0]
    seq = _answers(_mediator_for(workload, jobs=1), query)
    par = _answers(_mediator_for(workload, jobs=jobs), query)
    assert Counter(par) == Counter(seq)


def test_parity_through_remote_sites():
    workload = generate_fanout_workload(roots=4, fanout=3)
    query = workload.queries[0]
    seq = _answers(_mediator_for(workload, jobs=1, site="maryland"), query)
    par = _answers(_mediator_for(workload, jobs=4, site="maryland"), query)
    assert Counter(par) == Counter(seq)


def test_wave_prefetch_replays_roots():
    workload = generate_star_workload(calls=5, max_fanout=3, seed=2)
    mediator = _mediator_for(workload, jobs=4)
    result = mediator.query(workload.queries[0])
    metrics = mediator.metrics
    assert metrics.value("runtime.wave_calls") >= 1
    # inner calls of the nested loop are re-dispatched per outer binding;
    # every one of those replays hits the prefetched result
    assert metrics.value("runtime.prefetch_hits") >= 1
    assert result.execution.complete


# ---------------------------------------------------------------------------
# single-flight dedup inside branches
# ---------------------------------------------------------------------------


def test_branch_level_duplicate_calls_dedup():
    from repro.domains.base import simple_domain

    s_executions = []
    s_lock = threading.Lock()

    def r_impl(value):
        return [f"{value}~{j}" for j in range(4)]

    def w_impl(value):
        time.sleep(0.01)
        return ["k"]  # every branch converges on the same value

    def s_impl(value):
        with s_lock:
            s_executions.append(value)
        time.sleep(0.08)  # long enough that branches overlap in it
        return [f"{value}!1", f"{value}!2"]

    domain = simple_domain("d", {"r": r_impl, "w": w_impl, "s": s_impl})
    program = "q(A, S) :- in(M, d:r(A)) & in(O, d:w(M)) & in(S, d:s(O))."
    query = "?- q('x', S)."

    sequential = Mediator()
    sequential.register_domain(domain)
    sequential.load_program(program)
    seq = sequential.query(query).execution

    domain2 = simple_domain("d", {"r": r_impl, "w": w_impl, "s": s_impl})
    parallel = Mediator(jobs=4)
    parallel.register_domain(domain2)
    parallel.load_program(program)
    before = len(s_executions)
    par = parallel.query(query).execution

    assert Counter(par.answers) == Counter(seq.answers)
    # 4 concurrent branches all dispatch the identical ground call
    # d:s('k'); single-flight collapses the overlap
    assert parallel.metrics.value("runtime.singleflight.deduped") >= 1
    assert len(s_executions) - before < 4


# ---------------------------------------------------------------------------
# cancellation
# ---------------------------------------------------------------------------


def test_max_answers_cancels_outstanding_branches():
    from repro.domains.base import simple_domain

    total = 40

    def r_impl(value):
        return [f"{value}~{j}" for j in range(total)]

    def w_impl(value):
        time.sleep(0.005)
        return [f"{value}!done"]

    domain = simple_domain("d", {"r": r_impl, "w": w_impl})
    mediator = Mediator(jobs=2)
    mediator.register_domain(domain)
    mediator.load_program("q(A, O) :- in(M, d:r(A)) & in(O, d:w(M)).")
    result = mediator.query("?- q('x', O).", max_answers=3).execution
    assert len(result.answers) == 3
    assert not result.complete
    metrics = mediator.metrics
    assert metrics.value("runtime.cancelled") >= 1
    # the scheduler must not have burned through the whole fan-out
    assert metrics.value("runtime.dispatched") < total


def test_queue_watermark_recorded():
    workload = generate_fanout_workload(roots=2, fanout=8)
    mediator = _mediator_for(workload, jobs=2)
    mediator.query(workload.queries[0])
    assert mediator.metrics.value("runtime.queue.high_watermark") >= 1


# ---------------------------------------------------------------------------
# faults under concurrency
# ---------------------------------------------------------------------------


def test_transient_faults_retry_and_match_sequential():
    workload = generate_fanout_workload(roots=4, fanout=2)
    query = workload.queries[0]
    policy = RetryPolicy(max_attempts=10, base_backoff_ms=1.0)
    faults = FaultSpec(failure_rate=0.3, failure_latency_ms=1.0, seed=7)
    seq_med = _mediator_for(
        workload, jobs=1, site="maryland", faults=faults, policy=policy
    )
    seq = seq_med.query(query).execution

    workload2 = generate_fanout_workload(roots=4, fanout=2)
    par_med = _mediator_for(
        workload2, jobs=4, site="maryland",
        faults=FaultSpec(failure_rate=0.3, failure_latency_ms=1.0, seed=7),
        policy=policy,
    )
    par = par_med.query(query).execution
    assert Counter(par.answers) == Counter(seq.answers)
    assert par.complete
    # the injector fired on at least one attempt in each engine
    assert seq.retries >= 1
    assert par.retries >= 1


def test_down_site_raises_without_wedging():
    workload = generate_fanout_workload(roots=4, fanout=2)
    mediator = _mediator_for(
        workload,
        jobs=4,
        site="maryland",
        faults=FaultSpec(down=True),
        degrade=False,
    )
    with pytest.raises(
        (SourceUnavailableError, RetryExhaustedError, PermanentSourceError)
    ):
        mediator.query(workload.queries[0])
    # the pool wound down cleanly: a healthy follow-up query still works
    healthy = generate_star_workload(calls=3, max_fanout=2, seed=3)
    follow_up = _mediator_for(healthy, jobs=4)
    assert follow_up.query(healthy.queries[0]).execution.complete


def test_one_faulty_branch_fails_fast_without_poisoning_process():
    """A permanent failure in one branch aborts the query (fail-fast,
    matching sequential semantics) and leaves no dangling threads."""
    from repro.domains.base import simple_domain

    def r_impl(value):
        return [f"{value}~{j}" for j in range(6)]

    def w_impl(value):
        if value.endswith("~3"):
            raise PermanentSourceError("branch 3 is cursed")
        time.sleep(0.002)
        return [f"{value}!ok"]

    domain = simple_domain("d", {"r": r_impl, "w": w_impl})
    mediator = Mediator(jobs=3)
    mediator.register_domain(domain)
    mediator.load_program("q(A, O) :- in(M, d:r(A)) & in(O, d:w(M)).")
    before = threading.active_count()
    with pytest.raises(PermanentSourceError):
        mediator.query("?- q('x', O).")
    deadline = time.time() + 5.0
    while threading.active_count() > before and time.time() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= before


# ---------------------------------------------------------------------------
# engine selection + configuration
# ---------------------------------------------------------------------------


class TestMediatorJobs:
    def test_default_is_sequential(self):
        mediator = Mediator()
        assert mediator.jobs == 1

    def test_jobs_constructor_sets_worker_count_not_engine_type(self):
        mediator = Mediator(jobs=4)
        assert mediator.jobs == 4
        assert type(mediator.executor) is type(Mediator().executor)

    def test_set_jobs_round_trip_preserves_knobs(self):
        mediator = Mediator(
            memoize_calls=True,
            retry_policy=RetryPolicy(max_attempts=2),
            degrade_on_failure=False,
        )
        engine = mediator.executor
        mediator.set_jobs(8)
        assert mediator.jobs == 8
        assert mediator.executor is engine
        assert mediator.executor.memoize_calls
        assert mediator.executor.policy is not None
        assert mediator.executor.policy.max_attempts == 2
        assert not mediator.executor.degrade_on_failure
        assert mediator.executor.cim is mediator.cim
        assert mediator.executor.dcsm is mediator.dcsm
        mediator.set_jobs(1)
        assert mediator.jobs == 1
        assert mediator.executor is engine
        assert mediator.executor.memoize_calls

    def test_parallel_executor_delegates_when_nothing_to_overlap(self):
        # a single chain step has no independent work: results must still
        # be correct (delegation to the sequential path)
        workload = generate_workload(layers=1, width=1, calls_per_leaf=1)
        query = workload.queries[0]
        seq = _answers(_mediator_for(workload, jobs=1), query)
        par = _answers(_mediator_for(workload, jobs=4), query)
        assert Counter(par) == Counter(seq)
