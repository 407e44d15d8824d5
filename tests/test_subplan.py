"""Sub-plan result cache: canonicalization, the four invalidation paths,
byte-budget eviction, warm restart over every storage backend, and
property-based answer parity against the cache-off engine.

Most tests construct the mediator with ``record_statistics=False``:
with live statistics a query that dials new argument tuples moves the
one global DCSM version, and the version stamp then invalidates the
subplan tier between queries — see docs/CACHING.md.
"""

import functools
import os
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.cancellation import CancellationToken
from repro.core.mediator import Mediator
from repro.core.model import DomainCall, InAtom
from repro.core.plans import CallStep
from repro.core.subplan import canonicalize_prefix, replay_cost_ms, subplan_cuts
from repro.core.terms import Constant, Variable
from repro.domains.base import simple_domain
from repro.errors import ExecutionCancelledError
from repro.net.faults import FaultInjector, FaultSpec
from repro.net.policy import RetryPolicy
from repro.storage.memory import MemoryBackend
from repro.workloads.generators import generate_shared_prefix_workload

pytestmark = pytest.mark.subplan

#: worker count of the pool-strategy cases; CI's concurrency-stress job
#: oversubscribes it (REPRO_STRESS_JOBS=16) like tests/test_runtime.py
POOL_JOBS = int(os.environ.get("REPRO_STRESS_JOBS", "0")) or 4


def build_mediator(**kwargs):
    workload = generate_shared_prefix_workload()
    options = dict(record_statistics=False, use_subplan_cache=True)
    options.update(kwargs)
    mediator = Mediator(**options)
    mediator.register_domain(workload.domain)
    mediator.load_program(workload.program_text)
    return mediator, workload


def call_step(domain, function, arg, out):
    return CallStep(InAtom(out, DomainCall(domain, function, (arg,))))


# -- canonicalization -----------------------------------------------------------


def test_cuts_require_a_prior_call():
    a, b, c = Variable("A"), Variable("B"), Variable("C")
    steps = [
        call_step("d", "f", Constant("x"), a),
        call_step("d", "g", a, b),
        call_step("d", "h", b, c),
    ]
    assert subplan_cuts(steps) == (1, 2)
    assert subplan_cuts(steps[:1]) == ()
    assert subplan_cuts([]) == ()


def test_canonical_key_ignores_variable_spelling():
    """Prefixes from different queries (different variable names, same
    shape, same constants) must share a key — cross-query collision."""
    first = [
        call_step("d", "f", Constant("x"), Variable("M")),
        call_step("d", "g", Variable("M"), Variable("Out")),
    ]
    second = [
        call_step("d", "f", Constant("x"), Variable("P")),
        call_step("d", "g", Variable("P"), Variable("Q")),
    ]
    lhs = canonicalize_prefix(first)
    rhs = canonicalize_prefix(second)
    assert lhs.key == rhs.key
    assert lhs.sources == {("d", "f"), ("d", "g")}


def test_canonical_key_keeps_constant_values():
    """Same shape, different constant values: same pattern (a shared
    template), different keys (different materialized results)."""
    lhs = canonicalize_prefix([call_step("d", "f", Constant("x"), Variable("M"))])
    rhs = canonicalize_prefix([call_step("d", "f", Constant("y"), Variable("M"))])
    assert lhs.pattern == rhs.pattern
    assert lhs.key != rhs.key
    assert lhs.constants == ("x",)
    assert rhs.constants == ("y",)


def test_replay_cost_scales_with_rows():
    assert replay_cost_ms(0, 2.0) == pytest.approx(2.0)
    assert replay_cost_ms(10, 2.0) == pytest.approx(4.0)


# -- cross-query sharing through the executor -----------------------------------


def test_second_query_replays_the_shared_prefix():
    mediator, workload = build_mediator()
    mediator.query(workload.queries[0])
    cold_calls = sum(workload.call_counts.values())
    mediator.query(workload.queries[1])
    tail_calls = sum(workload.call_counts.values()) - cold_calls
    # the whole five-call chain is replayed from cache; only q1's private
    # tail dials a source (once per chain row)
    assert tail_calls == 2
    assert mediator.subplan_cache.stats.hits >= 1
    assert workload.call_counts["share:s0"] == 1
    mediator.close()


def test_different_root_constant_misses():
    mediator, workload = build_mediator()
    mediator.query(workload.queries[0])
    hits_before = mediator.subplan_cache.stats.hits
    s0_before = workload.call_counts["share:s0"]
    mediator.query("?- q0('other', Out).")
    assert mediator.subplan_cache.stats.hits == hits_before
    assert workload.call_counts["share:s0"] == s0_before + 1
    mediator.close()


# -- the four invalidation paths ------------------------------------------------


def warm_cache(mediator, workload):
    for query in workload.queries:
        mediator.query(query)
    assert mediator.subplan_cache.entry_count > 0


def test_epoch_invalidation_on_program_change():
    mediator, workload = build_mediator()
    warm_cache(mediator, workload)
    mediator.load_program("extra(A, M) :- shared(A, M).")
    s0_before = workload.call_counts["share:s0"]
    mediator.query(workload.queries[0])
    assert mediator.subplan_cache.stats.invalidations["epoch"] >= 1
    # the prefix really was recomputed, then re-cached under the new epoch
    assert workload.call_counts["share:s0"] == s0_before + 1
    assert mediator.metrics.value("subplan.invalidations.epoch") >= 1
    mediator.close()


def test_source_invalidation_is_prefix_precise():
    mediator, workload = build_mediator()
    warm_cache(mediator, workload)
    before = mediator.subplan_cache.entry_count
    assert before == 5  # cuts before s1..s4 and the tail: [s0] .. [s0..s4]
    mediator.notify_source_changed("share", "s2")
    # the three prefixes containing s2 die; [s0] and [s0,s1] survive
    assert mediator.subplan_cache.stats.invalidations["source"] == 3
    assert mediator.subplan_cache.entry_count == before - 3
    mediator.notify_source_changed("share")  # whole domain
    assert mediator.subplan_cache.entry_count == 0
    mediator.close()


def test_dcsm_version_invalidation():
    mediator, workload = build_mediator()
    warm_cache(mediator, workload)
    mediator.dcsm.summarize()  # unconditional version bump
    s0_before = workload.call_counts["share:s0"]
    mediator.query(workload.queries[0])
    assert mediator.subplan_cache.stats.invalidations["dcsm_version"] >= 1
    assert workload.call_counts["share:s0"] == s0_before + 1
    mediator.close()


def test_ttl_invalidation():
    mediator, workload = build_mediator(subplan_ttl_ms=10_000.0)
    warm_cache(mediator, workload)
    s0_before = workload.call_counts["share:s0"]
    mediator.query(workload.queries[0])  # well inside the TTL: replayed
    assert workload.call_counts["share:s0"] == s0_before
    mediator.clock.advance(20_000.0)
    mediator.query(workload.queries[0])
    assert mediator.subplan_cache.stats.invalidations["ttl"] >= 1
    assert workload.call_counts["share:s0"] == s0_before + 1
    mediator.close()


# -- byte budget and eviction ---------------------------------------------------


def test_byte_budget_evicts_and_bounds_occupancy():
    mediator, workload = build_mediator(subplan_max_bytes=300)
    warm_cache(mediator, workload)
    cache = mediator.subplan_cache
    assert cache.max_bytes == 300
    assert cache.total_bytes <= 300
    assert cache.stats.invalidations["eviction"] >= 1
    # answers stay correct regardless of what got evicted
    result = mediator.query(workload.queries[0])
    assert result.cardinality == 2
    mediator.close()


def test_subplan_budget_defaults_to_cache_max_bytes():
    mediator, _ = build_mediator(cache_max_bytes=4096)
    assert mediator.subplan_cache.max_bytes == 4096
    assert mediator.subplan_cache.evictor is not None
    mediator.close()


# -- warm restart across the backend matrix -------------------------------------


def _storage_spec(kind, tmp_path):
    if kind == "memory":
        return MemoryBackend()
    if kind == "sqlite":
        return f"sqlite:{tmp_path / 'subplan.db'}"
    return f"sharded:{tmp_path / 'subplan'}"


@pytest.mark.parametrize("kind", ["memory", "sqlite", "sharded"])
def test_warm_restart_adopts_subplans(kind, tmp_path):
    spec = _storage_spec(kind, tmp_path)
    cold, cold_workload = build_mediator(storage=spec)
    warm_cache(cold, cold_workload)
    persisted = cold.subplan_cache.entry_count
    cold.flush_storage()
    if kind != "memory":  # closing the memory backend drops the table
        cold.close()

    warm, warm_workload = build_mediator(storage=spec, warm_start=True)
    assert warm.metrics.value("storage.warm_start.subplans_adopted") == persisted
    assert warm.subplan_cache.entry_count == persisted
    result = warm.query(warm_workload.queries[0])
    # the adopted prefix serves the chain; only the tail dials sources
    assert result.cardinality == 2
    assert sum(
        count
        for name, count in warm_workload.call_counts.items()
        if name.startswith("share:s")
    ) == 0
    assert warm_workload.call_counts["share:t0"] == 2
    warm.close()


@pytest.mark.parametrize("kind", ["memory", "sqlite", "sharded"])
def test_warm_restart_drops_subplans_for_changed_program(kind, tmp_path):
    spec = _storage_spec(kind, tmp_path)
    cold, cold_workload = build_mediator(storage=spec)
    warm_cache(cold, cold_workload)
    cold.flush_storage()
    if kind != "memory":
        cold.close()

    other = Mediator(
        record_statistics=False, use_subplan_cache=True,
        storage=spec, warm_start=True,
    )
    other.load_program("other(X, Y) :- in(Y, d:f(X)).")
    assert other.metrics.value("storage.warm_start.subplans_adopted") == 0
    assert other.subplan_cache.entry_count == 0
    other.flush_storage()
    assert other.metrics.value("storage.warm_start.subplans_dropped") >= 1
    other.close()


# -- property-based answer parity -----------------------------------------------


workload_shapes = st.tuples(
    st.integers(min_value=1, max_value=3),  # queries
    st.integers(min_value=2, max_value=4),  # prefix_depth
    st.integers(min_value=1, max_value=2),  # fanout
    st.integers(min_value=0, max_value=5),  # seed
)


def _answer_multiset(mediator, queries, passes=2):
    answers = Counter()
    for _ in range(passes):
        for query in queries:
            answers.update(mediator.query(query).answers)
    return answers


@settings(max_examples=12, deadline=None)
@given(shape=workload_shapes)
def test_cached_answers_match_uncached(shape):
    queries, depth, fanout, seed = shape
    workload = generate_shared_prefix_workload(
        queries=queries, prefix_depth=depth, fanout=fanout, seed=seed
    )
    baseline = Mediator(record_statistics=False, verify_plans=True)
    cached = Mediator(
        record_statistics=False, use_subplan_cache=True, verify_plans=True
    )
    for mediator in (baseline, cached):
        mediator.register_domain(
            generate_shared_prefix_workload(
                queries=queries, prefix_depth=depth, fanout=fanout, seed=seed
            ).domain
        )
        mediator.load_program(workload.program_text)
    assert _answer_multiset(baseline, workload.queries) == _answer_multiset(
        cached, workload.queries
    )
    baseline.close()
    cached.close()


@settings(max_examples=8, deadline=None)
@given(shape=workload_shapes)
def test_cached_answers_match_uncached_parallel(shape):
    queries, depth, fanout, seed = shape
    workload = generate_shared_prefix_workload(
        queries=queries, prefix_depth=depth, fanout=fanout, seed=seed
    )
    baseline = Mediator(record_statistics=False, verify_plans=True)
    cached = Mediator(
        record_statistics=False, use_subplan_cache=True, verify_plans=True
    )
    cached.set_jobs(POOL_JOBS)
    for mediator in (baseline, cached):
        mediator.register_domain(
            generate_shared_prefix_workload(
                queries=queries, prefix_depth=depth, fanout=fanout, seed=seed
            ).domain
        )
        mediator.load_program(workload.program_text)
    assert _answer_multiset(baseline, workload.queries) == _answer_multiset(
        cached, workload.queries
    )
    baseline.close()
    cached.close()


# -- one populate rule, whichever strategy executes the plan --------------------


def test_subplan_effectiveness_is_the_same_at_any_jobs():
    """What gets materialized is decided in one place, independent of the
    strategy that happens to execute the plan: after q0 warms the prefix,
    the sibling queries dial the same sources the same number of times and
    leave the same entries behind inline and on the pool."""
    shape = dict(queries=4, prefix_depth=5, fanout=2)
    outcomes = {}
    for label, options in {
        "baseline": dict(),
        "inline": dict(use_subplan_cache=True, jobs=1),
        "pool": dict(use_subplan_cache=True, jobs=POOL_JOBS),
    }.items():
        workload = generate_shared_prefix_workload(**shape)
        mediator = Mediator(record_statistics=False, **options)
        mediator.register_domain(workload.domain)
        mediator.load_program(workload.program_text)
        answers = Counter(mediator.query(workload.queries[0]).answers)
        warm = dict(workload.call_counts)
        for query in workload.queries[1:]:
            answers.update(mediator.query(query).answers)
        sibling_dials = {
            name: count - warm.get(name, 0)
            for name, count in workload.call_counts.items()
            if count != warm.get(name, 0)
        }
        outcomes[label] = (answers, sibling_dials, mediator.subplan_cache.entry_count)
        mediator.close()
    assert outcomes["inline"][0] == outcomes["pool"][0] == outcomes["baseline"][0]
    assert outcomes["inline"][1:] == outcomes["pool"][1:]
    # only the three private tails dial, once per chain row
    assert outcomes["inline"][1] == {"share:t1": 2, "share:t2": 2, "share:t3": 2}
    assert outcomes["inline"][2] == 5


def test_cursor_stays_out_of_the_tier():
    """A cursor's consumer decides how long the enumeration stays open, so
    a cursor neither populates the tier nor replays from it — drained or
    abandoned."""
    mediator, workload = build_mediator()
    with mediator.cursor(workload.queries[0]) as cursor:
        assert len(cursor.fetch(1)) == 1
    assert len(mediator.cursor(workload.queries[0]).fetch_all()) == 2
    assert mediator.subplan_cache.entry_count == 0
    assert mediator.subplan_cache.stats.lookups == 0
    mediator.close()


def test_source_change_under_an_open_cursor_leaves_no_stale_rows():
    """Rows a cursor read before ``notify_source_changed`` must not reach
    the tier when the cursor is drained after it: a later query of a
    sibling shape answers from the changed source."""
    version = [0]
    mediator = Mediator(record_statistics=False, use_subplan_cache=True)
    mediator.register_domain(
        simple_domain(
            "d",
            {
                "s0": lambda a: [f"{a}>{j}@{version[0]}" for j in range(3)],
                "s1": lambda m: [f"{m}>1"],
                "t0": lambda m: [f"{m}$0"],
                "t1": lambda m: [f"{m}$1"],
            },
        )
    )
    mediator.load_program(
        """
        shared(A, M) :- in(M0, d:s0(A)) & in(M, d:s1(M0)).
        q0(A, Out) :- shared(A, M) & in(Out, d:t0(M)).
        q1(A, Out) :- shared(A, M) & in(Out, d:t1(M)).
        """
    )
    cursor = mediator.cursor("?- q0('k', Out).")
    assert cursor.fetch(1) == [("k>0@0>1$0",)]
    version[0] = 1
    mediator.notify_source_changed("d", "s0")
    cursor.fetch_all()
    assert mediator.subplan_cache.entry_count == 0
    assert mediator.query("?- q1('k', Out).").answers == tuple(
        (f"k>{j}@1>1$1",) for j in range(3)
    )
    mediator.close()


def build_chain(**options):
    """``q(A, Out)`` over ``d:f -> d:g -> d:h``; ``d:f`` answers from
    ``version[0]`` and every hook in ``during_g`` runs while ``d:g`` — the
    middle of the plan — is being dialed."""
    version, during_g = [0], []

    def g(mid):
        for hook in during_g:
            hook()
        return [f"{mid}-n"]

    mediator = Mediator(record_statistics=False, **options)
    mediator.register_domain(
        simple_domain(
            "d",
            {
                "f": lambda a: [f"{a}-m{version[0]}"],
                "g": g,
                "h": lambda n: [f"{n}-out"],
            },
        )
    )
    mediator.load_program(
        "q(A, Out) :- in(M, d:f(A)) & in(N, d:g(M)) & in(Out, d:h(N))."
    )
    return mediator, version, during_g


def test_source_change_delivered_mid_run_is_not_lost():
    """``notify_source_changed`` arriving while a query is in flight: the
    run read ``d:f`` before the change, so the prefixes it materialized
    must not be stored as if they were current."""
    mediator, version, during_g = build_chain(use_subplan_cache=True)

    def source_changes():
        version[0] = 1
        mediator.notify_source_changed("d", "f")

    during_g.append(source_changes)
    assert mediator.query("?- q('a', Out).").answers == (("a-m0-n-out",),)
    during_g.clear()

    assert not [
        key for key, entry in mediator.subplan_cache.items() if ("d", "f") in entry.sources
    ]
    assert mediator.subplan_cache.stats.invalidations["raced"] == 2  # both cuts
    oracle, oracle_version, __ = build_chain(use_plan_cache=False)
    oracle_version[0] = 1
    expected = oracle.query("?- q('a', Out).").answers
    assert mediator.query("?- q('a', Out).").answers == expected == (("a-m1-n-out",),)
    # the clean repeat did populate the tier, and the next one replays it
    assert mediator.subplan_cache.entry_count == 2
    assert mediator.query("?- q('a', Out).").answers == expected
    assert mediator.subplan_cache.stats.hits == 1
    mediator.close()


def test_program_change_delivered_mid_run_is_not_restamped():
    """``add_rule`` arriving while a query is in flight: rows computed
    under the old program are refused, not stored under the new epoch."""
    mediator, __, during_g = build_chain(use_subplan_cache=True)
    during_g.append(lambda: mediator.add_rule("other(X) :- in(X, d:h('z'))."))
    assert mediator.query("?- q('a', Out).").answers == (("a-m0-n-out",),)
    during_g.clear()
    assert mediator.subplan_cache.entry_count == 0
    assert mediator.subplan_cache.stats.invalidations["raced"] == 2
    mediator.query("?- q('a', Out).")
    assert {entry.epoch for __, entry in mediator.subplan_cache.items()} == {
        mediator.subplan_cache.epoch
    }
    mediator.close()


MATRIX_PROGRAM = """
head(A, M) :- in(M0, d:s0(A)) & in(M, d:s1(M0)).
shared(A, M) :- in(M0, d:s0(A)) & in(M1, d:s1(M0)) & in(M, e:u(M1)).
q0(A, Out) :- shared(A, M) & in(Out, d:t0(M)).
q1(A, Out) :- shared(A, M) & in(Out, d:t1(M)).
"""
MATRIX_QUERIES = ("?- q0('k', Out).", "?- q1('k', Out).", "?- head('k', M).")


def matrix_mediator(**options):
    """The matrix program: ``e`` sits behind a site whose injector the test
    flips, and ``hooks['t0']`` runs inside q0's tail call."""
    hooks = {}

    def t0(value):
        if "t0" in hooks:
            hooks["t0"]()
        return [f"{value}$0"]

    injector = FaultInjector(FaultSpec())
    mediator = Mediator(
        record_statistics=False,
        retry_policy=RetryPolicy(max_attempts=2, base_backoff_ms=1.0),
        **options,
    )
    mediator.register_domain(
        simple_domain(
            "d",
            {
                "s0": lambda a: [f"{a}>{j}" for j in range(4)],
                "s1": lambda m: [f"{m}>1"],
                "t0": t0,
                "t1": lambda m: [f"{m}$1"],
            },
        )
    )
    mediator.register_domain(
        simple_domain("e", {"u": lambda m: [f"{m}>u"]}),
        site="cornell",
        faults=injector,
    )
    mediator.load_program(MATRIX_PROGRAM)
    return mediator, injector, hooks


def matrix_clean_run(mediator, use_cim):
    return {
        query: Counter(mediator.query(query, use_cim=use_cim).answers)
        for query in MATRIX_QUERIES
    }


@functools.lru_cache(maxsize=None)
def matrix_expectations(use_cim):
    """Per query the cache-free engine's answers, and per subplan key the
    rows a clean inline run of every query materializes."""
    baseline, _, _ = matrix_mediator()
    answers = matrix_clean_run(baseline, use_cim)
    reference, _, _ = matrix_mediator(use_subplan_cache=True)
    matrix_clean_run(reference, use_cim)
    rows = {key: entry.rows for key, entry in reference.subplan_cache.items()}
    assert len(rows) == 3
    baseline.close()
    reference.close()
    return answers, rows


def end_by_max_answers(mediator, injector, hooks, use_cim):
    assert not mediator.query(MATRIX_QUERIES[0], max_answers=1).complete


def end_by_max_time(mediator, injector, hooks, use_cim):
    assert not mediator.query(MATRIX_QUERIES[0], max_time_ms=0.0).complete


def end_by_interactive_stop(mediator, injector, hooks, use_cim):
    result = mediator.query(
        MATRIX_QUERIES[0],
        mode="interactive",
        batch_size=1,
        continue_callback=lambda batch, total: False,
    )
    assert not result.complete


def end_by_external_cancel(mediator, injector, hooks, use_cim):
    token = CancellationToken()
    hooks["t0"] = token.cancel  # fires mid-run, inside the first tail call
    with pytest.raises(ExecutionCancelledError):
        mediator.query(MATRIX_QUERIES[0], cancel_token=token)
    del hooks["t0"]


def end_by_terminal_failure(mediator, injector, hooks, use_cim):
    injector.spec = FaultSpec(down=True)
    result = mediator.query(MATRIX_QUERIES[0])
    assert result.completeness.is_partial and not result.complete
    injector.spec = FaultSpec()


def end_by_degraded_answer(mediator, injector, hooks, use_cim):
    injector.spec = FaultSpec(down=True)
    result = mediator.query(MATRIX_QUERIES[0], use_cim=use_cim)
    assert result.degraded and not result.complete
    injector.spec = FaultSpec()


@pytest.mark.parametrize("jobs", [1, POOL_JOBS])
def test_cancel_after_the_last_answer_discards_nothing(jobs):
    """A token that fires at the finish line abandoned no work: the fully
    enumerated result is returned, whichever strategy produced it."""
    mediator, _, _ = matrix_mediator(jobs=jobs)
    token = CancellationToken()

    def at_the_finish_line(batch, total):
        token.cancel()
        return True

    result = mediator.query(
        MATRIX_QUERIES[0],
        mode="interactive",
        batch_size=4,
        continue_callback=at_the_finish_line,
        cancel_token=token,
    )
    assert token.is_cancelled()
    assert result.complete and len(result.answers) == 4
    mediator.close()


@pytest.mark.parametrize(
    "ending",
    [
        end_by_max_answers,
        end_by_max_time,
        end_by_interactive_stop,
        end_by_external_cancel,
        end_by_terminal_failure,
        end_by_degraded_answer,
    ],
)
@pytest.mark.parametrize("prior", ["cold", "shallower-cut"])
@pytest.mark.parametrize("jobs", [1, POOL_JOBS])
def test_only_clean_full_enumerations_populate_the_tier(jobs, prior, ending):
    """A run that stopped early, was cancelled, lost a source or served
    stale rows adds no entry for a prefix it did not enumerate fully and
    cleanly — so every entry present afterwards equals the clean
    materialization, and later clean runs answer like the cache-free engine."""
    use_cim = ending is end_by_degraded_answer
    expected_answers, expected_rows = matrix_expectations(use_cim)

    mediator, injector, hooks = matrix_mediator(
        use_subplan_cache=True,
        jobs=jobs,
        repair=ending is end_by_terminal_failure,
    )
    if use_cim:
        # stale rows to degrade to: warm the CIM, let every entry expire
        mediator.cim.cache.ttl_ms = 1_000.0
        matrix_clean_run(mediator, use_cim)
        mediator.subplan_cache.clear()
        mediator.clock.advance(5_000.0)
    if prior == "shallower-cut":
        mediator.query(MATRIX_QUERIES[2], use_cim=use_cim)
        assert mediator.subplan_cache.entry_count == 1

    before = {key: entry.rows for key, entry in mediator.subplan_cache.items()}
    ending(mediator, injector, hooks, use_cim)

    # nothing is stored by a run that did not exhaust cleanly — by either
    # strategy, so the entries are the same at any ``jobs``
    assert {
        key: entry.rows for key, entry in mediator.subplan_cache.items()
    } == before
    assert all(expected_rows[key] == rows for key, rows in before.items())
    assert matrix_clean_run(mediator, use_cim) == expected_answers
    assert {
        key: entry.rows for key, entry in mediator.subplan_cache.items()
    } == expected_rows
    mediator.close()
