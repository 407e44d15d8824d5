"""DCSM tests: vectors, patterns, database, summarization, estimation,
and the module façade — including the paper's §6.1/§6.3 worked examples,
the estimate-time fold checked against a full rebuild, and a thread
hammer (CI oversubscribes it with ``REPRO_STRESS_JOBS=16``)."""

import os
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import GroundCall
from repro.core.parser import parse_program
from repro.dcsm.database import CostVectorDatabase
from repro.dcsm.estimation import CostEstimator
from repro.dcsm.module import DCSM, MODE_LOSSLESS, MODE_LOSSY, MODE_RAW
from repro.dcsm.patterns import BOUND, Bound, CallPattern
from repro.dcsm.summary import (
    SummaryTable,
    instantiable_positions,
    lossy_dims_from_program,
)
from repro.dcsm.vectors import CostVector, Observation
from repro.domains.base import CallResult
from repro.errors import EstimationError


def obs(args, card, t_all, t_first=None, complete=True, when=0.0,
        domain="d1", function="p_bf") -> Observation:
    t_first = t_first if t_first is not None else t_all / 2
    return Observation(
        call=GroundCall(domain, function, tuple(args)),
        vector=CostVector(t_first, t_all, float(card)),
        record_time_ms=when,
        complete=complete,
    )


#: The paper's table (T16): d1:p_bf observations.
T16 = [
    obs(("a",), 2, 2.00),
    obs(("a",), 2, 2.20),
    obs(("b",), 3, 2.80),
    obs(("c",), 1, 2.84),
]


class TestCostVector:
    def test_full_and_empty(self):
        assert CostVector(1, 2, 3).is_full()
        assert CostVector(None, None, None).is_empty()
        assert not CostVector(1, None, 3).is_full()

    def test_fill_missing(self):
        partial = CostVector(1.0, None, None)
        filled = partial.fill_missing_from(CostVector(9.0, 2.0, 3.0))
        assert filled == CostVector(1.0, 2.0, 3.0)

    def test_require_full(self):
        with pytest.raises(EstimationError):
            CostVector(1.0, None, 1.0).require_full()

    def test_str(self):
        assert "?" in str(CostVector(None, 2.0, 3.0))


class TestPatterns:
    def test_bound_singleton(self):
        assert Bound() is BOUND
        assert repr(BOUND) == "$b"

    def test_mask(self):
        pattern = CallPattern("d", "f", ("a", BOUND, 2))
        assert pattern.mask == (0, 2)
        assert pattern.num_constants == 2

    def test_matches(self):
        pattern = CallPattern("d", "f", ("a", BOUND))
        assert pattern.matches(GroundCall("d", "f", ("a", 99)))
        assert not pattern.matches(GroundCall("d", "f", ("b", 99)))
        assert not pattern.matches(GroundCall("d", "g", ("a", 99)))
        assert not pattern.matches(GroundCall("d", "f", ("a",)))

    def test_relaxations_rightmost_first(self):
        pattern = CallPattern("d", "f", ("a", "b", BOUND))
        relaxed = list(pattern.relaxations())
        assert relaxed[0].args == ("a", BOUND, BOUND)
        assert relaxed[1].args == (BOUND, "b", BOUND)

    def test_relax_already_bound_rejected(self):
        pattern = CallPattern("d", "f", (BOUND,))
        with pytest.raises(ValueError):
            pattern.relax(0)

    def test_generalizes(self):
        specific = CallPattern("d", "f", ("a", 2))
        general = CallPattern("d", "f", ("a", BOUND))
        assert general.generalizes(specific)
        assert not specific.generalizes(general)
        assert general.generalizes(general)

    def test_restrict_to(self):
        pattern = CallPattern("d", "f", ("a", "b", "c"))
        assert pattern.restrict_to((1,)).args == (BOUND, "b", BOUND)

    def test_from_call(self):
        call = GroundCall("d", "f", (1, 2))
        assert CallPattern.from_call(call).args == (1, 2)

    def test_str(self):
        pattern = CallPattern("d", "f", ("a", BOUND, 3))
        assert str(pattern) == "d:f('a', $b, 3)"


class TestDatabase:
    def test_record_and_bucket(self):
        db = CostVectorDatabase()
        for observation in T16:
            db.record(observation)
        assert len(db) == 4
        assert db.functions() == (("d1", "p_bf"),)

    def test_paper_exact_average(self):
        """§6.1: cost of d1:p_bf('a') = avg(2.00, 2.20) = 2.10."""
        db = CostVectorDatabase()
        for observation in T16:
            db.record(observation)
        vector, trace = db.estimate(CallPattern("d1", "p_bf", ("a",)))
        assert vector.t_all_ms == pytest.approx(2.10)
        assert vector.cardinality == pytest.approx(2.0)
        assert trace.observations_matched == 2

    def test_paper_bound_average(self):
        """§6.1: cost of d1:p_bf($b) = avg of all four = 2.46."""
        db = CostVectorDatabase()
        for observation in T16:
            db.record(observation)
        vector, __ = db.estimate(CallPattern("d1", "p_bf", (BOUND,)))
        assert vector.t_all_ms == pytest.approx((2.00 + 2.20 + 2.80 + 2.84) / 4)

    def test_incomplete_excluded_from_t_all_and_card(self):
        db = CostVectorDatabase()
        db.record(obs(("a",), 2, 2.0))
        db.record(obs(("a",), 99, 99.0, complete=False))
        vector, __ = db.estimate(CallPattern("d1", "p_bf", ("a",)))
        assert vector.t_all_ms == pytest.approx(2.0)
        assert vector.cardinality == pytest.approx(2.0)
        # but T_first still counts the incomplete run
        assert vector.t_first_ms == pytest.approx((1.0 + 49.5) / 2)

    def test_recency_weighting_prefers_recent(self):
        db = CostVectorDatabase()
        db.record(obs(("a",), 1, 100.0, when=0.0))
        db.record(obs(("a",), 1, 10.0, when=10_000.0))
        flat, __ = db.estimate(CallPattern("d1", "p_bf", ("a",)))
        weighted, __ = db.estimate(
            CallPattern("d1", "p_bf", ("a",)), now_ms=10_000.0, decay_tau_ms=1_000.0
        )
        assert flat.t_all_ms == pytest.approx(55.0)
        assert weighted.t_all_ms < 11.0

    def test_bounded_retention(self):
        db = CostVectorDatabase(max_observations_per_function=2)
        for observation in T16:
            db.record(observation)
        assert len(db) == 2
        # the most recent survive
        vector, __ = db.estimate(CallPattern("d1", "p_bf", (BOUND,)))
        assert vector.t_all_ms == pytest.approx((2.80 + 2.84) / 2)

    def test_empty_estimate_is_empty_vector(self):
        db = CostVectorDatabase()
        vector, trace = db.estimate(CallPattern("d", "f", (BOUND,)))
        assert vector.is_empty()
        assert trace.observations_scanned == 0


class TestSummaryTable:
    def make_lossless(self) -> SummaryTable:
        return SummaryTable.summarize(T16, "d1", "p_bf", 1)

    def test_lossless_grouping(self):
        table = self.make_lossless()
        assert table.is_lossless
        assert len(table.rows) == 3  # groups a, b, c
        assert table.rows[("a",)].count == 2  # the paper's "l" column

    def test_lossless_lookup_matches_raw_average(self):
        table = self.make_lossless()
        vector = table.lookup(CallPattern("d1", "p_bf", ("a",)))
        assert vector.t_all_ms == pytest.approx(2.10)

    def test_lookup_wrong_dims_returns_none(self):
        table = self.make_lossless()
        assert table.lookup(CallPattern("d1", "p_bf", (BOUND,))) is None

    def test_aggregate_over_all_groups(self):
        table = self.make_lossless()
        vector, scanned = table.aggregate(CallPattern("d1", "p_bf", (BOUND,)))
        assert vector.t_all_ms == pytest.approx(2.46)
        assert scanned == 3

    def test_coarsen_to_global(self):
        table = self.make_lossless()
        coarse = table.coarsen(())
        assert coarse.is_global
        assert len(coarse.rows) == 1
        vector = coarse.lookup(CallPattern("d1", "p_bf", (BOUND,)))
        # count-weighted: coarsening is exact aggregation
        assert vector.t_all_ms == pytest.approx(2.46)

    def test_coarsen_rejects_non_subset(self):
        table = SummaryTable.summarize(T16, "d1", "p_bf", 1, dims=())
        with pytest.raises(ValueError):
            table.coarsen((0,))

    def test_size_cells_smaller_when_lossy(self):
        lossless = self.make_lossless()
        lossy = lossless.coarsen(())
        assert lossy.size_cells() < lossless.size_cells()

    def test_unknown_group_lookup(self):
        table = self.make_lossless()
        assert table.lookup(CallPattern("d1", "p_bf", ("zzz",))) is None


class TestInstantiableAnalysis:
    def test_constants_and_head_vars_instantiable(self):
        program = parse_program(
            "p(A) :- in(X, d:f('fixed', A, Y)) & in(Y, e:g())."
        )
        table = instantiable_positions(program)
        # position 0 is a constant, position 1 a head variable, position 2
        # is fed by e:g's output → not instantiable
        assert table[("d", "f")] == {0, 1}

    def test_lossy_dims_from_program(self):
        program = parse_program(
            "p(A) :- in(X, d:f('fixed', A, Y)) & in(Y, e:g())."
        )
        assert lossy_dims_from_program(program, "d", "f", 3) == (0, 1)
        assert lossy_dims_from_program(program, "e", "g", 0) == ()
        assert lossy_dims_from_program(program, "zz", "zz", 2) == ()

    def test_paper_hidden_predicate_example(self):
        """§6.2.2: p and q hidden behind m — the B attribute of q_bf can
        never be probed with a constant."""
        program = parse_program(
            """
            m(A, C) :- p(A, B) & q(B, C).
            p(A, B) :- in(Ans, d1:p_ff()), =($Ans.1, A), =($Ans.2, B).
            q(B, C) :- in(C, d2:q_bf(B)).
            """
        )
        assert lossy_dims_from_program(program, "d2", "q_bf", 1) == ()


class TestEstimationAlgorithm:
    def test_relaxation_falls_through_tables(self):
        """§6.3's example: exact-dims table missing → relax to a coarser
        one, then the global."""
        observations = [
            obs(("a", 1, "x"), 2, 10.0, domain="d", function="f"),
            obs(("b", 2, "x"), 4, 20.0, domain="d", function="f"),
            obs(("b", 2, "y"), 6, 30.0, domain="d", function="f"),
        ]
        # tables: dims {2} (i.e. d:f($b,$b,C)) and the global
        by_c = SummaryTable.summarize(observations, "d", "f", 3, dims=(2,))
        global_table = SummaryTable.summarize(observations, "d", "f", 3, dims=())
        estimator = CostEstimator([by_c, global_table], use_raw_fallback=False)
        # request d:f('a', $b, 'x'): no dims-{0,2} table → relax pos 0 →
        # d:f($b,$b,'x') answered by the by_c table
        estimate = estimator.estimate(CallPattern("d", "f", ("a", BOUND, "x")))
        assert estimate.vector.t_all_ms == pytest.approx(15.0)
        assert estimate.relaxations == 1
        # request with unseen C value: falls to global average
        estimate2 = estimator.estimate(CallPattern("d", "f", (BOUND, BOUND, "z")))
        assert estimate2.vector.t_all_ms == pytest.approx(20.0)

    def test_no_stats_raises(self):
        estimator = CostEstimator([], use_raw_fallback=False)
        with pytest.raises(EstimationError):
            estimator.estimate(CallPattern("d", "f", (BOUND,)))

    def test_raw_fallback(self):
        db = CostVectorDatabase()
        for observation in T16:
            db.record(observation)
        estimator = CostEstimator([], database=db, use_raw_fallback=True)
        estimate = estimator.estimate(CallPattern("d1", "p_bf", ("a",)))
        assert estimate.source == "raw"
        assert estimate.vector.t_all_ms == pytest.approx(2.10)

    def test_work_counters(self):
        table = SummaryTable.summarize(T16, "d1", "p_bf", 1)
        estimator = CostEstimator([table], use_raw_fallback=False)
        estimator.estimate(CallPattern("d1", "p_bf", (BOUND,)))
        assert estimator.stats.table_rows_scanned >= 3


class TestModuleFacade:
    def make_trained(self, mode=MODE_LOSSLESS) -> DCSM:
        dcsm = DCSM(mode=mode)
        for observation in T16:
            dcsm.record(
                CallResult(
                    call=observation.call,
                    answers=tuple(range(int(observation.vector.cardinality))),
                    t_first_ms=observation.vector.t_first_ms,
                    t_all_ms=observation.vector.t_all_ms,
                )
            )
        return dcsm

    def test_modes_agree_on_exact_when_lossless(self):
        lossless = self.make_trained(MODE_LOSSLESS)
        raw = self.make_trained(MODE_RAW)
        pattern = CallPattern("d1", "p_bf", ("a",))
        assert lossless.cost(pattern).t_all_ms == pytest.approx(
            raw.cost(pattern).t_all_ms
        )

    def test_lossy_drop_all_gives_global_average(self):
        dcsm = self.make_trained(MODE_LOSSY)
        dcsm.configure_lossy_drop_all()
        vector = dcsm.cost(CallPattern("d1", "p_bf", ("a",)))
        assert vector.t_all_ms == pytest.approx(2.46)

    def test_summaries_rebuilt_after_new_observations(self):
        dcsm = self.make_trained()
        before = dcsm.cost(CallPattern("d1", "p_bf", ("a",))).t_all_ms
        dcsm.record(
            CallResult(
                call=GroundCall("d1", "p_bf", ("a",)),
                answers=(0,),
                t_first_ms=50.0,
                t_all_ms=100.0,
            )
        )
        after = dcsm.cost(CallPattern("d1", "p_bf", ("a",))).t_all_ms
        assert after > before

    def test_prior_vector_used_when_no_stats(self):
        dcsm = DCSM(prior_vector=CostVector(1.0, 2.0, 3.0))
        vector = dcsm.cost(CallPattern("never", "seen", (BOUND,)))
        assert vector.t_all_ms == 2.0

    def test_no_stats_no_prior_raises(self):
        dcsm = DCSM()
        with pytest.raises(EstimationError):
            dcsm.cost(CallPattern("never", "seen", (BOUND,)))

    def test_external_estimator_delegation(self):
        external = lambda pattern: CostVector(1.0, 2.0, 3.0)
        dcsm = DCSM(external_estimators={"rdbms": external})
        estimate = dcsm.estimate(CallPattern("rdbms", "q", (BOUND,)))
        assert estimate.source == "external"
        assert estimate.vector.t_all_ms == 2.0

    def test_external_partial_filled_from_stats(self):
        external = lambda pattern: CostVector(None, None, 7.0)  # only Card
        dcsm = DCSM(external_estimators={"d1": external})
        for observation in T16:
            dcsm.record(
                CallResult(
                    call=observation.call,
                    answers=(1, 2),
                    t_first_ms=observation.vector.t_first_ms,
                    t_all_ms=observation.vector.t_all_ms,
                )
            )
        estimate = dcsm.estimate(CallPattern("d1", "p_bf", ("a",)))
        assert estimate.vector.cardinality == 7.0  # external wins
        assert estimate.vector.t_all_ms == pytest.approx(2.10)  # stats fill
        assert estimate.source.startswith("external+")

    def test_probe_tracking_and_suggestion(self):
        dcsm = self.make_trained()
        dcsm.cost(CallPattern("d1", "p_bf", ("a",)))
        dcsm.cost(CallPattern("d1", "p_bf", (BOUND,)))
        assert dcsm.suggest_dims("d1", "p_bf") == (0,)

    def test_size_accounting_lossy_smaller(self):
        lossless = self.make_trained(MODE_LOSSLESS)
        lossy = self.make_trained(MODE_LOSSY)
        lossy.configure_lossy_drop_all()
        assert lossy.size_cells() < lossless.size_cells()

    def test_predicate_first_statistics(self):
        dcsm = DCSM()
        assert dcsm.predicate_first_estimate("m", 2) is None
        dcsm.record_predicate_first("m", 2, 10.0)
        dcsm.record_predicate_first("m", 2, 20.0)
        assert dcsm.predicate_first_estimate("m", 2) == pytest.approx(15.0)

    def test_bad_mode_rejected(self):
        with pytest.raises(EstimationError):
            DCSM(mode="psychic")


# -- estimate-time folding ------------------------------------------------------

STRESS_THREADS = int(os.environ.get("REPRO_STRESS_JOBS", "0")) or 4

#: the source functions of the folding tests: d:f/2 and d:g/1
ARITY = {"f": 2, "g": 1}


def call_result(function, args, t_first, extra, answers=1, complete=True):
    """A recorded call; ``answers=0`` leaves the observation without T_first."""
    return CallResult(
        call=GroundCall("d", function, tuple(args)),
        answers=tuple(range(answers)),
        t_first_ms=t_first,
        t_all_ms=t_first + extra,
        complete=complete,
    )


def configured(config, cap=None) -> DCSM:
    if config == "lossless":
        return DCSM(mode=MODE_LOSSLESS, max_observations_per_function=cap)
    dcsm = DCSM(mode=MODE_LOSSY, max_observations_per_function=cap)
    if config == "lossy":
        dcsm.configure_lossy("d", "f", (0,))
    else:
        dcsm.configure_tables("d", "f", [(0, 1), (1,), ()])
    return dcsm


def assert_tables_match_log(dcsm):
    """Every live table equals ``SummaryTable.summarize`` over the current
    log, cell for cell (sums up to float rounding: a rebuild derives
    coarse tables by merging cells, a fold adds observations in order)."""
    for function in ARITY:
        log = dcsm.database.observations("d", function)
        for table in dcsm.estimator.tables_for("d", function):
            rebuilt = SummaryTable.summarize(log, "d", function, table.arity, table.dims)
            assert table.rows.keys() == rebuilt.rows.keys()
            for key, expected in rebuilt.rows.items():
                cell = table.rows[key]
                assert (cell.n_t_first, cell.n_t_all, cell.n_card, cell.count) == (
                    expected.n_t_first, expected.n_t_all, expected.n_card, expected.count
                )
                assert (cell.sum_t_first, cell.sum_t_all, cell.sum_card) == pytest.approx(
                    (expected.sum_t_first, expected.sum_t_all, expected.sum_card)
                )
                assert cell.last_record_ms == expected.last_record_ms


def cost_or_none(dcsm, pattern):
    try:
        vector = dcsm.cost(pattern)
    except EstimationError:
        return None
    return (vector.t_first_ms, vector.t_all_ms, vector.cardinality)


def same_cost(left, right) -> bool:
    if left is None or right is None:
        return left is right
    return all(
        a is b if a is None or b is None else a == pytest.approx(b)
        for a, b in zip(left, right)
    )


_record_step = st.tuples(
    st.just("record"),
    st.sampled_from(sorted(ARITY)),
    st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 2)),
    st.floats(0.0, 50.0),  # T_first
    st.floats(0.0, 50.0),  # T_all - T_first
    st.integers(0, 3),  # answers; 0 means no T_first
    st.booleans(),  # complete
)
_estimate_step = st.tuples(
    st.just("estimate"),
    st.sampled_from(sorted(ARITY)),
    st.tuples(st.sampled_from(["a", "b", BOUND]), st.sampled_from([0, 1, BOUND])),
)


@settings(max_examples=60, deadline=None)
@given(
    config=st.sampled_from(["lossless", "lossy", "tables"]),
    cap=st.none() | st.integers(1, 5),
    steps=st.lists(st.one_of(_record_step, _estimate_step), max_size=40),
)
def test_fold_matches_rebuild(config, cap, steps):
    """Folding at estimate time keeps every table equal to a rebuild over
    the log — under a trimming cap too — and every estimate equal to a
    freshly built DCSM's."""
    dcsm = configured(config, cap)
    recorded = []
    for step in steps:
        function = step[1]
        args = step[2][: ARITY[function]]
        if step[0] == "record":
            result = call_result(function, args, *step[3:])
            dcsm.record(result)
            recorded.append(result)
            continue
        pattern = CallPattern("d", function, args)
        got = cost_or_none(dcsm, pattern)
        assert_tables_match_log(dcsm)
        fresh = configured(config, cap)
        for result in recorded:
            fresh.record(result)
        assert same_cost(got, cost_or_none(fresh, pattern))


class TestVersionRule:
    PATTERN = CallPattern("d", "f", ("a", 1))

    def trained(self, mode=MODE_LOSSLESS) -> DCSM:
        dcsm = DCSM(mode=mode)
        dcsm.record(call_result("f", ("a", 1), 1.0, 1.0, answers=2))
        dcsm.cost(self.PATTERN)
        return dcsm

    def moves(self, dcsm, result) -> bool:
        version = dcsm.version
        dcsm.record(result)
        dcsm.cost(self.PATTERN)
        return dcsm.version != version

    def test_observation_at_the_mean_keeps_version(self):
        dcsm = self.trained()
        assert not self.moves(dcsm, call_result("f", ("a", 1), 1.0, 1.0, answers=2))

    def test_new_argument_tuple_moves_version(self):
        dcsm = self.trained()
        assert self.moves(dcsm, call_result("f", ("b", 1), 1.0, 1.0, answers=2))

    def test_moved_mean_moves_version(self):
        dcsm = self.trained()
        assert self.moves(dcsm, call_result("f", ("a", 1), 1.0, 5.0, answers=2))

    def test_incomplete_call_t_all_does_not_move_version(self):
        dcsm = self.trained()
        incomplete = call_result("f", ("a", 1), 1.0, 50.0, answers=7, complete=False)
        assert not self.moves(dcsm, incomplete)
        assert dcsm.cost(self.PATTERN).t_all_ms == pytest.approx(2.0)

    def test_raw_mode_moves_on_any_observation(self):
        dcsm = self.trained(MODE_RAW)
        assert self.moves(dcsm, call_result("f", ("a", 1), 1.0, 1.0, answers=2))

    def test_summarize_always_moves_version(self):
        dcsm = self.trained()
        version = dcsm.version
        dcsm.summarize()
        assert dcsm.version == version + 1


def test_recorded_and_since_across_a_trim():
    db = CostVectorDatabase(max_observations_per_function=3)
    for observation in T16[:3]:
        db.record(observation)
    assert db.recorded("d1", "p_bf") == 3
    assert db.since("d1", "p_bf", 1) == tuple(T16[1:3])
    db.record(T16[3])  # trims T16[0]
    assert db.recorded("d1", "p_bf") == 4
    assert db.since("d1", "p_bf", 3) is None  # the cap trimmed after mark 3
    assert db.since("d1", "p_bf", 4) == ()


def test_hammer_records_against_aggregating_estimates():
    """Recorders race estimators whose pattern no table answers directly
    (a constant at position 0 only), so every estimate walks the lossless
    table's rows while folds update them."""
    dcsm = DCSM()
    dcsm.record(call_result("f", ("k0", 0), 1.0, 1.0))
    errors: list[BaseException] = []
    done = threading.Event()

    def record(index: int) -> None:
        try:
            for n in range(300):
                # mostly new rows, so folds keep inserting while estimates scan
                args = (f"k{n % 7}", index * 1000 + n % 250)
                dcsm.record(call_result("f", args, float(n % 3), 1.0, n % 4))
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    def estimate() -> None:
        try:
            while not done.is_set():
                dcsm.estimate(CallPattern("d", "f", ("k1", BOUND)))
                dcsm.size_cells()
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    recorders = [
        threading.Thread(target=record, args=(i,))
        for i in range(max(1, STRESS_THREADS // 2))
    ]
    estimators = [
        threading.Thread(target=estimate) for _ in range(max(1, STRESS_THREADS // 2))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in recorders + estimators:
            thread.start()
        for thread in recorders:
            thread.join(timeout=60.0)
        done.set()
        for thread in estimators:
            thread.join(timeout=60.0)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in recorders + estimators)
    assert errors == []
    dcsm.estimate(CallPattern("d", "f", ("k1", BOUND)))
    assert_tables_match_log(dcsm)
