"""Serialization round-trip tests, and the statistics log written to a
backend attached after the fact (the shell's ``:save-stats``)."""

import json
from dataclasses import replace

import pytest

from repro.cim.cache import ResultCache
from repro.core.mediator import Mediator
from repro.core.model import GroundCall
from repro.core.parser import parse_query
from repro.core.plancache import CachedPlan, PlanCache, canonicalize
from repro.core.terms import AttrPath, Constant, Row, Variable
from repro.dcsm.module import DCSM
from repro.dcsm.patterns import BOUND, CallPattern
from repro.domains.base import CallResult, simple_domain
from repro.errors import ReproError
from repro.serialization import (
    decode_call,
    decode_plan,
    decode_value,
    encode_call,
    encode_plan,
    encode_value,
)
from repro.storage import MemoryBackend, SqliteBackend
from repro.workloads.datasets import build_rope_testbed
from repro.workloads.generators import generate_workload


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, -7, 3.25, "", "héllo", ("a", 1), (("x",), 2.5)],
    )
    def test_scalar_and_tuple_round_trip(self, value):
        assert decode_value(json.loads(json.dumps(encode_value(value)))) == value

    def test_row_round_trip(self):
        row = Row([("name", "stewart"), ("frames", (4, 47))])
        encoded = json.loads(json.dumps(encode_value(row)))
        assert decode_value(encoded) == row

    def test_nested_row_in_tuple(self):
        value = (Row([("a", 1)]), "x")
        assert decode_value(encode_value(value)) == value

    def test_unserializable_rejected(self):
        with pytest.raises(ReproError):
            encode_value(object())

    def test_undecodable_rejected(self):
        with pytest.raises(ReproError):
            decode_value({"weird": 1})

    def test_call_round_trip(self):
        call = GroundCall("video", "frames_to_objects", ("rope", 4, 47))
        assert decode_call(encode_call(call)) == call

    def test_malformed_call_rejected(self):
        with pytest.raises(ReproError):
            decode_call({"domain": "d"})


def test_result_cache_round_trip_through_a_backend():
    """What the removed JSON file saver's tests checked of the data —
    rows, the incomplete flag, timestamps and hit counts survive —
    through the path that replaced it (backend write-through + load)."""
    backend = MemoryBackend()
    cache = ResultCache(backend=backend)
    row = Row([("first", 4), ("last", 47)])
    frames = GroundCall("video", "object_to_frames", ("rope", "brandon"))
    partial = GroundCall("d", "partial", (1,))
    cache.put(frames, (row,), now_ms=10.0)
    cache.put(partial, ("x",), now_ms=20.0, complete=False)
    cache.get(frames, now_ms=30.0)
    assert cache.sync_backend() == 2

    restored = ResultCache(backend=backend)
    assert restored.load_from_backend(now_ms=100.0) == 2
    entry = restored.peek(frames)
    assert entry.answers[0].last == 47
    assert (entry.stored_at_ms, entry.hits, entry.complete) == (10.0, 1, True)
    assert not restored.peek(partial).complete


class TestDcsmSyncBackend:
    def make_trained(self) -> DCSM:
        dcsm = DCSM()
        for arg, card, t_all in [("a", 2, 2.0), ("a", 2, 2.2), ("b", 3, 2.8)]:
            dcsm.record(
                CallResult(
                    call=GroundCall("d1", "p_bf", (arg,)),
                    answers=tuple(range(card)),
                    t_first_ms=t_all / 2,
                    t_all_ms=t_all,
                )
            )
        return dcsm

    def test_round_trip_preserves_estimates(self, tmp_path):
        original = self.make_trained()
        backend = SqliteBackend(tmp_path / "stats.db")
        original.attach_backend(backend)  # attached late: mirrors from now on
        assert list(backend.scan_prefix("dcsm", "")) == []
        assert original.sync_backend() == 3
        backend.close()

        restored = DCSM()
        restored.attach_backend(SqliteBackend(tmp_path / "stats.db"))
        assert restored.load_from_backend() == 3
        pattern = CallPattern("d1", "p_bf", ("a",))
        assert restored.cost(pattern).t_all_ms == pytest.approx(
            original.cost(pattern).t_all_ms
        )
        pattern = CallPattern("d1", "p_bf", (BOUND,))
        assert restored.cost(pattern).cardinality == pytest.approx(
            original.cost(pattern).cardinality
        )

    def test_sync_replaces_what_the_backend_held(self):
        backend = MemoryBackend()
        first = self.make_trained()
        first.attach_backend(backend)
        first.sync_backend()
        first.sync_backend()  # idempotent: a rewrite, not an append
        assert len(list(backend.scan_prefix("dcsm", ""))) == 3

    def test_load_appends(self):
        backend = MemoryBackend()
        original = self.make_trained()
        original.attach_backend(backend)
        original.sync_backend()
        original.load_from_backend()  # duplicate the log
        assert original.observation_count() == 6


# -- plan templates as JSON (the plan cache's persisted records) --------------------


def _through_json(data):
    return json.loads(json.dumps(data))


def _generated_mediator() -> tuple[Mediator, tuple[str, ...]]:
    workload = generate_workload(layers=3, width=2, calls_per_leaf=2)
    mediator = Mediator()
    mediator.register_domain(workload.domain)
    mediator.load_program(workload.program_text)
    return mediator, workload.queries


def _value_dependent_mediator() -> tuple[Mediator, tuple[str, ...]]:
    table = {"pa": [1, 2], "pb": [7]}
    mediator = Mediator()
    mediator.register_domain(simple_domain("d1", {"p": lambda key: table.get(key, [])}))
    mediator.load_program(
        "r(a, X) :- in(X, d1:p('pa')).\nr(b, X) :- in(X, d1:p('pb'))."
    )
    return mediator, ("?- r(a, X).", "?- r(b, X).")


ROPE_QUERIES = (
    "?- actors(A).",
    "?- objects(4, 47, O).",
    "?- query1(4, 47, Object, Size).",
)


def _planned(build) -> list[tuple[str, CachedPlan]]:
    """Every entry the planner caches for the testbed's queries, plus the
    same queries planned against cold statistics (``vector=None``)."""
    if build is build_rope_testbed:
        mediator, queries = build(), ROPE_QUERIES
    else:
        mediator, queries = build()
    entries: list[tuple[str, CachedPlan]] = []
    for text in queries:  # cold statistics: the search cannot price anything
        canonical = canonicalize(parse_query(text))
        result = mediator.rewriter.search(
            canonical.abstract,
            mediator.cost_estimator,
            bound_vars=frozenset(canonical.params),
        )
        assert not result.priced
        entries.append(
            (
                f"cold {text}",
                CachedPlan(
                    template=result.plan,
                    vector=None,
                    params=canonical.params,
                    sources=result.plan.sources(),
                ),
            )
        )
    for __ in range(3):  # run 1 observes, run 2 plans priced and caches
        for text in queries:
            mediator.query(text)
    entries.extend(mediator.plan_cache.items())
    return entries


class TestPlanCodec:
    @pytest.mark.parametrize(
        "build", [_generated_mediator, build_rope_testbed, _value_dependent_mediator]
    )
    def test_every_planned_template_round_trips(self, build):
        entries = _planned(build)
        cache = PlanCache()
        assert any(entry.vector is not None for __, entry in entries)
        for label, entry in entries:
            if entry.template is not None:
                decoded = decode_plan(_through_json(encode_plan(entry.template)))
                assert decoded == entry.template, label
                assert str(decoded) == str(entry.template)
            # stamps are not persisted: adoption re-stamps
            unstamped = replace(entry, epoch=0, dcsm_version=0)
            assert cache.decode(_through_json(cache.encode(entry))) == unstamped, label

    def test_the_interesting_shapes_are_among_them(self):
        """The cases the codec exists for all occur in what the planner
        produces: ``Q#p`` parameters, attribute paths, constants, CIM
        routing, value-dependent markers and unpriced templates."""
        rope = _planned(build_rope_testbed)
        terms = {
            type(term)
            for __, entry in rope
            for step in entry.template.steps
            for term in (
                (step.atom.output, *step.atom.call.args)
                if hasattr(step, "atom")
                else (step.comparison.left, step.comparison.right)
            )
        }
        assert terms == {AttrPath, Constant, Variable}
        assert any(p.name.startswith("Q#p") for __, e in rope for p in e.params)
        assert any(entry.vector is None for __, entry in rope)
        assert any(entry.value_dependent for __, entry in _planned(_value_dependent_mediator))
        routed = rope[0][1].template.with_cim(None)
        assert decode_plan(_through_json(encode_plan(routed))) == routed

    def test_undecodable_term_rejected(self):
        with pytest.raises(ReproError):
            decode_plan(
                {"steps": [{"op": "=", "left": {"weird": 1}, "right": {"var": "X"}}]}
            )
