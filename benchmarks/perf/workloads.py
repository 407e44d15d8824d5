"""The six workloads: what each builds and what it sends.

A workload is a fixed, seed-generated list of operations (*a round*)
replayed against a freshly built system; the harness repeats the round
for as long as ``--seconds`` allows and reports medians over rounds, so
two commits always do the same work per round.  Every workload counts
real source invocations with its own wrapped callables
(:func:`count_dials`), never with the program's cache counters.
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.core.mediator import Mediator
from repro.domains.base import Domain, simple_domain
from repro.workloads.datasets import build_rope_testbed
from repro.workloads.generators import (
    frame_interval_pool,
    generate_shared_prefix_workload,
    generate_workload,
)

#: the reference engine the oracle answers come from: sequential, no
#: statistics, no plan cache, no subplan tier, and no CIM routing
ORACLE_KWARGS: dict[str, Any] = {"record_statistics": False, "use_plan_cache": False}

Answers = Counter  # multiset of answer tuples


@dataclass(frozen=True)
class Op:
    """One operation of a round."""

    kind: str = "query"  # "query" | "notify" | "add_rule"
    text: str = ""  # the query, or the rule an add_rule adds
    function: str = ""  # the source function a notify names


@dataclass
class System:
    """A freshly built system under test."""

    mediator: Mediator
    #: real source invocations so far, from the workload's own wrappers
    dials: Callable[[], int]
    #: churn_mix only: the per-function data versions the sources embed
    #: in every answer, and the domain a write notifies
    versions: dict[str, int] = field(default_factory=dict)
    domain: str = ""


def count_dials(domains: Iterable[Domain]) -> Callable[[], int]:
    """Re-register every function of ``domains`` behind a counting
    wrapper; the returned callable reads the total."""
    lock = threading.Lock()  # served rounds dial from four worker threads
    total = [0]

    def counting(implementation: Callable[..., Any]) -> Callable[..., Any]:
        def call(*args: Any) -> Any:
            with lock:
                total[0] += 1
            return implementation(*args)

        return call

    for domain in domains:
        for name, function in domain.functions.items():
            domain.register(
                name,
                counting(function.implementation),
                arity=function.arity,
                doc=function.doc,
            )
    return lambda: total[0]


def zipf_mix(
    rng: random.Random, items: Sequence[Any], shapes: int, count: int
) -> list[tuple[Any, int]]:
    """``count`` (item, shape) pairs in which the item of rank r appears
    in proportion to 1/r (Zipf, s=1, rank 1 hottest) and cycles through
    the shapes.

    The multiset is fixed by ``count`` — expected frequencies rounded by
    largest remainder, not sampled — and the seed decides only the order.
    Every seed therefore sends the same number of distinct keys and
    repeats, so a metric's spread over seeds is the spread of the
    measurement, not of the dice.
    """
    total = sum(1.0 / rank for rank in range(1, len(items) + 1))
    shares = [count / (rank * total) for rank in range(1, len(items) + 1)]
    copies = [int(share) for share in shares]
    by_remainder = sorted(
        range(len(items)), key=lambda index: copies[index] - shares[index]
    )
    for index in by_remainder[: count - sum(copies)]:
        copies[index] += 1
    mix = [
        (item, occurrence % shapes)
        for item, times in zip(items, copies)
        for occurrence in range(times)
    ]
    rng.shuffle(mix)
    return mix


class Workload:
    """Base: subclasses set the class attributes and the two hooks.  Why
    each workload exists is recorded once, in ``BENCHMARK.json``."""

    name = ""
    ops_per_round = 0
    warmup = 0
    mediator_kwargs: dict[str, Any] = {}
    query_kwargs: dict[str, Any] = {}
    #: closed-loop clients; > 1 means the round goes through a server
    clients = 1

    def plan(
        self, rng: random.Random, count: int
    ) -> tuple[list[Op], Optional[list[Optional[Answers]]]]:
        """``count`` operations from ``rng``, plus the expected answer
        multiset of each when the workload knows it in closed form
        (``None``: ask the oracle)."""
        raise NotImplementedError

    def build(self, oracle: bool = False) -> System:
        """A fresh system; ``oracle=True`` builds the reference engine
        over the same sources and program instead."""
        raise NotImplementedError

    def _kwargs(self, oracle: bool) -> dict[str, Any]:
        return ORACLE_KWARGS if oracle else self.mediator_kwargs

    def _system(self, source: Domain, program: str, oracle: bool, **state: Any) -> System:
        """A mediator over one counted source with ``program`` loaded."""
        dials = count_dials([source])
        mediator = Mediator(**self._kwargs(oracle))
        mediator.register_domain(source)
        mediator.load_program(program)
        return System(mediator, dials, **state)


# -- the shared-prefix program (ROADMAP's reference workload) -----------------


class _SharedPrefix(Workload):
    """Four query shapes that walk one five-call chain, then a private
    tail call each (``generate_shared_prefix_workload``)."""

    shapes = 4
    keys = 1

    def build(self, oracle: bool = False) -> System:
        generated = generate_shared_prefix_workload(
            queries=self.shapes, prefix_depth=5, fanout=2
        )
        return self._system(generated.domain, generated.program_text, oracle)

    def plan(self, rng, count):  # type: ignore[no-untyped-def]
        keys = [f"k{rng.randrange(10**6)}" for _ in range(self.keys)]
        # Every shape twice over the hottest key, first: the second pass is
        # answered from the CIM, so all four templates are planned under
        # one statistics version and stay cached.  Without it the time a
        # cold mediator takes to stop re-planning (a dial bumps the DCSM
        # version, which drops every plan, whose re-planning ...) is a
        # heavy-tailed function of the order and leaks out of any fixed
        # warm-up into the timed operations.
        prelude = [(keys[0], shape) for _ in range(2) for shape in range(self.shapes)]
        mix = prelude + zipf_mix(rng, keys, self.shapes, count - len(prelude))
        return [Op(text=f"?- q{shape}('{key}', Out).") for key, shape in mix], None


class SteadyRepeat(_SharedPrefix):
    """The configuration a new user gets, on a working set that fits
    every cache: any miss is a design defect."""

    name = "steady_repeat"
    ops_per_round = 400
    warmup = 8

    def plan(self, rng, count):  # type: ignore[no-untyped-def]
        # ROADMAP's reference replay: the shapes in rotation over one
        # constant; the seed picks the constant and where the rotation starts
        key = f"k{rng.randrange(10**6)}"
        first = rng.randrange(self.shapes)
        return [
            Op(text=f"?- q{(first + index) % self.shapes}('{key}', Out).")
            for index in range(count)
        ], None


class WideParams(_SharedPrefix):
    """All three tiers on; the keyed working set overflows the subplan
    budget while the four plan templates fit."""

    name = "wide_params"
    ops_per_round = 2400
    warmup = 240
    keys = 2000
    mediator_kwargs = {"use_subplan_cache": True}
    query_kwargs = {"use_cim": True}


class ServedClosed(WideParams):
    """The same program behind a server with every default: the only
    workload that pays wire, admission and worker hand-off."""

    name = "served_closed"
    ops_per_round = 2000
    warmup = 200
    keys = 500
    clients = 2
    tenants = ("acme", "globex")


# -- the paper's own traffic --------------------------------------------------


class RopeIntervals(Workload):
    """The paper's Fig. 5/6 traffic over the rope testbed and its four
    invariants."""

    name = "rope_intervals"
    ops_per_round = 6000
    warmup = 600
    query_kwargs = {"use_cim": True}
    shapes = (
        "?- query1({first}, {last}, Object, Size).",
        "?- query2({first}, {last}, Object, Frames, Actor).",
        "?- query3({first}, {last}, Object, Actor).",
        "?- objects({first}, {last}, Object).",
    )

    def build(self, oracle: bool = False) -> System:
        mediator = build_rope_testbed(**self._kwargs(oracle))
        # the testbed wraps each source in a RemoteDomain; count at the source
        sources = [getattr(endpoint, "domain", endpoint) for endpoint in mediator.registry]
        return System(mediator, count_dials(sources))

    def plan(self, rng, count):  # type: ignore[no-untyped-def]
        pool = frame_interval_pool(
            240, starts=range(1, 240, 6), widths=[5, 10, 25, 43, 80, 123]
        )
        ops = [
            Op(text=self.shapes[shape].format(first=first, last=last))
            for (first, last), shape in zipf_mix(rng, pool, len(self.shapes), count)
        ]
        return ops, None


# -- a new shape every query --------------------------------------------------


class AdhocShapes(Workload):
    """Every query is a new shape, so the plan cache is bypassed by
    construction and planning is the cost."""

    name = "adhoc_shapes"
    ops_per_round = 300
    warmup = 8

    def build(self, oracle: bool = False) -> System:
        generated = generate_workload(layers=2, width=5, calls_per_leaf=2, fanout=1)
        return self._system(generated.domain, generated.program_text, oracle)

    def plan(self, rng, count):  # type: ignore[no-untyped-def]
        predicates = [f"p{layer}_{slot}" for layer in range(2) for slot in range(5)]
        root = f"c{rng.randrange(10**6)}"
        ops = []
        for _ in range(count):
            a, b, c = (rng.choice(predicates) for _ in range(3))
            ops.append(Op(text=f"?- {a}('{root}', X) & {b}(X, Y) & {c}(Y, Out)."))
        return ops, None


# -- reads beside writes -----------------------------------------------------


class ChurnMix(Workload):
    """The shared-prefix program over sources that stamp a per-function
    data version into every answer, so the right answer after any write
    is known in closed form and a stale cache hit cannot hide."""

    name = "churn_mix"
    ops_per_round = 500
    warmup = 20
    mediator_kwargs = {"use_subplan_cache": True}
    query_kwargs = {"use_cim": True}
    domain = "churn"
    depth = 5
    shapes = 4
    fanout = 2
    keys = 16
    write_every = 20

    def _functions(self) -> list[str]:
        return [f"s{i}" for i in range(self.depth)] + [
            f"t{k}" for k in range(self.shapes)
        ]

    def build(self, oracle: bool = False) -> System:
        versions = {name: 0 for name in self._functions()}
        fanout = self.fanout

        def head(value: str) -> list[str]:
            return [f"{value}>0.{j}@{versions['s0']}" for j in range(fanout)]

        def link(name: str, mark: str) -> Callable[[str], list[str]]:
            return lambda value: [f"{value}{mark}@{versions[name]}"]

        functions: dict[str, Callable[[str], list[str]]] = {"s0": head}
        for i in range(1, self.depth):
            functions[f"s{i}"] = link(f"s{i}", f">{i}")
        for k in range(self.shapes):
            functions[f"t{k}"] = link(f"t{k}", f"${k}")
        # the generator's rules, over this workload's versioned sources
        program = generate_shared_prefix_workload(
            queries=self.shapes,
            prefix_depth=self.depth,
            fanout=self.fanout,
            domain_name=self.domain,
        ).program_text
        return self._system(
            simple_domain(self.domain, functions),
            program,
            oracle,
            versions=versions,
            domain=self.domain,
        )

    def _answers(self, key: str, shape: int, versions: dict[str, int]) -> Answers:
        answers: Answers = Counter()
        for j in range(self.fanout):
            value = f"{key}>0.{j}@{versions['s0']}"
            for i in range(1, self.depth):
                value = f"{value}>{i}@{versions[f's{i}']}"
            answers[(f"{value}${shape}@{versions[f't{shape}']}",)] += 1
        return answers

    def _write(self, number: int) -> Op:
        """The ``number``-th write of a round.  The schedule is fixed — of
        every 20 writes 14 touch a tail function, 5 a prefix function and
        1 adds a rule — so every seed pays for the same invalidations at
        the same points; the seed decides what is read in between."""
        if number % 20 == 10:
            # a fresh predicate: bumps the planning epoch without changing
            # what any query of the round may answer
            return Op(
                "add_rule",
                text=f"extra{number}(A, Out) :- shared(A, M)"
                f" & in(Out, {self.domain}:t0(M)).",
            )
        if number % 4 == 1:
            return Op("notify", function=f"s{(number // 4) % self.depth}")
        return Op("notify", function=f"t{number % self.shapes}")

    def plan(self, rng, count):  # type: ignore[no-untyped-def]
        keys = [f"k{rng.randrange(10**6)}" for _ in range(self.keys)]
        writes = count // self.write_every
        reads = iter(zipf_mix(rng, keys, self.shapes, count - writes))
        versions = {name: 0 for name in self._functions()}
        ops: list[Op] = []
        expected: list[Optional[Answers]] = []
        for index in range(count):
            if index % self.write_every == self.write_every - 1:
                op = self._write(index // self.write_every)
                if op.kind == "notify":
                    versions[op.function] += 1
                ops.append(op)
                expected.append(None)
            else:
                key, shape = next(reads)
                ops.append(Op(text=f"?- q{shape}('{key}', Out)."))
                expected.append(self._answers(key, shape, versions))
        return ops, expected


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        SteadyRepeat(),
        WideParams(),
        RopeIntervals(),
        AdhocShapes(),
        ChurnMix(),
        ServedClosed(),
    )
}
