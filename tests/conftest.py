"""Shared fixtures: small wired testbeds used across the suite.

The whole suite can run against any cache storage backend: the CI
backend matrix exports ``REPRO_STORAGE=memory|sqlite|sharded`` and every
:class:`Mediator` built without an explicit ``storage=`` picks it up
(path-less specs expand to per-mediator files under
``$REPRO_STORAGE_PATH``, which the session fixture below points at a
pytest-managed temp directory).  Memory stays the authoritative read
path, so observable behavior must be identical across backends.
"""

from __future__ import annotations

import os

import pytest

from repro.core.mediator import Mediator
from repro.domains.avis.store import AvisDomain, build_video
from repro.domains.base import simple_domain
from repro.domains.relational.engine import RelationalEngine


@pytest.fixture(scope="session", autouse=True)
def _storage_matrix_root(tmp_path_factory: pytest.TempPathFactory):
    """Route env-selected disk backends into a pytest temp directory."""
    backend = os.environ.get("REPRO_STORAGE", "memory")
    if backend == "memory" or os.environ.get("REPRO_STORAGE_PATH"):
        yield
        return
    root = tmp_path_factory.mktemp("repro-storage")
    os.environ["REPRO_STORAGE_PATH"] = str(root)
    try:
        yield
    finally:
        os.environ.pop("REPRO_STORAGE_PATH", None)


@pytest.fixture
def cast_engine() -> RelationalEngine:
    engine = RelationalEngine("relation")
    engine.create_table(
        "cast",
        ["name", "role"],
        [
            ("stewart", "rupert"),
            ("dall", "brandon"),
            ("granger", "phillip"),
        ],
        index_on=["role"],
    )
    return engine


@pytest.fixture
def small_avis() -> AvisDomain:
    avis = AvisDomain("video")
    avis.add_video(
        build_video(
            "rope",
            240,
            [
                ("brandon", [(1, 210)]),
                ("phillip", [(1, 200)]),
                ("rupert", [(30, 220)]),
                ("rope", [(4, 60)]),
                ("gun", [(130, 160)]),
            ],
        )
    )
    return avis


@pytest.fixture
def m1_mediator() -> Mediator:
    """The paper's M1 mediator over two tiny in-memory domains.

    d1:p holds pairs {(a,1), (a,2), (b,3)};  d2:q holds {(1,x), (2,y), (3,z)}.
    """
    p_pairs = [("a", 1), ("a", 2), ("b", 3)]
    q_pairs = [(1, "x"), (2, "y"), (3, "z")]
    # asymmetric explicit costs: q_ff is the expensive full dump, so the
    # p-first plan genuinely wins and the optimizer has a margin to find
    d1 = simple_domain(
        "d1",
        {
            "p_ff": lambda: ([tuple(pair) for pair in p_pairs], 4.0, 10.0),
            "p_fb": lambda b: ([a for a, bb in p_pairs if bb == b], 8.0, 10.0),
            "p_bb": lambda a, b: ([True] if (a, b) in p_pairs else [], 10.0, 10.0),
        },
    )
    d2 = simple_domain(
        "d2",
        {
            "q_ff": lambda: ([tuple(pair) for pair in q_pairs], 40.0, 100.0),
            "q_bf": lambda b: ([c for bb, c in q_pairs if bb == b], 8.0, 10.0),
        },
    )
    mediator = Mediator()
    mediator.register_domain(d1)
    mediator.register_domain(d2)
    mediator.load_program(
        """
        m(A, C) :- p(A, B) & q(B, C).
        p(A, B) :- in(Ans, d1:p_ff()), =($Ans.1, A), =($Ans.2, B).
        p(A, B) :- in(A, d1:p_fb(B)).
        p(A, B) :- in(X, d1:p_bb(A, B)).
        q(B, C) :- in(Ans, d2:q_ff()), =($Ans.1, B), =($Ans.2, C).
        q(B, C) :- in(C, d2:q_bf(B)).
        """
    )
    return mediator


@pytest.fixture
def wide_union_mediator():
    """Factory: ``p(X)`` defined by two five-call rules, 120 orderings
    each — more than ``RewriterConfig.max_plans`` (64), so enumeration
    never reaches rule b.  Rule a answers 0 and rule b answers 10; every
    call of rule a costs ``a_ms`` and every call of rule b ``b_ms``."""

    def constant(value: int, cost: float):
        return lambda: ([value], cost, cost)

    def make(a_ms: float = 1.0, b_ms: float = 1.0) -> Mediator:
        functions = {}
        for rule, answer, cost in (("a", 0, a_ms), ("b", 10, b_ms)):
            for index in range(5):
                value = answer if index == 0 else 1
                functions[f"{rule}{index}"] = constant(value, cost)
        mediator = Mediator()
        mediator.register_domain(simple_domain("d", functions))
        mediator.load_program(
            "\n".join(
                f"p(X) :- in(X, d:{rule}0())"
                + "".join(
                    f" & in({rule.upper()}{i}, d:{rule}{i}())" for i in range(1, 5)
                )
                + "."
                for rule in ("a", "b")
            )
        )
        return mediator

    return make
