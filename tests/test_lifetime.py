"""Object lifetime: a closed, dropped ``Mediator`` frees by reference
counting alone.

Nothing a mediator owns may hold a reference back to its owner — no
bound method of the owner handed to a tier, no self-recursive closure
left alive after the call that made it (DESIGN.md, "Object lifetime").
Each test runs with the cycle collector off, so an object that only a
collection would free shows up as a live weak reference.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.mediator import Mediator
from repro.core.parser import parse_query
from repro.workloads.generators import generate_shared_prefix_workload


@pytest.fixture
def no_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _closed_mediator_refs(use_cim: bool, **kwargs) -> dict[str, weakref.ref]:
    """Build a mediator, run queries, a source change and a new rule,
    close it, and return weak references to it and its heavy parts."""
    workload = generate_shared_prefix_workload(queries=2, prefix_depth=3, fanout=2)
    mediator = Mediator(**kwargs)
    mediator.register_domain(workload.domain)
    mediator.load_program(workload.program_text)
    for _ in range(2):
        for query in workload.queries:
            mediator.query(query, use_cim=use_cim)
    mediator.notify_source_changed(workload.domain.name)
    mediator.add_rule("again(A, Out) :- q0(A, Out).")
    mediator.query("?- again('s0', Out).", use_cim=use_cim)
    mediator.close()
    return {
        "mediator": weakref.ref(mediator),
        "dcsm": weakref.ref(mediator.dcsm),
        "database": weakref.ref(mediator.dcsm.database),
        "cim": weakref.ref(mediator.cim),
        "executor": weakref.ref(mediator.executor),
    }


@pytest.mark.parametrize(
    "use_cim, kwargs",
    [
        (False, {}),
        (True, {"use_subplan_cache": True}),
        # a byte budget installs the cost-aware evictor, which prices
        # entries through the DCSM
        (True, {"cache_max_bytes": 64}),
    ],
    ids=["default", "subplan+cim", "cache_max_bytes"],
)
def test_dropped_mediator_frees_by_reference_counting(no_cycle_collector, use_cim, kwargs):
    refs = _closed_mediator_refs(use_cim, **kwargs)
    assert [name for name, ref in refs.items() if ref() is not None] == []


def test_rewriter_search_leaves_no_cyclic_garbage(no_cycle_collector):
    workload = generate_shared_prefix_workload(queries=2, prefix_depth=3, fanout=2)
    mediator = Mediator()
    mediator.register_domain(workload.domain)
    mediator.load_program(workload.program_text)
    query = parse_query(workload.queries[0])
    rewriter = mediator.rewriter
    gc.collect()
    # cold statistics: nothing prices, the fallback enumerates orderings
    assert not rewriter.search(query, mediator.cost_estimator).priced
    assert gc.collect() == 0
    mediator.query(query)
    gc.collect()
    # warm statistics: the branch-and-bound descent prices every state
    assert rewriter.search(query, mediator.cost_estimator).priced
    assert gc.collect() == 0
