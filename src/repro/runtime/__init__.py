"""The parallel execution runtime.

The executor's inline strategy (:mod:`repro.core.executor`) dispatches
every source call in plan order, one at a time — correct, but it leaves
the single biggest speedup of a distributed mediator on the table: *slow
external calls that do not depend on each other can overlap* (the
paper's whole cost model revolves around `T_first`/`T_all` of wide-area
calls, §5–§8).  This package adds that overlap without changing the
answer contract — and without a second engine: the one
:class:`~repro.core.executor.Executor` consumes this package's binding
stream when ``jobs > 1`` and the plan has something to overlap:

* :mod:`repro.runtime.dag` — analyzes a plan's binding flow (reusing the
  adornment dataflow of :mod:`repro.core.adornment`) into a dependency
  DAG: which call steps are mutually independent given the bound
  variables.
* :mod:`repro.runtime.singleflight` — deduplicates identical in-flight
  ground calls so concurrent branches share one source round trip and
  populate the CIM once.
* :mod:`repro.runtime.scheduler` — the worker-pool dispatch strategy
  (:class:`WorkerPool` and the functions behind ``pool_bindings``): it
  prefetches independent root calls as one concurrent wave, fans a call
  step's outer bindings out across workers (partitioned nested loop),
  supports cooperative cancellation (the paper's §3 "kill still-running
  programs" when the user stops early), and merges simulated time as the
  makespan over the configured worker count.

* :mod:`repro.runtime.repair` — mid-query plan repair: when call steps
  fail terminally, re-plan around the sick sources, re-route them
  through the CIM, or return annotated partial answers
  (:class:`Completeness`).

See ``docs/RUNTIME.md`` for the scheduler model and the determinism
guarantees, and ``docs/HEALTH.md`` for the self-healing pipeline.
"""

from repro.runtime.dag import PlanDag, StepNode, build_dag
from repro.runtime.repair import Completeness, PlanRepairer
from repro.runtime.scheduler import CancellationToken, WorkerPool
from repro.runtime.singleflight import SingleFlight

__all__ = [
    "CancellationToken",
    "Completeness",
    "PlanDag",
    "PlanRepairer",
    "SingleFlight",
    "StepNode",
    "WorkerPool",
    "build_dag",
]
