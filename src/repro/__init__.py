"""repro — a reproduction of *Query Caching and Optimization in
Distributed Mediator Systems* (Adali, Candan, Papakonstantinou,
Subrahmanian; SIGMOD 1996).

A HERMES-style mediator over heterogeneous simulated sources, featuring:

* a datalog-style rule language with ``in(X, domain:function(args))``
  source calls,
* a rule rewriter enumerating executable plans (adornment-constrained
  reordering, selection pushdown, CIM substitution),
* a Cache and Invariant Manager (CIM) answering calls from cached results
  and semantic *invariants*,
* a Domain Cost and Statistics Module (DCSM) that estimates call costs
  from a statistics cache of actual past calls, with lossless and lossy
  summarizations,
* a pipelined nested-loop execution engine over a simulated wide-area
  network with a deterministic virtual clock.

Quick start::

    from repro import Mediator
    from repro.domains.relational import RelationalEngine

    med = Mediator()
    engine = RelationalEngine("relation")
    engine.create_table("cast", ["name", "role"],
                        [("stewart", "rupert"), ("dall", "brandon")])
    med.register_domain(engine, site="cornell")
    med.load_program("actor(A, R) :- in(T, relation:all('cast')) "
                     "& =(T.name, A) & =(T.role, R).")
    print(med.query("?- actor(A, 'brandon')."))
"""

# NOTE: repro.core must be imported before repro.cim — the executor pulls
# in the CIM, and starting from repro.cim would re-enter it mid-import.
from repro.core import (
    Mediator,
    Plan,
    Program,
    Query,
    QueryResult,
    Rewriter,
    Row,
    parse_invariant,
    parse_program,
    parse_query,
)
from repro.cim import CacheInvariantManager, CimPolicy, ResultCache
from repro.analysis import AnalysisReport, Diagnostic, analyze_program
from repro.dcsm import DCSM, BOUND, CallPattern, CostVector
from repro.domains import Domain
from repro.errors import ReproError
from repro.metrics import MetricsRegistry
from repro.net import (
    BreakerState,
    FaultInjector,
    FaultSpec,
    HealthPolicy,
    HealthRegistry,
    HedgePolicy,
    RemoteDomain,
    RetryPolicy,
    SimClock,
    make_site,
)
from repro.runtime import Completeness, PlanRepairer, build_dag

__version__ = "1.0.0"

__all__ = [
    "Mediator",
    "Plan",
    "Program",
    "Query",
    "QueryResult",
    "Rewriter",
    "Row",
    "parse_invariant",
    "parse_program",
    "parse_query",
    "AnalysisReport",
    "Diagnostic",
    "analyze_program",
    "CacheInvariantManager",
    "CimPolicy",
    "ResultCache",
    "DCSM",
    "BOUND",
    "CallPattern",
    "CostVector",
    "Domain",
    "ReproError",
    "MetricsRegistry",
    "BreakerState",
    "Completeness",
    "FaultInjector",
    "FaultSpec",
    "HealthPolicy",
    "HealthRegistry",
    "HedgePolicy",
    "PlanRepairer",
    "RetryPolicy",
    "RemoteDomain",
    "SimClock",
    "make_site",
    "build_dag",
    "__version__",
]
