"""Spans recorded from outside the program.

The benchmark times calls *into* each layer's public entry points by
swapping them for timing wrappers while a traced round runs; nothing
under ``src/`` knows it is being traced (spans inside the program are a
later issue, ROADMAP item 5).  A span carries name, start, end, parent
(a thread-local stack) and the id of the query that caused it; spans
live in memory and are written out once, after the round.

A layer's *self time* is its span minus the part its child spans cover,
so the self times of one query's spans add up to the root span's
duration exactly.  The root is the ``Mediator`` entry point itself
(``query``, ``notify_source_changed``, ``add_rule``) — in this process or
in a server's worker thread alike; what it keeps for itself is the glue
no wrapper attributes (``core.mediator.glue``).

Functions called tens of times per query (``unify.resolve``/``walk``,
``Executor._solve``) are deliberately not wrapped: the wrapper would
cost more than the call.  They get ``micro.*`` timings instead.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

#: module-level functions: (defining module, attribute, span name).  Every
#: ``repro.*`` module that imported the function by name is patched too.
FUNCTIONS = (
    ("repro.core.parser", "parse_query", "core.parser.parse"),
    ("repro.core.plancache", "canonicalize", "core.plancache.canonicalize"),
    ("repro.core.subplan", "canonicalize_prefix", "core.subplan.canonicalize_prefix"),
    ("repro.serving.protocol", "encode_message", "serving.protocol.encode"),
    ("repro.serving.protocol", "decode_message", "serving.protocol.decode"),
)

#: methods: (module, class, method, span name).  Two methods of one layer
#: share a span name when the issue asks for one number (probe = get+put).
METHODS = (
    # the root of every operation: what it keeps for itself is glue
    ("repro.core.mediator", "Mediator", "query", "core.mediator.glue"),
    ("repro.core.mediator", "Mediator", "notify_source_changed", "core.mediator.glue"),
    ("repro.core.mediator", "Mediator", "add_rule", "core.mediator.glue"),
    ("repro.core.plancache", "PlanCache", "get", "core.plancache.probe"),
    ("repro.core.plancache", "PlanCache", "put", "core.plancache.probe"),
    ("repro.core.rewriter", "Rewriter", "search", "core.rewriter.search"),
    ("repro.core.estimator", "RuleCostEstimator", "estimate", "core.estimator.estimate"),
    ("repro.dcsm.module", "DCSM", "estimate", "dcsm.estimate"),
    ("repro.dcsm.module", "DCSM", "record", "dcsm.record"),
    ("repro.core.subplan", "SubplanResultCache", "match", "core.subplan.probe"),
    ("repro.core.subplan", "SubplanResultCache", "put", "core.subplan.probe"),
    ("repro.core.executor", "Executor", "run", "core.executor.run"),
    ("repro.cim.manager", "CacheInvariantManager", "lookup", "cim.lookup"),
    (
        "repro.cim.manager",
        "CacheInvariantManager",
        "notify_source_changed",
        "cim.invalidate",
    ),
    ("repro.domains.registry", "DomainRegistry", "execute", "domains.dial"),
    ("repro.serving.protocol", "Request", "parse", "serving.protocol.decode"),
)

#: the span around one whole operation (a ``Mediator`` entry point)
ROOT = "core.mediator.glue"

# span layout: [name, start, end, parent span or None, query id, child time]
_NAME, _START, _END, _PARENT, _QUERY, _CHILD = range(6)


class Recorder:
    """Collects spans; one per traced round."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._local = threading.local()
        self._queries = 0
        self._lock = threading.Lock()

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list[Any]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            query = parent[_QUERY]
        else:
            parent = None
            with self._lock:
                self._queries += 1
                query = self._queries
        span = [name, 0.0, 0.0, parent, query, 0.0]
        stack.append(span)
        span[_START] = perf_counter()
        return span

    def _close(self, span: list[Any]) -> None:
        end = perf_counter()
        span[_END] = end
        self._stack().pop()
        parent = span[_PARENT]
        if parent is not None:
            parent[_CHILD] += end - span[_START]
        self.spans.append(span)

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self._open(name)
            try:
                return function(*args, **kwargs)
            finally:
                self._close(span)

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def clear(self) -> None:
        """Forget the spans so far (the warm-up's)."""
        self.spans = []

    # -- reading -------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span[_END] - span[_START] - span[_CHILD]
            totals[span[_NAME]] = totals.get(span[_NAME], 0.0) + own
        return totals

    def records(self) -> list[dict[str, Any]]:
        """The spans as JSON-safe records, times in µs from the first start."""
        if not self.spans:
            return []
        origin = min(span[_START] for span in self.spans)
        ids = {id(span): index for index, span in enumerate(self.spans)}
        return [
            {
                "id": index,
                "name": span[_NAME],
                "start_us": round((span[_START] - origin) * 1e6, 3),
                "end_us": round((span[_END] - origin) * 1e6, 3),
                "parent": ids.get(id(span[_PARENT])),
                "query": span[_QUERY],
            }
            for index, span in enumerate(self.spans)
        ]


def write_trace(path: Path, workload: str, records: list[dict[str, Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "spans": records}, handle)


@contextmanager
def installed(recorder: Optional[Recorder]) -> Iterator[Optional[Recorder]]:
    """Swap the layer entry points for timing wrappers, then restore them.

    Install *before* building the system under test: bound methods handed
    out at construction (the CIM's ``observer=dcsm.record``) are looked
    up on the class at that moment.  ``None`` installs nothing, so the
    untraced and traced rounds share one code path.
    """
    if recorder is None:
        yield None
        return
    undo: list[tuple[Any, str, Any]] = []
    # import everything first: a module imported after a function was
    # swapped would copy the wrapper by name and keep it past the restore
    for target in (*FUNCTIONS, *METHODS):
        importlib.import_module(target[0])
    try:
        for module_name, attribute, span_name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attribute)
            wrapper = recorder.wrap(span_name, original)
            for name, module in list(sys.modules.items()):
                if name.startswith("repro") and (
                    getattr(module, attribute, None) is original
                ):
                    undo.append((module, attribute, original))
                    setattr(module, attribute, wrapper)
        for module_name, class_name, method, span_name in METHODS:
            owner = getattr(importlib.import_module(module_name), class_name)
            raw = owner.__dict__[method]
            undo.append((owner, method, raw))
            if isinstance(raw, classmethod):
                # the bound original already carries the class
                wrapper = staticmethod(recorder.wrap(span_name, getattr(owner, method)))
            else:
                wrapper = recorder.wrap(span_name, raw)
            setattr(owner, method, wrapper)
        yield recorder
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)
