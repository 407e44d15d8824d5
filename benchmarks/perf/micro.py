"""``micro.*``: one public function at a time, on inputs taken from the
workload being run.

Each function is called in batches over its captured inputs for a fixed
time box and reports the median batch's nanoseconds per call.  These are
isolated costs — a warmed system, fresh summaries, nothing else running —
so they bound what a layer *could* cost; what it costs inside a query is
the traced run's self time.  ``unify.resolve`` lives here because a
wrapper around it would cost more than the call.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Any, Callable, Sequence

from repro.core.parser import parse_query
from repro.core.plancache import PlanCache, canonicalize
from repro.core.subplan import canonicalize_prefix, subplan_cuts
from repro.core.terms import Constant, Variable
from repro.core.unify import resolve
from repro.dcsm import DCSM
from repro.serving import AdmissionController, decode_message, encode_message
from repro.serving.protocol import Request, ok_response

from workloads import Op, Workload

#: seconds each function is timed for, and calls per batch
TIME_BOX_S = 0.12
BATCH = 50
#: distinct inputs kept per function
INPUTS = 64


def time_calls(call: Callable[[Any], Any], inputs: Sequence[Any]) -> float:
    """Median nanoseconds per ``call(input)`` over ``TIME_BOX_S``."""
    if not inputs:
        return 0.0
    per_call: list[float] = []
    position = 0
    deadline = perf_counter() + TIME_BOX_S
    while True:
        batch = [inputs[(position + n) % len(inputs)] for n in range(BATCH)]
        position += BATCH
        start = perf_counter()
        for item in batch:
            call(item)
        end = perf_counter()
        per_call.append((end - start) / BATCH)
        if end >= deadline:
            return statistics.median(per_call) * 1e9


def measure(workload: Workload, ops: Sequence[Op], warmup: int) -> dict[str, float]:
    """The micro table for ``workload``; serving rows are 0 unless the
    workload goes over the wire."""
    system = workload.build()
    mediator = system.mediator
    try:
        texts = list(dict.fromkeys(op.text for op in ops if op.kind == "query"))[:INPUTS]
        # warm the system the way a round does, then run the sampled
        # queries so plans, statistics and answers exist for all of them
        for op in ops[:warmup]:
            if op.kind == "query":
                mediator.query(op.text, **workload.query_kwargs)
        results = [mediator.query(text, **workload.query_kwargs) for text in texts]
        queries = [parse_query(text) for text in texts]

        # a private plan cache holding the mediator's own entries, probed
        # under each entry's own stamps: the hit path
        cached = list(mediator.plan_cache.items())[:INPUTS]
        plan_cache = PlanCache(max_entries=max(len(cached), 1))
        for key, entry in cached:
            plan_cache.put(key, entry)

        # ground calls the workload really made, and what they returned
        calls = [
            observation.call
            for domain, function in mediator.dcsm.database.functions()
            for observation in mediator.dcsm.database.observations(domain, function)[:8]
        ][:INPUTS]
        call_results = [mediator.registry.execute(call) for call in calls]
        mediator.dcsm.summarize()  # time the lookup, not a rebuild
        scratch = DCSM()  # recording must not grow the system's own log

        prefixes = []
        resolvable = []
        for result in results:
            steps = result.chosen.steps
            for cut in subplan_cuts(steps) or (len(steps),):
                prefixes.append(steps[:cut])
            rows = result.rows()
            if rows:
                subst = {
                    Variable(name): Constant(value) for name, value in rows[0].items()
                }
                for step in result.chosen.call_steps():
                    resolvable.extend((arg, subst) for arg in step.atom.call.args)
                    resolvable.append((step.atom.output, subst))

        out = {
            "micro.core.parser.parse_query_ns": time_calls(parse_query, texts),
            "micro.core.plancache.canonicalize_ns": time_calls(canonicalize, queries),
            "micro.core.plancache.probe_ns": time_calls(
                lambda item: plan_cache.get(item[0], item[1].epoch, item[1].dcsm_version),
                cached,
            ),
            "micro.core.rewriter.search_ns": time_calls(
                lambda query: mediator.rewriter.search(query, mediator.cost_estimator),
                queries,
            ),
            "micro.dcsm.estimate_ns": time_calls(mediator.dcsm.estimate, calls),
            "micro.dcsm.record_ns": time_calls(scratch.record, call_results),
            "micro.core.subplan.canonicalize_prefix_ns": time_calls(
                canonicalize_prefix, prefixes[:INPUTS]
            ),
            "micro.core.unify.resolve_ns": time_calls(
                lambda item: resolve(item[0], item[1]), resolvable[:INPUTS]
            ),
            "micro.serving.protocol.encode_ns": 0.0,
            "micro.serving.protocol.decode_ns": 0.0,
            "serving.admission.roundtrip_us": 0.0,
        }
        if workload.clients > 1:
            out.update(_serving(texts, results))
        return out
    finally:
        mediator.close()


def _serving(texts: Sequence[str], results: Sequence[Any]) -> dict[str, float]:
    requests = [
        {"op": "query", "id": f"acme-{n}", "tenant": "acme", "query": text}
        for n, text in enumerate(texts)
    ]
    responses = [
        ok_response(
            Request.parse(request),
            answers=result.answers,
            variables=result.variables,
            cardinality=result.cardinality,
            complete=result.complete,
            t_wall_ms=1.0,
            t_sim_ms=result.t_all_ms,
            queue_wait_ms=0.1,
        )
        for request, result in zip(requests, results)
    ]
    lines = [encode_message(request) for request in requests]
    admission = AdmissionController(workers=4)

    def roundtrip(tenant: str) -> None:
        admission.submit(tenant, None)
        admission.task_done(admission.next(timeout=0.0))

    return {
        # the server encodes responses and decodes requests
        "micro.serving.protocol.encode_ns": time_calls(encode_message, responses),
        "micro.serving.protocol.decode_ns": time_calls(
            lambda line: Request.parse(decode_message(line)), lines
        ),
        "serving.admission.roundtrip_us": time_calls(roundtrip, ["acme", "globex"]) / 1e3,
    }
