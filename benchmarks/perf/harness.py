"""Rounds, the oracle, and the arithmetic that turns rounds into metrics.

One *round* builds a fresh system, warms it up, then replays the
workload's operation list once with a timer around every operation.
Answers are compared with the expected multiset outside the timed
interval.  A run repeats the round until its time budget is spent and
reports, for every metric, the median of the per-round values — the
same work on every commit, and one slow round cannot move a number.

Real wall time and simulated (SimClock) milliseconds are separate
metrics and are never summed.
"""

from __future__ import annotations

import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional, Sequence

from repro.errors import ReproError
from repro.report import stats_snapshot

import trace
from workloads import Answers, Op, System, Workload


@dataclass
class Round:
    """What one replay of the operation list measured."""

    setup_s: float
    #: per timed query, seconds, in operation order
    latencies: list[float]
    write_latencies: list[float]
    #: the timed seconds: the sum of the timed intervals for one client,
    #: start barrier to last reply for several
    wall_s: float
    attempted: int
    failed: int
    dials: int
    sim_ms: float
    #: counters read from the public stats objects after the round
    counts: dict[str, float] = field(default_factory=dict)
    #: traced rounds only: total self seconds per span name
    self_s: dict[str, float] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)
    #: high-water RSS of the process that held the system, after the round
    rss_mb: float = 0.0

    @property
    def queries(self) -> int:
        return len(self.latencies)


def peak_rss_mb() -> float:
    """This process's own high-water RSS.  ``VmHWM`` belongs to the
    address space, so unlike ``ru_maxrss`` it does not start from the
    size of whichever process spawned this one."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- expected answers ---------------------------------------------------------


def oracle_answers(workload: Workload, ops: Sequence[Op]) -> list[Optional[Answers]]:
    """Each query's answer multiset from the cache-free reference engine."""
    system = workload.build(oracle=True)
    try:
        known: dict[str, Answers] = {}
        for op in ops:
            if op.kind == "query" and op.text not in known:
                known[op.text] = Counter(system.mediator.query(op.text).answers)
    finally:
        system.mediator.close()
    return [known.get(op.text) if op.kind == "query" else None for op in ops]


# -- one in-process round -----------------------------------------------------


def apply(system: System, op: Op, query_kwargs: dict[str, Any]) -> tuple[float, Any]:
    """Run one operation; returns (timed seconds, QueryResult or None).

    A write's version bump is the *source* changing, so it happens
    before the timer starts; the timed part is telling the mediator."""
    mediator = system.mediator
    if op.kind == "query":
        start = perf_counter()
        result = mediator.query(op.text, **query_kwargs)
        return perf_counter() - start, result
    if op.kind == "notify":
        system.versions[op.function] += 1
        start = perf_counter()
        mediator.notify_source_changed(system.domain, op.function)
        return perf_counter() - start, None
    start = perf_counter()
    mediator.add_rule(op.text)
    return perf_counter() - start, None


def run_round(
    workload: Workload,
    ops: Sequence[Op],
    expected: Sequence[Optional[Answers]],
    warmup: int,
    recorder: Optional[trace.Recorder] = None,
) -> Round:
    """Build, warm up on the first ``warmup`` operations, replay the rest."""
    with trace.installed(recorder):
        start = perf_counter()
        system = workload.build()
        for op in ops[:warmup]:
            apply(system, op, workload.query_kwargs)
        setup_s = perf_counter() - start
        try:
            if recorder is not None:
                recorder.clear()
            round_ = _replay(system, workload, ops, expected, warmup)
            round_.setup_s = setup_s
            round_.counts = layer_counts(system.mediator)
            round_.rss_mb = peak_rss_mb()
        finally:
            system.mediator.close()
    if recorder is not None:
        round_.self_s = recorder.self_seconds()
        round_.spans = recorder.records()
    return round_


def _replay(
    system: System,
    workload: Workload,
    ops: Sequence[Op],
    expected: Sequence[Optional[Answers]],
    warmup: int,
) -> Round:
    latencies: list[float] = []
    writes: list[float] = []
    failed = 0
    sim_ms = 0.0
    dials_before = system.dials()
    for index in range(warmup, len(ops)):
        op = ops[index]
        try:
            seconds, result = apply(system, op, workload.query_kwargs)
        except ReproError:
            failed += 1
            continue
        # everything below is outside the timed interval
        if result is None:
            writes.append(seconds)
            continue
        latencies.append(seconds)
        sim_ms += result.t_all_ms
        if Counter(result.answers) != expected[index]:
            failed += 1
    return Round(
        setup_s=0.0,
        latencies=latencies,
        write_latencies=writes,
        wall_s=sum(latencies) + sum(writes),
        attempted=len(ops) - warmup,
        failed=failed,
        dials=system.dials() - dials_before,
        sim_ms=sim_ms,
    )


def repeat(run_one: Callable[[], Round], seconds: float) -> list[Round]:
    """Rounds until ``seconds`` have passed; always at least one."""
    deadline = perf_counter() + seconds
    rounds = [run_one()]
    while perf_counter() < deadline:
        rounds.append(run_one())
    return rounds


# -- counters from the program's public stats ---------------------------------


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_counts(mediator: Any) -> dict[str, float]:
    """Per-layer counts after a round, from ``stats_snapshot`` and the
    public stats objects.  Also times one public ``DCSM.summarize()`` over
    the log the round left behind."""
    snapshot = stats_snapshot(mediator)
    metrics = snapshot["metrics"]
    cim = snapshot["cim"]
    tiers = snapshot["cache"]
    planner = snapshot["planner"]
    subplan = tiers["subplan"]
    scanned = mediator.cim.stats.entries_scanned
    lookups = metrics.get("planner.estimator_lookups", 0.0)
    memo_hits = planner["estimator_memo_hits"]
    queries = metrics.get("mediator.queries", 0.0)
    start = perf_counter()
    mediator.dcsm.summarize()
    summarize_s = perf_counter() - start
    rejected = snapshot["serving"]["rejected"]
    return {
        "dcsm.summarize_us": summarize_s * 1e6,
        "dcsm.observations": float(snapshot["dcsm"]["observations"]),
        "dcsm.cells": float(mediator.dcsm.size_cells()),
        # read before the summarize() above added its own bump
        "dcsm.version_bumps": float(snapshot["dcsm"]["version"]),
        "core.plancache.hit_ratio": tiers["plan"]["hit_rate"],
        "core.rewriter.states_per_search": _ratio(
            planner["states_expanded"], planner["searches"]
        ),
        "core.estimator.memo_hit_ratio": _ratio(memo_hits, memo_hits + lookups),
        "core.subplan.hit_ratio": subplan["hit_rate"],
        "core.subplan.evictions": float(subplan["invalidations"]["eviction"]),
        "core.subplan.invalidations_source": float(subplan["invalidations"]["source"]),
        "core.subplan.invalidations_epoch": float(subplan["invalidations"]["epoch"]),
        "core.subplan.invalidations_dcsm": float(
            subplan["invalidations"]["dcsm_version"]
        ),
        "cim.exact_hit_ratio": _ratio(cim["exact_hits"], cim["calls"]),
        "cim.invariant_hit_ratio": _ratio(
            cim["equality_hits"] + cim["partial_hits"], cim["calls"]
        ),
        "cim.entries_scanned_per_lookup": _ratio(scanned, cim["calls"]),
        "core.executor.rows_per_query": _ratio(
            metrics.get("mediator.answers", 0.0), queries
        ),
        "net.sim_ms_per_dial": metrics.get("net.call_ms.mean", 0.0),
        "serving.server.rejected": float(sum(rejected.values())),
        # every observation is retained today, so fed == retained
        "metrics.histogram_samples": float(
            sum(histogram.count for histogram in mediator.metrics.histograms())
        ),
    }


# -- rounds to metrics --------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = round(p / 100.0 * (len(ordered) - 1))
    return ordered[max(0, min(len(ordered) - 1, rank))]


def drift_ratio(latencies: Sequence[float]) -> float:
    """Median of the last tenth over median of the second tenth: 1.0 is
    a latency that does not depend on how much history the system holds."""
    tenth = max(1, len(latencies) // 10)
    early = statistics.median(latencies[tenth : 2 * tenth] or latencies[:tenth])
    return statistics.median(latencies[-tenth:]) / early


def p50_us(rounds: Sequence[Round]) -> float:
    """Median over rounds of the round's median latency."""
    return statistics.median(statistics.median(r.latencies) for r in rounds) * 1e6


def end_to_end(round_: Round) -> dict[str, float]:
    """One round's end-to-end values (``peak_rss_mb`` is per process and
    added by the caller)."""
    return {
        "setup_s": round_.setup_s,
        "latency_p50_us": statistics.median(round_.latencies) * 1e6,
        "latency_p95_us": percentile(round_.latencies, 95) * 1e6,
        "throughput_qps": (round_.attempted - round_.failed) / round_.wall_s,
    }


def ungated(round_: Round) -> dict[str, float]:
    """End-to-end values that carry no bound: printed, never gated."""
    writes = round_.write_latencies
    return {
        "e2e.latency_p99_us": percentile(round_.latencies, 99) * 1e6,
        "e2e.write_p50_us": statistics.median(writes) * 1e6 if writes else 0.0,
        "e2e.failed_share": round_.failed / round_.attempted,
        "e2e.drift_ratio": drift_ratio(round_.latencies),
        # exact for a seed with one client; simulated ms are the paper's
        # cost model and are never added to wall time
        "e2e.source_dials_per_query": round_.dials / round_.queries,
        "e2e.sim_ms_per_query": round_.sim_ms / round_.queries,
    }


def self_times(round_: Round) -> dict[str, float]:
    """A traced round's self time per layer, µs per query — except
    ``cim.invalidate_us``, which is µs per write."""
    out: dict[str, float] = {}
    for name, seconds in round_.self_s.items():
        per = len(round_.write_latencies) if name == "cim.invalidate" else round_.queries
        out[f"{name}_us"] = seconds * 1e6 / max(per, 1)
    return out


def coverage(round_: Round) -> float:
    """Share of the traced operations' wall time that the layer spans
    (everything but the root's own glue) account for."""
    total = sum(round_.self_s.values())
    return _ratio(total - round_.self_s.get(trace.ROOT, 0.0), total)


def medians(per_round: Sequence[dict[str, float]]) -> dict[str, float]:
    """Key-wise median over rounds; a key missing from a round counts 0."""
    keys = {key for values in per_round for key in values}
    return {
        key: statistics.median(values.get(key, 0.0) for values in per_round)
        for key in sorted(keys)
    }
