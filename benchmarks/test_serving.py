"""Serving benchmark: multi-tenant throughput, latency, and backpressure.

Three experiments over the shared-prefix workload (whose chain-head
source call carries a real wall-clock cost, so cache hits translate into
genuine QPS differences rather than simulated-clock artifacts):

* **shared_vs_cold** — the same open-loop load against (a) one shared
  mediator with all cache tiers on, (b) per-tenant isolated mediators
  (each tenant warms its own caches), and (c) a cache-cold mediator
  (CIM, plan and subplan tiers off).  The headline number is the
  shared/cold QPS ratio — the value of cross-session cache sharing —
  which CI gates at >= 1.5x.
* **open_loop_latency** — a fixed-rate run below the admission limit:
  sustained QPS, p50/p99 latency, zero rejections.
* **backpressure** — a flood against a deliberately tiny queue: the
  high-watermark must respect the configured bound, rejections must
  carry retry hints, and a graceful drain must drop zero in-flight
  requests.
* **cancellation_latency** — wire-level cancels against in-flight
  queries over a wall-clock-slow source chain: cancel-to-stop p99 is
  gated at <= 250ms, and every request lands in exactly one terminal
  status (never both executed and rejected).
* **shed_mode** — EWMA-triggered load shedding under a two-tier weight
  table: the low-weight tenant sheds first while the high-weight
  tenant's work keeps flowing.

Writes ``BENCH_serving.json`` at the repo root; the CI serving job
prints it and gates on the ratio and the backpressure invariants.
"""

import json
import time
from pathlib import Path

from repro.core.mediator import Mediator
from repro.serving import (
    AdmissionPolicy,
    MediatorServer,
    ServingClient,
    ServingConfig,
    run_load,
)
from repro.workloads.generators import generate_shared_prefix_workload

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

TENANTS = ("acme", "globex", "initech")
REQUESTS = 120
PREFIX_SLEEP_S = 0.02  # real wall cost of the chain-head source call


def _build_mediator(cached: bool) -> Mediator:
    workload = generate_shared_prefix_workload(
        queries=4, prefix_depth=3, fanout=2, seed=11,
        prefix_sleep_s=PREFIX_SLEEP_S,
    )
    mediator = Mediator(use_subplan_cache=cached, use_plan_cache=cached)
    mediator.register_domain(workload.domain)
    mediator.load_program(workload.program_text)
    mediator._bench_queries = workload.queries  # type: ignore[attr-defined]
    return mediator


def _request_plan(queries) -> list[tuple[str, str]]:
    return [
        (TENANTS[i % len(TENANTS)], queries[i % len(queries)])
        for i in range(REQUESTS)
    ]


def _throughput_run(label: str, *, cached: bool, isolate: bool) -> dict:
    config = ServingConfig(
        workers=4,
        use_cim=cached,
        isolate_tenants=isolate,
        admission=AdmissionPolicy(max_queue_depth=256, max_tenant_depth=128),
    )
    if isolate:
        server = MediatorServer(
            mediator_factory=lambda: _build_mediator(cached), config=config
        ).start()
    else:
        server = MediatorServer(_build_mediator(cached), config=config).start()
    try:
        host, port = server.address
        queries = server.mediator_for(TENANTS[0])._bench_queries
        report = run_load(
            host, port, _request_plan(queries), connections=6, timeout_s=120.0
        )
        from repro.report import cache_tiers_data, cim_data

        mediator = server.mediator_for(TENANTS[0])
        section = {
            "label": label,
            "sent": report.sent,
            "ok": report.ok,
            "rejected": report.rejected,
            "errors": report.errors,
            "wall_s": round(report.wall_s, 4),
            "qps": round(report.qps, 2),
            "latency_ms": {
                "p50": report.percentile(50),
                "p99": report.percentile(99),
            },
            "cim": cim_data(mediator),
            "cache": cache_tiers_data(mediator),
        }
        return section
    finally:
        server.drain(timeout=60.0)


def _measure_shared_vs_cold() -> dict:
    shared = _throughput_run("shared", cached=True, isolate=False)
    isolated = _throughput_run("isolated", cached=True, isolate=True)
    cold = _throughput_run("cold", cached=False, isolate=False)
    return {
        "tenants": len(TENANTS),
        "requests": REQUESTS,
        "prefix_sleep_s": PREFIX_SLEEP_S,
        "shared": shared,
        "isolated": isolated,
        "cold": cold,
        "shared_over_cold_qps": (
            round(shared["qps"] / cold["qps"], 2) if cold["qps"] else None
        ),
        "shared_over_isolated_qps": (
            round(shared["qps"] / isolated["qps"], 2) if isolated["qps"] else None
        ),
    }


def _measure_open_loop_latency() -> dict:
    config = ServingConfig(
        workers=4,
        warm_threshold=2,
        admission=AdmissionPolicy(max_queue_depth=64, max_tenant_depth=32),
    )
    server = MediatorServer(_build_mediator(cached=True), config=config).start()
    try:
        host, port = server.address
        queries = server.mediator_for(TENANTS[0])._bench_queries
        rate = 60.0
        report = run_load(
            host, port, _request_plan(queries),
            rate_qps=rate, connections=4, timeout_s=120.0,
        )
        summary = server.drain(timeout=60.0)
        return {
            "target_rate_qps": rate,
            "sent": report.sent,
            "ok": report.ok,
            "rejected": report.rejected,
            "errors": report.errors,
            "achieved_qps": round(report.qps, 2),
            "latency_ms": {
                "p50": report.percentile(50),
                "p99": report.percentile(99),
            },
            "warmed_templates": server.metrics.value("serving.warmer.warmed"),
            "dropped_in_flight": summary["dropped_in_flight"],
        }
    finally:
        server.drain(timeout=60.0)


def _measure_backpressure() -> dict:
    depth = 6
    config = ServingConfig(
        workers=2,
        admission=AdmissionPolicy(
            max_queue_depth=depth, max_tenant_depth=depth, retry_after_ms=25.0
        ),
    )
    server = MediatorServer(_build_mediator(cached=True), config=config).start()
    try:
        host, port = server.address
        queries = server.mediator_for(TENANTS[0])._bench_queries
        # max-throughput flood: many more outstanding than the queue holds
        report = run_load(
            host, port, _request_plan(queries), connections=8, timeout_s=120.0
        )
        summary = server.drain(timeout=60.0)
        return {
            "queue_depth_limit": depth,
            "sent": report.sent,
            "ok": report.ok,
            "rejected": report.rejected,
            "rejected_reasons": dict(report.rejected_reasons),
            "errors": report.errors,
            "queue_high_watermark": summary["queue_high_watermark"],
            "dropped_in_flight": summary["dropped_in_flight"],
        }
    finally:
        server.drain(timeout=60.0)


def _percentile(values: list, p: float):
    if not values:
        return None
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(p / 100.0 * len(ordered))) - 1))
    return ordered[rank]


def _measure_cancellation_latency() -> dict:
    from repro.workloads.serving_chaos import build_serving_testbed

    testbed = build_serving_testbed(relations=3, wall_ms=20.0)
    server = MediatorServer(
        testbed.mediator, config=ServingConfig(workers=4)
    ).start()
    attempts = 12
    cancel_ms: list = []
    statuses: dict = {}
    try:
        host, port = server.address
        with ServingClient(host, port, timeout_s=60.0) as client:
            for index in range(attempts):
                target = client.send({
                    "op": "query",
                    "query": testbed.chain_query(key=f"bench{index}"),
                })
                time.sleep(0.03)  # let the run start dialing
                begun = time.perf_counter()
                client.cancel(target)
                response = client.wait(target, timeout_s=30.0)
                status = str(response["status"])
                statuses[status] = statuses.get(status, 0) + 1
                if status == "cancelled":
                    cancel_ms.append((time.perf_counter() - begun) * 1000.0)
        summary = server.drain(timeout=60.0)
        terminal = (
            summary["completed"] + summary["cancelled"] + summary["errors"]
            + summary["deadline_exceeded"] + summary["rejected"]
        )
        return {
            "attempts": attempts,
            "statuses": statuses,
            "cancelled": len(cancel_ms),
            "cancel_to_stop_ms": {
                "p50": _percentile(cancel_ms, 50),
                "p99": _percentile(cancel_ms, 99),
            },
            "server_cancel_latency_p99_ms": next(
                (
                    h.percentile(99)
                    for h in server.metrics.histograms(
                        "serving.cancel.latency_ms"
                    )
                ),
                None,
            ),
            "terminal_total": terminal,
            "stuck_tickets": summary["stuck_tickets"],
        }
    finally:
        server.drain(timeout=60.0)


def _measure_shed_mode() -> dict:
    config = ServingConfig(
        workers=2,
        admission=AdmissionPolicy(
            max_queue_depth=256,
            max_tenant_depth=256,
            weights={"gold": 4.0, "bronze": 1.0},
            shed_ewma_ms=5.0,
        ),
    )
    # cache-cold: every query pays the wall-clock source cost, so the
    # EWMA rises past the shed threshold almost immediately
    server = MediatorServer(_build_mediator(cached=False), config=config).start()
    try:
        host, port = server.address
        queries = server.mediator_for("gold")._bench_queries
        plan = [
            ("gold" if i % 2 == 0 else "bronze", queries[i % len(queries)])
            for i in range(80)
        ]
        # paced (not a burst) so the EWMA warms from early completions
        # while later submissions are still arriving
        report = run_load(
            host, port, plan, rate_qps=150.0, connections=6, timeout_s=120.0
        )
        summary = server.drain(timeout=60.0)
        return {
            "sent": report.sent,
            "ok": report.ok,
            "rejected": report.rejected,
            "rejected_reasons": dict(report.rejected_reasons),
            "errors": report.errors,
            "per_tenant": report.per_tenant,
            "shed_total": server.metrics.value("serving.rejected.shed"),
            "stuck_tickets": summary["stuck_tickets"],
        }
    finally:
        server.drain(timeout=60.0)


def _write(section_name: str, section: dict) -> None:
    payload = {}
    if RESULTS_PATH.exists():
        payload = json.loads(RESULTS_PATH.read_text())
    payload[section_name] = section
    RESULTS_PATH.write_text(json.dumps(payload, indent=2))


class TestServingBenchmark:
    def test_shared_cache_beats_cold(self, once):
        """Cross-session cache sharing is worth >= 1.5x QPS over cold."""
        section = once(_measure_shared_vs_cold)
        _write("shared_vs_cold", section)
        assert section["shared"]["errors"] == 0
        assert section["cold"]["errors"] == 0
        assert section["shared"]["rejected"] == 0
        assert section["shared_over_cold_qps"] >= 1.5

    def test_open_loop_latency_under_admission_limit(self, once):
        """A fixed-rate load below the limit: zero rejections, sane tails."""
        section = once(_measure_open_loop_latency)
        _write("open_loop_latency", section)
        assert section["errors"] == 0
        assert section["rejected"] == 0
        assert section["ok"] == section["sent"]
        assert section["latency_ms"]["p99"] is not None
        assert section["dropped_in_flight"] == 0.0

    def test_backpressure_bounds_queue_and_drops_nothing(self, once):
        """Flooding a tiny queue rejects loudly but never drops work."""
        section = once(_measure_backpressure)
        _write("backpressure", section)
        assert section["errors"] == 0
        assert section["rejected"] > 0
        assert section["queue_high_watermark"] <= section["queue_depth_limit"]
        assert section["dropped_in_flight"] == 0.0
        assert section["ok"] + section["rejected"] == section["sent"]

    def test_cancellation_latency_p99_bounded(self, once):
        """Cancel-to-stop p99 stays under 250ms, and every request ends
        in exactly one terminal status."""
        section = once(_measure_cancellation_latency)
        _write("cancellation_latency", section)
        assert section["cancelled"] >= section["attempts"] // 2
        assert section["cancel_to_stop_ms"]["p99"] is not None
        assert section["cancel_to_stop_ms"]["p99"] <= 250.0
        # exactly-once accounting: never both executed and rejected
        assert section["terminal_total"] == section["attempts"]
        assert section["stuck_tickets"] == 0.0

    def test_shed_mode_protects_high_weight_tenants(self, once):
        """Under EWMA shedding the bronze tenant is rejected first while
        gold work keeps completing."""
        section = once(_measure_shed_mode)
        _write("shed_mode", section)
        assert section["errors"] == 0
        assert section["shed_total"] > 0
        bronze = section["per_tenant"].get("bronze", {})
        gold = section["per_tenant"].get("gold", {})
        assert bronze.get("rejected", 0) > 0
        assert gold.get("ok", 0) > 0
        # exactly-once accounting across every terminal status
        assert section["ok"] + section["rejected"] == section["sent"]
        assert section["stuck_tickets"] == 0.0
