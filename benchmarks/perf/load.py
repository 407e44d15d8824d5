"""The closed-loop load generator and the server child it drives.

``repro.serving.run_load`` starts one thread per request on a fixed
schedule (open loop), so it cannot be the benchmark's generator.  Here
N persistent :class:`ServingClient` connections each send their next
request only after the previous reply — callers that wait, which is
what a mediator's clients are — from at most ``nproc`` sender threads,
against a server running in its own process.

The server child is ``run.py --serve <workload>``: it builds the
workload's mediator, starts ``MediatorServer`` with every default, and
speaks a three-word protocol on its standard streams: it prints its
port; ``mark`` (the warm-up is over) resets the spans and reports the
dials so far; ``stop`` drains the server and reports the counters.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Optional, Sequence

from repro.errors import ReproError
from repro.serialization import decode_value
from repro.serving import MediatorServer, ServingClient, ServingConfig

import trace
from harness import Round, layer_counts, peak_rss_mb
from workloads import WORKLOADS, Answers, Op, Workload

RUN_PY = Path(__file__).resolve().parent / "run.py"
#: how long the parent waits for the child to start, and to exit
CHILD_TIMEOUT_S = 60.0
PINGS = 200


# -- the child ---------------------------------------------------------------


def serve(workload_name: str, traced: bool) -> None:
    """The server process: runs until ``stop`` or end of input."""
    workload = WORKLOADS[workload_name]
    recorder = trace.Recorder() if traced else None
    with trace.installed(recorder):
        system = workload.build()
        server = MediatorServer(system.mediator, config=ServingConfig()).start()
        print(json.dumps({"port": server.address[1]}), flush=True)
        for line in sys.stdin:
            if line.strip() == "mark":
                if recorder is not None:
                    recorder.clear()
                print(json.dumps({"dials": system.dials()}), flush=True)
            elif line.strip() == "stop":
                break
        counts = layer_counts(system.mediator)
        summary = server.drain()
    report: dict[str, Any] = {
        "dials": system.dials(),
        "counts": counts,
        "dropped_in_flight": summary.get("dropped_in_flight", 0.0),
        "rss_mb": peak_rss_mb(),
    }
    if recorder is not None:
        report["self_s"] = recorder.self_seconds()
        report["spans"] = recorder.records()
    print(json.dumps(report), flush=True)


# -- the generator -----------------------------------------------------------


def _closed_loop(
    clients: Sequence[ServingClient],
    ops: Sequence[Op],
    indices: Sequence[int],
) -> tuple[dict[int, float], dict[int, dict[str, Any]], float]:
    """Send ``ops[i] for i in indices`` over the connections, each
    connection a closed loop over every len(clients)-th operation.
    Returns per-index latency and response, and the wall seconds from
    the first send to the last reply."""
    latencies: dict[int, float] = {}
    responses: dict[int, dict[str, Any]] = {}
    spans: list[tuple[float, float]] = []
    barrier = threading.Barrier(len(clients))

    def sender(client: ServingClient, mine: Sequence[int]) -> None:
        barrier.wait()
        first = perf_counter()
        for index in mine:
            start = perf_counter()
            try:
                response = client.query(ops[index].text)
            except ReproError as exc:
                response = {"status": "error", "error": str(exc)}
            latencies[index] = perf_counter() - start
            responses[index] = response
        spans.append((first, perf_counter()))

    threads = [
        threading.Thread(target=sender, args=(client, indices[n :: len(clients)]))
        for n, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = max(end for _, end in spans) - min(start for start, _ in spans)
    return latencies, responses, wall


def _answers(response: dict[str, Any]) -> Answers:
    return Counter(
        tuple(decode_value(value) for value in answer)
        for answer in response.get("answers", ())
    )


def run_served_round(
    workload: Workload,
    ops: Sequence[Op],
    expected: Sequence[Optional[Answers]],
    warmup: int,
    traced: bool = False,
    ping: bool = False,
) -> Round:
    """One round through a fresh server process."""
    start = perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(RUN_PY), "--serve", workload.name, "--trace", str(int(traced))],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    assert child.stdin is not None and child.stdout is not None
    clients: list[ServingClient] = []

    def ask(command: str) -> dict[str, Any]:
        child.stdin.write(command + "\n")
        child.stdin.flush()
        return json.loads(child.stdout.readline())

    try:
        port = json.loads(child.stdout.readline())["port"]
        tenants = getattr(workload, "tenants", ("default",))
        clients = [
            ServingClient("127.0.0.1", port, tenant=tenants[n % len(tenants)])
            for n in range(workload.clients)
        ]
        _closed_loop(clients, ops, range(warmup))
        setup_s = perf_counter() - start
        dials_before = ask("mark")["dials"]
        ping_s = 0.0
        if ping:
            samples = []
            for _ in range(PINGS):
                began = perf_counter()
                clients[0].ping()
                samples.append(perf_counter() - began)
            ping_s = statistics.median(samples)
        timed = range(warmup, len(ops))
        latencies, responses, wall_s = _closed_loop(clients, ops, timed)
        report = ask("stop")
    finally:
        for client in clients:
            client.close()
        child.stdin.close()
        try:
            child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
    failed = 0
    sim_ms = 0.0
    for index in timed:
        response = responses[index]
        if response.get("status") != "ok" or _answers(response) != expected[index]:
            failed += 1
        sim_ms += response.get("t_sim_ms", 0.0)
    counts = dict(report["counts"])
    counts["serving.server.ping_rtt_us"] = ping_s * 1e6
    return Round(
        setup_s=setup_s,
        latencies=[latencies[index] for index in timed],
        write_latencies=[],
        wall_s=wall_s,
        attempted=len(timed),
        failed=failed + int(report["dropped_in_flight"]),
        dials=report["dials"] - dials_before,
        sim_ms=sim_ms,
        counts=counts,
        self_s=report.get("self_s", {}),
        spans=report.get("spans", []),
        rss_mb=report["rss_mb"],
    )
