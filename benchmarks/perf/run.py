"""The repo's benchmark: one command, six workloads, every metric by name.

Driver form — one workload, one pass, the result as the last line::

    python3 benchmarks/perf/run.py --workload wide_params --seed 3 \\
        --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (counts from untraced rounds, self times from traced rounds, the
``micro.*`` table).  Without ``--workload`` every workload runs, each
pass in a fresh child process, and a table is printed::

    python3 benchmarks/perf/run.py --seed 0 [--quick] [--check-repeat]

Metric names, units, bounds and the run length come from
``BENCHMARK.json`` at the repo root; see README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
#: --quick divides every operation count by this
QUICK_DIVISOR = 20

# the program is measured from its source tree, never from an install
sys.path.insert(0, str(SRC))


def spec() -> dict[str, Any]:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def clean_env() -> dict[str, str]:
    """The environment every measuring process runs under: fixed string
    hashing (set iteration order decides plan ties) and the default
    in-memory storage whatever the caller's CI matrix exported."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_STORAGE"}
    env["PYTHONHASHSEED"] = "0"
    return env


# -- one workload, one pass ---------------------------------------------------


def measure(
    name: str, seed: int, seconds: float, traced: bool, quick: bool
) -> dict[str, Any]:
    """Run one pass; returns the result object plus ``info`` for humans."""
    import harness
    import load
    import micro
    import trace
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    divisor = QUICK_DIVISOR if quick else 1
    count = max(workload.ops_per_round // divisor, 10)
    warmup = max(workload.warmup // divisor, 1)
    ops, expected = workload.plan(random.Random(seed), count + warmup)
    start = perf_counter()
    if expected is None:
        expected = harness.oracle_answers(workload, ops)
    oracle_s = perf_counter() - start
    served = workload.clients > 1

    def one(traced_round: bool = False, ping: bool = False) -> harness.Round:
        if served:
            return load.run_served_round(
                workload, ops, expected, warmup, traced=traced_round, ping=ping
            )
        recorder = trace.Recorder() if traced_round else None
        return harness.run_round(workload, ops, expected, warmup, recorder)

    if not traced:
        rounds = harness.repeat(one, seconds)
        values = harness.medians([harness.end_to_end(r) for r in rounds])
        values["peak_rss_mb"] = max(r.rss_mb for r in rounds)
    else:
        # counts and the untraced p50 from plain rounds, self times from
        # traced ones: half the time each
        rounds = harness.repeat(lambda: one(ping=True), seconds / 2)
        traced_rounds = harness.repeat(lambda: one(traced_round=True), seconds / 2)
        values = harness.medians([{**r.counts, **harness.ungated(r)} for r in rounds])
        values.update(
            harness.medians(
                [
                    {**harness.self_times(r), "trace.coverage": harness.coverage(r)}
                    for r in traced_rounds
                ]
            )
        )
        p50 = harness.p50_us(rounds)
        values["trace.overhead_ratio"] = harness.p50_us(traced_rounds) / p50
        if served:
            # the same request stream replayed in this process prices the wire
            direct = harness.run_round(workload, ops, expected, warmup)
            values["serving.server.overhead_us"] = p50 - harness.p50_us([direct])
        values.update(micro.measure(workload, ops, warmup))
        trace.write_trace(RESULTS / f"trace-{name}.json", name, traced_rounds[-1].spans)
        rounds = rounds + traced_rounds

    wanted = spec()["per_layer" if traced else "end_to_end"]
    unknown = set(values) - {metric["name"] for metric in wanted}
    if unknown:
        # a metric the harness computes but BENCHMARK.json does not name
        # (or names differently) would otherwise read 0 for ever
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {
        # a layer the workload never enters has no span and no count: 0
        metric["name"]: {"value": values.get(metric["name"], 0.0), "unit": metric["unit"]}
        for metric in wanted
    }
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": {
            "workload": name,
            "seed": seed,
            "rounds": len(rounds),
            "ops_per_round": count,
            "warmup_ops": warmup,
            "latency_samples_per_round": rounds[0].queries,
            "clients": workload.clients,
            "oracle_s": oracle_s,
        },
    }


def print_metrics(workload: str, metrics: dict[str, dict[str, Any]]) -> None:
    for metric, cell in metrics.items():
        print(f"{workload:<15} {metric:<44} {cell['value']:>14.4f} {cell['unit']}")


def run_single(args: argparse.Namespace) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0" or "REPRO_STORAGE" in os.environ:
        # hashing is fixed at interpreter start: start again, clean
        os.execve(sys.executable, [sys.executable, *sys.argv], clean_env())
    result = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick
    )
    info = result.pop("info")
    print_metrics(args.workload, result["metrics"])
    print(f"# info {json.dumps(info)}")
    print(json.dumps(result))
    return 0


# -- every workload -----------------------------------------------------------


def provenance() -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # a checkout that is not a git repository
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def run_pass(
    name: str, seed: int, seconds: float, traced: bool, quick: bool
) -> dict[str, Any]:
    """One pass in a fresh child process; returns its result and info."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)),
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(
        command, cwd=ROOT, env=clean_env(), capture_output=True, text=True
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{name} (trace {int(traced)}) exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2].removeprefix("# info "))
    return result


def run_suite_once(
    args: argparse.Namespace, names: Sequence[str], traces: Sequence[bool]
) -> dict[str, Any]:
    table: dict[str, Any] = {}
    for name in names:
        table[name] = {}
        for traced in traces:
            result = run_pass(name, args.seed, args.seconds, traced, args.quick)
            table[name]["trace" if traced else "end_to_end"] = result
            print_metrics(name, result["metrics"])
            print(
                f"{name:<15} {'failed/attempted':<44} "
                f"{result['failed']:>7}/{result['attempted']:<6} "
                f"rounds={result['info']['rounds']}",
                flush=True,
            )
    return table


def run_suite(args: argparse.Namespace) -> int:
    benchmark = spec()
    names = [workload["name"] for workload in benchmark["workloads"]]
    first = run_suite_once(args, names, traces=(False, True))
    failed = sum(
        result["failed"] for passes in first.values() for result in passes.values()
    )
    report: dict[str, Any] = {
        "provenance": provenance(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "workloads": first,
    }
    status = 0 if failed == 0 else 1
    if args.check_repeat:
        print("# second set of end-to-end passes (--check-repeat)")
        second = run_suite_once(args, names, traces=(False,))
        report["repeat"] = second
        for metric in benchmark["end_to_end"]:
            for name in names:
                a = first[name]["end_to_end"]["metrics"][metric["name"]]["value"]
                b = second[name]["end_to_end"]["metrics"][metric["name"]]["value"]
                worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
                verdict = "ok"
                if abs(worse) > metric["bound"] and not args.quick:
                    verdict = "OUTSIDE BOUND"
                    status = 1
                print(
                    f"{name:<15} {metric['name']:<24} {a:>12.4f} {b:>12.4f} "
                    f"{worse:>+8.2%} (bound {metric['bound']:.0%}) {verdict}"
                )
    RESULTS.mkdir(parents=True, exist_ok=True)
    with (RESULTS / "latest.json").open("w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"# wrote {RESULTS / 'latest.json'}; failed operations: {failed}")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only (driver form)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help=f"1/{QUICK_DIVISOR} of the operations, one round, bounds not enforced",
    )
    parser.add_argument(
        "--check-repeat", action="store_true",
        help="run the end-to-end passes twice; fail if they differ by more than a bound",
    )
    parser.add_argument("--serve", help=argparse.SUPPRESS)  # the server child
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program's source is not at {SRC}", file=sys.stderr)
        return 2
    if args.serve:
        import load

        load.serve(args.serve, bool(args.trace))
        return 0
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(spec()["run_seconds"])
    if args.workload:
        return run_single(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
