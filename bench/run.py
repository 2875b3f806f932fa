"""nullpoly benchmark: one run of one workload.

    python3 bench/run.py --workload tower --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Every run starts fresh worker processes
(bench/worker.py) that import nullpoly from the checkout's ``src``; one
caller asks the workload's seeded questions one at a time (a closed loop)
and every answer is checked by bench/check.py, which does not import
nullpoly.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json. The
set-up time is the median over several fresh processes.
--trace 1 prints the per-layer metrics: the same questions are asked once
untraced and once with every nullpoly function wrapped (bench/spans.py),
after a fresh process has timed the ROADMAP anchor calls.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. A summary goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import questions  # noqa: E402

SETUP_SAMPLES = 9
BUDGET_S = 175.0
# Median of worker.pace_s() on the baseline host (2-core x86-64 VM) when it
# was quiet. Times are scaled by REFERENCE_PACE_S / the median pace that
# the same process measured, which takes out most of the host's drift in
# speed between runs; memory is reported as measured.
REFERENCE_PACE_S = 0.003


class BenchError(Exception):
    pass


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def child(workload, seed, rounds, mode, deadline):
    """Run one worker; return (seconds until it was ready, its summary)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--rounds", str(rounds), "--mode", mode]
    start = time.perf_counter()
    # Its own process group, so that the watchdog also ends CLI subprocesses.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 1.0), _kill_group, (proc,))
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        _kill_group(proc)
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with {proc.returncode}")
    return setup, json.loads(out.strip().splitlines()[-1])


def _speed(summary) -> float:
    return REFERENCE_PACE_S / statistics.median(summary["pace"])


def end_to_end(args, rounds, deadline):
    setups = []
    for mode in ["probe"] * (SETUP_SAMPLES - 1) + ["run"]:
        setup, result = child(args.workload, args.seed, rounds, mode, deadline)
        setups.append(setup * _speed(result))
    speed = _speed(result)
    lat = [t * speed for t in result["latencies"]]
    failed = len(result["failures"])
    values = {
        "setup_s": statistics.median(setups),
        "queries_per_s": (len(lat) - failed) / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p90_ms": 1000 * statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    print(f"{args.workload} seed {args.seed}: {len(lat)} questions in {rounds} rounds, {failed} failed, "
          f"answering took {sum(result['latencies']):.2f} s at {speed:.3f} x the reference pace",
          file=sys.stderr)
    return len(lat), result["failures"], values


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(args, rounds, deadline):
    _, anchors = child(args.workload, args.seed, 1, "anchors", deadline)
    _, base = child(args.workload, args.seed, rounds, "baseline", deadline)
    _, traced = child(args.workload, args.seed, rounds, "trace", deadline)
    layers = traced["layers"]
    layers["counters"].update(base["layers"]["counters"])
    layers["counters"].update(anchors["layers"]["counters"])
    stats, edges, values = layers["stats"], layers["edges"], layers["counters"]
    calls = lambda name: stats.get(name, [0])[0]  # noqa: E731
    outputs = values.get("counting.enumerate_null.outputs", 0)
    values.update({
        "trace.overhead_s": (sum(traced["latencies"]) * _speed(traced)
                             - sum(base["latencies"]) * _speed(base)),
        "oracle.null_order.retests_per_call": _ratio(
            edges.get("oracle.null_order>oracle.is_null_binomial", 0), calls("oracle.null_order")),
        "canonical.basis_builds_per_query": _ratio(
            sum(n for e, n in edges.items()
                if e.startswith("canonical.") and e.endswith(">construct.kempner_basis")),
            len(traced["latencies"])),
        "counting.enumerate_null.polys_per_s": _ratio(
            outputs, values.get("counting.enumerate_null.consume_s", 0)),
        "counting.objects_per_output": _ratio(values.get("counting.enumerate_null.objects", 0), outputs),
    })
    for name, st in stats.items():
        values[f"{name}.calls"], values[f"{name}.self_s"], values[f"{name}.errors"] = st[0], st[2], st[3]
    failures = base["failures"] + traced["failures"] + anchors["failures"]
    same = base["digests"] == traced["digests"]
    if not same:
        failures.append("traced answers differ from the untraced ones")
    attempted = sum(len(part["latencies"]) for part in (anchors, base, traced))
    values["bench.error_rate"] = len(failures) / attempted
    values["host.pace_ms"] = 1000 * statistics.median(base["pace"])
    print(f"{args.workload} seed {args.seed}: traced {len(traced['latencies'])} questions, "
          f"overhead {values['trace.overhead_s']:.2f} s, answers match: {same}", file=sys.stderr)
    return attempted, failures, values


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one nullpoly benchmark workload.")
    parser.add_argument("--workload", choices=questions.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + BUDGET_S
    if not (ROOT / "src" / "nullpoly" / "__init__.py").is_file():
        print(f"error: no nullpoly package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = spec["per_layer"] if args.trace else spec["end_to_end"]
    rounds = questions.rounds_for(args.workload, args.seconds)
    try:
        run = per_layer if args.trace else end_to_end
        attempted, failures, values = run(args, rounds, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    metrics = {row["name"]: {"value": values.get(row["name"], 0), "unit": row["unit"]} for row in rows}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
