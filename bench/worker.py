"""One benchmark process: asks a workload's questions in a closed loop.

Started fresh by run.py for every run (and for every set-up probe), with
the checkout root as working directory. It imports nullpoly from the
checkout's ``src``, builds the first question, prints ``ready`` and then,
one question at a time, times the answer and checks it outside the timed
region. The last stdout line is a JSON summary for run.py.

Modes:
  probe     stop after ``ready`` (a set-up sample)
  run       answer the questions untraced
  baseline  as run, plus the CLI's start-up time and the cliff questions
  trace     answer the questions with every nullpoly function wrapped
  anchors   time the ROADMAP anchor calls, untraced and cold
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import check  # noqa: E402
import questions  # noqa: E402
import spans  # noqa: E402

# A runaway question fails with MemoryError instead of exhausting a shared
# host; CLI subprocesses inherit the cap.
ADDRESS_SPACE_BYTES = 2 << 30
DEADLINE_S = 30.0
TRACE_MARK = "BENCH-TRACE "
_PACE_MOD = 7 ** 400


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def import_nullpoly():
    sys.path.insert(0, str(SRC))
    import nullpoly

    if SRC.resolve() not in Path(nullpoly.__file__).resolve().parents:
        raise SystemExit(f"nullpoly imported from {nullpoly.__file__}, not from {SRC}")
    return nullpoly


# -- library questions ---------------------------------------------------

def _ask_construct(np, q):
    h = np.least_monic_null(q["p"], q["d"])
    return h, np.is_null_binomial(h, q["p"] ** q["d"])


def _ask_order(np, q):
    h = np.least_monic_null(q["p"], q["d"])
    return np.null_order(h, q["p"], q["d_max"])


def _ask_reduce(np, q):
    f = np.Polynomial(q["f"])
    return np.reduce_degree(f, q["m"]), np.canonical_form(f, q["m"])


def _ask_omega(np, q):
    fm = np.factor(q["m"])
    return np.omega0_composite(fm), np.omega1_composite(fm), np.kempner_mu(q["m"])


def _ask_enumerate(np, q):
    total = np.count_null_le(q["n"], q["p"], q["d"])
    return total, list(np.enumerate_null(q["p"], q["d"], q["n"]))


ASK = {
    "construct": _ask_construct,
    "order": _ask_order,
    "equiv": lambda np, q: np.equivalent(np.Polynomial(q["f"]), np.Polynomial(q["g"]), q["m"]),
    "reduce": _ask_reduce,
    "omega": _ask_omega,
    "factor": lambda np, q: np.factor(q["m"]),
    "count_null_le": lambda np, q: np.count_null_le(q["n"], q["p"], q["d"]),
    "count_monic": lambda np, q: np.count_monic(q["n"], q["p"], q["d"]),
    "count_monic_le": lambda np, q: np.count_monic_le(q["n"], q["p"], q["d"]),
    "enumerate": _ask_enumerate,
}


def plain(x):
    """Library results as ints, bools and coefficient tuples, for check."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, (list, tuple)):
        return tuple(plain(v) for v in x)
    if hasattr(x, "coeffs"):
        return x.coeffs
    if hasattr(x, "p_exponent"):
        return x.value, x.p_exponent
    if hasattr(x, "factors"):
        return tuple((pp.p, pp.d) for pp in x.factors)
    if hasattr(x, "a"):
        return x.a
    raise TypeError(f"no plain form for {type(x).__name__}")


def attempt(q, call, deadline=DEADLINE_S):
    """Time call() under a deadline, then check its answer outside the
    timed region. Returns (seconds, plain answer, failure or None)."""
    signal.signal(signal.SIGALRM, _on_alarm)
    raw, failure = None, None
    signal.setitimer(signal.ITIMER_REAL, deadline)
    start = time.perf_counter()
    try:
        raw = call()
    except DeadlineExceeded:
        failure = f"missed its {deadline:g} s deadline"
    except Exception as e:  # any error is a failed question, not a crash
        failure = f"raised {type(e).__name__}: {e}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    if failure:
        return elapsed, None, failure
    answer = plain(raw)
    return elapsed, answer, check.check(q, answer)


# -- CLI questions -------------------------------------------------------

def _csv(text: str) -> tuple[int, ...]:
    coeffs = [int(c) for c in text.split(",")]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _count_value(result) -> int:
    if result["count"] is not None:
        return result["count"]
    base, _, exp = result["count_str"].partition("^")
    return int(base) ** int(exp)


def _cli_answer(q, payload):
    """(check kind, plain answer) for one subcommand's JSON payload."""
    r, sub = payload["result"], q["sub"]
    if sub == "omega":
        return "omega", (r["omega0"], r["omega1"], r["mu"])
    if sub == "construct":
        return "construct", (_csv(r["polynomial"]["coeffs"]), payload["verified"])
    if sub == "check-null":
        return "expect", r["null"]
    if sub == "order":
        return "expect", r["order"]
    if sub == "equiv":
        return "expect", r["equivalent"]
    if sub == "reduce":
        return "reduce", (_csv(r["reduced"]["coeffs"]), tuple(r["canonical"]))
    if sub == "count":
        kind = "count_monic" if q["monic"] else "count_null_le"
        return kind, (_count_value(r), r["p_exponent"])
    if sub == "enumerate":
        polys = tuple(_csv(f["coeffs"]) for f in r["polynomials"])
        return "enumerate", ((r["count"], None), polys)
    return "crt", _csv(r["combined"]["coeffs"])


def judge_cli(q, code: int, out: str, err: str):
    """(answer, failure or None) for one finished CLI call."""
    if "Traceback" in err:
        return None, f"traceback: {err.strip().splitlines()[-1]}"
    if q.get("refuse"):
        if code in (1, 2) and err.startswith("error:") and not out.strip():
            return "refused", None
        return None, f"expected a clean refusal, got exit {code}"
    if code != 0:
        return None, f"exit {code}: {err.strip()[:200]}"
    kind, answer = _cli_answer(q, json.loads(out))
    return answer, check.CHECKS[kind](q, answer)


def attempt_cli(q, cmd, env, deadline=DEADLINE_S):
    """Run one CLI question as a subprocess. Returns (seconds, answer,
    failure, stdout bytes, trace export or None)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd + q["argv"] + ["--json"], capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=deadline)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, f"missed its {deadline:g} s deadline", 0, None
    elapsed = time.perf_counter() - start
    err, exported = proc.stderr, None
    if TRACE_MARK in err:
        lines = err.splitlines(keepends=True)
        mark = next(i for i, line in enumerate(lines) if line.startswith(TRACE_MARK))
        exported = json.loads(lines.pop(mark)[len(TRACE_MARK):])
        err = "".join(lines)
    answer, failure = judge_cli(q, proc.returncode, proc.stdout, err)
    return elapsed, answer, failure, len(proc.stdout.encode()), exported


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_startup_s(env, samples=5):
    cmd = [sys.executable, "-c", "import nullpoly.cli"]
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=DEADLINE_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_cliffs(env):
    counters = {"cli.cliff.answered": 0}
    cmd = [sys.executable, "-m", "nullpoly.cli"]
    for name, q in questions.CLIFFS:
        elapsed, _, failure, _, _ = attempt_cli(q, cmd, env, questions.CLIFF_DEADLINE_S)
        counters[f"cli.cliff.{name}_s"] = elapsed
        counters["cli.cliff.answered"] += failure is None
    return counters


def pace_s() -> float:
    """Seconds for a fixed pure-Python task (interpreter steps, small and
    large integer arithmetic) that never touches nullpoly. Run between
    questions, it tracks how fast the host runs Python at that moment."""
    start = time.perf_counter()
    acc, big, table = 0, 3 ** 500, {}
    for i in range(600):
        acc = (acc * 31 + i) % 1000003
        big = big * (big + i) % _PACE_MOD
        table[i % 64] = acc
    return time.perf_counter() - start


# -- the loop ------------------------------------------------------------

def question_stream(workload, seed, rounds):
    for index in range(rounds):
        yield from questions.round_questions(workload, seed, index)


def _digest(answer) -> str:
    h = hashlib.sha256()

    def feed(x):
        # hex, because decimal str() of a huge count is quadratic and capped
        if isinstance(x, tuple):
            h.update(b"(")
            for v in x:
                feed(v)
            h.update(b")")
        elif isinstance(x, int) and not isinstance(x, bool):
            h.update(format(x, "x").encode() + b",")
        else:
            h.update(repr(x).encode())

    try:
        h.update(repr(answer).encode())
    except ValueError:
        feed(answer)
    return h.hexdigest()[:16]


def run(np, args, stream):
    traced = args.mode == "trace"
    tracer = spans.Tracer() if traced and args.workload != "cli" else None
    if tracer:
        tracer.install(np)
    if args.workload == "cli":
        env = cli_env()
        cmd = [sys.executable, str(HERE / "cli_shim.py")] if traced else [sys.executable, "-m", "nullpoly.cli"]
    layers = spans.empty()
    latencies, digests, failures, pace = [], [], [], []
    cli_latency: dict[str, list[float]] = {}
    for q in stream:
        if args.workload == "cli":
            elapsed, answer, failure, nbytes, exported = attempt_cli(q, cmd, env)
            layers["counters"]["cli.output_bytes"] = layers["counters"].get("cli.output_bytes", 0) + nbytes
            if exported:
                spans.merge(layers, exported)
            if not q.get("refuse"):
                cli_latency.setdefault(q["sub"], []).append(elapsed)
        elif tracer:
            with tracer.span("question"):
                elapsed, answer, failure = attempt(q, lambda: ASK[q["kind"]](np, q))
        else:
            elapsed, answer, failure = attempt(q, lambda: ASK[q["kind"]](np, q))
        latencies.append(elapsed)
        pace.append(pace_s())
        digests.append(_digest(answer))
        if failure:
            inputs = q.get("argv") or {k: q[k] for k in ("p", "d", "n", "m") if k in q}
            failures.append(f"{q['kind']} {inputs}: {failure}")
    if tracer:
        spans.merge(layers, tracer.export())
    counters = layers["counters"]
    for sub, times in cli_latency.items():
        counters[f"cli.{sub}.latency_p50_ms"] = 1000 * statistics.median(times)
    if args.mode == "baseline" and args.workload == "cli":
        counters["cli.startup_s"] = cli_startup_s(env)
        counters.update(run_cliffs(env))
    return {"latencies": latencies, "pace": pace, "digests": digests, "failures": failures,
            "layers": layers}


# -- anchors -------------------------------------------------------------

def run_anchors(np):
    """The ROADMAP's anchor calls, each timed once in this fresh process."""
    rows, failures = {}, []

    def timed(name, q, call):
        elapsed, _, failure = attempt(q, call)
        rows[f"anchor.{name}_ms"] = 1000 * elapsed
        if failure:
            failures.append(f"anchor {name}: {failure}")

    built = {}

    def build():
        built["h"] = np.least_monic_null(5, 200)
        return built["h"].degree

    timed("least_monic_null_5_200", {"kind": "expect", "expect": 805}, build)
    timed("is_null_binomial_5_200", {"kind": "expect", "expect": True},
          lambda: np.is_null_binomial(built["h"], 5 ** 200))
    timed("kempner_mu_1e7p19", {"kind": "mu", "m": questions.ANCHOR_MU_M},
          lambda: np.kempner_mu(questions.ANCHOR_MU_M))
    h2 = np.least_monic_null(2, 100)
    timed("null_order_H2_100", {"kind": "expect", "expect": 100},
          lambda: np.null_order(h2, 2, 200))
    timed("count_null_le_3000_3_1e4", {"kind": "count_null_le", "n": 3000, "p": 3, "d": 10 ** 4},
          lambda: np.count_null_le(3000, 3, 10 ** 4))
    timed("enumerate_2_3_8", {"kind": "expect", "expect": 131072},
          lambda: sum(1 for _ in np.enumerate_null(2, 3, 8)))
    timed("factor_1e12p39", {"kind": "factor", "m": questions.ANCHOR_FACTOR_M},
          lambda: np.factor(questions.ANCHOR_FACTOR_M))
    return {"latencies": [ms / 1000 for ms in rows.values()], "failures": failures,
            "layers": {"stats": {}, "edges": {}, "counters": rows}}


def peak_rss_kb() -> int:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=questions.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "baseline", "trace", "anchors"), required=True)
    args = parser.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    np = import_nullpoly()
    stream = question_stream(args.workload, args.seed, args.rounds)
    first = next(stream)
    print("ready", flush=True)
    if args.mode == "probe":
        print(json.dumps({"pace": [pace_s() for _ in range(5)]}), flush=True)
        return
    if args.mode == "anchors":
        result = run_anchors(np)
    else:
        result = run(np, args, itertools.chain([first], stream))
    result["peak_rss_kb"] = peak_rss_kb()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
