"""Tests of the benchmark itself: seeded inputs, the answer checks, failure
accounting and the tracer. Run with ``python3 -m pytest -q bench/tests``."""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import questions  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload", questions.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = list(questions.round_questions(workload, 7, 1))
    assert first == list(questions.round_questions(workload, 7, 1))
    assert first != list(questions.round_questions(workload, 8, 1))


def test_rounds_leave_ten_samples_beyond_p90():
    for workload in questions.WORKLOADS:
        rounds = questions.rounds_for(workload, 1)
        assert rounds * len(list(questions.round_questions(workload, 0, 0))) >= 100


def test_enumerate_rungs_share_one_count():
    for rung in questions.ENUMERATE_LADDER + (questions.ENUMERATE_P90,):
        assert len({p ** check.count_exponent(n, p, d) for p, d, n in rung}) == 1


def test_equiv_pairs_have_the_stated_verdict():
    # The known answers rest on the null product and the j! value; test
    # them by brute force over a full residue system.
    for m in (12, 25, 97, 360):
        for expect in (True, False):
            f, g = questions.equiv_pair(m, expect, random.Random(m))
            same = all(check.horner_mod(f, x, m) == check.horner_mod(g, x, m) for x in range(m))
            assert same is expect


def test_checker_mu_and_counts_on_known_values():
    assert [check.mu(m) for m in (2, 8, 9, 16, 25, 360, 10 ** 7 + 19)] == [2, 4, 6, 6, 10, 6, 10 ** 7 + 19]
    # 131072 = 2^17 null polynomials of degree <= 8 mod 8 (the anchor).
    assert check.count_exponent(8, 2, 3) == 17
    assert check.check({"kind": "count_null_le", "n": 8, "p": 2, "d": 3}, (2 ** 17, 17)) is None


def test_planted_wrong_answers_fail():
    m = 360
    good = (2, check.mu(m), check.mu(m))
    assert check.check({"kind": "omega", "m": m}, good) is None
    assert check.check({"kind": "omega", "m": m}, (2, good[1] + 1, good[2] + 1))
    assert check.check({"kind": "mu", "m": 10 ** 7 + 19}, 10 ** 7 + 20)
    q = {"kind": "count_null_le", "n": 30, "p": 3, "d": 5}
    e = check.count_exponent(30, 3, 5)
    assert check.check(q, (3 ** e, e)) is None
    assert check.check(q, (3 ** (e + 1), e + 1))
    assert check.check(q, (3 ** (e - 1), e - 1))
    f, g = questions.equiv_pair(97, True, random.Random(1))
    q = {"kind": "equiv", "m": 97, "expect": True, "f": f, "g": g}
    assert check.check(q, True) is None
    assert check.check(q, False)


def test_planted_answer_through_the_timed_path_fails():
    q = {"kind": "omega", "m": 48}
    _, _, failure = worker.attempt(q, lambda: (2, check.mu(48) + 1, check.mu(48) + 1))
    assert failure
    _, _, failure = worker.attempt(q, lambda: (2, check.mu(48), check.mu(48)))
    assert failure is None


def test_exception_and_deadline_miss_fail():
    q = {"kind": "mu", "m": 10}
    _, _, failure = worker.attempt(q, lambda: 1 // 0)
    assert "ZeroDivisionError" in failure
    start = time.perf_counter()
    _, _, failure = worker.attempt(q, lambda: time.sleep(5), deadline=0.2)
    assert "deadline" in failure and time.perf_counter() - start < 2


def test_cli_deadline_miss_fails():
    q = {"kind": "cli", "sub": "omega", "m": 10, "argv": ["omega", "10"]}
    sleeper = [sys.executable, "-c", "import time; time.sleep(5)"]
    _, _, failure, _, _ = worker.attempt_cli(q, sleeper, worker.cli_env(), deadline=0.5)
    assert "deadline" in failure


def test_refusals_count_only_when_clean():
    q = {"kind": "cli", "sub": "count", "refuse": True, "argv": ["count", "5", "4", "2"]}
    assert worker.judge_cli(q, 1, "", "error: 4 is not prime\n") == ("refused", None)
    tb = "Traceback (most recent call last):\n  ...\nAssertionError: boom\n"
    assert worker.judge_cli(q, 1, "", tb)[1]
    assert worker.judge_cli(q, 0, "{}", "")[1]
    answering = {"kind": "cli", "sub": "omega", "m": 10, "argv": ["omega", "10"]}
    assert worker.judge_cli(answering, 1, "", "error: no\n")[1]


def test_cli_questions_answer_at_this_commit():
    env = worker.cli_env()
    cmd = [sys.executable, "-m", "nullpoly.cli"]
    for q in questions.round_questions("cli", 3, 0):
        _, _, failure, _, _ = worker.attempt_cli(q, cmd, env)
        assert failure is None, (q["argv"], failure)


_TRACE_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import nullpoly as np
import spans
h = np.least_monic_null(3, 6)
before = (h.coeffs, np.null_order(h, 3, 8), len(list(np.enumerate_null(2, 2, 6))),
          np.canonical_form(np.Polynomial([5] * 40), 97).a)
np.canonical._basis.cache_clear()
t = spans.Tracer()
t.install(np)
assert np.canonical.kempner_basis is np.construct.kempner_basis is np.kempner_basis
with t.span("question"):
    h2 = np.least_monic_null(3, 6)
    after = (h2.coeffs, np.null_order(h2, 3, 8), len(list(np.enumerate_null(2, 2, 6))),
             np.canonical_form(np.Polynomial([5] * 40), 97).a)
print(json.dumps({{"same": before == after, **t.export()}}))
"""


def test_tracer_sees_every_namespace_and_keeps_answers():
    script = _TRACE_SCRIPT.format(src=str(ROOT / "src"), bench=str(BENCH))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    data = json.loads(out.stdout.splitlines()[-1])
    assert data["same"]
    edges, stats = data["edges"], data["stats"]
    assert edges["oracle.null_order>oracle.is_null_binomial"] >= 6
    assert edges["canonical.reduce_degree>construct.kempner_basis"] == 1
    assert stats["polys.mul"][0] > 0 and data["counters"]["polys.objects"] > 0
    assert data["counters"]["counting.enumerate_null.outputs"] == 2 ** check.count_exponent(6, 2, 2)
    for calls, total, own, errors in stats.values():
        assert 0 <= own <= total + 1e-9 and errors == 0
    question = stats["question"]
    assert question[2] < question[1]


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and not out.stdout.strip()
