import argparse
import json
import os
import re
import resource
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nullpoly import counting, modulus, oracle, polys
from nullpoly.cli import build_parser, main
from nullpoly.construct import omega1_prime_power
from nullpoly.polys import Polynomial, parse_polynomial


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--json", *argv)
    assert code == 0, err
    payload = json.loads(out)
    assert set(payload) == {"command", "inputs", "result", "trace", "verified"}
    return payload


def test_omega_text(capsys):
    code, out, _ = run_cli(capsys, "omega", "8")
    assert code == 0
    assert out.strip() == "omega0=2 omega1=4 mu=4"


def test_omega_composite(capsys):
    code, out, _ = run_cli(capsys, "omega", "72")
    assert code == 0
    assert out.strip() == "omega0=2 omega1=6 mu=6"


def test_check_null_text(capsys):
    code, out, _ = run_cli(capsys, "check-null", "x^4-2x^3+3x^2-2x", "8")
    assert code == 0
    assert out.splitlines()[0] == "NULL (verified: eval, binomial)"
    code, out, _ = run_cli(capsys, "check-null", "x^2-x", "4")
    assert code == 0
    assert out == "NOT NULL (witness x=2: f(2) = 2 mod 4)\n"


def test_check_null_csv_input(capsys):
    code, out, _ = run_cli(capsys, "check-null", "0,-2,3,-2,1", "8")
    assert code == 0 and out.startswith("NULL")


def test_construct_verified(capsys):
    payload = run_json(capsys, "construct", "2", "3")
    assert payload["verified"] is True
    assert payload["result"]["degree"] == 4
    assert payload["result"]["digits"] == [0, 1]
    got = parse_polynomial(payload["result"]["polynomial"]["coeffs"])
    assert got == parse_polynomial(payload["result"]["polynomial"]["human"])


def test_construct_families(capsys):
    for family in ("G", "H", "kempner"):
        payload = run_json(capsys, "construct", "2", "2", "--family", family)
        assert payload["verified"] is True
    payload = run_json(capsys, "construct", "2", "2", "--family", "kempner")
    assert payload["result"]["polynomial"]["human"] == "x^4-6x^3+11x^2-6x"


def test_construct_names_the_fold_for_a_prime_modulus(capsys):
    # d = 1 makes m = p prime in every family, and the null test folds by
    # x^p - x instead of taking Newton coordinates
    assert run_cli(capsys, "construct", "5", "1") == (0, (
        "H(p=5, d=1) modulo 5:\npoly: x^5-10x^4+35x^3-50x^2+24x\ncoeffs: 0,24,-50,35,-10,1\n"
        "degree: 5\ndigits: [1]\nverified: null (fold by x^5-x)\n"), "")
    for family in ("G", "kempner"):
        code, out, _ = run_cli(capsys, "construct", "3", "1", "--family", family)
        assert (code, out.splitlines()[-1]) == (0, "verified: null (fold by x^3-x)")


def test_count_text_with_trace(capsys):
    code, out, _ = run_cli(capsys, "count", "3", "2", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N_np(<=3, 2^2) = 4"
    assert "  count-exponent = 2" in lines[1:]


def test_count_monic(capsys):
    code, out, _ = run_cli(capsys, "count", "4", "2", "2", "--monic")
    assert code == 0
    assert out.splitlines()[0] == "N_mnp(4, 2^2) = 4"


def test_count_monic_below_omega1_builds_no_power(capsys):
    # 3000 < omega1(3^10000): the answer is 0, and p**E(3000) is 3^2240293
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "3000", "3", "10000", "--monic")
    assert time.perf_counter() - start < 0.1
    assert code == 0, err
    assert out.splitlines()[0] == "N_mnp(3000, 3^10000) = 0"
    for argv in (("4", "2", "2"), ("3", "2", "1")):
        assert run_json(capsys, "count", *argv, "--monic")["verified"] is True


def test_count_json_round_trip(capsys):
    payload = run_json(capsys, "count", "3", "2", "3")
    assert payload["result"]["count"] == 4
    assert payload["result"]["p_exponent"] == 2
    assert payload["verified"] is True


def test_count_at_a_large_prime_shows_the_power(capsys):
    # p**201 is past Python's int-to-str digit limit
    p = 10 ** 22 + 9
    code, out, err = run_cli(capsys, "count", str(p + 200), str(p), "1")
    assert code == 0, err
    assert out.splitlines()[0] == f"N_np(<={p + 200}, {p}^1) = {p}^201"
    result = run_json(capsys, "count", str(p + 200), str(p), "1")["result"]
    assert (result["count"], result["count_str"], result["p_exponent"]) == (None, f"{p}^201", 201)


def test_enumerate_sorted_and_verified(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "3", "2", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["0", "0,0,2,2", "0,2,0,2", "0,2,2"]
    polys = [parse_polynomial(s) for s in lines]
    keys = [f.coeffs for f in polys]
    assert keys == sorted(keys)


def test_count_answers_a_power_too_large_to_build(capsys):
    # E(10^6) mod 3^(10^6) is 249994082012: 3^E has about 4 * 10^11 bits,
    # and the count is its formula, never built
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "1000000", "3", "1000000")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "N_np(<=1000000, 3^1000000) = 3^249994082012"
    result = run_json(capsys, "count", "1000000", "3", "1000000")["result"]
    assert result == {"count": None, "count_str": "3^249994082012", "p_exponent": 249994082012}
    # monic of degree 10^6 mod 3^10: the count is 3^E(10^6 - 1), with E about 10^7
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "1000000", "3", "10", "--monic")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "N_mnp(1000000, 3^10) = 3^9999865"
    result = run_json(capsys, "count", "1000000", "3", "10", "--monic")["result"]
    assert result == {"count": None, "count_str": "3^9999865", "p_exponent": 9999865}


def test_enumerate_checks_the_count_it_reports(capsys, monkeypatch):
    # one polynomial twice, in place of another or on top of the list
    real = counting.enumerate_null
    for listed in (lambda polys: polys[:-1] + polys[:1], lambda polys: polys + polys[:1]):
        monkeypatch.setattr(counting, "enumerate_null", lambda p, d, n: iter(listed(list(real(p, d, n)))))
        code, out, err = run_cli(capsys, "enumerate", "3", "2", "2")
        assert (code, out) == (3, "")
        assert err.startswith("error: enumerated ") and err.endswith(", not 4 distinct ones\n")


def test_enumerate_refuses_over_limit(capsys):
    code, _, err = run_cli(capsys, "enumerate", "6", "2", "3", "--limit", "10")
    assert code == 1
    assert err == "error: count 2^11 exceeds --limit 10; raise the limit to proceed\n"
    # E(3000) mod 3^10000 is 2240293: p**E has over a million digits
    code, out, err = run_cli(capsys, "enumerate", "3000", "3", "10000")
    assert (code, out) == (1, "")
    assert err == "error: count 3^2240293 exceeds --limit 10000; raise the limit to proceed\n"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", "10000000", "2", "1000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "") and "exceeds --limit 10000" in err
    code, out, _ = run_cli(capsys, "enumerate", "6", "2", "3", "--limit", "3000")
    assert code == 0
    assert len(out.strip().splitlines()) == 2048


def test_crt_command(capsys):
    payload = run_json(capsys, "crt", "x^2+x", "2", "x^3-x", "3")
    assert payload["result"]["modulus"] == 6
    assert payload["result"]["combined"]["human"] == "4x^3+3x^2+5x"
    assert payload["verified"] is True


def test_crt_refuses_what_is_not_a_prime_power(capsys):
    for text in ("4^2", "x", "2^0", "2^^3"):
        code, out, err = run_cli(capsys, "crt", "x", text, "x", "3")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
    parts = run_json(capsys, "crt", "x", "2^1", "x+1", "3^2")["inputs"]["parts"]
    assert [part["prime_power"] for part in parts] == ["2", "3^2"]


def test_equiv_and_reduce(capsys):
    code, out, _ = run_cli(capsys, "equiv", "x^3", "x", "3")
    assert code == 0
    assert out.splitlines()[0] == "EQUIVALENT modulo 3"
    payload = run_json(capsys, "reduce", "x^3", "3")
    assert payload["result"]["reduced"]["human"] == "x"
    assert payload["result"]["canonical"] == [0, 1, 0]


def test_order_command(capsys):
    code, out, _ = run_cli(capsys, "order", "0,-4,4", "2")
    assert code == 0
    assert out.strip() == "order=3"
    payload = run_json(capsys, "order", "x^2-x", "2", "--max", "10")
    assert payload["result"] == {"order": 1, "capped": False}


def test_order_answers_a_huge_max_at_once(capsys):
    start = time.perf_counter()
    payload = run_json(capsys, "order", "x^3-x", "3", "--max", "1000000000000")
    assert time.perf_counter() - start < 1.0
    assert payload["result"] == {"order": 1, "capped": False}


def test_order_of_a_long_f_clamped_to_one_folds(capsys):
    # v_p(100003!) = 1 clamps the order to 1, which the fold by x^p - x
    # answers; the transform mod p would take about 10^10 steps
    start = time.perf_counter()
    assert run_cli(capsys, "order", "x^100003-x", "100003") == (0, "order=1\n", "")
    assert time.perf_counter() - start < 1.0


def test_order_is_capped_only_when_the_cap_bounded_the_answer(capsys):
    # x^2 - x is null mod 2 but not mod 4: --max 1 is the answer, not a cap
    code, out, _ = run_cli(capsys, "order", "x^2-x", "2", "--max", "1")
    assert (code, out) == (0, "order=1\n")
    payload = run_json(capsys, "order", "x^2-x", "2", "--max", "1")
    assert payload["result"] == {"order": 1, "capped": False}
    # x^4 - 2x^3 + x^2 is null mod 4: --max 1 bounds it
    payload = run_json(capsys, "order", "x^4-2x^3+x^2", "2", "--max", "1")
    assert payload["result"] == {"order": 1, "capped": True}
    code, out, _ = run_cli(capsys, "order", "0", "2")
    assert (code, out) == (0, "order=64 (capped at --max 64)\n")
    assert run_json(capsys, "order", "x^2-x", "2", "--max", "0")["result"] == {"order": 0, "capped": True}
    code, out, err = run_cli(capsys, "order", "x^2-x", "2", "--max", "-1")
    assert (code, out, err) == (1, "", "error: --max must be >= 0\n")


@pytest.mark.parametrize("argv", [
    ("check-null", "x^99999999999999999999", "7"),
    ("reduce", "x^99999999999999999999+1", "7"),
    ("order", "x^99999999999999999999", "7"),
    ("equiv", "x", "x^99999999999999999999", "7"),
])
def test_an_exponent_no_list_can_index_is_refused(capsys, argv):
    # without the check, [0] * (degree + 1) raises OverflowError
    for flags in ((), ("--json",)):
        code, out, err = run_cli(capsys, *flags, *argv)
        assert (code, out, err) == (1, "", "error: degree 99999999999999999999 is too large for a coefficient list\n")


def test_construct_kempner_refuses_a_coefficient_too_long_to_print(capsys):
    # the coefficients' magnitudes sum to mu!, which is refused over the
    # 4300-digit limit before the mu linear factors are multiplied: mu = 2003
    # (2003! has 5746 digits) and mu = 1559, whose largest coefficient has
    # 4302 digits while (mu-1)! has 4300
    for p in (2003, 1559):  # mu(p) = p
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "construct", str(p), "1", "--family", "kempner")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (f"error: kempner(p={p}, d=1), whose coefficient magnitudes sum to {p}!, "
                       "has over 4300 decimal digits, the sys.get_int_max_str_digits() limit for printing\n")
    # mu(2^1553) = 1558 still answers: its largest coefficient has 4299 digits
    code, out, err = run_cli(capsys, "construct", "2", "1553", "--family", "kempner")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "verified: null (newton oracle)"


def test_exit_codes(capsys):
    # 0 answered, 1 refused input, 2 unreadable input, 3 failed result check
    assert run_cli(capsys, "omega", "8")[0] == 0
    code, _, err = run_cli(capsys, "check-null", "x^+oops", "8")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "omega", "1")
    assert code == 1
    code, _, err = run_cli(capsys, "construct", "4", "2")
    assert code == 1
    # p is checked before d, and before anything is built
    code, _, err = run_cli(capsys, "construct", "4", "0")
    assert (code, err) == (1, "error: 4 is not prime\n")
    code, _, err = run_cli(capsys, "order", "x", "4")
    assert (code, err) == (1, "error: 4 is not prime\n")
    code, _, err = run_cli(capsys, "crt", "x", "2", "x")
    assert code == 2
    # 3, a failed result check: test_a_failed_result_check_withholds_the_answer


# A result check per command, made to fail by patching the function its
# answer or its check comes from: (argv, module, name, patch of the real
# function, the error line's start).
FAILED_CHECKS = {
    "omega": (("omega", "12"), modulus, "omega1_composite", lambda real: lambda fm: real(fm) + 1,
              "omega1=5 is not the least t with 12 | t!"),
    "construct": (("construct", "2", "2"), oracle, "is_null_binomial", lambda real: lambda f, m: False,
                  "constructed polynomial failed the null oracle"),
    "enumerate": (("enumerate", "2", "2", "1"), oracle, "is_null_binomial", lambda real: lambda f, m: False,
                  "enumerated polynomial is not null: 0"),
    "check-null": (("check-null", "x^2-x", "2"), oracle, "null_witness", lambda real: lambda f, m: 0,
                   "oracle disagreement: {'eval': False, 'binomial': True}"),
    "equiv": (("equiv", "x", "x", "4"), oracle, "null_witness", lambda real: lambda f, m: 0,
              "canonical form disagrees with the evaluation window"),
    "reduce": (("reduce", "x", "7"), oracle, "null_witness", lambda real: lambda f, m: 0,
               "reduction changed the function at x=0"),
    "count": (("count", "3", "2", "2"), counting, "enumerate_null",
              lambda real: lambda p, d, n: iter(list(real(p, d, n))[1:]), "count 4 != enumerated 3"),
    "crt": (("crt", "x^2-x", "2^2", "x^3-x", "3"), modulus, "crt_combine_poly",
            lambda real: lambda parts: real(parts) + Polynomial((1,)),
            "combined polynomial not congruent mod 2^2"),
}


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("argv, module, name, patch, message", FAILED_CHECKS.values(), ids=list(FAILED_CHECKS))
def test_a_failed_result_check_withholds_the_answer(capsys, monkeypatch, flags, argv, module, name, patch, message):
    monkeypatch.setattr(module, name, patch(getattr(module, name)))
    code, out, err = run_cli(capsys, *flags, *argv)
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_json_polynomials_round_trip_everywhere(capsys):
    cases = [
        ("construct", "3", "2"),
        ("check-null", "x^3-3x^2+2x", "9"),
        ("reduce", "x^9+x", "4"),
        ("crt", "x^2-x", "2^2", "x^3-x", "3"),
    ]
    for argv in cases:
        payload = run_json(capsys, *argv)

        def walk(node):
            if isinstance(node, dict):
                if set(node) == {"coeffs", "human"}:
                    a = parse_polynomial(node["coeffs"])
                    b = parse_polynomial(node["human"])
                    assert a == b
                    assert isinstance(a, Polynomial)
                else:
                    for v in node.values():
                        walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(payload)


def test_check_null_eval_verdict_reads_the_complete_window(capsys):
    # null mod 2^20; the eval verdict needs deg f + 1 = 3 points, not 2^20
    payload = run_json(capsys, "check-null", "524288x^2-524288x", "1048576")
    assert payload["result"] == {"null": True, "witness": None}
    assert payload["trace"] == [["eval", True], ["binomial", True]]
    assert payload["verified"] is True
    payload = run_json(capsys, "check-null", "524288x^2-524288x+1", "1048576")
    assert payload["result"] == {"null": False, "witness": 0}
    assert payload["trace"] == [["eval", False], ["binomial", False]]
    payload = run_json(capsys, "check-null", "x^2", "1048576")
    assert payload["result"] == {"null": False, "witness": 1}
    assert payload["verified"] is True


SEMIPRIME = str((10 ** 9 + 7) * (10 ** 9 + 9))


def test_omega_of_a_semiprime_of_two_ten_digit_primes(capsys):
    payload = run_json(capsys, "omega", SEMIPRIME)
    assert payload["result"] == {"omega0": 10 ** 9 + 7, "omega1": 10 ** 9 + 9, "mu": 10 ** 9 + 9}
    assert payload["trace"] == [["factorization", "1000000007 * 1000000009"]]


def test_omega_of_a_strong_pseudoprime_to_the_first_twelve_primes(capsys):
    payload = run_json(capsys, "omega", str(399165290221 * 798330580441))
    assert payload["result"] == {"omega0": 399165290221, "omega1": 798330580441, "mu": 798330580441}


def test_omega_refuses_a_semiprime_of_two_primes_above_1e18(capsys):
    m = (10 ** 18 + 3) * (10 ** 18 + 9)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "omega", str(m))
    assert time.perf_counter() - start < 5.0
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot factor {m}: ") and err.count("\n") == 1


def test_reduce_and_equiv_refuse_the_semiprime_by_the_mu_limit(capsys):
    for argv in (("reduce", "x^2", SEMIPRIME), ("equiv", "x", "x^2", SEMIPRIME)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.strip() == f"error: mu({SEMIPRIME}) = {10 ** 9 + 9} exceeds the canonical-form limit 100000"


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_a_closed_stdout_exits_141_without_a_traceback():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in (("count", "3", "2", "2"), ("--json", "omega", "12"), ("enumerate", "7", "3", "1")):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the writer starts
        try:
            done = subprocess.run([sys.executable, "-m", "nullpoly.cli", *argv], stdout=write,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (141, b""), argv


def test_cli_import_loads_neither_dataclasses_nor_typing():
    # -S: no site hook, which may itself import typing; decimal is imported
    # only by the products that multiply through it
    code = ("import sys, nullpoly.cli; "
            "print(sorted({'dataclasses', 'decimal', 'typing'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_count_cross_check_at_a_huge_modulus_answers():
    # the enumeration rows scale by p^d / g without a 2d-bit product mod p^d;
    # 2^8000000 is just below polys._POWER_BITS, so the cross-check runs
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "nullpoly.cli", "count", "3", "2", "8000000", "--json"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["result"]["count"] == 4 and payload["verified"] is True


def test_count_past_the_power_limit_answers_unverified():
    # 3^99999999 is over polys._POWER_BITS: the count, 3, is answered, and
    # the enumeration cross-check, which would build 3^99999999, is skipped
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "nullpoly.cli", "count", "3", "3", "99999999", "--json"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 2.0
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["result"]["count"] == 3 and payload["verified"] is None


def test_crt_refuses_a_prime_power_too_large_to_build():
    # 2^99999999999 would be built before the parts are combined; the
    # product of the parts is sized before any part is built
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONINTMAXSTRDIGITS="4300")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "nullpoly.cli", "crt", "x", "2^99999999999", "x", "3"],
                          env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap)
    assert time.perf_counter() - start < 2.0
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == ("error: modulus 2^99999999999 * 3 has over 4300 decimal digits, "
                           "the sys.get_int_max_str_digits() limit for printing\n")


@pytest.mark.parametrize("argv, digits_off, modulus", [
    (("crt", "x", "2^20000", "x", "3"), False, "2^20000 * 3"),
    (("enumerate", "3", "2", "20000"), False, "2^20000"),
    (("enumerate", "3", "2", "99999999999"), False, "2^99999999999"),
    (("enumerate", "3", "2", "99999999999"), True, "2^99999999999"),
    (("crt", "x", "2^99999999999", "x", "3"), True, "2^99999999999 * 3"),
])
def test_a_modulus_too_long_to_print_is_refused_up_front(argv, digits_off, modulus):
    # without the refusal the first two fail after the work, when the answer
    # is printed, and the third builds 2**(10**11)
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONINTMAXSTRDIGITS="0" if digits_off else "4300")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "nullpoly.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap)
    assert time.perf_counter() - start < 2.0
    assert (done.returncode, done.stdout) == (1, "")
    if digits_off:
        assert done.stderr == f"error: modulus {modulus} has over {polys._POWER_BITS} bits, too large to build\n"
    else:
        assert done.stderr == (f"error: modulus {modulus} has over 4300 decimal digits, "
                               "the sys.get_int_max_str_digits() limit for printing\n")


def test_construct_kempner_refuses_a_basis_too_large_to_build():
    # with the int-to-str limit off, mu! = 1000003! has about 18.5 million
    # bits; without the refusal the million linear factors are multiplied,
    # still running after 5 s
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONINTMAXSTRDIGITS="0")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "nullpoly.cli", "construct", "1000003", "1", "--family", "kempner"],
                          env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap)
    assert time.perf_counter() - start < 2.0
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == ("error: kempner(p=1000003, d=1), whose coefficient magnitudes sum to 1000003!, "
                           f"has over {polys._POWER_BITS} bits, too large to build\n")


HUGE = str(10 ** 400)  # past the float range: d * log10(p) would overflow


def _run_capped(argv):
    """(exit code, stdout, stderr, seconds) of one CLI run under a 2 GiB
    address-space cap."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "nullpoly.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap)
    return done.returncode, done.stdout, done.stderr, time.perf_counter() - start


@pytest.mark.parametrize("argv", [
    ("enumerate", "3", "2", HUGE),
    ("crt", "x", f"2^{HUGE}", "x", "3"),
    ("construct", "2", HUGE, "--family", "kempner"),
    ("construct", "2", HUGE),
    ("construct", "2", HUGE, "--family", "G"),
], ids=["enumerate", "crt", "construct-kempner", "construct-H", "construct-G"])
def test_an_exponent_past_the_float_range_is_refused(argv):
    # each size check compares without turning the exponent into a float,
    # which raised OverflowError and ended in a traceback; construct's H and
    # G ended in a RecursionError, building one tower level a call
    code, out, err, seconds = _run_capped(argv)
    assert seconds < 2.0
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("argv, degree", [
    (("construct", "2", "100", "--family", "G"), "2^100"),
    (("construct", "2", "63", "--family", "G"), "2^63"),
    (("construct", "2", str(2 ** 63)), str(omega1_prime_power(2, 2 ** 63))),
], ids=["G-2^100", "G-2^63", "H-2^63"])
def test_a_construct_degree_no_list_can_hold_is_refused(argv, degree):
    # a degree of sys.maxsize (2**63 - 1) or more is refused before any tower
    # level is built; without the refusal G(2, 100) is built level by level,
    # and the run does not end
    code, out, err, seconds = _run_capped(argv)
    assert seconds < 2.0
    assert (code, out) == (1, "")
    assert err == f"error: degree {degree} is too large for a coefficient list\n"


@pytest.mark.parametrize("argv", [
    ("construct", "2", "62", "--family", "G"),
    ("construct", "2", "14", "--family", "G"),
    ("construct", "2", "100000"),
], ids=["G(2,62)", "G(2,14)", "H(2,100000)"])
def test_construct_refuses_coefficients_too_long_to_print(capsys, argv):
    # refused by a bound that is never below the coefficients, before the
    # tower is built; without it G(2, 62) runs without end and H(2, 100000)
    # for over 20 s
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    family = argv[4] if len(argv) > 3 else "H"
    assert err == (f"error: {family}(p=2, d={argv[2]}), by a bound on its coefficients, has over 4300 "
                   "decimal digits, the sys.get_int_max_str_digits() limit for printing\n")


# Sizes at and around every edge a size check compares against: the float
# range (10^400), sys.maxsize, the bit lengths of a word, and a prime past
# any float-exact product.
EDGE_INTS = [-1, 0, 1, 2, 3, 63, 64, 10 ** 6, sys.maxsize - 1, sys.maxsize, 10 ** 400]
EDGE_PRIMES = [2, 3, 4, 10 ** 22 + 9]


def _edge_grid():
    for p in EDGE_PRIMES:
        for d in EDGE_INTS:
            for family in ("G", "H", "kempner"):
                yield "construct", str(p), str(d), "--family", family
            yield "crt", "x", f"{p}^{d}", "x", "3"
            for n in EDGE_INTS:
                yield "count", str(n), str(p), str(d)
                yield "count", str(n), str(p), str(d), "--monic"
                yield "enumerate", str(n), str(p), str(d)


def test_every_size_on_the_edge_grid_answers_or_refuses_at_once(capsys):
    # each case answers, or exits 1 or 2 with one error line, within 1 s; an
    # alarm turns a run that does not end into a failure of its own case
    def stop(signum, frame):
        raise TimeoutError("still running after 5 s")

    failures = []
    previous = signal.signal(signal.SIGALRM, stop)
    try:
        for argv in _edge_grid():
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 5.0)
            try:
                code, out, err = run_cli(capsys, *argv)
            except BaseException as e:  # noqa: BLE001 - SystemExit and the alarm too
                failures.append((argv, f"raised {e!r}"))
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
            answered = code == 0 and out and not err
            refused = code in (1, 2) and not out and err.startswith("error: ") and err.count("\n") == 1
            if seconds >= 1.0 or not (answered or refused):
                failures.append((argv, code, err[:200], round(seconds, 2)))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert failures == []


@pytest.mark.parametrize("argv, count", [
    (("count", "3", "2", HUGE), 4),
    (("count", "10", "3", HUGE, "--monic"), 0),
    (("count", HUGE, "3", "2"), None),
], ids=["count-d", "count-monic-d", "count-n"])
def test_a_count_mod_a_power_past_the_float_range_is_answered(argv, count):
    # no count builds 2^d, 3^d or its own 3^E(n), so these are answered, as
    # with an exponent that fits a float, the last as its formula; the
    # enumeration cross-check is skipped
    code, out, err, seconds = _run_capped([*argv, "--json"])
    assert seconds < 2.0
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["result"]["count"] == count and payload["verified"] is None


def test_a_modulus_just_short_enough_to_print_is_answered(capsys):
    # 2^14282 * 3 has 4300 digits, 2^14283 * 3 has 4301
    code, out, err = run_cli(capsys, "crt", "x", "2^14282", "x", "3")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"modulus: {2 ** 14282 * 3}"
    code, out, err = run_cli(capsys, "crt", "x", "2^14283", "x", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error: modulus 2^14283 * 3 has over 4300 decimal digits")


def test_out_of_memory_is_one_error_line():
    # the dense coefficient list of x^400000000 exceeds a 2 GiB address space
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "nullpoly.cli", "check-null", "x^400000000", "5"],
                          env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", "error: out of memory\n")


# Exact stdout, stderr and exit code: one text and one --json run of every
# subcommand, and the three refusals the cli benchmark asks.
TEXT_RUNS = [
    (("omega", "12"), "omega0=2 omega1=4 mu=4\n"),
    (("construct", "2", "2"),
     "H(p=2, d=2) modulo 4:\npoly: x^4-2x^3+x^2\ncoeffs: 0,0,1,-2,1\ndegree: 4\ndigits: [2]\n"
     "verified: null (newton oracle)\n"),
    (("check-null", "x^2-x", "2"), "NULL (verified: eval, binomial)\n"),
    (("order", "x^2-x", "2"), "order=1\n"),
    (("equiv", "x^3", "x", "3"), "EQUIVALENT modulo 3\ncanonical(f): 0,1,0\ncanonical(g): 0,1,0\n"),
    (("reduce", "x^3", "4"), "reduced: x^3\ncoeffs: 0,0,0,1\ncanonical: 0,1,2,2\n"),
    (("count", "3", "2", "2"),
     "N_np(<=3, 2^2) = 4\n  modulus = 2^2\n  least_monic_degree = 4\n  count-exponent = 2\n  count = 4\n"),
    (("enumerate", "2", "2", "1"), "0\n0,1,1\n"),
    (("crt", "x", "2", "x^2", "3"), "modulus: 6\ncombined: 4x^2+3x\ncoeffs: 0,3,4\n"),
]

X2_MINUS_X = {"coeffs": "0,-1,1", "human": "x^2-x"}
X3 = {"coeffs": "0,0,0,1", "human": "x^3"}

JSON_RUNS = [
    (("omega", "12"), {
        "command": "omega", "inputs": {"m": 12}, "result": {"omega0": 2, "omega1": 4, "mu": 4},
        "trace": [["factorization", "2^2 * 3"]], "verified": True}),
    (("construct", "2", "2"), {
        "command": "construct", "inputs": {"p": 2, "d": 2, "family": "H"},
        "result": {"polynomial": {"coeffs": "0,0,1,-2,1", "human": "x^4-2x^3+x^2"},
                   "modulus": 4, "degree": 4, "digits": [2]},
        "trace": [["null test", "newton oracle"]], "verified": True}),
    (("check-null", "x^2-x", "2"), {
        "command": "check-null", "inputs": {"polynomial": X2_MINUS_X, "m": 2},
        "result": {"null": True, "witness": None},
        "trace": [["eval", True], ["binomial", True]], "verified": True}),
    (("order", "x^2-x", "2"), {
        "command": "order", "inputs": {"polynomial": X2_MINUS_X, "p": 2, "max": 64},
        "result": {"order": 1, "capped": False}, "trace": None, "verified": None}),
    (("equiv", "x^3", "x", "3"), {
        "command": "equiv", "inputs": {"f": X3, "g": {"coeffs": "0,1", "human": "x"}, "m": 3},
        "result": {"equivalent": True, "canonical_f": [0, 1, 0], "canonical_g": [0, 1, 0]},
        "trace": None, "verified": True}),
    (("reduce", "x^3", "4"), {
        "command": "reduce", "inputs": {"polynomial": X3, "m": 4},
        "result": {"reduced": X3, "canonical": [0, 1, 2, 2]}, "trace": None, "verified": True}),
    (("count", "3", "2", "2"), {
        "command": "count", "inputs": {"n": 3, "p": 2, "d": 2, "monic": False},
        "result": {"count": 4, "count_str": "4", "p_exponent": 2},
        "trace": [["modulus", "2^2"], ["least_monic_degree", "4"], ["count-exponent", "2"], ["count", "4"]],
        "verified": True}),
    (("enumerate", "2", "2", "1"), {
        "command": "enumerate", "inputs": {"n": 2, "p": 2, "d": 1, "limit": 10000},
        "result": {"count": 2, "polynomials": [{"coeffs": "0", "human": "0"},
                                               {"coeffs": "0,1,1", "human": "x^2+x"}]},
        "trace": None, "verified": True}),
    (("crt", "x", "2", "x^2", "3"), {
        "command": "crt",
        "inputs": {"parts": [{"polynomial": {"coeffs": "0,1", "human": "x"}, "prime_power": "2"},
                             {"polynomial": {"coeffs": "0,0,1", "human": "x^2"}, "prime_power": "3"}]},
        "result": {"modulus": 6, "combined": {"coeffs": "0,3,4", "human": "4x^2+3x"}},
        "trace": None, "verified": True}),
]

# by test id: the three the cli benchmark asks, and refusals no other run reaches
REFUSED_RUNS = {
    "count": (("count", "5", "4", "2"), 1, "error: 4 is not prime\n"),
    "check-null": (("check-null", "x^^3+1", "7"), 2, "error: bad polynomial text at '^^3+1'\n"),
    "enumerate": (("enumerate", "10", "2", "3", "--limit", "20"), 1,
                  "error: count 2^23 exceeds --limit 20; raise the limit to proceed\n"),
    "check-null-modulus": (("check-null", "x", "abc"), 2, "error: bad modulus: 'abc'\n"),
    "check-null-sign": (("check-null", "x x", "7"), 2, "error: missing +/- before 'x'\n"),
    "construct": (("construct", "2", "0"), 1, "error: d must be >= 1\n"),
}


def test_every_subcommand_has_a_rendering_case():
    names = {argv[0] for argv, _ in TEXT_RUNS}
    assert names == {argv[0] for argv, _ in JSON_RUNS} and len(names) == 9


@pytest.mark.parametrize("argv, out", TEXT_RUNS, ids=[argv[0] for argv, _ in TEXT_RUNS])
def test_text_rendering(capsys, argv, out):
    assert run_cli(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize("argv, payload", JSON_RUNS, ids=[argv[0] for argv, _ in JSON_RUNS])
def test_json_rendering(capsys, argv, payload):
    # dumps reproduces the key order of the literal and the two-space indent
    assert run_cli(capsys, "--json", *argv) == (0, json.dumps(payload, indent=2) + "\n", "")


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("argv, code, err", REFUSED_RUNS.values(), ids=list(REFUSED_RUNS))
def test_refusal_rendering(capsys, flags, argv, code, err):
    assert run_cli(capsys, *flags, *argv) == (code, "", err)


def _readme_examples():
    """(argv, exit code, quoted output lines) of every example in README's
    subcommand table (exit code 0) and exit-code table that is a command."""
    names = {argv[0] for argv, _ in TEXT_RUNS}
    examples = []
    for row in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", row)[1:-1]]
        if len(cells) != 3:
            continue
        if cells[0].isdigit():
            code, example = int(cells[0]), cells[2]
        elif cells[0].strip("`") in names:
            code, example = 0, cells[1]
        else:
            continue
        command, _, quoted = example.partition("→")
        argv = shlex.split("".join(re.findall(r"`([^`]*)`", command)))
        if argv and argv[0] in names:
            examples.append((argv, code, re.findall(r"`([^`]*)`", quoted)))
    return examples


def test_readme_examples_hold(capsys):
    examples = _readme_examples()
    assert {argv[0] for argv, code, _ in examples if code == 0} == {argv[0] for argv, _ in TEXT_RUNS}
    assert {code for _, code, _ in examples} == {0, 1, 2}
    for argv, code, quoted in examples:
        got, out, err = run_cli(capsys, *argv)
        lines = (out + err).splitlines()
        assert got == code and all(line in lines for line in quoted), (argv, out, err)


def test_readme_options_match_the_parser():
    # the --options a subcommand's row in README's table names are the
    # options its subparser takes, -h aside
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    rows = {}
    for row in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", row)[1:-1]]
        if len(cells) == 3 and cells[0].strip("`") in subparsers.choices:
            rows[cells[0].strip("`")] = set(re.findall(r"--[a-z][a-z-]*", row))
    assert set(rows) == set(subparsers.choices)
    for name, sub in subparsers.choices.items():
        options = {s for action in sub._actions for s in action.option_strings} - {"-h", "--help"}
        assert rows[name] == options, name
