"""Acceptance suite: one test per acceptance criterion.

Each test prints exactly one ``criterion N [PASS|FAIL]: ...`` line (visible
with ``pytest -s``) and then asserts it, so a FAIL also fails the run. The
full-catalog sweep (criterion 1) dominates the suite's runtime.
"""

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from conftest import run_main

from fibsums.identities import (ENTRIES, Context, evaluate_entry, get_entry,
                                sweep)
from fibsums.polynomials import cheb_T, cheb_U, poly_add, poly_eval, poly_mul
from fibsums.scalars import make_roots
from fibsums.sequences import (HoradamParams, fib, horadam_w, lucas_u,
                               lucas_v, neg_one, pell, pell_lucas)

FLAGGED = {"I10", "I11", "I16", "I17", "H10"}


def _criterion(num: int, description: str, ok: bool):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{verdict}]: {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def full_sweep(verify_all):
    code, out = verify_all
    return code, json.loads(out)


def test_criterion_1(full_sweep):
    code, doc = full_sweep
    reports = doc["reports"]
    by_id = {rep["identity"]: rep for rep in reports}

    all_verified = (code == 0 and len(reports) == 62
                    and all(rep["verified"] for rep in reports)
                    and all(rep["failure_count"] == 0 for rep in reports))

    # flagged entries must single out exactly one fully-verifying reading
    flag_ok = True
    for entry_id in FLAGGED:
        rep = by_id[entry_id]
        full = [v for v, count in rep["variant_pass"].items()
                if count == rep["pass"]]
        flag_ok = flag_ok and len(full) == 1 and full == ["as-proved"]

    # default grids carry the mandated ranges (spot-checked per group)
    def axis_values(rep, name):
        for ax in rep["grid"]:
            if ax["params"] == [name]:
                return [v for (v,) in ax["values"]]
        return None

    signed_13 = [str(k) for k in range(-6, 7)]
    nonzero_pq = [str(k) for k in range(-4, 5) if k != 0]
    grids_ok = (axis_values(by_id["I07"], "r") == signed_13
                and axis_values(by_id["I07"], "n") == [str(k) for k in range(11)]
                and axis_values(by_id["I16"], "t") == signed_13
                and axis_values(by_id["P01"], "n") == [str(k) for k in range(16)]
                and axis_values(by_id["P04"], "r") == [str(k) for k in range(1, 7)]
                and axis_values(by_id["H02"], "p") == nonzero_pq
                and axis_values(by_id["H02"], "q") == nonzero_pq
                and axis_values(by_id["H02"], "n") == [str(k) for k in range(7)])

    checked = sum(rep["pass"] for rep in reports)
    rejected = sum(rep["rejected"] for rep in reports)
    _criterion(
        1, f"verify --all exits 0 with 62/62 entries verified "
           f"({checked} instances checked, {rejected} domain rejections, "
           f"flagged entries resolve to exactly one reading)",
        all_verified and flag_ok and grids_ok)


def test_criterion_2():
    ctx = Context()
    ok = True
    total = 0
    for entry_id in ("H02", "H08", "H09"):
        nonzero = []

        def check(ev, nonzero=nonzero):
            if any(side.value != 0 for side in ev.sides):
                nonzero.append(ev.bindings)

        rep = sweep(get_entry(entry_id), None, ctx, on_result=check)
        ok = ok and rep.verified and rep.checked > 0 and not nonzero
        total += rep.checked
    _criterion(
        2, f"vanishing sums evaluate to exactly zero at all {total} grid "
           f"points of H02, H08, H09", ok)


def test_criterion_3():
    ctx = Context()
    sound = True
    total = 0
    for entry in ENTRIES:
        if entry.kind != "divisibility":
            continue
        bad = []

        def check(ev, bad=bad):
            for w in ev.witnesses:
                if not (w.ok and w.residue is None
                        and w.divisor * w.quotient == w.dividend):
                    bad.append((ev.bindings, w))

        rep = sweep(entry, None, ctx, on_result=check)
        total += rep.checked
        sound = sound and rep.verified and rep.checked > 0 and not bad

    (w1,) = evaluate_entry(get_entry("D01"), {"r": 3, "m": 3}).witnesses
    (w2,) = evaluate_entry(get_entry("D06"), {"n": 3}).witnesses
    (w3,) = evaluate_entry(get_entry("D21"),
                           {"p": 1, "q": -1, "r": 2, "n": 4}).witnesses
    spots = ((w1.divisor, w1.dividend, w1.quotient) == (2, 34, 17)
             and (w2.divisor, w2.dividend, w2.quotient) == (5, 110, 22)
             and (w3.divisor, w3.dividend, w3.quotient) == (3, 21, 7))

    _criterion(
        3, f"all 22 divisibility entries produce valid quotient witnesses at "
           f"every admissible grid point ({total} points) and the frozen "
           f"spot quotients 17, 22, 7 match", sound and spots)


def test_criterion_4():
    rng = random.Random(20260819)
    span = 200
    mismatches = 0
    tuples = 0
    while tuples < 50:
        a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        p, q = rng.randint(-6, 6), rng.randint(-6, 6)
        if p == 0 or q == 0:
            continue
        tuples += 1
        # independent oracle: one plain recurrence step per index
        vals = {0: Fraction(a), 1: Fraction(b)}
        for k in range(1, span):
            vals[k + 1] = p * vals[k] - q * vals[k - 1]
        for k in range(0, -span, -1):
            vals[k - 1] = (p * vals[k] - vals[k + 1]) / q
        params = HoradamParams(a, b, p, q)
        for n in range(-span, span + 1):
            if horadam_w(params, n) != vals[n]:
                mismatches += 1

    binet_ok = True
    pairs = [(1, -1), (3, 2), (2, -1), (1, 1), (-2, -3), (4, 1)]
    while len(pairs) < 12:
        p, q = rng.randint(-6, 6), rng.randint(-6, 6)
        if p == 0 or q == 0 or p * p == 4 * q or (p, q) in pairs:
            continue
        pairs.append((p, q))
    for p, q in pairs:
        tau, sigma, delta = make_roots(p, q)
        for n in range(-30, 31):
            tn, sn = tau ** n, sigma ** n
            if delta * lucas_u(p, q, n) != tn - sn \
                    or lucas_v(p, q, n) != tn + sn:
                binet_ok = False

    _criterion(
        4, "fast-path sequence values equal the naive recurrence for "
           "|n| <= 200 over 50 random tuples, and the Binet forms hold "
           "for |n| <= 30 over 12 parameter pairs",
        tuples == 50 and mismatches == 0 and binet_ok)


def test_criterion_5():
    ctx = Context()
    ok = True

    # generalized weighted sum at (p, q) = (1, -1) against classic values
    for a0, b0 in ((0, 1), (2, 1)):
        def classic(k):
            return a0 * fib(k - 1) + b0 * fib(k)

        for r, t, n in itertools.product((1, 2, 3, -2), (-2, 0, 1, 3),
                                         (0, 1, 2, 4)):
            ev = evaluate_entry(
                get_entry("H01"), {"p": 1, "q": -1, "a": a0, "b": b0,
                                   "r": r, "t": t, "n": n}, ctx)
            left = sum(neg_one(r * j) * classic(r * (n - 2 * j) + t)
                       for j in range(n + 1))
            ok = ok and ev.ok and all(s.value == left for s in ev.sides)

    # polynomial identity at x = 1 against the numeric Fibonacci entry
    for n in range(11):
        closed = evaluate_entry(get_entry("I07"), {"r": 1, "n": n},
                                ctx).sides[-1].value
        for side in evaluate_entry(get_entry("P01"), {"n": n}, ctx).sides:
            ok = ok and poly_eval(side.value, 1) == closed

    # Pell specialization against the Pell fast path
    for n in range(13):
        expected_left = sum(neg_one(j) * pell_lucas(n - 2 * j)
                            for j in range(n + 1))
        ev = evaluate_entry(get_entry("P02"), {"n": n}, ctx)
        values = [s.value for s in ev.sides]
        ok = ok and ev.ok and values[0] == expected_left \
            and values[-1] == 2 * pell(n + 1)

    _criterion(
        5, "specializations cohere: the Horadam sum at (0,1;1,-1) and "
           "(2,1;1,-1) matches classic values pointwise, P01 at x=1 matches "
           "I07 at r=1, and P02 matches Pell values", ok)


def test_criterion_6():
    ok = True
    for n in range(21):
        first = ()
        for j in range(n + 1):
            first = poly_add(first, cheb_T(n - 2 * j))
        second = ()
        for j in range(n + 1):
            shift = (0,) * j + (1,)               # x^j
            second = poly_add(second, poly_mul(shift, cheb_T(n - j)))
        ok = ok and first == second == cheb_U(n)
    _criterion(
        6, "sum of T_(n-2j) and the x^j-weighted T sum both equal U_n as "
           "canonical polynomials for 0 <= n <= 20", ok)


def test_criterion_7():
    def run_twice_subprocess(argv):
        outs = [subprocess.run([sys.executable, "-m", "fibsums.cli", *argv],
                               capture_output=True, check=False)
                for _ in range(2)]
        return (outs[0].stdout == outs[1].stdout
                and outs[0].returncode == outs[1].returncode == 0
                and outs[0].stdout)

    def run_twice_inprocess(argv):
        first = run_main(argv)
        second = run_main(argv)
        return first == second and first[0] == 0

    ok = (bool(run_twice_subprocess(["verify", "I08"]))
          and run_twice_inprocess(["div", "D16", "--r=1..2", "--k=0..1",
                                   "--s=0..1", "--n=0..2"])
          and run_twice_inprocess(["catalog", "--format", "json"]))
    _criterion(
        7, "repeated runs of verify, div, and catalog emit byte-identical "
           "JSON", ok)
