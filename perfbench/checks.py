"""Correctness checks on the benchmark's own copy of fibsums outputs.

The checks read the rendered text a user would read, never the package's
in-memory objects, and recompute what they can by routes independent of the
code being timed. Each returns a list of ``(operation, problem)`` pairs; an
empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

PROVED = "as-proved"
PRINTED = "as-printed"


def check_verify(json_text: str, csv_text: str, expected: dict) -> list:
    """Summary reports of a sweep set.

    ``expected`` maps each swept entry id, in sweep order, to
    ``(grid_points, flagged)``. Every report must be verified over a grid of
    that size with at least one checked point; a flagged entry must resolve
    to its as-proved reading only; the CSV summary must agree with the JSON.
    """
    problems = []
    reports = json.loads(json_text)["reports"]
    if [r["identity"] for r in reports] != list(expected):
        problems.append(("render", "report ids differ from the swept entries"))
    for rep in reports:
        eid = rep["identity"]
        points, flagged = expected.get(eid, (None, False))
        if rep["verified"] is not True:
            problems.append((eid, "not verified"))
        if rep["failure_count"] != 0 or rep["failures"]:
            problems.append((eid, f"{rep['failure_count']} failing instances"))
        if rep["pass"] + rep["rejected"] != points:
            problems.append((eid, f"pass + rejected = {rep['pass'] + rep['rejected']}, "
                                  f"grid has {points} points"))
        if rep["pass"] <= 0:
            problems.append((eid, "no checked point: the verdict is vacuous"))
        if flagged:
            vp = rep["variant_pass"]
            if rep["primary_variant"] != PROVED or vp.get(PROVED) != rep["pass"] \
                    or vp.get(PRINTED, 0) >= rep["pass"]:
                problems.append((eid, f"flagged entry resolves to {vp}, "
                                      f"not to {PROVED} only"))
    rows = list(csv.reader(io.StringIO(csv_text)))
    csv_view = [(r[0], int(r[2]), int(r[3]), r[5]) for r in rows[1:]]
    json_view = [(r["identity"], r["pass"], r["rejected"], str(r["verified"]))
                 for r in reports]
    if csv_view != json_view:
        problems.append(("render", "CSV summary disagrees with the JSON report"))
    return problems


def witness_problem(divisor: str, dividend: str, quotient, residue) -> str | None:
    """Re-check one rendered witness: divisor * quotient == dividend, no residue."""
    if residue not in (None, ""):
        return f"residue {residue}"
    if quotient in (None, ""):
        return "no quotient"
    if int(divisor) * int(quotient) != int(dividend):
        return f"{divisor} * {quotient} != dividend"
    return None


def check_div(op: str, json_text: str, csv_text: str, params: tuple,
              points: int) -> list:
    """One ``div`` run rendered both ways; every witness row is re-checked."""
    problems = []
    rep = json.loads(json_text)["reports"][0]
    if rep["verified"] is not True or rep["failure_count"] != 0:
        problems.append((op, "not verified"))
    if rep["pass"] + rep["rejected"] != points:
        problems.append((op, f"pass + rejected != {points} grid points"))
    rows = rep.get("rows", [])
    if len(rows) != rep["pass"] + rep["failure_count"] or not rows:
        problems.append((op, f"{len(rows)} witness rows for {rep['pass']} checked points"))
    json_view = []
    for row in rows:
        head = [row["bindings"].get(p, "") for p in params]
        for w in row["witnesses"]:
            bad = witness_problem(w["divisor"], w["dividend"], w["quotient"], w["residue"])
            if bad:
                problems.append((op, f"json witness {w['label']} at {head}: {bad}"))
            json_view.append((*head, w["label"], w["divisor"], w["dividend"],
                              w["quotient"] or "", w["residue"] or ""))
    table = list(csv.reader(io.StringIO(csv_text)))
    if not table or table[0] != [*params, "label", "divisor", "dividend",
                                 "quotient", "residue"]:
        problems.append((op, "unexpected CSV header"))
        return problems
    n = len(params)
    for r in table[1:]:
        bad = witness_problem(r[n + 1], r[n + 2], r[n + 3], r[n + 4])
        if bad:
            problems.append((op, f"csv witness {r[n]} at {r[:n]}: {bad}"))
    if [tuple(r) for r in table[1:]] != json_view:
        problems.append((op, "CSV witness table disagrees with the JSON rows"))
    return problems


# ---------------------------------------------------------------------------
# sequence terms by Lucas-sequence doubling (the package uses fast doubling
# for F/L and 2x2 matrix powers for Horadam terms)
# ---------------------------------------------------------------------------

def _u_pair(p: int, q: int, n: int) -> tuple:
    """(U_n, U_(n+1)) of the Lucas sequence U(p, q), n >= 0."""
    u0, u1 = 0, 1
    for bit in bin(n)[2:]:
        u0, u1 = u0 * (2 * u1 - p * u0), u1 * u1 - q * u0 * u0
        if bit == "1":
            u0, u1 = u1, p * u1 - q * u0
    return u0, u1


def reference_w(a: int, b: int, p: int, q: int, n: int):
    """w_n(a, b; p, q) = a U_(n+1) + (b - a p) U_n.

    Below zero, y_k = q^k w_(-k) obeys the same recurrence from seeds
    (a, p a - b), so w_(-k) = y_k / q^k.
    """
    if n >= 0:
        un, un1 = _u_pair(p, q, n)
        return a * un1 + (b - a * p) * un
    y = reference_w(a, p * a - b, p, q, -n)
    value = Fraction(y, q ** -n)
    return value.numerator if value.denominator == 1 else value


def check_terms(terms: list, values: list) -> list:
    """``terms`` are (family, (a, b, p, q), n); values what the package returned."""
    problems = []
    for (family, params, n), value in zip(terms, values):
        if value != reference_w(*params, n):
            problems.append((f"term {family}({params}, {n})", "differs from the reference"))
    return problems
