"""Catalog entries D01-D22: divisibility corollaries with explicit witnesses.

Every entry produces Witness records (divisor, dividend, quotient, residue)
via exact integer division, so a verified report doubles as a table of
certificates: divisor * quotient == dividend with residue 0. Where a
dividend is the closed-form numerator of an I-catalog identity, the entry
calls the numerator function that identity calls (from entries_common)
instead of re-typing the expression.
"""

from __future__ import annotations

from fractions import Fraction

from ..sequences import neg_one
from .engine import Entry, Guard, Outcome, Side, axis, irange, joint, make_witness
from .entries_common import (GUARD_F_KR_KS, GUARD_I10_DEN, GUARD_I16_DEN,
                             GUARD_M_ODD_POSITIVE, GUARD_N, GUARD_PQ,
                             GUARD_R_NONZERO, GUARD_R_POSITIVE, GUARD_T,
                             GUARD_UR, GUARD_VR, PQ_AXES, R_N_AXES, SEED_PANEL,
                             _i10_den, _i10_num, _i11_num, _i12_num, _i13_num,
                             _i14_num, _i16_den, _i16_num, _i17_num, _i18_num)


def _d01(ctx, b):
    F = ctx.fib()
    r, m = b["r"], b["m"]
    return Outcome(witnesses=[make_witness("F_r | F_(mr)", F(r), F(m * r))])


D01 = Entry(
    id="D01", kind="divisibility",
    statement="F_r divides F_(mr)",
    params=("r", "m"), domain="r != 0; any integer m",
    guards=(GUARD_R_NONZERO,), evaluate=_d01,
    grid=(axis("r", irange(-6, 6)), axis("m", irange(-6, 6))),
)


def _d02(ctx, b):
    L = ctx.luc()
    r, m = b["r"], b["m"]
    return Outcome(witnesses=[make_witness("L_r | L_(mr)", L(r), L(m * r))])


D02 = Entry(
    id="D02", kind="divisibility",
    statement="L_r divides L_(mr) for odd m",
    params=("r", "m"), domain="any integer r; odd m",
    guards=(Guard("m odd", ("m",), lambda ctx, b: b["m"] % 2 != 0),),
    evaluate=_d02,
    grid=(axis("r", irange(-6, 6)), axis("m", [-5, -3, -1, 1, 3, 5])),
)


def _d03(ctx, b):
    F, L = ctx.fib(), ctx.luc()
    r, m = b["r"], b["m"]
    return Outcome(witnesses=[make_witness("L_r | F_(mr)", L(r), F(m * r))])


D03 = Entry(
    id="D03", kind="divisibility",
    statement="L_r divides F_(mr) for even m",
    params=("r", "m"), domain="any integer r; even m",
    guards=(Guard("m even", ("m",), lambda ctx, b: b["m"] % 2 == 0),),
    evaluate=_d03,
    grid=(axis("r", irange(-6, 6)), axis("m", [-6, -4, -2, 0, 2, 4, 6])),
)


# D04/D05: the closed-form numerators behind the corrected convolution sums
# are divisible by their denominator F_r^2 + F_r F_(r-1) - F_(r-1)^2.

def _d04(ctx, b):
    return Outcome(witnesses=[
        make_witness("denominator | Lucas-weighted numerator",
                     _i10_den(ctx, b), _i10_num(ctx, b))])


D04 = Entry(
    id="D04", kind="divisibility",
    statement="F_r^2 + F_r F_(r-1) - F_(r-1)^2 divides F_r^(n+2) L_n "
              "+ F_(r-1) F_r^(n+1) L_(n+1) + F_r F_(r-1)^(n+1) - 2 F_(r-1)^(n+2)",
    params=("r", "n"), domain="divisor != 0; n >= 0",
    guards=(GUARD_N, GUARD_I10_DEN), evaluate=_d04,
    grid=R_N_AXES,
)


def _d05(ctx, b):
    return Outcome(witnesses=[
        make_witness("denominator | Fibonacci-weighted numerator",
                     _i10_den(ctx, b), _i11_num(ctx, b))])


D05 = Entry(
    id="D05", kind="divisibility",
    statement="F_r^2 + F_r F_(r-1) - F_(r-1)^2 divides F_r^(n+2) F_n "
              "+ F_(r-1) F_r^(n+1) F_(n+1) - F_r F_(r-1)^(n+1)",
    params=("r", "n"), domain="divisor != 0; n >= 0",
    guards=(GUARD_N, GUARD_I10_DEN), evaluate=_d05,
    grid=R_N_AXES,
)


def _d06(ctx, b):
    L = ctx.luc()
    n = b["n"]
    return Outcome(witnesses=[
        make_witness("5 | 2^(n+1) L_(n+1) - 2", 5, 2 ** (n + 1) * L(n + 1) - 2)])


D06 = Entry(
    id="D06", kind="divisibility",
    statement="5 divides 2^(n+1) L_(n+1) - 2",
    params=("n",), domain="n >= 0",
    guards=(GUARD_N,), evaluate=_d06, grid=(axis("n", irange(0, 12)),),
)


def _d07(ctx, b):
    F, L = ctx.fib(), ctx.luc()
    n = b["n"]
    val = 3 ** (n + 1) * (F(n + 2) + L(n + 1)) - 3 * 2 ** (n + 1)
    return Outcome(witnesses=[
        make_witness("11 | 3^(n+1) (F_(n+2) + L_(n+1)) - 3 * 2^(n+1)", 11, val)])


D07 = Entry(
    id="D07", kind="divisibility",
    statement="11 divides 3^(n+1) (F_(n+2) + L_(n+1)) - 3 * 2^(n+1)",
    params=("n",), domain="n >= 0",
    guards=(GUARD_N,), evaluate=_d07, grid=(axis("n", irange(0, 12)),),
)


def _d08(ctx, b):
    F, L = ctx.fib(), ctx.luc()
    n = b["n"]
    val = 3 ** (n + 1) * (L(n + 2) + 5 * F(n + 1)) - 2 ** (n + 1)
    return Outcome(witnesses=[
        make_witness("11 | 3^(n+1) (L_(n+2) + 5 F_(n+1)) - 2^(n+1)", 11, val)])


D08 = Entry(
    id="D08", kind="divisibility",
    statement="11 divides 3^(n+1) (L_(n+2) + 5 F_(n+1)) - 2^(n+1)",
    params=("n",), domain="n >= 0",
    guards=(GUARD_N,), evaluate=_d08, grid=(axis("n", irange(0, 12)),),
)


def _d09(ctx, b):
    F = ctx.fib()
    return Outcome(witnesses=[make_witness("5 F_r^2 | alternating F-combination",
                                           5 * F(b["r"]) ** 2, _i13_num(ctx, b))])


D09 = Entry(
    id="D09", kind="divisibility",
    statement="5 F_r^2 divides (-1)^(r+1) F_(2r(n+1)) + (-1)^(r(n+1)) F_(2r) + F_(2rn)",
    params=("r", "n"), domain="r != 0; n >= 0",
    guards=(GUARD_N, GUARD_R_NONZERO), evaluate=_d09,
    grid=R_N_AXES,
)


def _d10(ctx, b):
    L = ctx.luc()
    n = b["n"]
    return Outcome(witnesses=[
        make_witness("5 | L_(2n+1) + (-1)^(n+1)", 5, L(2 * n + 1) + neg_one(n + 1))])


D10 = Entry(
    id="D10", kind="divisibility",
    statement="5 divides L_(2n+1) + (-1)^(n+1)",
    params=("n",), domain="n >= 0",
    guards=(GUARD_N,), evaluate=_d10, grid=(axis("n", irange(0, 12)),),
)


def _d11(ctx, b):
    F, L = ctx.fib(), ctx.luc()
    r, n = b["r"], b["n"]
    combo = _i12_num(ctx, b)
    decomp = (neg_one(r + 1) * 5 * F(r) * F(2 * r * n + r)
              - neg_one(r * (n + 1)) * 5 * F(r) ** 2)
    return Outcome(
        sides=[Side("alternating L-combination", combo, group="decomposition"),
               Side("5 F_r (F-product form)", decomp, group="decomposition")],
        witnesses=[make_witness("5 F_r^2 | alternating L-combination",
                                5 * F(r) ** 2, combo),
                   make_witness("F_r | F_(r(2n+1))", F(r), F(r * (2 * n + 1)))],
    )


D11 = Entry(
    id="D11", kind="divisibility",
    statement="(-1)^(r+1) L_(2r(n+1)) - (-1)^(r(n+1)) L_(2r) + L_(2rn) + 2 (-1)^(rn) "
              "= 5 F_r ((-1)^(r+1) F_(r(2n+1)) - (-1)^(r(n+1)) F_r), "
              "hence 5 F_r^2 divides it (using F_r | F_(r(2n+1)))",
    params=("r", "n"), domain="r != 0; n >= 0",
    guards=(GUARD_N, GUARD_R_NONZERO), evaluate=_d11,
    grid=R_N_AXES,
)


def _d12(ctx, b):
    F = ctx.fib()
    return Outcome(witnesses=[
        make_witness("5 F_r^2 | L_(2r)^(n+1) - 2^(n+1)",
                     5 * F(b["r"]) ** 2, _i14_num(ctx, b))])


D12 = Entry(
    id="D12", kind="divisibility",
    statement="for even r: 5 F_r^2 divides L_(2r)^(n+1) - 2^(n+1)",
    params=("r", "n"), domain="r even, r != 0; n >= 0",
    guards=(GUARD_N,
            Guard("r even and r != 0", ("r",),
                  lambda ctx, b: b["r"] % 2 == 0 and b["r"] != 0)),
    evaluate=_d12,
    grid=(axis("r", [-6, -4, -2, 2, 4, 6]), axis("n", irange(0, 10))),
)


def _d13(ctx, b):
    L = ctx.luc()
    return Outcome(witnesses=[
        make_witness("L_r^2 | L_(2r)^(n+1) - 2^(n+1)",
                     L(b["r"]) ** 2, _i14_num(ctx, b))])


D13 = Entry(
    id="D13", kind="divisibility",
    statement="for odd r: L_r^2 divides L_(2r)^(n+1) - 2^(n+1)",
    params=("r", "n"), domain="r odd; n >= 0",
    guards=(GUARD_N, Guard("r odd", ("r",), lambda ctx, b: b["r"] % 2 != 0)),
    evaluate=_d13,
    grid=(axis("r", [-5, -3, -1, 1, 3, 5]), axis("n", irange(0, 10))),
)


# D14/D15: the Lucas-pair closed-form numerators are divisible by
# L_(r-2) L_(r+1) + L_r L_(r-1); at (r, t) = (2, 0) the divisor is 11 and
# the dividend collapses to the displayed mod-11 particular.

def _lucas_pair(ctx, b, label, num, display, particular):
    """Witness den | num; at (r, t) = (2, 0) also match the displayed particular."""
    out = Outcome(witnesses=[make_witness(label, _i16_den(ctx, b), num)])
    if (b["r"], b["t"]) == (2, 0):
        part = particular(ctx.fib(), ctx.luc(), b["n"])
        out.sides.extend([
            Side(f"displayed particular {display}", part, group="mod-11 particular"),
            Side("numerator at (r, t) = (2, 0)", num, group="mod-11 particular"),
        ])
        out.witnesses.append(make_witness(f"11 | {display}", 11, part))
    return out


def _d14(ctx, b):
    return _lucas_pair(
        ctx, b, "denominator | Lucas-pair L-numerator", _i16_num(ctx, b),
        "3^(2n+1) (L_(2n) + 5 F_(2n+1)) + 1",
        lambda F, L, n: 3 ** (2 * n + 1) * (L(2 * n) + 5 * F(2 * n + 1)) + 1)


D14 = Entry(
    id="D14", kind="divisibility",
    statement="L_(r-2) L_(r+1) + L_r L_(r-1) divides L_r^(2n+1) (L_r L_(2n+t) "
              "+ L_(r-1) L_(2n+t+1)) - L_(r-1)^(2n+1) (L_r L_(t-1) + L_(r-1) L_t); "
              "at (r, t) = (2, 0): 11 | 3^(2n+1) (L_(2n) + 5 F_(2n+1)) + 1",
    params=("r", "t", "n"), domain="divisor != 0; n >= 0",
    guards=(GUARD_N, GUARD_I16_DEN), evaluate=_d14,
    grid=(axis("r", irange(-6, 6)), axis("t", irange(-6, 6)),
          axis("n", irange(0, 10))),
)


def _d15(ctx, b):
    return _lucas_pair(
        ctx, b, "denominator | Lucas-pair F-numerator", _i17_num(ctx, b),
        "3^(2n+1) (F_(2n) + L_(2n+1)) - 3",
        lambda F, L, n: 3 ** (2 * n + 1) * (F(2 * n) + L(2 * n + 1)) - 3)


D15 = Entry(
    id="D15", kind="divisibility",
    statement="L_(r-2) L_(r+1) + L_r L_(r-1) divides L_r^(2n+1) (L_r F_(2n+t) "
              "+ L_(r-1) F_(2n+t+1)) - L_(r-1)^(2n+1) (L_r F_(t-1) + L_(r-1) F_t); "
              "at (r, t) = (2, 0): 11 | 3^(2n+1) (F_(2n) + L_(2n+1)) - 3",
    params=("r", "t", "n"), domain="divisor != 0; n >= 0",
    guards=(GUARD_N, GUARD_I16_DEN), evaluate=_d15,
    grid=(axis("r", irange(-6, 6)), axis("t", irange(-6, 6)),
          axis("n", irange(0, 10))),
)


def _d16(ctx, b):
    F = ctx.fib()
    r, k, s = b["r"], b["k"], b["s"]
    return Outcome(witnesses=[
        make_witness("5 F_(k+r) F_(k+s) | L-power difference",
                     5 * F(k + r) * F(k + s), _i18_num(ctx, b))])


D16 = Entry(
    id="D16", kind="divisibility",
    statement="5 F_(k+r) F_(k+s) divides L_(2k+r+s)^(n+1) "
              "- (-1)^((k+s)(n+1)) L_(r-s)^(n+1)",
    params=("r", "k", "s", "n"), domain="F_(k+r) F_(k+s) != 0; n >= 0",
    guards=(GUARD_N, GUARD_F_KR_KS), evaluate=_d16,
    grid=(axis("r", irange(-6, 6)), axis("k", irange(-6, 6)),
          axis("s", irange(-6, 6)), axis("n", irange(0, 10))),
)


def _d17(ctx, b):
    # the D16 dividend at s = r, where L_(r-s) = L_0 = 2
    F = ctx.fib()
    r, k = b["r"], b["k"]
    return Outcome(witnesses=[
        make_witness("5 F_(k+r)^2 | L_(2(k+r))^(n+1) - (-1)^((k+r)(n+1)) 2^(n+1)",
                     5 * F(k + r) ** 2, _i18_num(ctx, dict(b, s=r)))])


D17 = Entry(
    id="D17", kind="divisibility",
    statement="5 F_(k+r)^2 divides L_(2(k+r))^(n+1) - (-1)^((k+r)(n+1)) 2^(n+1)",
    params=("r", "k", "n"), domain="k + r != 0; n >= 0",
    guards=(GUARD_N,
            Guard("F_(k+r) != 0", ("r", "k"),
                  lambda ctx, b: b["k"] + b["r"] != 0)),
    evaluate=_d17,
    grid=(axis("r", irange(-6, 6)), axis("k", irange(-6, 6)),
          axis("n", irange(0, 10))),
)


def _d18(ctx, b):
    F, L = ctx.fib(), ctx.luc()
    m, r, n = b["m"], b["r"], b["n"]
    div = F(m) ** n * L(m) * F(r * m)
    val = F(m * (r + 1)) ** (n + 1) - F(m * (r - 1)) ** (n + 1)
    return Outcome(witnesses=[
        make_witness("F_m^n L_m F_(rm) | F_(m(r+1))^(n+1) - F_(m(r-1))^(n+1)",
                     div, val)])


D18 = Entry(
    id="D18", kind="divisibility",
    statement="for odd m: F_m^n L_m F_(rm) divides F_(m(r+1))^(n+1) - F_(m(r-1))^(n+1)",
    params=("m", "r", "n"), domain="m odd, m >= 1; r >= 1; n >= 0",
    guards=(GUARD_N,
            GUARD_M_ODD_POSITIVE, GUARD_R_POSITIVE),
    evaluate=_d18,
    grid=(axis("m", [1, 3, 5]), axis("r", irange(1, 6)), axis("n", irange(0, 10))),
)


def _d19(ctx, b):
    F, L = ctx.fib(), ctx.luc()
    m, r, n = b["m"], b["r"], b["n"]
    div = F(m) ** n * L(m) * F(r * m)
    val = F(m * (r + 1)) ** (n + 1) + neg_one(n) * F(m * (r - 1)) ** (n + 1)
    return Outcome(witnesses=[
        make_witness("F_m^n L_m F_(rm) | F_(m(r+1))^(n+1) + (-1)^n F_(m(r-1))^(n+1)",
                     div, val)])


D19 = Entry(
    id="D19", kind="divisibility",
    statement="for even m: F_m^n L_m F_(rm) divides F_(m(r+1))^(n+1) "
              "+ (-1)^n F_(m(r-1))^(n+1)",
    params=("m", "r", "n"), domain="m even, m >= 2; r >= 1; n >= 0",
    guards=(GUARD_N,
            Guard("m even and m >= 2", ("m",),
                  lambda ctx, b: b["m"] % 2 == 0 and b["m"] >= 2),
            GUARD_R_POSITIVE),
    evaluate=_d19,
    grid=(axis("m", [2, 4, 6]), axis("r", irange(1, 6)), axis("n", irange(0, 10))),
)


def _d20(ctx, b):
    u = ctx.u(b["p"], b["q"])
    r, n = b["r"], b["n"]
    return Outcome(witnesses=[
        make_witness("u_r | u_(r(n+1))", u(r), u(r * (n + 1)))])


def _d20_integral(ctx, b):
    u = ctx.u(b["p"], b["q"])
    ur, urn = u(b["r"]), u(b["r"] * (b["n"] + 1))
    return (ur == int(ur) if isinstance(ur, Fraction) else True) and \
        (urn == int(urn) if isinstance(urn, Fraction) else True)


D20 = Entry(
    id="D20", kind="divisibility",
    statement="u_r divides u_(r(n+1)) in the generalized sequence",
    params=("p", "q", "r", "n"),
    domain="p, q != 0; u_r != 0; both values integral; n >= 0",
    guards=(GUARD_N, GUARD_PQ, GUARD_UR,
            Guard("u_r and u_(r(n+1)) are integers", ("p", "q", "r", "n"),
                  _d20_integral)),
    evaluate=_d20,
    grid=(*PQ_AXES, axis("r", irange(-4, 4)), axis("n", irange(0, 6))),
)


def _d21(ctx, b):
    p, q, r = b["p"], b["q"], b["r"]
    u, v = ctx.u(p, q), ctx.v(p, q)
    wits = []
    if "m" in b:
        wits.append(make_witness("v_r | v_(rm)", v(r), v(r * b["m"])))
    if all(k in b for k in ("a", "b", "t", "n")):
        w = ctx.table(b["a"], b["b"], p, q)
        t, n = b["t"], b["n"]
        wits.append(make_witness("v_r | w_(t+rn) - q^(rn) w_(t-rn)", v(r),
                                 w(t + r * n) - q ** (r * n) * w(t - r * n)))
    if "n" in b:
        wits.append(make_witness("v_r | u_(rn)", v(r), u(r * b["n"])))
    return Outcome(witnesses=wits)


D21 = Entry(
    id="D21", kind="divisibility",
    statement="v_r divides v_(rm) for odd m; v_r divides w_(t+rn) - q^(rn) w_(t-rn) "
              "and in particular u_(rn) for even n",
    params=("p", "q", "a", "b", "r", "m", "t", "n"),
    domain="p, q != 0; v_r != 0; r >= 0; m odd >= 1; t >= 0; n even >= 2",
    guards=(GUARD_PQ, GUARD_VR,
            Guard("r >= 0", ("r",), lambda ctx, b: b["r"] >= 0),
            GUARD_M_ODD_POSITIVE, GUARD_T,
            Guard("n even and n >= 2", ("n",),
                  lambda ctx, b: b["n"] % 2 == 0 and b["n"] >= 2)),
    evaluate=_d21, required=("p", "q", "r"),
    grid=(*PQ_AXES, joint(("a", "b"), SEED_PANEL),
          axis("r", irange(0, 4)), axis("m", [1, 3]),
          axis("t", irange(0, 4)), axis("n", [2, 4, 6])),
)


def _d22_x(ctx, b):
    u, v = ctx.u(b["p"], b["q"]), ctx.v(b["p"], b["q"])
    q, m, s, r = b["q"], b["m"], b["s"], b["r"]
    return (q ** m * u(r - s) ** 2 + q ** (2 * m - s) * u(r - m) ** 2
            + q ** m * u(r - s) * u(r - m) * v(m - s))


def _d22(ctx, b):
    p, q, a, bb = b["p"], b["q"], b["a"], b["b"]
    m, s, r, t, n = b["m"], b["s"], b["r"], b["t"], b["n"]
    u, w = ctx.u(p, q), ctx.table(a, bb, p, q)
    y = (q ** m * u(r - s) ** (n + 2) * w(m * n + t)
         + q ** m * u(r - s) ** (n + 1) * u(r - m) * w(m * n + m + t - s)
         + neg_one(n) * u(r - m) ** (n + 1)
         * (q ** ((m - s) * (n + 1) + m) * u(r - s) * w(s * n + s + t - m)
            + q ** ((m - s) * (n + 2) + s) * u(r - m) * w(s * n + t)))
    return Outcome(witnesses=[
        make_witness("X | Y (five-parameter closed-form numerator)",
                     _d22_x(ctx, b), y)])


D22 = Entry(
    id="D22", kind="divisibility",
    statement="X = q^m u_(r-s)^2 + q^(2m-s) u_(r-m)^2 + q^m u_(r-s) u_(r-m) v_(m-s) "
              "divides Y = q^m u_(r-s)^(n+2) w_(mn+t) "
              "+ q^m u_(r-s)^(n+1) u_(r-m) w_(mn+m+t-s) "
              "+ (-1)^n u_(r-m)^(n+1) (q^((m-s)(n+1)+m) u_(r-s) w_(sn+s+t-m) "
              "+ q^((m-s)(n+2)+s) u_(r-m) w_(sn+t))",
    params=("p", "q", "a", "b", "m", "s", "r", "t", "n"),
    domain="p, q != 0; r >= m >= s >= 0; t >= 0; X != 0; n >= 0",
    # X != 0 before t and n, so it runs once per (p, q, a, b, m, s, r) row
    guards=(GUARD_PQ,
            Guard("r >= m >= s >= 0", ("m", "s", "r"),
                  lambda ctx, b: b["r"] >= b["m"] >= b["s"] >= 0),
            Guard("X != 0", ("p", "q", "m", "s", "r"),
                  lambda ctx, b: _d22_x(ctx, b) != 0),
            GUARD_T, GUARD_N),
    evaluate=_d22,
    grid=(*PQ_AXES, joint(("a", "b"), [(0, 1), (2, 3)]),
          joint(("m", "s", "r"),
                [(m, s, r) for r in range(5) for m in range(r + 1)
                 for s in range(m + 1)]),
          axis("t", irange(0, 4)), axis("n", irange(0, 6))),
)


DIVISIBILITY_ENTRIES = [D01, D02, D03, D04, D05, D06, D07, D08, D09, D10, D11,
                        D12, D13, D14, D15, D16, D17, D18, D19, D20, D21, D22]
