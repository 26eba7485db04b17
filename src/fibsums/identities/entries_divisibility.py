"""Catalog entries D01-D22: divisibility corollaries with explicit witnesses.

Every entry declares its witness labels and returns a (divisor, dividend)
pair per witness; the engine checks each by exact integer division, and a
reported point carries Witness records (divisor, dividend, quotient,
residue), so a verified report doubles as a table of certificates:
divisor * quotient == dividend with residue 0. Where a dividend is the
closed-form numerator of an I-catalog identity, the entry calls the
numerator function that identity calls (from entries_common) instead of
re-typing the expression.

Shared factors and integer numerators. What a D22 point computes without
reading the seed (a, b) or the shift t is built once per Context through
``ctx.memo``: H05's X and Y coefficients (``_h05_x``, ``_h05_y``), integers
on D22's domain, so Y is four products with table terms. D21 reads its
witness values from the sequence tables, which keep every term they have
walked, and reads v_r once per point for all three witnesses. A witness
value may be an int or a kernel ``Rat`` that lands on an integer, such as
D21's w_(t+rn) - q^(rn) w_(t-rn); the engine reads either as an int.
"""

from __future__ import annotations

from ..scalars import power
from ..sequences import neg_one
from .engine import Entry, Guard, Slot, axis, irange, joint
from .entries_common import (GUARD_F_KR_KS, GUARD_I10_DEN, GUARD_I16_DEN,
                             GUARD_M_ODD_POSITIVE, GUARD_N, GUARD_PQ,
                             GUARD_R_NONZERO, GUARD_R_POSITIVE, GUARD_T,
                             GUARD_UR, GUARD_VR, N12_AXES, PQ_AXES, PQ_R_N_AXES,
                             R_K_S_N_AXES, R_N_AXES, R_T_N_AXES, SEED_PANEL,
                             _h05_x, _h05_y, _i10_den, _i10_num, _i11_num,
                             _i12_num, _i13_num, _i14_num, _i16_den, _i16_num,
                             _i18_num)


def _d01(ctx, b):
    F = ctx.fib()
    r, m = b["r"], b["m"]
    return (), ((F(r), F(m * r)),)


D01 = Entry(
    id="D01",
    statement="F_r divides F_(mr)",
    domain="r != 0; any integer m",
    guards=(GUARD_R_NONZERO,), evaluate=_d01,
    grid=(axis("r", irange(-6, 6)), axis("m", irange(-6, 6))),
    witnesses=("F_r | F_(mr)",),
)


def _d02(ctx, b):
    L = ctx.luc()
    r, m = b["r"], b["m"]
    return (), ((L(r), L(m * r)),)


D02 = Entry(
    id="D02",
    statement="L_r divides L_(mr) for odd m",
    domain="any integer r; odd m",
    guards=(Guard("m odd", ("m",), lambda ctx, b: b["m"] % 2 != 0),),
    evaluate=_d02,
    grid=(axis("r", irange(-6, 6)), axis("m", [-5, -3, -1, 1, 3, 5])),
    witnesses=("L_r | L_(mr)",),
)


def _d03(ctx, b):
    F, L = ctx.fib(), ctx.luc()
    r, m = b["r"], b["m"]
    return (), ((L(r), F(m * r)),)


D03 = Entry(
    id="D03",
    statement="L_r divides F_(mr) for even m",
    domain="any integer r; even m",
    guards=(Guard("m even", ("m",), lambda ctx, b: b["m"] % 2 == 0),),
    evaluate=_d03,
    grid=(axis("r", irange(-6, 6)), axis("m", [-6, -4, -2, 0, 2, 4, 6])),
    witnesses=("L_r | F_(mr)",),
)


# D04/D05: the closed-form numerators behind the corrected convolution sums
# are divisible by their denominator F_r^2 + F_r F_(r-1) - F_(r-1)^2.

def _d04(ctx, b):
    return (), ((ctx.memo(_i10_den, b["r"]), _i10_num(ctx.fib(), ctx.luc(), b)),)


D04 = Entry(
    id="D04",
    statement="F_r^2 + F_r F_(r-1) - F_(r-1)^2 divides F_r^(n+2) L_n "
              "+ F_(r-1) F_r^(n+1) L_(n+1) + F_r F_(r-1)^(n+1) - 2 F_(r-1)^(n+2)",
    domain="divisor != 0; n >= 0",
    guards=(GUARD_I10_DEN, GUARD_N), evaluate=_d04,
    grid=R_N_AXES, witnesses=("denominator | Lucas-weighted numerator",),
)


def _d05(ctx, b):
    F = ctx.fib()
    return (), ((ctx.memo(_i10_den, b["r"]), _i11_num(F, F, b)),)


D05 = Entry(
    id="D05",
    statement="F_r^2 + F_r F_(r-1) - F_(r-1)^2 divides F_r^(n+2) F_n "
              "+ F_(r-1) F_r^(n+1) F_(n+1) - F_r F_(r-1)^(n+1)",
    domain="divisor != 0; n >= 0",
    guards=(GUARD_I10_DEN, GUARD_N), evaluate=_d05,
    grid=R_N_AXES, witnesses=("denominator | Fibonacci-weighted numerator",),
)


def _d06(ctx, b):
    L = ctx.luc()
    n = b["n"]
    return (), ((5, 2 ** (n + 1) * L(n + 1) - 2),)


D06 = Entry(
    id="D06",
    statement="5 divides 2^(n+1) L_(n+1) - 2",
    domain="n >= 0",
    guards=(GUARD_N,), evaluate=_d06, grid=N12_AXES,
    witnesses=("5 | 2^(n+1) L_(n+1) - 2",),
)


def _d07(ctx, b):
    F, L = ctx.fib(), ctx.luc()
    n = b["n"]
    val = 3 ** (n + 1) * (F(n + 2) + L(n + 1)) - 3 * 2 ** (n + 1)
    return (), ((11, val),)


D07 = Entry(
    id="D07",
    statement="11 divides 3^(n+1) (F_(n+2) + L_(n+1)) - 3 * 2^(n+1)",
    domain="n >= 0",
    guards=(GUARD_N,), evaluate=_d07, grid=N12_AXES,
    witnesses=("11 | 3^(n+1) (F_(n+2) + L_(n+1)) - 3 * 2^(n+1)",),
)


def _d08(ctx, b):
    F, L = ctx.fib(), ctx.luc()
    n = b["n"]
    val = 3 ** (n + 1) * (L(n + 2) + 5 * F(n + 1)) - 2 ** (n + 1)
    return (), ((11, val),)


D08 = Entry(
    id="D08",
    statement="11 divides 3^(n+1) (L_(n+2) + 5 F_(n+1)) - 2^(n+1)",
    domain="n >= 0",
    guards=(GUARD_N,), evaluate=_d08, grid=N12_AXES,
    witnesses=("11 | 3^(n+1) (L_(n+2) + 5 F_(n+1)) - 2^(n+1)",),
)


def _d09(ctx, b):
    F = ctx.fib()
    return (), ((5 * F(b["r"]) ** 2, _i13_num(F, b)),)


D09 = Entry(
    id="D09",
    statement="5 F_r^2 divides (-1)^(r+1) F_(2r(n+1)) + (-1)^(r(n+1)) F_(2r) + F_(2rn)",
    domain="r != 0; n >= 0",
    guards=(GUARD_R_NONZERO, GUARD_N), evaluate=_d09,
    grid=R_N_AXES, witnesses=("5 F_r^2 | alternating F-combination",),
)


def _d10(ctx, b):
    L = ctx.luc()
    n = b["n"]
    return (), ((5, L(2 * n + 1) + neg_one(n + 1)),)


D10 = Entry(
    id="D10",
    statement="5 divides L_(2n+1) + (-1)^(n+1)",
    domain="n >= 0",
    guards=(GUARD_N,), evaluate=_d10, grid=N12_AXES,
    witnesses=("5 | L_(2n+1) + (-1)^(n+1)",),
)


def _d11(ctx, b):
    F, L = ctx.fib(), ctx.luc()
    r, n = b["r"], b["n"]
    combo = _i12_num(L, b)
    decomp = (neg_one(r + 1) * 5 * F(r) * F(2 * r * n + r)
              - neg_one(r * (n + 1)) * 5 * F(r) ** 2)
    return (combo, decomp), ((5 * F(r) ** 2, combo), (F(r), F(r * (2 * n + 1))))


D11 = Entry(
    id="D11",
    statement="(-1)^(r+1) L_(2r(n+1)) - (-1)^(r(n+1)) L_(2r) + L_(2rn) + 2 (-1)^(rn) "
              "= 5 F_r ((-1)^(r+1) F_(r(2n+1)) - (-1)^(r(n+1)) F_r), "
              "hence 5 F_r^2 divides it (using F_r | F_(r(2n+1)))",
    domain="r != 0; n >= 0",
    guards=(GUARD_R_NONZERO, GUARD_N), evaluate=_d11,
    grid=R_N_AXES,
    sides=(Slot("alternating L-combination", "decomposition"),
           Slot("5 F_r (F-product form)", "decomposition")),
    witnesses=("5 F_r^2 | alternating L-combination", "F_r | F_(r(2n+1))"),
)


def _d12(ctx, b):
    F = ctx.fib()
    return (), ((5 * F(b["r"]) ** 2, _i14_num(ctx.luc(), b)),)


D12 = Entry(
    id="D12",
    statement="for even r: 5 F_r^2 divides L_(2r)^(n+1) - 2^(n+1)",
    domain="r even, r != 0; n >= 0",
    guards=(Guard("r even and r != 0", ("r",),
                  lambda ctx, b: b["r"] % 2 == 0 and b["r"] != 0),
            GUARD_N),
    evaluate=_d12,
    grid=(axis("r", [-6, -4, -2, 2, 4, 6]), axis("n", irange(0, 10))),
    witnesses=("5 F_r^2 | L_(2r)^(n+1) - 2^(n+1)",),
)


def _d13(ctx, b):
    L = ctx.luc()
    return (), ((L(b["r"]) ** 2, _i14_num(L, b)),)


D13 = Entry(
    id="D13",
    statement="for odd r: L_r^2 divides L_(2r)^(n+1) - 2^(n+1)",
    domain="r odd; n >= 0",
    guards=(Guard("r odd", ("r",), lambda ctx, b: b["r"] % 2 != 0), GUARD_N),
    evaluate=_d13,
    grid=(axis("r", [-5, -3, -1, 1, 3, 5]), axis("n", irange(0, 10))),
    witnesses=("L_r^2 | L_(2r)^(n+1) - 2^(n+1)",),
)


# D14/D15: the Lucas-pair closed-form numerators are divisible by
# L_(r-2) L_(r+1) + L_r L_(r-1); at (r, t) = (2, 0) the divisor is 11 and
# the dividend collapses to the displayed mod-11 particular.

def _lucas_pair(ctx, b, L, W, particular):
    """Witness den | the numerator of I16 (W is L) or I17 (W is F); at
    (r, t) = (2, 0) also match the displayed particular(n) and witness
    11 | particular(n), which are absent elsewhere."""
    num = _i16_num(L, W, b)
    den = ctx.memo(_i16_den, b["r"])
    if (b["r"], b["t"]) != (2, 0):
        return (None, None), ((den, num), None)
    part = particular(b["n"])
    return (part, num), ((den, num), (11, part))


def _particular_sides(display):
    """The two sides D14 and D15 compare at (r, t) = (2, 0) only."""
    return (Slot(f"displayed particular {display}", "mod-11 particular"),
            Slot("numerator at (r, t) = (2, 0)", "mod-11 particular"))


_D14_PARTICULAR = "3^(2n+1) (L_(2n) + 5 F_(2n+1)) + 1"


def _d14(ctx, b):
    L = ctx.luc()
    return _lucas_pair(
        ctx, b, L, L,
        lambda n: 3 ** (2 * n + 1) * (L(2 * n) + 5 * ctx.fib()(2 * n + 1)) + 1)


D14 = Entry(
    id="D14",
    statement="L_(r-2) L_(r+1) + L_r L_(r-1) divides L_r^(2n+1) (L_r L_(2n+t) "
              "+ L_(r-1) L_(2n+t+1)) - L_(r-1)^(2n+1) (L_r L_(t-1) + L_(r-1) L_t); "
              "at (r, t) = (2, 0): 11 | 3^(2n+1) (L_(2n) + 5 F_(2n+1)) + 1",
    domain="divisor != 0; n >= 0",
    guards=(GUARD_I16_DEN, GUARD_N), evaluate=_d14,
    grid=R_T_N_AXES,
    sides=_particular_sides(_D14_PARTICULAR),
    witnesses=("denominator | Lucas-pair L-numerator", f"11 | {_D14_PARTICULAR}"),
)


_D15_PARTICULAR = "3^(2n+1) (F_(2n) + L_(2n+1)) - 3"


def _d15(ctx, b):
    F, L = ctx.fib(), ctx.luc()
    return _lucas_pair(
        ctx, b, L, F,
        lambda n: 3 ** (2 * n + 1) * (F(2 * n) + L(2 * n + 1)) - 3)


D15 = Entry(
    id="D15",
    statement="L_(r-2) L_(r+1) + L_r L_(r-1) divides L_r^(2n+1) (L_r F_(2n+t) "
              "+ L_(r-1) F_(2n+t+1)) - L_(r-1)^(2n+1) (L_r F_(t-1) + L_(r-1) F_t); "
              "at (r, t) = (2, 0): 11 | 3^(2n+1) (F_(2n) + L_(2n+1)) - 3",
    domain="divisor != 0; n >= 0",
    guards=(GUARD_I16_DEN, GUARD_N), evaluate=_d15,
    grid=R_T_N_AXES,
    sides=_particular_sides(_D15_PARTICULAR),
    witnesses=("denominator | Lucas-pair F-numerator", f"11 | {_D15_PARTICULAR}"),
)


def _d16(ctx, b):
    F = ctx.fib()
    r, k, s = b["r"], b["k"], b["s"]
    return (), ((5 * F(k + r) * F(k + s), _i18_num(ctx.luc(), b)),)


D16 = Entry(
    id="D16",
    statement="5 F_(k+r) F_(k+s) divides L_(2k+r+s)^(n+1) "
              "- (-1)^((k+s)(n+1)) L_(r-s)^(n+1)",
    domain="F_(k+r) F_(k+s) != 0; n >= 0",
    guards=(GUARD_F_KR_KS, GUARD_N), evaluate=_d16,
    grid=R_K_S_N_AXES,
    witnesses=("5 F_(k+r) F_(k+s) | L-power difference",),
)


def _d17(ctx, b):
    # the D16 dividend at s = r, where L_(r-s) = L_0 = 2
    F = ctx.fib()
    r, k = b["r"], b["k"]
    return (), ((5 * F(k + r) ** 2, _i18_num(ctx.luc(), dict(b, s=r))),)


D17 = Entry(
    id="D17",
    statement="5 F_(k+r)^2 divides L_(2(k+r))^(n+1) - (-1)^((k+r)(n+1)) 2^(n+1)",
    domain="k + r != 0; n >= 0",
    guards=(Guard("F_(k+r) != 0", ("r", "k"),
                  lambda ctx, b: b["k"] + b["r"] != 0),
            GUARD_N),
    evaluate=_d17,
    grid=(axis("r", irange(-6, 6)), axis("k", irange(-6, 6)),
          axis("n", irange(0, 10))),
    witnesses=("5 F_(k+r)^2 | L_(2(k+r))^(n+1) - (-1)^((k+r)(n+1)) 2^(n+1)",),
)


def _d18(ctx, b):
    F, L = ctx.fib(), ctx.luc()
    m, r, n = b["m"], b["r"], b["n"]
    div = F(m) ** n * L(m) * F(r * m)
    val = F(m * (r + 1)) ** (n + 1) - F(m * (r - 1)) ** (n + 1)
    return (), ((div, val),)


D18 = Entry(
    id="D18",
    statement="for odd m: F_m^n L_m F_(rm) divides F_(m(r+1))^(n+1) - F_(m(r-1))^(n+1)",
    domain="m odd, m >= 1; r >= 1; n >= 0",
    guards=(GUARD_M_ODD_POSITIVE, GUARD_R_POSITIVE, GUARD_N),
    evaluate=_d18,
    grid=(axis("m", [1, 3, 5]), axis("r", irange(1, 6)), axis("n", irange(0, 10))),
    witnesses=("F_m^n L_m F_(rm) | F_(m(r+1))^(n+1) - F_(m(r-1))^(n+1)",),
)


def _d19(ctx, b):
    F, L = ctx.fib(), ctx.luc()
    m, r, n = b["m"], b["r"], b["n"]
    div = F(m) ** n * L(m) * F(r * m)
    val = F(m * (r + 1)) ** (n + 1) + neg_one(n) * F(m * (r - 1)) ** (n + 1)
    return (), ((div, val),)


D19 = Entry(
    id="D19",
    statement="for even m: F_m^n L_m F_(rm) divides F_(m(r+1))^(n+1) "
              "+ (-1)^n F_(m(r-1))^(n+1)",
    domain="m even, m >= 2; r >= 1; n >= 0",
    guards=(Guard("m even and m >= 2", ("m",),
                  lambda ctx, b: b["m"] % 2 == 0 and b["m"] >= 2),
            GUARD_R_POSITIVE, GUARD_N),
    evaluate=_d19,
    grid=(axis("m", [2, 4, 6]), axis("r", irange(1, 6)), axis("n", irange(0, 10))),
    witnesses=("F_m^n L_m F_(rm) | F_(m(r+1))^(n+1) + (-1)^n F_(m(r-1))^(n+1)",),
)


def _d20(ctx, b):
    u = ctx.u(b["p"], b["q"])
    r, n = b["r"], b["n"]
    return (), ((u(r), u(r * (n + 1))),)


def _d20_integral(ctx, b):
    u = ctx.u(b["p"], b["q"])
    ur, urn = u(b["r"]), u(b["r"] * (b["n"] + 1))
    # a table term is an int exactly when it is integral
    return type(ur) is int and type(urn) is int


D20 = Entry(
    id="D20",
    statement="u_r divides u_(r(n+1)) in the generalized sequence",
    domain="p, q != 0; u_r != 0; both values integral; n >= 0",
    guards=(GUARD_PQ, GUARD_UR, GUARD_N,
            Guard("u_r and u_(r(n+1)) are integers", ("p", "q", "r", "n"),
                  _d20_integral)),
    evaluate=_d20,
    grid=PQ_R_N_AXES,
    witnesses=("u_r | u_(r(n+1))",),
)


def _d21(ctx, b):
    # a witness whose parameters are not all bound is absent; n is required,
    # so v_r | u_(rn) is present at every point
    p, q, r, n = b["p"], b["q"], b["r"], b["n"]
    u, v = ctx.u(p, q), ctx.v(p, q)
    vr = v(r)
    vm = (vr, v(r * b["m"])) if "m" in b else None
    seeded = None
    if all(k in b for k in ("a", "b", "t")):
        # the seed (0, 1) names u's table, already fetched
        w = u if (b["a"], b["b"]) == (0, 1) else ctx.table(b["a"], b["b"], p, q)
        t = b["t"]
        seeded = vr, w(t + r * n) - power(q, r * n) * w(t - r * n)
    return (), (vm, seeded, (vr, u(r * n)))


D21 = Entry(
    id="D21",
    statement="v_r divides v_(rm) for odd m; v_r divides w_(t+rn) - q^(rn) w_(t-rn) "
              "and in particular u_(rn) for even n",
    domain="p, q != 0; v_r != 0; r >= 0; m odd >= 1; t >= 0; n even >= 2",
    guards=(GUARD_PQ, GUARD_VR,
            Guard("r >= 0", ("r",), lambda ctx, b: b["r"] >= 0),
            GUARD_M_ODD_POSITIVE, GUARD_T,
            Guard("n even and n >= 2", ("n",),
                  lambda ctx, b: b["n"] % 2 == 0 and b["n"] >= 2)),
    evaluate=_d21, required=("p", "q", "r", "n"),
    witnesses=("v_r | v_(rm)", "v_r | w_(t+rn) - q^(rn) w_(t-rn)", "v_r | u_(rn)"),
    grid=(*PQ_AXES, joint(("a", "b"), SEED_PANEL),
          axis("r", irange(0, 4)), axis("m", [1, 3]),
          axis("t", irange(0, 4)), axis("n", [2, 4, 6])),
)


def _d22(ctx, b):
    p, q, a, bb = b["p"], b["q"], b["a"], b["b"]
    m, s, r, t, n = b["m"], b["s"], b["r"], b["t"], b["n"]
    w = ctx.table(a, bb, p, q)
    c1, c2, c3, c4 = ctx.memo(_h05_y, p, q, m, s, r, n)
    y = (c1 * w(m * n + t) + c2 * w(m * n + m + t - s)
         + c3 * w(s * n + s + t - m) + c4 * w(s * n + t))
    return (), ((ctx.memo(_h05_x, p, q, m, s, r), y),)


D22 = Entry(
    id="D22",
    statement="X = q^m u_(r-s)^2 + q^(2m-s) u_(r-m)^2 + q^m u_(r-s) u_(r-m) v_(m-s) "
              "divides Y = q^m u_(r-s)^(n+2) w_(mn+t) "
              "+ q^m u_(r-s)^(n+1) u_(r-m) w_(mn+m+t-s) "
              "+ (-1)^n u_(r-m)^(n+1) (q^((m-s)(n+1)+m) u_(r-s) w_(sn+s+t-m) "
              "+ q^((m-s)(n+2)+s) u_(r-m) w_(sn+t))",
    domain="p, q != 0; r >= m >= s >= 0; t >= 0; X != 0; n >= 0",
    # X != 0 before t and n, so it runs once per (p, q, a, b, m, s, r) row
    guards=(GUARD_PQ,
            Guard("r >= m >= s >= 0", ("m", "s", "r"),
                  lambda ctx, b: b["r"] >= b["m"] >= b["s"] >= 0),
            Guard("X != 0", ("p", "q", "m", "s", "r"),
                  lambda ctx, b: ctx.memo(_h05_x, b["p"], b["q"], b["m"], b["s"],
                                          b["r"]) != 0),
            GUARD_T, GUARD_N),
    evaluate=_d22,
    grid=(*PQ_AXES, joint(("a", "b"), [(0, 1), (2, 3)]),
          joint(("m", "s", "r"),
                [(m, s, r) for r in range(5) for m in range(r + 1)
                 for s in range(m + 1)]),
          axis("t", irange(0, 4)), axis("n", irange(0, 6))),
    witnesses=("X | Y (five-parameter closed-form numerator)",),
)


DIVISIBILITY_ENTRIES = [D01, D02, D03, D04, D05, D06, D07, D08, D09, D10, D11,
                        D12, D13, D14, D15, D16, D17, D18, D19, D20, D21, D22]
