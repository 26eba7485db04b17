"""Guards, grid axes and closed forms that several catalog entries share.

A divisibility corollary (D entry) often divides the closed-form numerator
of an I-catalog identity by that identity's denominator. Both entries call
the one numerator and denominator function defined here, so a fix lands in
both; H05 and D22 share X and Y so. Within one entry the sides still come
from independent expressions: a closed form is shared between entries,
never an algebraic step between two sides.
"""

from __future__ import annotations

from ..scalars import power
from ..sequences import neg_one
from .engine import Guard, Slot, axis, irange, joint

GUARD_N = Guard("n >= 0", ("n",), lambda ctx, b: b["n"] >= 0)
GUARD_T = Guard("t >= 0", ("t",), lambda ctx, b: b["t"] >= 0)
GUARD_R_NONZERO = Guard("r != 0", ("r",), lambda ctx, b: b["r"] != 0)
GUARD_R_POSITIVE = Guard("r >= 1", ("r",), lambda ctx, b: b["r"] >= 1)
GUARD_M_ODD_POSITIVE = Guard("m odd and m >= 1", ("m",),
                             lambda ctx, b: b["m"] % 2 != 0 and b["m"] >= 1)
GUARD_PQ = Guard("p != 0 and q != 0", ("p", "q"),
                 lambda ctx, b: b["p"] != 0 and b["q"] != 0)
GUARD_UR = Guard("u_r != 0", ("p", "q", "r"),
                 lambda ctx, b: ctx.u(b["p"], b["q"])(b["r"]) != 0)
GUARD_VR = Guard("v_r != 0", ("p", "q", "r"),
                 lambda ctx, b: ctx.v(b["p"], b["q"])(b["r"]) != 0)
GUARD_F_KR_KS = Guard("F_(k+r) F_(k+s) != 0", ("r", "k", "s"),
                      lambda ctx, b: ctx.fib()(b["k"] + b["r"]) != 0
                      and ctx.fib()(b["k"] + b["s"]) != 0)

PQ_VALUES = [k for k in range(-4, 5) if k != 0]
SEED_PANEL = [(0, 1), (2, 1), (2, 3), (-1, 2)]

#: The sides of most three-sided sum identities.
SUMS = (Slot("left sum"), Slot("middle sum"), Slot("closed form"))

#: r in -6..6 by n in 0..10, the default grid of most (r, n) entries.
R_N_AXES = (axis("r", irange(-6, 6)), axis("n", irange(0, 10)))
#: (r, t, n) in -6..6, -6..6 and 0..10: I16, I17, D14 and D15.
R_T_N_AXES = (axis("r", irange(-6, 6)), axis("t", irange(-6, 6)),
              axis("n", irange(0, 10)))
#: (r, k, s, n) in -6..6, -6..6, -6..6 and 0..10: I18 and D16.
R_K_S_N_AXES = (axis("r", irange(-6, 6)), axis("k", irange(-6, 6)),
                axis("s", irange(-6, 6)), axis("n", irange(0, 10)))
#: n in 0..15: P01-P03.
N15_AXES = (axis("n", irange(0, 15)),)
#: r in 1..6 by n in 0..15: P04 and P06.
R6_N15_AXES = (axis("r", irange(1, 6)), axis("n", irange(0, 15)))
#: n in 0..12: D06, D07, D08 and D10.
N12_AXES = (axis("n", irange(0, 12)),)
#: The nonzero (p, q) rows every general-sequence entry sweeps first.
PQ_AXES = (axis("p", PQ_VALUES), axis("q", PQ_VALUES))
#: (p, q) rows by r in -4..4 and n in 0..6: H02, H08, H09, H11 and D20.
PQ_R_N_AXES = (*PQ_AXES, axis("r", irange(-4, 4)), axis("n", irange(0, 6)))
#: (p, q) rows by the seed panel, r and t in -4..4 and n in 0..6: the
#: theorems H01, H04, H06 and H07.
PQ_SEED_R_T_N_AXES = (*PQ_AXES, joint(("a", "b"), SEED_PANEL),
                      axis("r", irange(-4, 4)), axis("t", irange(-4, 4)),
                      axis("n", irange(0, 6)))


# closed-form denominators of I10/I11 and I16/I17, and their guards; each is
# a memo builder keyed by r, so the guard and the closed form share one value

def _i10_den(ctx, r):
    F = ctx.fib()
    return F(r) ** 2 + F(r) * F(r - 1) - F(r - 1) ** 2


GUARD_I10_DEN = Guard("F_r^2 + F_r F_(r-1) - F_(r-1)^2 != 0", ("r",),
                      lambda ctx, b: ctx.memo(_i10_den, b["r"]) != 0)


def _i16_den(ctx, r):
    L = ctx.luc()
    return L(r - 2) * L(r + 1) + L(r) * L(r - 1)


GUARD_I16_DEN = Guard("L_(r-2) L_(r+1) + L_r L_(r-1) != 0", ("r",),
                      lambda ctx, b: ctx.memo(_i16_den, b["r"]) != 0)


# closed-form numerators, each named after the identity that displays it;
# each takes the Fibonacci (F) and Lucas (L) tables its caller holds

def _i10_num(F, L, b):
    r, n = b["r"], b["n"]
    return (F(r) ** (n + 2) * L(n) + F(r - 1) * F(r) ** (n + 1) * L(n + 1)
            + F(r) * F(r - 1) ** (n + 1) - 2 * F(r - 1) ** (n + 2))


def _i11_num(F, _, b):
    """Takes (F, F, b), the signature of ``_i10_num`` with I11's table."""
    r, n = b["r"], b["n"]
    return (F(r) ** (n + 2) * F(n) + F(r - 1) * F(r) ** (n + 1) * F(n + 1)
            - F(r) * F(r - 1) ** (n + 1))


def _i12_num(L, b):
    r, n = b["r"], b["n"]
    return (neg_one(r + 1) * L(2 * r * (n + 1)) - neg_one(r * (n + 1)) * L(2 * r)
            + L(2 * r * n) + 2 * neg_one(r * n))


def _i13_num(F, b):
    r, n = b["r"], b["n"]
    return (neg_one(r + 1) * F(2 * r * (n + 1)) + neg_one(r * (n + 1)) * F(2 * r)
            + F(2 * r * n))


def _i14_num(L, b):
    r, n = b["r"], b["n"]
    return L(2 * r) ** (n + 1) - 2 ** (n + 1)


def _i16_num(L, W, b):
    """The numerator of I16 (W is L) or I17 (W is F), whose inner terms
    read W."""
    r, t, n = b["r"], b["t"], b["n"]
    return (L(r) ** (2 * n + 1) * (L(r) * W(2 * n + t) + L(r - 1) * W(2 * n + t + 1))
            - L(r - 1) ** (2 * n + 1) * (L(r) * W(t - 1) + L(r - 1) * W(t)))


def _i18_num(L, b):
    r, k, s, n = b["r"], b["k"], b["s"], b["n"]
    return (L(2 * k + r + s) ** (n + 1)
            - neg_one((k + s) * (n + 1)) * L(r - s) ** (n + 1))


def _h05_x(ctx, p, q, m, s, r):
    """X = q^m X0, the divisor of H05's closed form and of D22's witness."""
    u, v = ctx.u(p, q), ctx.v(p, q)
    x0 = (u(r - s) ** 2 + power(q, m - s) * u(r - m) ** 2
          + u(r - s) * u(r - m) * v(m - s))
    return power(q, m) * x0


def _h05_y(ctx, p, q, m, s, r, n):
    """Y's coefficients of w_(mn+t), w_(mn+m+t-s), w_(sn+s+t-m) and w_(sn+t):
    q^m u_(r-s)^(n+2), q^m u_(r-s)^(n+1) u_(r-m), and (-1)^n u_(r-m)^(n+1)
    times q^((m-s)(n+1)+m) u_(r-s) and q^((m-s)(n+2)+s) u_(r-m)."""
    u = ctx.u(p, q)
    us, um = u(r - s), u(r - m)
    qm, sign = power(q, m), neg_one(n) * um ** (n + 1)
    return (qm * us ** (n + 2), qm * us ** (n + 1) * um,
            sign * power(q, (m - s) * (n + 1) + m) * us,
            sign * power(q, (m - s) * (n + 2) + s) * um)
