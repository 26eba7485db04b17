"""Numeric catalog entries I01-I18: weighted Fibonacci/Lucas sum identities.

Each evaluate function computes every displayed side independently from its
printed expression; no algebra is shared between sides, so a typo in one
side cannot hide behind a simplification of another. Closed-form numerators
that a divisibility corollary reuses are called from entries_common, where
each is written once. Four entries (I10, I11, I16, I17) carry two readings
of a printed summand under the variant protocol; the corrected reading is
the one their proofs imply, and sweeps tally both so the report pins down
exactly one verifying form. Rational values are computed on the kernel
``Rat``, which a side reduces only when it is read.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from ..scalars import QuadExt, Rat
from ..sequences import neg_one
from .engine import (Entry, Guard, Outcome, RejectedInstance, Side, axis,
                     irange, joint)
from .entries_common import (GUARD_F_KR_KS, GUARD_I10_DEN, GUARD_I16_DEN,
                             GUARD_N, GUARD_R_NONZERO, R_N_AXES, _i10_den,
                             _i10_num, _i11_num, _i12_num, _i13_num, _i14_num,
                             _i16_den, _i16_num, _i17_num, _i18_num)

HALVES = [Fraction(k, 2) for k in range(-6, 7)]


def _rat(x):
    # int and Fraction bindings compute on the kernel rational, which keeps
    # negative powers exact and skips Fraction's gcd per step; QuadExt stays
    return Rat(x) if isinstance(x, (int, Fraction)) else x


# ---------------------------------------------------------------------------
# I01: the two-variable polynomial identity everything else specializes
# ---------------------------------------------------------------------------

def _i01(ctx, b):
    u, v, n = _rat(b["u"]), _rat(b["v"]), b["n"]
    lhs = (2 * u) ** (n + 1) - (2 * v) ** (n + 1)
    rhs = (u - v) * sum(((2 * u) ** j + (2 * v) ** j) * (u + v) ** (n - j)
                        for j in range(n + 1))
    return Outcome(sides=[Side("difference of powers", lhs),
                          Side("telescoping sum", rhs)])


I01 = Entry(
    id="I01", kind="identity",
    statement="(2u)^(n+1) - (2v)^(n+1) = (u-v) sum_{j=0..n} ((2u)^j + (2v)^j)(u+v)^(n-j)",
    params=("u", "v", "n"), domain="rational u, v; n >= 0",
    guards=(GUARD_N,), evaluate=_i01,
    grid=(axis("u", HALVES), axis("v", HALVES), axis("n", irange(0, 10))),
)


# ---------------------------------------------------------------------------
# I02-I05: power-of-two weighted sums
# ---------------------------------------------------------------------------

def _i02(ctx, b):
    n = b["n"]
    L, F = ctx.luc(), ctx.fib()
    return Outcome(sides=[
        Side("sum", sum(2 ** j * L(j) for j in range(n + 1))),
        Side("closed form", 2 ** (n + 1) * F(n + 1)),
    ])


I02 = Entry(
    id="I02", kind="identity",
    statement="sum_{j=0..n} 2^j L_j = 2^(n+1) F_(n+1)",
    params=("n",), domain="n >= 0", guards=(GUARD_N,), evaluate=_i02,
    grid=(axis("n", irange(0, 10)),),
)


def _i03(ctx, b):
    r, n = b["r"], b["n"]
    L, F = ctx.luc(), ctx.fib()
    return Outcome(sides=[
        Side("sum", sum(2 ** j * L(j + r) for j in range(n + 1))),
        Side("closed form", 2 ** (n + 1) * F(n + r + 1) - F(r)),
    ])


I03 = Entry(
    id="I03", kind="identity",
    statement="sum_{j=0..n} 2^j L_(j+r) = 2^(n+1) F_(n+r+1) - F_r",
    params=("r", "n"), domain="any integer r; n >= 0",
    guards=(GUARD_N,), evaluate=_i03,
    grid=R_N_AXES,
)


def _i04(ctx, b):
    r, n = b["r"], b["n"]
    L, F = ctx.luc(), ctx.fib()
    return Outcome(sides=[
        Side("sum", sum(2 ** j * F(j + r) for j in range(n + 1))),
        Side("closed form", Rat(2 ** (n + 1) * L(n + r + 1) - L(r), 5)),
    ])


I04 = Entry(
    id="I04", kind="identity",
    statement="sum_{j=0..n} 2^j F_(j+r) = (2^(n+1) L_(n+r+1) - L_r) / 5",
    params=("r", "n"), domain="any integer r; n >= 0",
    guards=(GUARD_N,), evaluate=_i04,
    grid=R_N_AXES,
)


def _i05(ctx, b):
    g0, g1, r, n = b["g0"], b["g1"], b["r"], b["n"]
    G = ctx.table(g0, g1, 1, -1)
    return Outcome(sides=[
        Side("sum", sum(2 ** j * (G(j + r + 1) + G(j + r - 1)) for j in range(n + 1))),
        Side("closed form", 2 ** (n + 1) * G(n + r + 1) - G(r)),
    ])


I05 = Entry(
    id="I05", kind="identity",
    statement="sum_{j=0..n} 2^j (G_(j+r+1) + G_(j+r-1)) = 2^(n+1) G_(n+r+1) - G_r "
              "for the recurrence G_k = G_(k-1) + G_(k-2) with seeds (g0, g1)",
    params=("g0", "g1", "r", "n"), domain="integer seeds; any r; n >= 0",
    guards=(GUARD_N,), evaluate=_i05,
    grid=(axis("g0", irange(-3, 3)), axis("g1", irange(-3, 3)),
          axis("r", irange(-6, 6)), axis("n", irange(0, 10))),
)


# ---------------------------------------------------------------------------
# I06 and sury_f: the generating lemma itself
# ---------------------------------------------------------------------------

class SuryForms(NamedTuple):
    """The four exactly-equal shapes of the generating sum."""

    pair_sum: object       # sum (xy)^j (x^(n-2j) + y^(n-2j))
    half_sum: object       # sum ((x+y)/2)^j (x^(n-j) + y^(n-j))
    convolution: object    # 2 sum x^j y^(n-j)
    closed: object         # 2 (x^(n+1) - y^(n+1)) / (x - y)


def sury_f(x, y, n: int) -> SuryForms:
    """All four forms at (x, y, n); x, y rational or quadratic-extension.

    Rational arguments are computed on the kernel ``Rat``, and the forms
    come back reduced: an int or Fraction argument gives Fractions.
    Raises RejectedInstance when x = y (closed form divides by x - y) or
    when either variable is 0 (the pair sum takes negative powers).
    """
    if n < 0:
        raise RejectedInstance("sury_f", "n >= 0", {"x": x, "y": y, "n": n})
    if x == y:
        raise RejectedInstance("sury_f", "x != y", {"x": x, "y": y, "n": n})
    if x == 0 or y == 0:
        raise RejectedInstance("sury_f", "x != 0 and y != 0",
                               {"x": x, "y": y, "n": n})
    x, y = _rat(x), _rat(y)
    pair = sum((x * y) ** j * (x ** (n - 2 * j) + y ** (n - 2 * j))
               for j in range(n + 1))
    half = sum(((x + y) / 2) ** j * (x ** (n - j) + y ** (n - j))
               for j in range(n + 1))
    conv = 2 * sum(x ** j * y ** (n - j) for j in range(n + 1))
    closed = 2 * (x ** (n + 1) - y ** (n + 1)) / (x - y)
    return SuryForms(*(f.canonical() if type(f) is Rat else f
                       for f in (pair, half, conv, closed)))


def _i06(ctx, b):
    forms = sury_f(b["x"], b["y"], b["n"])
    return Outcome(sides=[
        Side("pair sum", forms.pair_sum),
        Side("halved sum", forms.half_sum),
        Side("doubled convolution", forms.convolution),
        Side("closed form", forms.closed),
    ])


_QUAD_PAIRS = [
    (QuadExt(Fraction(1, 2), Fraction(1, 2), 5),
     QuadExt(Fraction(1, 2), Fraction(-1, 2), 5)),     # golden pair
    (QuadExt(1, 1, 2), QuadExt(1, -1, 2)),
    (QuadExt(0, 1, -1), QuadExt(0, -1, -1)),           # imaginary unit pair
    (QuadExt(2, 1, -1), QuadExt(2, -1, -1)),
]

I06 = Entry(
    id="I06", kind="identity",
    statement="sum_{j=0..n} (xy)^j (x^(n-2j) + y^(n-2j)) "
              "= sum_{j=0..n} ((x+y)/2)^j (x^(n-j) + y^(n-j)) "
              "= 2 sum_{j=0..n} x^j y^(n-j) = 2 (x^(n+1) - y^(n+1)) / (x - y)",
    params=("x", "y", "n"),
    domain="x != y, both nonzero and invertible; n >= 0",
    guards=(GUARD_N,
            Guard("x != y", ("x", "y"), lambda ctx, b: b["x"] != b["y"]),
            Guard("x != 0 and y != 0", ("x", "y"),
                  lambda ctx, b: b["x"] != 0 and b["y"] != 0)),
    evaluate=_i06,
    grid=(joint(("x", "y"),
                [(u, v) for u in HALVES for v in HALVES] + _QUAD_PAIRS),
          axis("n", irange(0, 10))),
)


# ---------------------------------------------------------------------------
# I07-I09: Lucas-weighted sums with Fibonacci/Lucas closed forms
# ---------------------------------------------------------------------------

def _i07(ctx, b):
    r, n = b["r"], b["n"]
    L, F = ctx.luc(), ctx.fib()
    s1 = sum(neg_one(r * j) * L(r * (n - 2 * j)) for j in range(n + 1))
    s2 = sum(Rat(L(r), 2) ** j * L(r * (n - j)) for j in range(n + 1))
    s3 = Rat(2 * F(r * (n + 1)), F(r))
    return Outcome(sides=[Side("left sum", s1), Side("middle sum", s2),
                          Side("closed form", s3)])


I07 = Entry(
    id="I07", kind="identity",
    statement="sum_{j=0..n} (-1)^(rj) L_(r(n-2j)) "
              "= sum_{j=0..n} (L_r/2)^j L_(r(n-j)) = 2 F_(r(n+1)) / F_r",
    params=("r", "n"), domain="r != 0; n >= 0",
    guards=(GUARD_N, GUARD_R_NONZERO), evaluate=_i07,
    grid=R_N_AXES,
)


def _i08(ctx, b):
    r, n = b["r"], b["n"]
    L, F = ctx.luc(), ctx.fib()
    s1 = sum(neg_one(j * (r + 1)) * L(2 * r * (n - j)) for j in range(2 * n + 1))
    s2 = (sum(Rat(F(r), 2) ** (2 * j) * 5 ** j * L(2 * r * (n - j))
              for j in range(n + 1))
          + sum(Rat(F(r), 2) ** (2 * j - 1) * 5 ** j * F(r * (2 * n - 2 * j + 1))
                for j in range(1, n + 1)))
    s3 = Rat(2 * L(r * (2 * n + 1)), L(r))
    return Outcome(sides=[Side("left sum", s1), Side("middle sum", s2),
                          Side("closed form", s3)])


I08 = Entry(
    id="I08", kind="identity",
    statement="sum_{j=0..2n} (-1)^(j(r+1)) L_(2r(n-j)) "
              "= sum_{j=0..n} (F_r/2)^(2j) 5^j L_(2r(n-j)) "
              "+ sum_{j=1..n} (F_r/2)^(2j-1) 5^j F_(r(2n-2j+1)) = 2 L_(r(2n+1)) / L_r",
    params=("r", "n"), domain="any integer r; n >= 0",
    guards=(GUARD_N,), evaluate=_i08,
    grid=R_N_AXES,
)


def _i09(ctx, b):
    r, n = b["r"], b["n"]
    L, F = ctx.luc(), ctx.fib()
    s1 = sum(neg_one(j * (r + 1)) * F(r * (2 * n - 2 * j - 1)) for j in range(2 * n))
    s2 = (sum(Rat(F(r), 2) ** (2 * j) * 5 ** j * F(r * (2 * n - 2 * j - 1))
              for j in range(n))
          + sum(Rat(F(r), 2) ** (2 * j - 1) * 5 ** (j - 1) * L(r * (2 * n - 2 * j))
                for j in range(1, n + 1)))
    s3 = Rat(2 * F(2 * r * n), L(r))
    return Outcome(sides=[Side("left sum", s1), Side("middle sum", s2),
                          Side("closed form", s3)])


I09 = Entry(
    id="I09", kind="identity",
    statement="sum_{j=0..2n-1} (-1)^(j(r+1)) F_(r(2n-2j-1)) "
              "= sum_{j=0..n-1} (F_r/2)^(2j) 5^j F_(r(2n-2j-1)) "
              "+ sum_{j=1..n} (F_r/2)^(2j-1) 5^(j-1) L_(r(2n-2j)) = 2 F_(2rn) / L_r",
    params=("r", "n"), domain="any integer r; n >= 0",
    guards=(GUARD_N,), evaluate=_i09,
    grid=R_N_AXES,
)


# ---------------------------------------------------------------------------
# I10/I11: mixed F_r, F_{r-1} powers; middle-sum weight carried as variants
# ---------------------------------------------------------------------------

def _i10(ctx, b):
    r, n = b["r"], b["n"]
    L, F = ctx.luc(), ctx.fib()
    s1 = sum(F(r) ** j * F(r - 1) ** (n - j) * L(j) for j in range(n + 1))

    def middle(shift):
        # Rat(1, 2) ** e stays exact for the negative exponent at j = 0
        return sum(Rat(1, 2) ** (j + shift) *
                   (F(r) ** (n - j) * L(n + j * (r - 1)) +
                    F(r - 1) ** (n - j) * L(r * j))
                   for j in range(n + 1))

    s3 = Rat(_i10_num(ctx, b), _i10_den(ctx, b))
    return Outcome(sides=[
        Side("left sum", s1),
        Side("middle sum, weight 1/2^(j-1)", middle(-1), variant="as-printed"),
        Side("middle sum, weight 1/2^(j+1)", middle(+1), variant="as-proved"),
        Side("closed form", s3),
    ])


I10 = Entry(
    id="I10", kind="identity",
    statement="sum_{j=0..n} F_r^j F_(r-1)^(n-j) L_j "
              "= sum_{j=0..n} 2^-(j+1) (F_r^(n-j) L_(n+j(r-1)) + F_(r-1)^(n-j) L_(rj)) "
              "= (F_r^(n+2) L_n + F_(r-1) F_r^(n+1) L_(n+1) + F_r F_(r-1)^(n+1) "
              "- 2 F_(r-1)^(n+2)) / (F_r^2 + F_r F_(r-1) - F_(r-1)^2)",
    params=("r", "n"),
    domain="F_r^2 + F_r F_(r-1) - F_(r-1)^2 != 0; n >= 0",
    guards=(GUARD_N, GUARD_I10_DEN), evaluate=_i10,
    grid=R_N_AXES,
    variants=("as-printed", "as-proved"), primary="as-proved",
    notes=("The displayed middle-sum weight 1/2^(j-1) fails for every n >= 1; "
           "the generating lemma's weight is 1/2^(j+1), which verifies.",),
)


def _i11(ctx, b):
    r, n = b["r"], b["n"]
    F = ctx.fib()
    s1 = sum(F(r) ** j * F(r - 1) ** (n - j) * F(j) for j in range(n + 1))

    def middle(shift):
        return sum(Rat(1, 2) ** (j + shift) *
                   (F(r) ** (n - j) * F(n + j * (r - 1)) +
                    F(r - 1) ** (n - j) * F(r * j))
                   for j in range(n + 1))

    s3 = Rat(_i11_num(ctx, b), _i10_den(ctx, b))
    return Outcome(sides=[
        Side("left sum", s1),
        Side("middle sum, weight 1/2^(j-1)", middle(-1), variant="as-printed"),
        Side("middle sum, weight 1/2^(j+1)", middle(+1), variant="as-proved"),
        Side("closed form", s3),
    ])


I11 = Entry(
    id="I11", kind="identity",
    statement="sum_{j=0..n} F_r^j F_(r-1)^(n-j) F_j "
              "= sum_{j=0..n} 2^-(j+1) (F_r^(n-j) F_(n+j(r-1)) + F_(r-1)^(n-j) F_(rj)) "
              "= (F_r^(n+2) F_n + F_(r-1) F_r^(n+1) F_(n+1) - F_r F_(r-1)^(n+1)) "
              "/ (F_r^2 + F_r F_(r-1) - F_(r-1)^2)",
    params=("r", "n"),
    domain="F_r^2 + F_r F_(r-1) - F_(r-1)^2 != 0; n >= 0",
    guards=(GUARD_N, GUARD_I10_DEN), evaluate=_i11,
    grid=R_N_AXES,
    variants=("as-printed", "as-proved"), primary="as-proved",
    notes=("Same weight correction as I10.",),
)


# ---------------------------------------------------------------------------
# I12-I15
# ---------------------------------------------------------------------------

def _i12(ctx, b):
    r, n = b["r"], b["n"]
    L = ctx.luc()
    s1 = 2 * sum(neg_one(r * (n - j)) * L(2 * r * j) for j in range(n + 1))
    s2 = sum(Rat(L(r), 2) ** j * (L(r * (2 * n - j)) + neg_one(r * (n - j)) * L(r * j))
             for j in range(n + 1))
    F = ctx.fib()
    s3 = Rat(2 * _i12_num(ctx, b), neg_one(r + 1) * 5 * F(r) ** 2)
    return Outcome(sides=[Side("left sum", s1), Side("middle sum", s2),
                          Side("closed form", s3)])


I12 = Entry(
    id="I12", kind="identity",
    statement="2 sum_{j=0..n} (-1)^(r(n-j)) L_(2rj) "
              "= sum_{j=0..n} (L_r/2)^j (L_(r(2n-j)) + (-1)^(r(n-j)) L_(rj)) "
              "= 2 ((-1)^(r+1) L_(2r(n+1)) - (-1)^(r(n+1)) L_(2r) + L_(2rn) "
              "+ 2(-1)^(rn)) / ((-1)^(r+1) 5 F_r^2)",
    params=("r", "n"), domain="r != 0; n >= 0",
    guards=(GUARD_N, GUARD_R_NONZERO), evaluate=_i12,
    grid=R_N_AXES,
)


def _i13(ctx, b):
    r, n = b["r"], b["n"]
    L, F = ctx.luc(), ctx.fib()
    s1 = 2 * sum(neg_one(r * (n - j)) * F(2 * r * j) for j in range(n + 1))
    s2 = sum(Rat(L(r), 2) ** j * (F(r * (2 * n - j)) + neg_one(r * (n - j)) * F(r * j))
             for j in range(n + 1))
    s3 = Rat(2 * _i13_num(ctx, b), neg_one(r + 1) * 5 * F(r) ** 2)
    return Outcome(sides=[Side("left sum", s1), Side("middle sum", s2),
                          Side("closed form", s3)])


I13 = Entry(
    id="I13", kind="identity",
    statement="2 sum_{j=0..n} (-1)^(r(n-j)) F_(2rj) "
              "= sum_{j=0..n} (L_r/2)^j (F_(r(2n-j)) + (-1)^(r(n-j)) F_(rj)) "
              "= 2 ((-1)^(r+1) F_(2r(n+1)) + (-1)^(r(n+1)) F_(2r) + F_(2rn)) "
              "/ ((-1)^(r+1) 5 F_r^2)",
    params=("r", "n"), domain="r != 0; n >= 0",
    guards=(GUARD_N, GUARD_R_NONZERO), evaluate=_i13,
    grid=R_N_AXES,
)


def _i14(ctx, b):
    r, n = b["r"], b["n"]
    L, F = ctx.luc(), ctx.fib()
    s1 = sum(L(2 * r) ** j * 2 ** (n - j + 1) for j in range(n + 1))
    # the middle weight and the closed denominator swap with the parity of r
    if r % 2 == 0:
        s2 = sum(Rat(L(r) ** 2, 2) ** j * (L(2 * r) ** (n - j) + 2 ** (n - j))
                 for j in range(n + 1))
        s3 = Rat(2 * _i14_num(ctx, b), 5 * F(r) ** 2)
    else:
        s2 = sum(Rat(5 * F(r) ** 2, 2) ** j * (L(2 * r) ** (n - j) + 2 ** (n - j))
                 for j in range(n + 1))
        s3 = Rat(2 * _i14_num(ctx, b), L(r) ** 2)
    return Outcome(sides=[Side("left sum", s1), Side("middle sum", s2),
                          Side("closed form", s3)])


I14 = Entry(
    id="I14", kind="identity",
    statement="sum_{j=0..n} L_(2r)^j 2^(n-j+1) "
              "= sum_{j=0..n} (L_r^2/2)^j (L_(2r)^(n-j) + 2^(n-j)) "
              "= 2 (L_(2r)^(n+1) - 2^(n+1)) / (5 F_r^2)  [r even; for r odd swap "
              "L_r^2 and 5 F_r^2 between weight and denominator]",
    params=("r", "n"), domain="r != 0; n >= 0",
    guards=(GUARD_N, GUARD_R_NONZERO), evaluate=_i14,
    grid=R_N_AXES,
)


def _i15(ctx, b):
    r, n = b["r"], b["n"]
    L, F = ctx.luc(), ctx.fib()
    s1 = 2 * sum(neg_one(r * j) * 4 ** j * F(r) ** (2 * n - 2 * j) * 5 ** (n - j)
                 for j in range(n + 1))
    s2 = sum(Rat(L(r) ** 2, 2) ** j
             * (5 ** (n - j) * F(r) ** (2 * (n - j)) + neg_one(r * (n - j)) * 4 ** (n - j))
             for j in range(n + 1))
    s3 = Rat(2 * ((5 * F(r) ** 2) ** (n + 1) - neg_one(r * (n + 1)) * 4 ** (n + 1)),
             5 * F(r) ** 2 - neg_one(r) * 4)
    return Outcome(sides=[Side("left sum", s1), Side("middle sum", s2),
                          Side("closed form", s3)])


I15 = Entry(
    id="I15", kind="identity",
    statement="2 sum_{j=0..n} (-1)^(rj) 4^j F_r^(2n-2j) 5^(n-j) "
              "= sum_{j=0..n} (L_r^2/2)^j (5^(n-j) F_r^(2(n-j)) + (-1)^(r(n-j)) 4^(n-j)) "
              "= 2 ((5 F_r^2)^(n+1) - (-1)^(r(n+1)) 4^(n+1)) / (5 F_r^2 - (-1)^r 4)",
    params=("r", "n"),
    domain="any integer r (the denominator 5 F_r^2 - (-1)^r 4 never vanishes); n >= 0",
    guards=(GUARD_N,), evaluate=_i15,
    grid=R_N_AXES,
)


# ---------------------------------------------------------------------------
# I16/I17: the L_r, L_{r-1} power family; three printed slips carried
# as variants (inner-index shift, one base letter, one prefactor)
# ---------------------------------------------------------------------------

def _i16(ctx, b):
    r, t, n = b["r"], b["t"], b["n"]
    L, F = ctx.luc(), ctx.fib()
    s1 = sum(L(r) ** j * L(r - 1) ** (2 * n - j) * L(j + t) for j in range(2 * n + 1))
    first = sum(Rat(5 ** j, 2 ** (2 * j + 1)) *
                (L(r) ** (2 * n - 2 * j) * L(2 * n - 2 * j + 2 * j * r + t)
                 + L(r - 1) ** (2 * n - 2 * j) * L(2 * j * r + t))
                for j in range(n + 1))

    def second(extra):
        return sum(Rat(5 ** j, 2 ** (2 * j)) *
                   (L(r) ** (2 * n - 2 * j + 1) * F(2 * n - 2 * j + extra + (2 * j - 1) * r + t)
                    + L(r - 1) ** (2 * n - 2 * j + 1) * F((2 * j - 1) * r + t))
                   for j in range(1, n + 1))

    s3 = Rat(_i16_num(ctx, b), _i16_den(ctx, b))
    return Outcome(sides=[
        Side("left sum", s1),
        Side("middle sum, inner index 2n-2j+(2j-1)r+t", first + second(0),
             variant="as-printed"),
        Side("middle sum, inner index 2n-2j+1+(2j-1)r+t", first + second(1),
             variant="as-proved"),
        Side("closed form", s3),
    ])


I16 = Entry(
    id="I16", kind="identity",
    statement="sum_{j=0..2n} L_r^j L_(r-1)^(2n-j) L_(j+t) "
              "= sum_{j=0..n} 5^j/2^(2j+1) (L_r^(2n-2j) L_(2n-2j+2jr+t) "
              "+ L_(r-1)^(2n-2j) L_(2jr+t)) "
              "+ sum_{j=1..n} 5^j/2^(2j) (L_r^(2n-2j+1) F_(2n-2j+1+(2j-1)r+t) "
              "+ L_(r-1)^(2n-2j+1) F_((2j-1)r+t)) "
              "= (L_r^(2n+1) (L_r L_(2n+t) + L_(r-1) L_(2n+t+1)) "
              "- L_(r-1)^(2n+1) (L_r L_(t-1) + L_(r-1) L_t)) "
              "/ (L_(r-2) L_(r+1) + L_r L_(r-1))",
    params=("r", "t", "n"),
    domain="L_(r-2) L_(r+1) + L_r L_(r-1) != 0; n >= 0",
    guards=(GUARD_N, GUARD_I16_DEN), evaluate=_i16,
    grid=(axis("r", irange(-6, 6)), axis("t", irange(-6, 6)),
          axis("n", irange(0, 10))),
    variants=("as-printed", "as-proved"), primary="as-proved",
    notes=("The second inner sum's displayed index drops a '+1'; with it "
           "restored the identity verifies everywhere in the domain.",),
)


def _i17(ctx, b):
    r, t, n = b["r"], b["t"], b["n"]
    L, F = ctx.luc(), ctx.fib()
    s1 = sum(L(r) ** j * L(r - 1) ** (2 * n - j) * F(j + t) for j in range(2 * n + 1))

    def first(base):
        return sum(Rat(5 ** j, 2 ** (2 * j + 1)) *
                   (L(r) ** (2 * n - 2 * j) * F(2 * n - 2 * j + 2 * j * r + t)
                    + base(r - 1) ** (2 * n - 2 * j) * F(2 * j * r + t))
                   for j in range(n + 1))

    def second(power_base, extra):
        return sum(Rat(5 ** (j - power_base), 2 ** (2 * j)) *
                   (L(r) ** (2 * n - 2 * j + 1) * L(2 * n - 2 * j + extra + (2 * j - 1) * r + t)
                    + L(r - 1) ** (2 * n - 2 * j + 1) * L((2 * j - 1) * r + t))
                   for j in range(1, n + 1))

    s3 = Rat(_i17_num(ctx, b), _i16_den(ctx, b))
    return Outcome(sides=[
        Side("left sum", s1),
        Side("middle sum, F_(r-1) base, 5^j weight, printed index",
             first(F) + second(0, 0), variant="as-printed"),
        Side("middle sum, L_(r-1) base, 5^(j-1) weight, index +1",
             first(L) + second(1, 1), variant="as-proved"),
        Side("closed form", s3),
    ])


I17 = Entry(
    id="I17", kind="identity",
    statement="sum_{j=0..2n} L_r^j L_(r-1)^(2n-j) F_(j+t) "
              "= sum_{j=0..n} 5^j/2^(2j+1) (L_r^(2n-2j) F_(2n-2j+2jr+t) "
              "+ L_(r-1)^(2n-2j) F_(2jr+t)) "
              "+ sum_{j=1..n} 5^(j-1)/2^(2j) (L_r^(2n-2j+1) L_(2n-2j+1+(2j-1)r+t) "
              "+ L_(r-1)^(2n-2j+1) L_((2j-1)r+t)) "
              "= (L_r^(2n+1) (L_r F_(2n+t) + L_(r-1) F_(2n+t+1)) "
              "- L_(r-1)^(2n+1) (L_r F_(t-1) + L_(r-1) F_t)) "
              "/ (L_(r-2) L_(r+1) + L_r L_(r-1))",
    params=("r", "t", "n"),
    domain="L_(r-2) L_(r+1) + L_r L_(r-1) != 0; n >= 0",
    guards=(GUARD_N, GUARD_I16_DEN), evaluate=_i17,
    grid=(axis("r", irange(-6, 6)), axis("t", irange(-6, 6)),
          axis("n", irange(0, 10))),
    variants=("as-printed", "as-proved"), primary="as-proved",
    notes=("Three corrections against the display: the first inner sum's "
           "second base letter (L, not F), the second inner sum's prefactor "
           "(5^(j-1), not 5^j), and the same '+1' index restoration as I16.",),
)


def _i18(ctx, b):
    r, k, s, n = b["r"], b["k"], b["s"], b["n"]
    L, F = ctx.luc(), ctx.fib()
    s1 = 2 * sum(neg_one((k + s) * j) * L(r - s) ** j * L(2 * k + r + s) ** (n - j)
                 for j in range(n + 1))
    s2 = sum(Rat(L(k + r) * L(k + s), 2) ** j
             * (L(2 * k + r + s) ** (n - j) + neg_one((k + s) * (n - j)) * L(r - s) ** (n - j))
             for j in range(n + 1))
    s3 = Rat(2 * _i18_num(ctx, b), 5 * F(k + r) * F(k + s))
    return Outcome(sides=[Side("left sum", s1), Side("middle sum", s2),
                          Side("closed form", s3)])


I18 = Entry(
    id="I18", kind="identity",
    statement="2 sum_{j=0..n} (-1)^((k+s)j) L_(r-s)^j L_(2k+r+s)^(n-j) "
              "= sum_{j=0..n} (L_(k+r) L_(k+s)/2)^j (L_(2k+r+s)^(n-j) "
              "+ (-1)^((k+s)(n-j)) L_(r-s)^(n-j)) "
              "= 2 (L_(2k+r+s)^(n+1) - (-1)^((k+s)(n+1)) L_(r-s)^(n+1)) "
              "/ (5 F_(k+r) F_(k+s))",
    params=("r", "k", "s", "n"),
    domain="F_(k+r) F_(k+s) != 0; n >= 0",
    guards=(GUARD_N, GUARD_F_KR_KS), evaluate=_i18,
    grid=(axis("r", irange(-6, 6)), axis("k", irange(-6, 6)),
          axis("s", irange(-6, 6)), axis("n", irange(0, 10))),
)


FIB_ENTRIES = [I01, I02, I03, I04, I05, I06, I07, I08, I09, I10, I11, I12,
               I13, I14, I15, I16, I17, I18]
