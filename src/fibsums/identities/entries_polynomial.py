"""Catalog entries P01-P06: coefficient-level polynomial identities.

Sides here are canonical polynomials, so equality is decidable without
sampling. Two displays divide by x or by x*F_r(x); those entries verify
the sides multiplied through by that factor, which turns each into a
polynomial identity (recorded in the statement text).

Integer numerators. The halved sums of P01, P03 and P04 weight their
summands by (1/2)^j. Each summand is scaled by the integer 2^(n-j)
instead, so the sum is added up with integer coefficients, and the whole
side is scaled by the kernel ``Rat`` 1/2^n once at the end. Its
coefficients equal those of a sum of Fraction-weighted summands.

Shared terms. Every entry reads its family polynomials (F_k, L_k, T_k and
U_k) through ``ctx.memo`` with one builder, ``_term``, so each is walked
once per Context rather than once per summand.
"""

from __future__ import annotations

from functools import partial

from ..polynomials import (POLY_ONE, POLY_X, cheb_T, cheb_U, fib_poly,
                           lucas_poly, poly_add, poly_eval, poly_mul,
                           poly_scale, poly_sub)
from ..scalars import QuadExt, Rat
from ..sequences import neg_one
from .engine import Entry, Slot, axis, irange
from .entries_common import GUARD_N, GUARD_R_POSITIVE, N15_AXES, R6_N15_AXES


def _term(ctx, family, k):
    """``family(k)``, built once per Context."""
    return family(k)


def _terms(ctx, family):
    """``family`` as a function of the index, read through ``ctx.memo``."""
    return partial(ctx.memo, _term, family)


def _powers(base, count):
    # base^0 .. base^count, one multiplication per step
    out = [POLY_ONE]
    for _ in range(count):
        out.append(poly_mul(out[-1], base))
    return out


def _p01(ctx, b):
    n = b["n"]
    L, F = _terms(ctx, lucas_poly), _terms(ctx, fib_poly)
    s1 = ()
    for j in range(n + 1):
        s1 = poly_add(s1, poly_scale(neg_one(j), L(n - 2 * j)))
    s2 = ()
    xp = _powers(POLY_X, n)
    for j in range(n + 1):
        s2 = poly_add(s2, poly_scale(2 ** (n - j), poly_mul(xp[j], L(n - j))))
    s2 = poly_scale(Rat(1, 2 ** n), s2)
    s3 = poly_scale(2, F(n + 1))
    return (s1, s2, s3), ()


P01 = Entry(
    id="P01",
    statement="sum_{j=0..n} (-1)^j L_(n-2j)(x) "
              "= sum_{j=0..n} (x/2)^j L_(n-j)(x) = 2 F_(n+1)(x)",
    domain="n >= 0", guards=(GUARD_N,), evaluate=_p01,
    grid=N15_AXES,
    sides=(Slot("alternating sum"), Slot("halved sum"), Slot("closed form")),
)


def _p02(ctx, b):
    n = b["n"]
    P, Q = ctx.u(2, -1), ctx.v(2, -1)
    s1 = sum(neg_one(j) * Q(n - 2 * j) for j in range(n + 1))
    s2 = sum(Q(n - j) for j in range(n + 1))      # (x/2)^j = 1 at x = 2
    s3 = 2 * P(n + 1)
    return (s1, s2, s3), ()


P02 = Entry(
    id="P02",
    statement="sum_{j=0..n} (-1)^j Q_(n-2j) = sum_{j=0..n} Q_(n-j) = 2 P_(n+1) "
              "(Pell specialization of P01 at x = 2)",
    domain="n >= 0", guards=(GUARD_N,), evaluate=_p02,
    grid=N15_AXES,
    sides=(Slot("alternating sum"), Slot("unit-weight sum"), Slot("closed form")),
)


def _p03(ctx, b):
    n = b["n"]
    L, F = _terms(ctx, lucas_poly), _terms(ctx, fib_poly)
    s1 = ()
    for j in range(n + 1):
        s1 = poly_add(s1, L(2 * (n - 2 * j)))
    s1 = poly_mul(POLY_X, s1)
    w = (2, 0, 1)                                  # x^2 + 2
    wp = _powers(w, n)
    s2 = ()
    for j in range(n + 1):
        s2 = poly_add(s2, poly_scale(2 ** (n - j),
                                     poly_mul(wp[j], L(2 * (n - j)))))
    s2 = poly_scale(Rat(1, 2 ** n), poly_mul(POLY_X, s2))
    s3 = poly_scale(2, F(2 * (n + 1)))
    return (s1, s2, s3), ()


P03 = Entry(
    id="P03",
    statement="x sum_{j=0..n} L_(2(n-2j))(x) "
              "= x sum_{j=0..n} ((x^2+2)/2)^j L_(2(n-j))(x) = 2 F_(2(n+1))(x) "
              "(both sums multiplied by x; the display divides the closed form by x)",
    domain="n >= 0", guards=(GUARD_N,), evaluate=_p03,
    grid=N15_AXES,
    sides=(Slot("x * alternating-index sum"), Slot("x * halved sum"),
           Slot("closed form")),
)


def _p04(ctx, b):
    r, n = b["r"], b["n"]
    L, F = _terms(ctx, lucas_poly), _terms(ctx, fib_poly)
    fr1, fr_1, lr, fr = F(r + 1), F(r - 1), L(r), F(r)
    pw1, pw_1, pwl = _powers(fr1, n + 1), _powers(fr_1, n + 1), _powers(lr, n)
    s1 = ()
    for j in range(n + 1):
        s1 = poly_add(s1, poly_mul(pw_1[j], pw1[n - j]))
    s1 = poly_scale(2, poly_mul(poly_mul(POLY_X, fr), s1))
    s2 = ()
    for j in range(n + 1):
        s2 = poly_add(s2, poly_scale(2 ** (n - j),
                                     poly_mul(pwl[j], poly_add(pw1[n - j], pw_1[n - j]))))
    s2 = poly_scale(Rat(1, 2 ** n), poly_mul(poly_mul(POLY_X, fr), s2))
    s3 = poly_scale(2, poly_sub(pw1[n + 1], pw_1[n + 1]))
    return (s1, s2, s3), ()


P04 = Entry(
    id="P04",
    statement="2 x F_r(x) sum_{j=0..n} F_(r-1)(x)^j F_(r+1)(x)^(n-j) "
              "= x F_r(x) sum_{j=0..n} (L_r(x)/2)^j (F_(r+1)(x)^(n-j) + F_(r-1)(x)^(n-j)) "
              "= 2 (F_(r+1)(x)^(n+1) - F_(r-1)(x)^(n+1)) "
              "(both sums multiplied by x F_r(x), which the display divides by)",
    domain="r >= 1; n >= 0",
    guards=(GUARD_R_POSITIVE, GUARD_N),
    evaluate=_p04,
    grid=R6_N15_AXES,
    sides=(Slot("2 x F_r(x) * power sum"), Slot("x F_r(x) * halved sum"),
           Slot("closed form")),
)


def _p05(ctx, b):
    n = b["n"]
    T = _terms(ctx, cheb_T)
    s1 = ()
    for j in range(n + 1):
        s1 = poly_add(s1, T(n - 2 * j))
    xp = _powers(POLY_X, n)
    s2 = ()
    for j in range(n + 1):
        s2 = poly_add(s2, poly_mul(xp[j], T(n - j)))
    return (s1, s2, ctx.memo(_term, cheb_U, n)), ()


P05 = Entry(
    id="P05",
    statement="sum_{j=0..n} T_(n-2j)(x) = sum_{j=0..n} x^j T_(n-j)(x) = U_n(x)",
    domain="n >= 0", guards=(GUARD_N,), evaluate=_p05,
    grid=(axis("n", irange(0, 20)),),
    sides=(Slot("folded sum"), Slot("convolution sum"), Slot("closed form")),
)


# P06's four sides of the other parity of r, two whole groups absent at a point
_ABSENT = (None,) * 4

_I = QuadExt(0, 1, -1)      # the imaginary unit


def _p06(ctx, b):
    r, n = b["r"], b["n"]
    F, L = ctx.fib(), ctx.luc()
    ln, fn = ctx.memo(_term, lucas_poly, n), ctx.memo(_term, fib_poly, n)
    if r % 2:
        arg = L(r)
        return (poly_eval(ln, arg), L(r * n), F(r) * poly_eval(fn, arg),
                F(r * n)) + _ABSENT, ()
    # even r routes through the imaginary unit: argument i*L_r
    arg = _I * L(r)
    return _ABSENT + (poly_eval(ln, arg), _I ** n * L(r * n),
                      F(r) * poly_eval(fn, arg), _I ** (n - 1) * F(r * n)), ()


P06 = Entry(
    id="P06",
    statement="odd r: L_n(L_r) = L_(rn) and F_r F_n(L_r) = F_(rn); "
              "even r: L_n(i L_r) = i^n L_(rn) and F_r F_n(i L_r) = i^(n-1) F_(rn) "
              "with i^2 = -1",
    domain="r >= 1; n >= 0",
    guards=(GUARD_R_POSITIVE, GUARD_N),
    evaluate=_p06,
    grid=R6_N15_AXES,
    # the odd-r sides, then the even-r sides, each parity in groups of its
    # own: a point has one parity's groups present, the other's absent whole
    sides=(Slot("L_n evaluated at L_r", "lucas-map"),
           Slot("L_(rn)", "lucas-map"),
           Slot("F_r * F_n evaluated at L_r", "fib-map"),
           Slot("F_(rn)", "fib-map"),
           Slot("L_n evaluated at i L_r", "lucas-map at i L_r"),
           Slot("i^n L_(rn)", "lucas-map at i L_r"),
           Slot("F_r * F_n evaluated at i L_r", "fib-map at i L_r"),
           Slot("i^(n-1) F_(rn)", "fib-map at i L_r")),
)


POLY_ENTRIES = [P01, P02, P03, P04, P05, P06]
