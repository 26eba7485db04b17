"""Numeric catalog entries I01-I18: weighted Fibonacci/Lucas sum identities.

Each evaluate function computes every displayed side independently from its
printed expression; no algebra is shared between sides, so a typo in one
side cannot hide behind a simplification of another. Closed-form numerators
that a divisibility corollary reuses are called from entries_common, where
each is written once. The Fibonacci-Lucas twins I10/I11, I12/I13 and
I16/I17 are one identity read at w = L and at w = F, so each pair is one
transcription, a factory that takes the table its sums read
(``Context.luc`` or ``Context.fib``); I10-I13's factories also take the
closed-form numerator, and I16/I17's one numerator takes the table. That
sharing is between the two entries of a pair, never between the sides of
one entry. Four entries (I10, I11, I16, I17) carry two readings
of a printed summand under the variant protocol; the corrected reading is
the one their proofs imply, and sweeps tally both so the report pins down
exactly one verifying form. Rational values are kernel ``Rat``s (see
``scalars``), which the engine reduces to Fractions through ``canonical``.

Power-weighted sums. A sum sum_j x^j y^(n-j) X_j, the shape of most sides
of I07-I18, takes its weights from ``scalars.power_weights`` and is one
integer dot product with its terms (``scalars.weighted_sum``). I16 and I17
visit each (r, n) once per shift t, so ``_i16_left`` and ``_i16_middle``
build their weights once per Context through ``ctx.memo``.
"""

from __future__ import annotations

from ..scalars import QuadExt, Rat, joined_weights, power_weights, weighted_sum
from ..sequences import neg_one
from .engine import Context, Entry, Guard, Slot, axis, irange, joint
from .entries_common import (GUARD_F_KR_KS, GUARD_I10_DEN, GUARD_I16_DEN,
                             GUARD_N, GUARD_R_NONZERO, R_K_S_N_AXES, R_N_AXES,
                             R_T_N_AXES, SUMS, _i10_den, _i10_num, _i11_num,
                             _i12_num, _i13_num, _i14_num, _i16_den, _i16_num,
                             _i18_num)

HALVES = [Rat(k, 2) for k in range(-6, 7)]


def _power_sum(x: int, y: int, n: int) -> int:
    """sum_{j=0..n} x^j y^(n-j); a sum of (x/2)^j y^(n-j) is
    _power_sum(x, 2y, n) / 2^n."""
    return sum(power_weights(x, y, n)[0])


def _kernel(x):
    # a rational binding as a Rat, which keeps negative powers exact and
    # takes no gcd per step; a QuadExt stays, and a float is a TypeError
    return x if type(x) is Rat or type(x) is QuadExt else Rat(x)


# ---------------------------------------------------------------------------
# I01: the two-variable polynomial identity everything else specializes
# ---------------------------------------------------------------------------

def _i01(ctx, b):
    u, v, n = _kernel(b["u"]), _kernel(b["v"]), b["n"]
    lhs = (2 * u) ** (n + 1) - (2 * v) ** (n + 1)
    rhs = (u - v) * sum(((2 * u) ** j + (2 * v) ** j) * (u + v) ** (n - j)
                        for j in range(n + 1))
    return (lhs, rhs), ()


I01 = Entry(
    id="I01",
    statement="(2u)^(n+1) - (2v)^(n+1) = (u-v) sum_{j=0..n} ((2u)^j + (2v)^j)(u+v)^(n-j)",
    domain="rational u, v; n >= 0",
    guards=(GUARD_N,), evaluate=_i01,
    grid=(axis("u", HALVES), axis("v", HALVES), axis("n", irange(0, 10))),
    sides=(Slot("difference of powers"), Slot("telescoping sum")),
)


SUM_CLOSED = (Slot("sum"), Slot("closed form"))


# ---------------------------------------------------------------------------
# I02-I05: power-of-two weighted sums
# ---------------------------------------------------------------------------

def _i02(ctx, b):
    n = b["n"]
    L, F = ctx.luc(), ctx.fib()
    return (sum(2 ** j * L(j) for j in range(n + 1)), 2 ** (n + 1) * F(n + 1)), ()


I02 = Entry(
    id="I02",
    statement="sum_{j=0..n} 2^j L_j = 2^(n+1) F_(n+1)",
    domain="n >= 0", guards=(GUARD_N,), evaluate=_i02,
    grid=(axis("n", irange(0, 10)),), sides=SUM_CLOSED,
)


def _i03(ctx, b):
    r, n = b["r"], b["n"]
    L, F = ctx.luc(), ctx.fib()
    return (sum(2 ** j * L(j + r) for j in range(n + 1)),
            2 ** (n + 1) * F(n + r + 1) - F(r)), ()


I03 = Entry(
    id="I03",
    statement="sum_{j=0..n} 2^j L_(j+r) = 2^(n+1) F_(n+r+1) - F_r",
    domain="any integer r; n >= 0",
    guards=(GUARD_N,), evaluate=_i03,
    grid=R_N_AXES, sides=SUM_CLOSED,
)


def _i04(ctx, b):
    r, n = b["r"], b["n"]
    L, F = ctx.luc(), ctx.fib()
    return (sum(2 ** j * F(j + r) for j in range(n + 1)),
            Rat(2 ** (n + 1) * L(n + r + 1) - L(r), 5)), ()


I04 = Entry(
    id="I04",
    statement="sum_{j=0..n} 2^j F_(j+r) = (2^(n+1) L_(n+r+1) - L_r) / 5",
    domain="any integer r; n >= 0",
    guards=(GUARD_N,), evaluate=_i04,
    grid=R_N_AXES, sides=SUM_CLOSED,
)


def _i05(ctx, b):
    g0, g1, r, n = b["g0"], b["g1"], b["r"], b["n"]
    G = ctx.table(g0, g1, 1, -1)
    return (sum(2 ** j * (G(j + r + 1) + G(j + r - 1)) for j in range(n + 1)),
            2 ** (n + 1) * G(n + r + 1) - G(r)), ()


I05 = Entry(
    id="I05",
    statement="sum_{j=0..n} 2^j (G_(j+r+1) + G_(j+r-1)) = 2^(n+1) G_(n+r+1) - G_r "
              "for the recurrence G_k = G_(k-1) + G_(k-2) with seeds (g0, g1)",
    domain="integer seeds; any r; n >= 0",
    guards=(GUARD_N,), evaluate=_i05,
    grid=(axis("g0", irange(-3, 3)), axis("g1", irange(-3, 3)), *R_N_AXES),
    sides=SUM_CLOSED,
)


# ---------------------------------------------------------------------------
# I06: the generating lemma itself
# ---------------------------------------------------------------------------

def _i06(ctx, b):
    x, y, n = _kernel(b["x"]), _kernel(b["y"]), b["n"]
    pair = sum((x * y) ** j * (x ** (n - 2 * j) + y ** (n - 2 * j))
               for j in range(n + 1))
    half = sum(((x + y) / 2) ** j * (x ** (n - j) + y ** (n - j))
               for j in range(n + 1))
    conv = 2 * sum(x ** j * y ** (n - j) for j in range(n + 1))
    closed = 2 * (x ** (n + 1) - y ** (n + 1)) / (x - y)
    return (pair, half, conv, closed), ()


_QUAD_PAIRS = [
    (QuadExt(Rat(1, 2), Rat(1, 2), 5),
     QuadExt(Rat(1, 2), Rat(-1, 2), 5)),               # golden pair
    (QuadExt(1, 1, 2), QuadExt(1, -1, 2)),
    (QuadExt(0, 1, -1), QuadExt(0, -1, -1)),           # imaginary unit pair
    (QuadExt(2, 1, -1), QuadExt(2, -1, -1)),
]

I06 = Entry(
    id="I06",
    statement="sum_{j=0..n} (xy)^j (x^(n-2j) + y^(n-2j)) "
              "= sum_{j=0..n} ((x+y)/2)^j (x^(n-j) + y^(n-j)) "
              "= 2 sum_{j=0..n} x^j y^(n-j) = 2 (x^(n+1) - y^(n+1)) / (x - y)",
    domain="x != y, both nonzero and invertible; n >= 0",
    guards=(Guard("x != y", ("x", "y"), lambda ctx, b: b["x"] != b["y"]),
            Guard("x != 0 and y != 0", ("x", "y"),
                  lambda ctx, b: b["x"] != 0 and b["y"] != 0),
            GUARD_N),
    evaluate=_i06,
    grid=(joint(("x", "y"),
                [(u, v) for u in HALVES for v in HALVES] + _QUAD_PAIRS),
          axis("n", irange(0, 10))),
    sides=(Slot("pair sum"), Slot("halved sum"), Slot("doubled convolution"),
           Slot("closed form")),
)


# ---------------------------------------------------------------------------
# I07-I09: Lucas-weighted sums with Fibonacci/Lucas closed forms
# ---------------------------------------------------------------------------

def _i07(ctx, b):
    r, n = b["r"], b["n"]
    L, F = ctx.luc(), ctx.fib()
    s1 = sum(neg_one(r * j) * L(r * (n - 2 * j)) for j in range(n + 1))
    s2 = weighted_sum(power_weights(Rat(L(r), 2), 1, n), *L.read(r * n, -r, n + 1))
    s3 = Rat(2 * F(r * (n + 1)), F(r))
    return (s1, s2, s3), ()


I07 = Entry(
    id="I07",
    statement="sum_{j=0..n} (-1)^(rj) L_(r(n-2j)) "
              "= sum_{j=0..n} (L_r/2)^j L_(r(n-j)) = 2 F_(r(n+1)) / F_r",
    domain="r != 0; n >= 0",
    guards=(GUARD_R_NONZERO, GUARD_N), evaluate=_i07,
    grid=R_N_AXES, sides=SUMS,
)


def _i08(ctx, b):
    r, n = b["r"], b["n"]
    L, F = ctx.luc(), ctx.fib()
    s1 = sum(neg_one(j * (r + 1)) * L(2 * r * (n - j)) for j in range(2 * n + 1))
    # (F_r/2)^(2j) 5^j = x^j, x = 5 F_r^2/4, and (F_r/2)^(2j-1) 5^j is
    # 5 F_r/2 times x^(j-1)
    powers, den = power_weights(Rat(5 * F(r) ** 2, 4), 1, n)
    s2 = (weighted_sum((powers, den), *L.read(2 * r * n, -2 * r, n + 1))
          + Rat(5 * F(r), 2) * weighted_sum((powers[:n], den),
                                            *F.read(r * (2 * n - 1), -2 * r, n)))
    s3 = Rat(2 * L(r * (2 * n + 1)), L(r))
    return (s1, s2, s3), ()


I08 = Entry(
    id="I08",
    statement="sum_{j=0..2n} (-1)^(j(r+1)) L_(2r(n-j)) "
              "= sum_{j=0..n} (F_r/2)^(2j) 5^j L_(2r(n-j)) "
              "+ sum_{j=1..n} (F_r/2)^(2j-1) 5^j F_(r(2n-2j+1)) = 2 L_(r(2n+1)) / L_r",
    domain="any integer r; n >= 0",
    guards=(GUARD_N,), evaluate=_i08,
    grid=R_N_AXES, sides=SUMS,
)


def _i09(ctx, b):
    r, n = b["r"], b["n"]
    L, F = ctx.luc(), ctx.fib()
    s1 = sum(neg_one(j * (r + 1)) * F(r * (2 * n - 2 * j - 1)) for j in range(2 * n))
    # (F_r/2)^(2j) 5^j = x^j as in I08, and (F_r/2)^(2j-1) 5^(j-1) is F_r/2
    # times x^(j-1)
    powers = power_weights(Rat(5 * F(r) ** 2, 4), 1, n - 1)
    s2 = (weighted_sum(powers, *F.read(r * (2 * n - 1), -2 * r, n))
          + Rat(F(r), 2) * weighted_sum(powers, *L.read(2 * r * (n - 1), -2 * r, n)))
    s3 = Rat(2 * F(2 * r * n), L(r))
    return (s1, s2, s3), ()


I09 = Entry(
    id="I09",
    statement="sum_{j=0..2n-1} (-1)^(j(r+1)) F_(r(2n-2j-1)) "
              "= sum_{j=0..n-1} (F_r/2)^(2j) 5^j F_(r(2n-2j-1)) "
              "+ sum_{j=1..n} (F_r/2)^(2j-1) 5^(j-1) L_(r(2n-2j)) = 2 F_(2rn) / L_r",
    domain="any integer r; n >= 0",
    guards=(GUARD_N,), evaluate=_i09,
    grid=R_N_AXES, sides=SUMS,
)


# ---------------------------------------------------------------------------
# I10/I11: mixed F_r, F_{r-1} powers; middle-sum weight carried as variants
# ---------------------------------------------------------------------------

def _i10_pair(table, num):
    """The evaluate of I10 (``table`` is ``Context.luc``, ``num``
    ``_i10_num``) or I11 (``Context.fib``, ``_i11_num``), whose sums read
    W = table(ctx), fetched once with F."""
    def evaluate(ctx, b):
        r, n = b["r"], b["n"]
        F = ctx.fib()
        W = F if table is Context.fib else table(ctx)
        s1 = weighted_sum(power_weights(F(r), F(r - 1), n), *W.read(0, 1, n + 1))
        # the middle sum at weight 1/2^j: the printed weight 1/2^(j-1) is
        # twice it, the proved 1/2^(j+1) half of it
        mid = (weighted_sum(power_weights(Rat(1, 2), F(r), n), *W.read(n, r - 1, n + 1))
               + weighted_sum(power_weights(Rat(1, 2), F(r - 1), n), *W.read(0, r, n + 1)))
        s3 = Rat(num(F, W, b), ctx.memo(_i10_den, r))
        return (s1, 2 * mid, mid / 2, s3), ()
    return evaluate


I10 = Entry(
    id="I10",
    statement="sum_{j=0..n} F_r^j F_(r-1)^(n-j) L_j "
              "= sum_{j=0..n} 2^-(j+1) (F_r^(n-j) L_(n+j(r-1)) + F_(r-1)^(n-j) L_(rj)) "
              "= (F_r^(n+2) L_n + F_(r-1) F_r^(n+1) L_(n+1) + F_r F_(r-1)^(n+1) "
              "- 2 F_(r-1)^(n+2)) / (F_r^2 + F_r F_(r-1) - F_(r-1)^2)",
    domain="F_r^2 + F_r F_(r-1) - F_(r-1)^2 != 0; n >= 0",
    guards=(GUARD_I10_DEN, GUARD_N), evaluate=_i10_pair(Context.luc, _i10_num),
    grid=R_N_AXES,
    sides=(Slot("left sum"),
           Slot("middle sum, weight 1/2^(j-1)", variant="as-printed"),
           Slot("middle sum, weight 1/2^(j+1)", variant="as-proved"),
           Slot("closed form")),
    notes=("The displayed middle-sum weight 1/2^(j-1) fails for every n >= 1; "
           "the generating lemma's weight is 1/2^(j+1), which verifies.",),
)


I11 = Entry(
    id="I11",
    statement="sum_{j=0..n} F_r^j F_(r-1)^(n-j) F_j "
              "= sum_{j=0..n} 2^-(j+1) (F_r^(n-j) F_(n+j(r-1)) + F_(r-1)^(n-j) F_(rj)) "
              "= (F_r^(n+2) F_n + F_(r-1) F_r^(n+1) F_(n+1) - F_r F_(r-1)^(n+1)) "
              "/ (F_r^2 + F_r F_(r-1) - F_(r-1)^2)",
    domain="F_r^2 + F_r F_(r-1) - F_(r-1)^2 != 0; n >= 0",
    guards=(GUARD_I10_DEN, GUARD_N), evaluate=_i10_pair(Context.fib, _i11_num),
    grid=R_N_AXES, sides=I10.sides,
    notes=("Same weight correction as I10.",),
)


# ---------------------------------------------------------------------------
# I12-I15
# ---------------------------------------------------------------------------

def _i12_pair(table, num):
    """The evaluate of I12 (``table`` is ``Context.luc``, ``num``
    ``_i12_num``) or I13 (``Context.fib``, ``_i13_num``), whose sums read
    W = table(ctx), fetched once with L and F."""
    def evaluate(ctx, b):
        r, n = b["r"], b["n"]
        L, F = ctx.luc(), ctx.fib()
        W = L if table is Context.luc else F
        s1 = 2 * sum(neg_one(r * (n - j)) * W(2 * r * j) for j in range(n + 1))
        # (L_r/2)^j (-1)^(r(n-j)) is x^j y^(n-j) at y = (-1)^r
        x = Rat(L(r), 2)
        s2 = (weighted_sum(power_weights(x, 1, n), *W.read(2 * r * n, -r, n + 1))
              + weighted_sum(power_weights(x, neg_one(r), n), *W.read(0, r, n + 1)))
        s3 = Rat(2 * num(W, b), neg_one(r + 1) * 5 * F(r) ** 2)
        return (s1, s2, s3), ()
    return evaluate


I12 = Entry(
    id="I12",
    statement="2 sum_{j=0..n} (-1)^(r(n-j)) L_(2rj) "
              "= sum_{j=0..n} (L_r/2)^j (L_(r(2n-j)) + (-1)^(r(n-j)) L_(rj)) "
              "= 2 ((-1)^(r+1) L_(2r(n+1)) - (-1)^(r(n+1)) L_(2r) + L_(2rn) "
              "+ 2(-1)^(rn)) / ((-1)^(r+1) 5 F_r^2)",
    domain="r != 0; n >= 0",
    guards=(GUARD_R_NONZERO, GUARD_N), evaluate=_i12_pair(Context.luc, _i12_num),
    grid=R_N_AXES, sides=SUMS,
)


I13 = Entry(
    id="I13",
    statement="2 sum_{j=0..n} (-1)^(r(n-j)) F_(2rj) "
              "= sum_{j=0..n} (L_r/2)^j (F_(r(2n-j)) + (-1)^(r(n-j)) F_(rj)) "
              "= 2 ((-1)^(r+1) F_(2r(n+1)) + (-1)^(r(n+1)) F_(2r) + F_(2rn)) "
              "/ ((-1)^(r+1) 5 F_r^2)",
    domain="r != 0; n >= 0",
    guards=(GUARD_R_NONZERO, GUARD_N), evaluate=_i12_pair(Context.fib, _i13_num),
    grid=R_N_AXES, sides=SUMS,
)


def _i14(ctx, b):
    r, n = b["r"], b["n"]
    L, F = ctx.luc(), ctx.fib()
    s1 = 2 * _power_sum(L(2 * r), 2, n)
    # the middle weight c/2 and the closed denominator swap with the parity of r
    if r % 2 == 0:
        c = L(r) ** 2
        s3 = Rat(2 * _i14_num(L, b), 5 * F(r) ** 2)
    else:
        c = 5 * F(r) ** 2
        s3 = Rat(2 * _i14_num(L, b), L(r) ** 2)
    s2 = Rat(_power_sum(c, 2 * L(2 * r), n) + _power_sum(c, 4, n), 2 ** n)
    return (s1, s2, s3), ()


I14 = Entry(
    id="I14",
    statement="sum_{j=0..n} L_(2r)^j 2^(n-j+1) "
              "= sum_{j=0..n} (L_r^2/2)^j (L_(2r)^(n-j) + 2^(n-j)) "
              "= 2 (L_(2r)^(n+1) - 2^(n+1)) / (5 F_r^2)  [r even; for r odd swap "
              "L_r^2 and 5 F_r^2 between weight and denominator]",
    domain="r != 0; n >= 0",
    guards=(GUARD_R_NONZERO, GUARD_N), evaluate=_i14,
    grid=R_N_AXES, sides=SUMS,
)


def _i15(ctx, b):
    r, n = b["r"], b["n"]
    L, F = ctx.luc(), ctx.fib()
    # (-1)^(rj) 4^j and 5^(n-j) F_r^(2(n-j)) are powers of (-1)^r 4 and 5 F_r^2
    y, z = neg_one(r) * 4, 5 * F(r) ** 2
    s1 = 2 * _power_sum(y, z, n)
    s2 = Rat(_power_sum(L(r) ** 2, 2 * z, n) + _power_sum(L(r) ** 2, 2 * y, n), 2 ** n)
    s3 = Rat(2 * ((5 * F(r) ** 2) ** (n + 1) - neg_one(r * (n + 1)) * 4 ** (n + 1)),
             5 * F(r) ** 2 - neg_one(r) * 4)
    return (s1, s2, s3), ()


I15 = Entry(
    id="I15",
    statement="2 sum_{j=0..n} (-1)^(rj) 4^j F_r^(2n-2j) 5^(n-j) "
              "= sum_{j=0..n} (L_r^2/2)^j (5^(n-j) F_r^(2(n-j)) + (-1)^(r(n-j)) 4^(n-j)) "
              "= 2 ((5 F_r^2)^(n+1) - (-1)^(r(n+1)) 4^(n+1)) / (5 F_r^2 - (-1)^r 4)",
    domain="any integer r (the denominator 5 F_r^2 - (-1)^r 4 never vanishes); n >= 0",
    guards=(GUARD_N,), evaluate=_i15,
    grid=R_N_AXES, sides=SUMS,
)


# ---------------------------------------------------------------------------
# I16/I17: the L_r, L_{r-1} power family; three printed slips carried
# as variants (inner-index shift, one base letter, one prefactor)
# ---------------------------------------------------------------------------

def _i16_left(ctx, r, n):
    """Weights L_r^j L_(r-1)^(2n-j) of the I16 and I17 left sums."""
    L = ctx.luc()
    return power_weights(L(r), L(r - 1), 2 * n)


def _i16_middle(ctx, base, e, r, n):
    """Middle-sum weights of I16 and I17 over one denominator: the first
    inner sum's 5^j/2^(2j+1) L_r^(2n-2j), then its 5^j/2^(2j+1) B_(r-1)^(2n-2j)
    (B = base(ctx), for ``base`` ``Context.fib`` or ``Context.luc``), then
    the second's 5^(j-e)/2^(2j) c^(2n-2j+1) for c = L_r, then L_(r-1). With
    x = 5/4, these are x^j (c^2)^(n-j) / 2 for each base c of the first, and
    c / 5^e times x^j (c^2)^(n-j), j >= 1."""
    L = ctx.luc()
    lr, lr1 = L(r), L(r - 1)
    br1 = base(ctx)(r - 1)
    (a, da), (b, db), (c, dc) = (power_weights(Rat(5, 4), y * y, n)
                                 for y in (lr, br1, lr1))
    return joined_weights((a, 2 * da), (b, 2 * db),
                          ([lr * y for y in a[1:]], 5 ** e * da),
                          ([lr1 * y for y in c[1:]], 5 ** e * dc))


def _i16_pair(table, inner, printed, proved):
    """The evaluate of I16 or I17. The left sum, the first inner sum and the
    closed form read W = table(ctx), the second inner sum V = inner(ctx);
    ``printed`` and ``proved`` are the ``_i16_middle`` (base, e) keys of the
    two readings, which take the second inner sum's index as printed and
    with its +1."""
    (pb, pe), (qb, qe) = printed, proved

    def evaluate(ctx, b):
        r, t, n = b["r"], b["t"], b["n"]
        W, V = table(ctx), inner(ctx)
        s1 = weighted_sum(ctx.memo(_i16_left, r, n), *W.read(t, 1, 2 * n + 1))
        first = ([W(2 * n - 2 * j + 2 * j * r + t) for j in range(n + 1)]
                 + [W(2 * j * r + t) for j in range(n + 1)])

        def second(extra):
            return ([V(2 * n - 2 * j + extra + (2 * j - 1) * r + t) for j in range(1, n + 1)]
                    + [V((2 * j - 1) * r + t) for j in range(1, n + 1)])

        L = W if table is Context.luc else V    # I17's second inner sum reads L
        s3 = Rat(_i16_num(L, W, b), ctx.memo(_i16_den, r))
        return (s1, weighted_sum(ctx.memo(_i16_middle, pb, pe, r, n), first + second(0)),
                weighted_sum(ctx.memo(_i16_middle, qb, qe, r, n), first + second(1)), s3), ()
    return evaluate


I16 = Entry(
    id="I16",
    statement="sum_{j=0..2n} L_r^j L_(r-1)^(2n-j) L_(j+t) "
              "= sum_{j=0..n} 5^j/2^(2j+1) (L_r^(2n-2j) L_(2n-2j+2jr+t) "
              "+ L_(r-1)^(2n-2j) L_(2jr+t)) "
              "+ sum_{j=1..n} 5^j/2^(2j) (L_r^(2n-2j+1) F_(2n-2j+1+(2j-1)r+t) "
              "+ L_(r-1)^(2n-2j+1) F_((2j-1)r+t)) "
              "= (L_r^(2n+1) (L_r L_(2n+t) + L_(r-1) L_(2n+t+1)) "
              "- L_(r-1)^(2n+1) (L_r L_(t-1) + L_(r-1) L_t)) "
              "/ (L_(r-2) L_(r+1) + L_r L_(r-1))",
    domain="L_(r-2) L_(r+1) + L_r L_(r-1) != 0; n >= 0",
    guards=(GUARD_I16_DEN, GUARD_N),
    # both readings differ in an index only, so they share the middle weights
    evaluate=_i16_pair(Context.luc, Context.fib, (Context.luc, 0), (Context.luc, 0)),
    grid=R_T_N_AXES,
    sides=(Slot("left sum"),
           Slot("middle sum, inner index 2n-2j+(2j-1)r+t", variant="as-printed"),
           Slot("middle sum, inner index 2n-2j+1+(2j-1)r+t", variant="as-proved"),
           Slot("closed form")),
    notes=("The second inner sum's displayed index drops a '+1'; with it "
           "restored the identity verifies everywhere in the domain.",),
)


I17 = Entry(
    id="I17",
    statement="sum_{j=0..2n} L_r^j L_(r-1)^(2n-j) F_(j+t) "
              "= sum_{j=0..n} 5^j/2^(2j+1) (L_r^(2n-2j) F_(2n-2j+2jr+t) "
              "+ L_(r-1)^(2n-2j) F_(2jr+t)) "
              "+ sum_{j=1..n} 5^(j-1)/2^(2j) (L_r^(2n-2j+1) L_(2n-2j+1+(2j-1)r+t) "
              "+ L_(r-1)^(2n-2j+1) L_((2j-1)r+t)) "
              "= (L_r^(2n+1) (L_r F_(2n+t) + L_(r-1) F_(2n+t+1)) "
              "- L_(r-1)^(2n+1) (L_r F_(t-1) + L_(r-1) F_t)) "
              "/ (L_(r-2) L_(r+1) + L_r L_(r-1))",
    domain="L_(r-2) L_(r+1) + L_r L_(r-1) != 0; n >= 0",
    guards=(GUARD_I16_DEN, GUARD_N),
    # as printed: B = F and 5^j in the second inner sum; as proved: L, 5^(j-1)
    evaluate=_i16_pair(Context.fib, Context.luc, (Context.fib, 0), (Context.luc, 1)),
    grid=R_T_N_AXES,
    sides=(Slot("left sum"),
           Slot("middle sum, F_(r-1) base, 5^j weight, printed index",
                variant="as-printed"),
           Slot("middle sum, L_(r-1) base, 5^(j-1) weight, index +1",
                variant="as-proved"),
           Slot("closed form")),
    notes=("Three corrections against the display: the first inner sum's "
           "second base letter (L, not F), the second inner sum's prefactor "
           "(5^(j-1), not 5^j), and the same '+1' index restoration as I16.",),
)


def _i18(ctx, b):
    r, k, s, n = b["r"], b["k"], b["s"], b["n"]
    L, F = ctx.luc(), ctx.fib()
    # A = L_(2k+r+s), and B = (-1)^(k+s) L_(r-s), whose powers carry the signs
    A, B = L(2 * k + r + s), neg_one(k + s) * L(r - s)
    c = L(k + r) * L(k + s)
    s1 = 2 * _power_sum(B, A, n)
    s2 = Rat(_power_sum(c, 2 * A, n) + _power_sum(c, 2 * B, n), 2 ** n)
    s3 = Rat(2 * _i18_num(L, b), 5 * F(k + r) * F(k + s))
    return (s1, s2, s3), ()


I18 = Entry(
    id="I18",
    statement="2 sum_{j=0..n} (-1)^((k+s)j) L_(r-s)^j L_(2k+r+s)^(n-j) "
              "= sum_{j=0..n} (L_(k+r) L_(k+s)/2)^j (L_(2k+r+s)^(n-j) "
              "+ (-1)^((k+s)(n-j)) L_(r-s)^(n-j)) "
              "= 2 (L_(2k+r+s)^(n+1) - (-1)^((k+s)(n+1)) L_(r-s)^(n+1)) "
              "/ (5 F_(k+r) F_(k+s))",
    domain="F_(k+r) F_(k+s) != 0; n >= 0",
    guards=(GUARD_F_KR_KS, GUARD_N), evaluate=_i18,
    grid=R_K_S_N_AXES,
    sides=SUMS,
)


FIB_ENTRIES = [I01, I02, I03, I04, I05, I06, I07, I08, I09, I10, I11, I12,
               I13, I14, I15, I16, I17, I18]
