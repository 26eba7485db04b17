"""Catalog entries LEM2-LEM6 and H01-H11: the general w_n(a,b;p,q) family.

The LEM entries check root-level identities with exact quadratic-extension
arithmetic (or exact rationals when the discriminant is a perfect square);
the H entries are the weighted-sum theorems and their corollaries. Default
grids keep the stated parameter ranges for every light entry; the five
heavy ones (H01, H04, H05, H06, H07) sweep curated seed and shift panels
instead of full Cartesian ranges so the whole catalog stays desk-scale.

Shared factors. The H sweeps visit each (p, q, r, n) once per seed (a, b)
and shift t; H05 visits each (p, q, m, s, r, n) so. Whatever a point
computes without reading a, b or t is built once per Context and argument
list by a memo builder, ``ctx.memo(_hNN_shared, p, q, r, n)``: the
coefficients of every sum and closed form whose terms read the seed or the
shift, and the middle sums of H01, H06 and H07 that w_t or
w_(t+1) - q w_(t-1) multiplies. The weights q^(rj) and (-1)^j q^(rj) have
builders of their own, keyed by (q, r, count). A corollary is its theorem
at t = 0 and reads its builders: the q-power sums of H02 (H01 at w = u),
H03 (H01 at w = v, r = 1), H08 (H06 at w = u) and H09 (H07 at w = v) take
its weights, and H10 (H07 at w = u) and H11 (H06 at w = v) read its
``_hNN_shared`` values. H05's guard and closed form, and D22, read
X = q^m X0 and Y's coefficients from ``_h05_x`` and ``_h05_y``.

Integer numerators. Every coefficient list is integers over one
denominator: powers from ``scalars.power_weights``, a few closed-form
coefficients from ``int_weights``. A point reads each side's terms from its
table as integers over one power of q (``SeqTable.read`` and ``at``) and
forms the side as one integer dot product (``scalars.weighted_sum``). Only
the factors no seed or shift can change are shared, and no printed sum is
replaced by a shortcut derived from a recurrence.
"""

from __future__ import annotations

from ..scalars import (Rat, int_weights, joined_weights, power, power_weights,
                       weighted_sum)
from .engine import Entry, Guard, Slot, axis, irange, joint
from .entries_common import (GUARD_N, GUARD_PQ, GUARD_UR, GUARD_VR, PQ_AXES,
                             PQ_R_N_AXES, PQ_SEED_R_T_N_AXES, SUMS, _h05_x,
                             _h05_y)

def _disc(p, q):
    """Delta^2 = p^2 - 4q."""
    return p * p - 4 * q


GUARD_DISC = Guard("p^2 - 4q != 0", ("p", "q"),
                   lambda ctx, b: _disc(b["p"], b["q"]) != 0)


# ---------------------------------------------------------------------------
# root-level lemmas
# ---------------------------------------------------------------------------

def _lem2(ctx, b):
    p, q, s = b["p"], b["q"], b["s"]
    delta = ctx.roots(p, q).delta
    u, v = ctx.u(p, q), ctx.v(p, q)
    tau_s, sig_s = ctx.root_pow(p, q, s)
    tau_2s, sig_2s = ctx.root_pow(p, q, 2 * s)
    qs = power(q, s)
    return (qs + tau_2s, tau_s * v(s), qs - tau_2s, -(delta * tau_s * u(s)),
            qs + sig_2s, sig_s * v(s), qs - sig_2s, delta * sig_s * u(s)), ()


LEM2 = Entry(
    id="LEM2",
    statement="q^s +- tau^(2s) = tau^s (v_s or -Delta u_s), "
              "q^s +- sigma^(2s) = sigma^s (v_s or Delta u_s)",
    domain="p, q != 0; p^2 - 4q != 0; any integer s",
    guards=(GUARD_PQ, GUARD_DISC), evaluate=_lem2,
    grid=(*PQ_AXES, axis("s", irange(-4, 4))),
    sides=(Slot("q^s + tau^(2s)", "tau-plus"), Slot("tau^s v_s", "tau-plus"),
           Slot("q^s - tau^(2s)", "tau-minus"),
           Slot("-Delta tau^s u_s", "tau-minus"),
           Slot("q^s + sigma^(2s)", "sigma-plus"),
           Slot("sigma^s v_s", "sigma-plus"),
           Slot("q^s - sigma^(2s)", "sigma-minus"),
           Slot("Delta sigma^s u_s", "sigma-minus")),
)


def _lem3(ctx, b):
    p, q, r, s = b["p"], b["q"], b["r"], b["s"]
    delta = ctx.roots(p, q).delta
    u, v = ctx.u(p, q), ctx.v(p, q)
    tau_r, sig_r = ctx.root_pow(p, q, r)
    tau_s, sig_s = ctx.root_pow(p, q, s)
    rt5 = ctx.roots(1, -1).delta
    al_r, be_r = ctx.root_pow(1, -1, r)
    al_s, be_s = ctx.root_pow(1, -1, s)
    F, L = ctx.fib(), ctx.luc()
    return (v(r + s) - tau_r * v(s), -(delta * sig_s * u(r)),
            v(r + s) - sig_r * v(s), delta * tau_s * u(r),
            u(r + s) - tau_r * u(s), sig_s * u(r),
            u(r + s) - sig_r * u(s), tau_s * u(r),
            L(r + s) - L(r) * al_s, -(rt5 * be_r * F(s)),
            L(r + s) - L(r) * be_s, rt5 * al_r * F(s),
            F(r + s) - F(r) * al_s, be_r * F(s),
            F(r + s) - F(r) * be_s, al_r * F(s)), ()


LEM3 = Entry(
    id="LEM3",
    statement="v_(r+s) - tau^r v_s = -Delta sigma^s u_r (and the sigma, u, and "
              "Fibonacci/Lucas alpha-beta counterparts)",
    domain="p, q != 0; p^2 - 4q != 0",
    guards=(GUARD_PQ, GUARD_DISC), evaluate=_lem3,
    grid=(*PQ_AXES, axis("r", irange(-4, 4)), axis("s", irange(-4, 4))),
    sides=(Slot("v_(r+s) - tau^r v_s", "v-tau"),
           Slot("-Delta sigma^s u_r", "v-tau"),
           Slot("v_(r+s) - sigma^r v_s", "v-sigma"),
           Slot("Delta tau^s u_r", "v-sigma"),
           Slot("u_(r+s) - tau^r u_s", "u-tau"), Slot("sigma^s u_r", "u-tau"),
           Slot("u_(r+s) - sigma^r u_s", "u-sigma"), Slot("tau^s u_r", "u-sigma"),
           # Fibonacci specializations of the same four shapes
           Slot("L_(r+s) - L_r alpha^s", "L-alpha"),
           Slot("-sqrt5 beta^r F_s", "L-alpha"),
           Slot("L_(r+s) - L_r beta^s", "L-beta"),
           Slot("sqrt5 alpha^r F_s", "L-beta"),
           Slot("F_(r+s) - F_r alpha^s", "F-alpha"), Slot("beta^r F_s", "F-alpha"),
           Slot("F_(r+s) - F_r beta^s", "F-beta"), Slot("alpha^r F_s", "F-beta")),
)


def _lem4(ctx, b):
    p, q, a, bb, n = b["p"], b["q"], b["a"], b["b"], b["n"]
    tau, sig, delta = ctx.roots(p, q)
    w = ctx.table(a, bb, p, q)
    tau_n, sig_n = ctx.root_pow(p, q, n)
    A = (bb - a * sig) / delta
    B = (a * tau - bb) / delta
    return (A * tau_n - B * sig_n, (w(n + 1) - q * w(n - 1)) / delta,
            A * sig_n + B * tau_n, power(q, n) * w(-n)), ()


LEM4 = Entry(
    id="LEM4",
    statement="with A = (b - a sigma)/Delta, B = (a tau - b)/Delta: "
              "A tau^n - B sigma^n = (w_(n+1) - q w_(n-1))/Delta and "
              "A sigma^n + B tau^n = q^n w_(-n)",
    domain="p, q != 0; p^2 - 4q != 0",
    guards=(GUARD_PQ, GUARD_DISC), evaluate=_lem4,
    grid=(*PQ_AXES, axis("a", irange(-3, 3)), axis("b", irange(-3, 3)),
          axis("n", irange(0, 6))),
    sides=(Slot("A tau^n - B sigma^n", "difference"),
           Slot("(w_(n+1) - q w_(n-1)) / Delta", "difference"),
           Slot("A sigma^n + B tau^n", "swapped"), Slot("q^n w_(-n)", "swapped")),
)


def _lem5(ctx, b):
    p, q, r, m, s = b["p"], b["q"], b["r"], b["m"], b["s"]
    delta = ctx.roots(p, q).delta
    u, v = ctx.u(p, q), ctx.v(p, q)
    tau_r, sig_r = ctx.root_pow(p, q, r)
    tau_m, sig_m = ctx.root_pow(p, q, m)
    tau_s, sig_s = ctx.root_pow(p, q, s)
    qms = power(q, m - s)
    return (tau_r * u(m - s), tau_m * u(r - s) - qms * tau_s * u(r - m),
            sig_r * u(m - s), sig_m * u(r - s) - qms * sig_s * u(r - m),
            tau_r * u(m - s) * delta, tau_m * v(r - s) - qms * tau_s * v(r - m),
            sig_r * u(m - s) * delta,
            -(sig_m * v(r - s)) + qms * sig_s * v(r - m)), ()


LEM5 = Entry(
    id="LEM5",
    statement="tau^r u_(m-s) = tau^m u_(r-s) - q^(m-s) tau^s u_(r-m) "
              "(and the sigma and v-weighted counterparts)",
    domain="p, q != 0; p^2 - 4q != 0",
    guards=(GUARD_PQ, GUARD_DISC), evaluate=_lem5,
    grid=(*PQ_AXES, axis("r", irange(-4, 4)), axis("m", irange(-4, 4)),
          axis("s", irange(-4, 4))),
    sides=(Slot("tau^r u_(m-s)", "u-tau"),
           Slot("tau^m u_(r-s) - q^(m-s) tau^s u_(r-m)", "u-tau"),
           Slot("sigma^r u_(m-s)", "u-sigma"),
           Slot("sigma^m u_(r-s) - q^(m-s) sigma^s u_(r-m)", "u-sigma"),
           Slot("Delta tau^r u_(m-s)", "v-tau"),
           Slot("tau^m v_(r-s) - q^(m-s) tau^s v_(r-m)", "v-tau"),
           Slot("Delta sigma^r u_(m-s)", "v-sigma"),
           Slot("-sigma^m v_(r-s) + q^(m-s) sigma^s v_(r-m)", "v-sigma")),
)


def _lem6(ctx, b):
    p, q, n, m = b["p"], b["q"], b["n"], b["m"]
    u, v = ctx.u(p, q), ctx.v(p, q)
    qm = power(q, m)
    d = _disc(p, q)
    return (u(n + m) - qm * u(n - m), u(m) * v(n),
            v(n + m) - qm * v(n - m), d * u(m) * u(n),
            u(n + m) + qm * u(n - m), v(m) * u(n),
            v(n + m) + qm * v(n - m), v(m) * v(n)), ()


LEM6 = Entry(
    id="LEM6",
    statement="u_(n+m) -+ q^m u_(n-m) = u_m v_n or v_m u_n; "
              "v_(n+m) -+ q^m v_(n-m) = Delta^2 u_m u_n or v_m v_n",
    domain="p, q != 0 (the repeated-root case is included: no root appears)",
    guards=(GUARD_PQ,), evaluate=_lem6,
    grid=(*PQ_AXES, axis("n", irange(-4, 4)), axis("m", irange(-4, 4))),
    sides=(Slot("u_(n+m) - q^m u_(n-m)", "u-minus"), Slot("u_m v_n", "u-minus"),
           Slot("v_(n+m) - q^m v_(n-m)", "v-minus"),
           Slot("Delta^2 u_m u_n", "v-minus"),
           Slot("u_(n+m) + q^m u_(n-m)", "u-plus"), Slot("v_m u_n", "u-plus"),
           Slot("v_(n+m) + q^m v_(n-m)", "v-plus"), Slot("v_m v_n", "v-plus")),
)


# ---------------------------------------------------------------------------
# H01-H05: the main weighted-sum theorems
# ---------------------------------------------------------------------------

def _q_weights(ctx, q, r, count):
    """Weights q^(rj) for j < count."""
    return power_weights(power(q, r), 1, count - 1)


def _signed_q_weights(ctx, q, r, count):
    """Weights (-1)^j q^(rj) for j < count."""
    return power_weights(-power(q, r), 1, count - 1)


def _h01_shared(ctx, p, q, r, n):
    """Weights q^(rj), the middle sum after w_t as the weight of w_t, and
    the closed form's weights (1, -q^M, -q, q q^M) / (u_r Delta^2),
    M = r(n+1)."""
    u, v = ctx.u(p, q), ctx.v(p, q)
    mid = weighted_sum(power_weights(Rat(v(r), 2), 1, n), *v.read(r * n, -r, n + 1)) / 2
    qM, den = power(q, r * (n + 1)), Rat(u(r) * _disc(p, q))
    return (ctx.memo(_q_weights, q, r, n + 1), int_weights((mid,)),
            int_weights(c / den for c in (1, -qM, -q, q * qM)))


def _h01(ctx, b):
    p, q, a, bb, r, t, n = (b["p"], b["q"], b["a"], b["b"], b["r"], b["t"], b["n"])
    w = ctx.table(a, bb, p, q)
    qr, mid, closed = ctx.memo(_h01_shared, p, q, r, n)
    M = r * (n + 1)
    s1 = weighted_sum(qr, *w.read(r * n + t, -2 * r, n + 1))
    s2 = weighted_sum(mid, *w.at(t))
    s3 = weighted_sum(closed, *w.at(t + 1 + M, t + 1 - M, t - 1 + M, t - 1 - M))
    return (s1, s2, s3), ()


H01 = Entry(
    id="H01",
    statement="sum_{j=0..n} q^(rj) w_(r(n-2j)+t) "
              "= w_t sum_{j=0..n} v_r^j v_(r(n-j)) / 2^(j+1) "
              "= (w_(t+1+r(n+1)) - q^(r(n+1)) w_(t+1-r(n+1)) "
              "- q (w_(t-1+r(n+1)) - q^(r(n+1)) w_(t-1-r(n+1)))) / (u_r Delta^2)",
    domain="p, q != 0; u_r != 0; p^2 - 4q != 0; n >= 0",
    guards=(GUARD_PQ, GUARD_DISC, GUARD_UR, GUARD_N), evaluate=_h01,
    grid=PQ_SEED_R_T_N_AXES,
    sides=SUMS,
)


#: The sides of the sums that vanish: H02, H08 and H09.
SUM_ZERO = (Slot("sum"), Slot("zero"))


def _h02(ctx, b):
    p, q, r, n = b["p"], b["q"], b["r"], b["n"]
    s = weighted_sum(ctx.memo(_q_weights, q, r, n + 1),
                     *ctx.u(p, q).read(r * n, -2 * r, n + 1))
    return (s, 0), ()


H02 = Entry(
    id="H02",
    statement="sum_{j=0..n} q^(rj) u_(r(n-2j)) = 0",
    domain="p, q != 0; n >= 0 (repeated root included)",
    guards=(GUARD_PQ, GUARD_N), evaluate=_h02,
    grid=PQ_R_N_AXES,
    sides=SUM_ZERO,
)


def _h03(ctx, b):
    p, q, n = b["p"], b["q"], b["n"]
    u, v = ctx.u(p, q), ctx.v(p, q)
    s1 = weighted_sum(ctx.memo(_q_weights, q, 1, n + 1), *v.read(n, -2, n + 1))
    s2 = weighted_sum(power_weights(Rat(p, 2), 1, n), *v.read(n, -1, n + 1))
    return (s1, s2, 2 * u(n + 1)), ()


H03 = Entry(
    id="H03",
    statement="sum_{j=0..n} q^j v_(n-2j) = sum_{j=0..n} (p/2)^j v_(n-j) = 2 u_(n+1)",
    domain="p, q != 0; n >= 0 (repeated root included)",
    guards=(GUARD_PQ, GUARD_N), evaluate=_h03,
    grid=(*PQ_AXES, axis("n", irange(0, 6))), sides=SUMS,
)


def _h04_shared(ctx, p, q, r, n):
    """Weights 2 q^(r(n-j)) of the left sum; the middle sum's weights
    v_r^j / 2^j of its first terms, then v_r^j q^(r(n-j)) / 2^j of its
    second; the closed form's weights 2 (1, -q, -q^M, q q^M) / (u_r Delta^2),
    M = r(n+1)."""
    u, v = ctx.u(p, q), ctx.v(p, q)
    qr, half = power(q, r), Rat(v(r), 2)
    left, den_left = power_weights(1, qr, n)
    qM, den = power(q, r * (n + 1)), Rat(u(r) * _disc(p, q))
    return (([2 * c for c in left], den_left),
            joined_weights(power_weights(half, 1, n), power_weights(half, qr, n)),
            int_weights(2 * c / den for c in (1, -q, -qM, q * qM)))


def _h04(ctx, b):
    p, q, a, bb, r, t, n = (b["p"], b["q"], b["a"], b["b"], b["r"], b["t"], b["n"])
    w = ctx.table(a, bb, p, q)
    left, mid, closed = ctx.memo(_h04_shared, p, q, r, n)
    s1 = weighted_sum(left, *w.read(t, 2 * r, n + 1))
    # z_j = q^K w_(rj+t), j = 0..2n, holds both terms of every summand of the
    # middle sum, over one scale: w_(r(2n-j)+t) is z_(2n-j)
    z, scale = w.read(t, r, 2 * n + 1)
    s2 = weighted_sum(mid, z[n:][::-1] + z[:n + 1], scale)
    top = r * (2 * n + 1) + t
    s3 = weighted_sum(closed, *w.at(top + 1, top - 1, t - r + 1, t - r - 1))
    return (s1, s2, s3), ()


H04 = Entry(
    id="H04",
    statement="2 sum_{j=0..n} q^(r(n-j)) w_(2rj+t) "
              "= sum_{j=0..n} (v_r/2)^j (w_(r(2n-j)+t) + q^(r(n-j)) w_(rj+t)) "
              "= 2 (w_(r(2n+1)+t+1) - q w_(r(2n+1)+t-1) "
              "- q^(r(n+1)) (w_(t-r+1) - q w_(t-r-1))) / (u_r Delta^2)",
    domain="p, q != 0; u_r != 0; p^2 - 4q != 0; n >= 0",
    guards=(GUARD_PQ, GUARD_DISC, GUARD_UR, GUARD_N), evaluate=_h04,
    grid=PQ_SEED_R_T_N_AXES,
    sides=SUMS,
)


def _h05_shared(ctx, p, q, m, s, r, n):
    """Every seed- and shift-free factor of the three sides.

    The left sum's weights g^j u_(r-s)^(n-j), g = -q^(m-s) u_(r-m); the
    middle sum's weights u_(m-s)^j / 2^(j+1) u_(r-s)^(n-j) of its first
    terms, then u_(m-s)^j / 2^(j+1) g^(n-j) of its second, and the index
    offsets from t of those terms, mn + (r-m)j and then sn + (r-s)j; the
    closed form's weights, Y's coefficients (``_h05_y``) over X = q^m X0
    (``_h05_x``).
    """
    u = ctx.u(p, q)
    us, g, half = u(r - s), -power(q, m - s) * u(r - m), Rat(u(m - s), 2)
    mid, den = joined_weights(power_weights(half, us, n), power_weights(half, g, n))
    # s (n - j) + t + r j = s n + t + (r - s) j
    offsets = ([m * n + (r - m) * j for j in range(n + 1)]
               + [s * n + (r - s) * j for j in range(n + 1)])
    x, y = ctx.memo(_h05_x, p, q, m, s, r), ctx.memo(_h05_y, p, q, m, s, r, n)
    return (power_weights(g, us, n), (mid, 2 * den), offsets,
            int_weights(Rat(c) / x for c in y))


def _h05(ctx, b):
    p, q, a, bb = b["p"], b["q"], b["a"], b["b"]
    m, s, r, t, n = b["m"], b["s"], b["r"], b["t"], b["n"]
    w = ctx.table(a, bb, p, q)
    left, mid, offsets, closed = ctx.memo(_h05_shared, p, q, m, s, r, n)
    s1 = weighted_sum(left, *w.read(m * n + t, s - m, n + 1))
    s2 = weighted_sum(mid, *w.at(*[t + k for k in offsets]))
    s3 = weighted_sum(closed, *w.at(m * n + t, m * n + m + t - s,
                                    s * n + s + t - m, s * n + t))
    return (s1, s2, s3), ()


H05 = Entry(
    id="H05",
    statement="sum_{j=0..n} (-1)^j q^((m-s)j) u_(r-s)^(n-j) u_(r-m)^j w_((s-m)j+mn+t) "
              "= sum_{j=0..n} u_(m-s)^j / 2^(j+1) (u_(r-s)^(n-j) w_((r-m)j+mn+t) "
              "+ (-1)^(n-j) q^((m-s)(n-j)) u_(r-m)^(n-j) w_(s(n-j)+t+rj)) "
              "= (u_(r-s)^(n+2) w_(mn+t) + u_(r-s)^(n+1) u_(r-m) w_(mn+m+t-s)) / X0 "
              "+ (-1)^n u_(r-m)^(n+1) (q^((m-s)(n+1)+m) u_(r-s) w_(sn+s+t-m) "
              "+ q^((m-s)(n+2)+s) u_(r-m) w_(sn+t)) / (q^m X0), "
              "X0 = u_(r-s)^2 + q^(m-s) u_(r-m)^2 + u_(r-s) u_(r-m) v_(m-s)",
    domain="p, q != 0; X0 != 0; n >= 0 (repeated root included)",
    # X = q^m X0 with q != 0, so X0 != 0 exactly when X != 0; X divides by
    # q for m < 0, so its guard follows GUARD_PQ
    guards=(GUARD_PQ,
            Guard("X0 != 0", ("p", "q", "m", "s", "r"),
                  lambda ctx, b: ctx.memo(_h05_x, b["p"], b["q"], b["m"], b["s"],
                                          b["r"]) != 0),
            GUARD_N),
    evaluate=_h05,
    grid=(*PQ_AXES, joint(("a", "b"), [(0, 1), (2, 3)]),
          joint(("m", "s", "r"),
                [(1, 0, 2), (2, 1, 3), (0, 0, 1), (2, -1, -2), (-1, -2, 0),
                 (3, 1, 1), (4, 2, -3), (-2, -4, 3), (2, 2, 2), (1, -3, -1)]),
          axis("t", irange(-2, 2)), axis("n", irange(0, 6))),
    sides=SUMS,
)


# ---------------------------------------------------------------------------
# H06/H07 and the final corollary H08-H11
# ---------------------------------------------------------------------------

GUARD_H06 = Guard("n = 0 or u_r != 0", ("p", "q", "r", "n"),
                  lambda ctx, b: b["n"] == 0 or ctx.u(b["p"], b["q"])(b["r"]) != 0)
GUARD_H07 = Guard("n = 0 or (u_r != 0 and p^2 - 4q != 0)", ("p", "q", "r", "n"),
                  lambda ctx, b: b["n"] == 0
                  or (ctx.u(b["p"], b["q"])(b["r"]) != 0 and _disc(b["p"], b["q"]) != 0))


def _h06_shared(ctx, p, q, r, n):
    """Weights (-1)^j q^(rj); the middle side over w_t and v_(r(2n+1)) / v_r,
    each as the weight of w_t.

    The middle side over w_t is half the first middle sum plus the second
    over u_r (present for n >= 1).
    """
    u, v = ctx.u(p, q), ctx.v(p, q)
    g, den = power_weights(Rat(u(r) ** 2 * _disc(p, q), 4), 1, n)
    mid = weighted_sum((g, den), *v.read(2 * r * n, -2 * r, n + 1)) / 2
    if n >= 1:
        mid += weighted_sum((g[1:], den), *u.read(r * (2 * n - 1), -2 * r, n)) / u(r)
    return (ctx.memo(_signed_q_weights, q, r, 2 * n + 1), int_weights((mid,)),
            int_weights((v(r * (2 * n + 1)) / Rat(v(r)),)))


def _h06(ctx, b):
    p, q, a, bb, r, t, n = (b["p"], b["q"], b["a"], b["b"], b["r"], b["t"], b["n"])
    w = ctx.table(a, bb, p, q)
    sq, mid, closed = ctx.memo(_h06_shared, p, q, r, n)
    s1 = weighted_sum(sq, *w.read(2 * r * n + t, -2 * r, 2 * n + 1))
    wt = w.at(t)
    return (s1, weighted_sum(mid, *wt), weighted_sum(closed, *wt)), ()


H06 = Entry(
    id="H06",
    statement="sum_{j=0..2n} (-1)^j q^(rj) w_(2r(n-j)+t) "
              "= w_t/2 sum_{j=0..n} (u_r^2 Delta^2/4)^j v_(2r(n-j)) "
              "+ w_t/u_r sum_{j=1..n} (u_r^2 Delta^2/4)^j u_(r(2n-2j+1)) "
              "= w_t v_(r(2n+1)) / v_r",
    domain="p, q != 0; v_r != 0; u_r != 0 unless n = 0; n >= 0",
    guards=(GUARD_PQ, GUARD_VR, GUARD_N, GUARD_H06), evaluate=_h06,
    grid=PQ_SEED_R_T_N_AXES,
    sides=SUMS,
)


def _h07_shared(ctx, p, q, r, n):
    """Weights (-1)^j q^(rj); the middle side's factor M after
    w_(t+1) - q w_(t-1), and its weights M and -q M of w_(t+1) and w_(t-1);
    the closed form's weights (1, -q^(2rn)) / v_r.

    M is half the first middle sum plus the second over u_r Delta^2
    (present for n >= 1).
    """
    u, v = ctx.u(p, q), ctx.v(p, q)
    g, den = power_weights(Rat(u(r) ** 2 * _disc(p, q), 4), 1, n)
    mid = weighted_sum((g[:n], den), *u.read(r * (2 * n - 1), -2 * r, n)) / 2
    if n >= 1:
        mid += (weighted_sum((g[1:], den), *v.read(2 * r * (n - 1), -2 * r, n))
                / (u(r) * _disc(p, q)))
    vr = Rat(v(r))
    return (ctx.memo(_signed_q_weights, q, r, 2 * n), mid,
            int_weights((mid, -q * mid)),
            int_weights((1 / vr, -power(q, 2 * r * n) / vr)))


def _h07(ctx, b):
    p, q, a, bb, r, t, n = (b["p"], b["q"], b["a"], b["b"], b["r"], b["t"], b["n"])
    w = ctx.table(a, bb, p, q)
    sq, _, mid, closed = ctx.memo(_h07_shared, p, q, r, n)
    s1 = weighted_sum(sq, *w.read(r * (2 * n - 1) + t, -2 * r, 2 * n))
    s2 = weighted_sum(mid, *w.at(t + 1, t - 1))
    s3 = weighted_sum(closed, *w.at(t + 2 * r * n, t - 2 * r * n))
    return (s1, s2, s3), ()


H07 = Entry(
    id="H07",
    statement="sum_{j=0..2n-1} (-1)^j q^(rj) w_(r(2n-1-2j)+t) "
              "= (w_(t+1) - q w_(t-1))/2 sum_{j=0..n-1} (u_r^2 Delta^2/4)^j u_(r(2n-2j-1)) "
              "+ (w_(t+1) - q w_(t-1))/(u_r Delta^2) "
              "sum_{j=1..n} (u_r^2 Delta^2/4)^j v_(r(2n-2j)) "
              "= (w_(t+2rn) - q^(2rn) w_(t-2rn)) / v_r",
    domain="p, q != 0; v_r != 0; u_r != 0 and p^2 - 4q != 0 unless n = 0; n >= 0",
    guards=(GUARD_PQ, GUARD_VR, GUARD_N, GUARD_H07), evaluate=_h07,
    grid=PQ_SEED_R_T_N_AXES,
    sides=SUMS,
)


def _h08(ctx, b):
    p, q, r, n = b["p"], b["q"], b["r"], b["n"]
    s = weighted_sum(ctx.memo(_signed_q_weights, q, r, 2 * n + 1),
                     *ctx.u(p, q).read(2 * r * n, -2 * r, 2 * n + 1))
    return (s, 0), ()


H08 = Entry(
    id="H08",
    statement="sum_{j=0..2n} (-1)^j q^(rj) u_(2r(n-j)) = 0",
    domain="p, q != 0; n >= 0 (no other constraint: the sum telescopes to zero)",
    guards=(GUARD_PQ, GUARD_N), evaluate=_h08,
    grid=PQ_R_N_AXES,
    sides=SUM_ZERO,
)


def _h09(ctx, b):
    p, q, r, n = b["p"], b["q"], b["r"], b["n"]
    s = weighted_sum(ctx.memo(_signed_q_weights, q, r, 2 * n),
                     *ctx.v(p, q).read(r * (2 * n - 1), -2 * r, 2 * n))
    return (s, 0), ()


H09 = Entry(
    id="H09",
    statement="sum_{j=0..2n-1} (-1)^j q^(rj) v_(r(2n-1-2j)) = 0",
    domain="p, q != 0; n >= 0",
    guards=(GUARD_PQ, GUARD_N), evaluate=_h09,
    grid=PQ_R_N_AXES,
    sides=SUM_ZERO,
)


def _h10(ctx, b):
    # H07 at w = u, t = 0: w_(t+1) - q w_(t-1) = 2, so the middle side is 2 M
    p, q, r, t, n = b["p"], b["q"], b["r"], b["t"], b["n"]
    u, v = ctx.u(p, q), ctx.v(p, q)
    sq, mid, _, _ = ctx.memo(_h07_shared, p, q, r, n)
    top = r * (2 * n - 1)
    left = weighted_sum(sq, *u.read(top, -2 * r, 2 * n))
    left_printed = weighted_sum(sq, *u.read(top + t, -2 * r, 2 * n))
    return (left_printed, left, 2 * mid, 2 * u(2 * r * n) / Rat(v(r))), ()


H10 = Entry(
    id="H10",
    statement="sum_{j=0..2n-1} (-1)^j q^(rj) u_(r(2n-1-2j)) "
              "= sum_{j=0..n-1} (u_r^2 Delta^2/4)^j u_(r(2n-2j-1)) "
              "+ 2/(u_r Delta^2) sum_{j=1..n} (u_r^2 Delta^2/4)^j v_(r(2n-2j)) "
              "= 2 u_(2rn) / v_r",
    domain="p, q != 0; v_r != 0; u_r != 0 and p^2 - 4q != 0 unless n = 0; n >= 0",
    guards=(GUARD_PQ, GUARD_VR, GUARD_N, GUARD_H07), evaluate=_h10,
    grid=(*PQ_AXES, axis("r", irange(-4, 4)), axis("t", irange(-2, 2)),
          axis("n", irange(0, 6))),
    sides=(Slot("left sum with displayed shift t", variant="as-printed"),
           Slot("left sum without shift", variant="as-proved"),
           Slot("middle sum"), Slot("closed form")),
    notes=("The display carries a '+t' inside the left sum that the t-free "
           "middle and closed sides contradict for t != 0; the parent theorem "
           "specializes to t = 0 here, so the shift-free left sum verifies.",),
)


def _h11(ctx, b):
    # H06 at w = v (seeds (2, p)) and t = 0, where w_t = 2: H11's middle side
    # is twice H06's over w_t, so H11 names H06's builder and reads its values
    p, q, r, n = b["p"], b["q"], b["r"], b["n"]
    sq, mid, closed = ctx.memo(_h06_shared, p, q, r, n)
    s1 = weighted_sum(sq, *ctx.v(p, q).read(2 * r * n, -2 * r, 2 * n + 1))
    return (s1, weighted_sum(mid, [2]), weighted_sum(closed, [2])), ()


H11 = Entry(
    id="H11",
    statement="sum_{j=0..2n} (-1)^j q^(rj) v_(2r(n-j)) "
              "= sum_{j=0..n} (u_r^2 Delta^2/4)^j v_(2r(n-j)) "
              "+ 2/u_r sum_{j=1..n} (u_r^2 Delta^2/4)^j u_(r(2n-2j+1)) "
              "= 2 v_(r(2n+1)) / v_r",
    domain="p, q != 0; v_r != 0; u_r != 0 unless n = 0; n >= 0",
    guards=(GUARD_PQ, GUARD_VR, GUARD_N, GUARD_H06), evaluate=_h11,
    grid=PQ_R_N_AXES,
    sides=SUMS,
)


HORADAM_ENTRIES = [LEM2, LEM3, LEM4, LEM5, LEM6,
                   H01, H02, H03, H04, H05, H06, H07, H08, H09, H10, H11]
