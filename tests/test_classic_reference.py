"""The I, P and D entries that share factors agree with plain references.

I16, I17, I18, P01, P03 and P04 build their weights once per (r, n) or
their power lists once per point, and D22 builds its seed-free
coefficients once per Context. Each test here recomputes
every side (or every dividend) from the printed statement, one summand at
a time in plain ``Fraction`` arithmetic, with its own Fibonacci/Lucas
numbers and polynomials, and requires the entry's value to be equal. The
parameters reach past the default grids: negative r, k and s, and, for
D21 and D22, shifts deep enough that terms below index 0 are not integers
(kernel ``Rat``s) with |q| > 1.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibsums.identities import RejectedInstance, evaluate_entry, get_entry

ONE = Fraction(1)


def fib(k):
    """F_k for any integer k, one recurrence step per index."""
    a, b = 0, 1
    for _ in range(abs(k)):
        a, b = b, a + b
    return a if k >= 0 or k % 2 else -a


def luc(k):
    """L_k for any integer k, one recurrence step per index."""
    a, b = 2, 1
    for _ in range(abs(k)):
        a, b = b, a + b
    return a if k >= 0 or k % 2 == 0 else -a


def sign(e):
    """(-1)^e for any integer e."""
    return Fraction(-1) ** e


def sides_of(entry_id, bindings):
    """{variant or None: {label: value}} of one instance; skips rejections."""
    try:
        ev = evaluate_entry(get_entry(entry_id), bindings)
    except RejectedInstance:
        assume(False)
    out = {}
    for s in ev.sides:
        out.setdefault(s.variant, {})[s.label] = s.value
    return out


SMALL_N = st.integers(0, 8)


# ---------------------------------------------------------------------------
# I16, I17, I18
# ---------------------------------------------------------------------------

def lucas_power_left(r, t, n, seq):
    return sum(ONE * luc(r) ** j * luc(r - 1) ** (2 * n - j) * seq(j + t)
               for j in range(2 * n + 1))


def lucas_power_closed(r, t, n, seq):
    num = (luc(r) ** (2 * n + 1) * (luc(r) * seq(2 * n + t) + luc(r - 1) * seq(2 * n + t + 1))
           - luc(r - 1) ** (2 * n + 1) * (luc(r) * seq(t - 1) + luc(r - 1) * seq(t)))
    return Fraction(num, luc(r - 2) * luc(r + 1) + luc(r) * luc(r - 1))


@settings(max_examples=60, deadline=None)
@given(r=st.integers(-12, 12), t=st.integers(-12, 12), n=SMALL_N)
def test_i16_sides_and_both_readings(r, t, n):
    sides = sides_of("I16", {"r": r, "t": t, "n": n})

    def middle(extra):
        first = sum(Fraction(5 ** j, 2 ** (2 * j + 1))
                    * (luc(r) ** (2 * n - 2 * j) * luc(2 * n - 2 * j + 2 * j * r + t)
                       + luc(r - 1) ** (2 * n - 2 * j) * luc(2 * j * r + t))
                    for j in range(n + 1))
        second = sum(Fraction(5 ** j, 2 ** (2 * j))
                     * (luc(r) ** (2 * n - 2 * j + 1)
                        * fib(2 * n - 2 * j + extra + (2 * j - 1) * r + t)
                        + luc(r - 1) ** (2 * n - 2 * j + 1) * fib((2 * j - 1) * r + t))
                     for j in range(1, n + 1))
        return first + second

    assert sides[None] == {"left sum": lucas_power_left(r, t, n, luc),
                           "closed form": lucas_power_closed(r, t, n, luc)}
    assert list(sides["as-printed"].values()) == [middle(0)]
    assert list(sides["as-proved"].values()) == [middle(1)]


@settings(max_examples=60, deadline=None)
@given(r=st.integers(-12, 12), t=st.integers(-12, 12), n=SMALL_N)
def test_i17_sides_and_both_readings(r, t, n):
    sides = sides_of("I17", {"r": r, "t": t, "n": n})

    def middle(base, power_base, extra):
        first = sum(Fraction(5 ** j, 2 ** (2 * j + 1))
                    * (luc(r) ** (2 * n - 2 * j) * fib(2 * n - 2 * j + 2 * j * r + t)
                       + base(r - 1) ** (2 * n - 2 * j) * fib(2 * j * r + t))
                    for j in range(n + 1))
        second = sum(Fraction(5) ** (j - power_base) / 2 ** (2 * j)
                     * (luc(r) ** (2 * n - 2 * j + 1)
                        * luc(2 * n - 2 * j + extra + (2 * j - 1) * r + t)
                        + luc(r - 1) ** (2 * n - 2 * j + 1) * luc((2 * j - 1) * r + t))
                     for j in range(1, n + 1))
        return first + second

    assert sides[None] == {"left sum": lucas_power_left(r, t, n, fib),
                           "closed form": lucas_power_closed(r, t, n, fib)}
    assert list(sides["as-printed"].values()) == [middle(fib, 0, 0)]
    assert list(sides["as-proved"].values()) == [middle(luc, 1, 1)]


@settings(max_examples=80, deadline=None)
@given(r=st.integers(-10, 10), k=st.integers(-10, 10), s=st.integers(-10, 10),
       n=st.integers(0, 12))
def test_i18_sides(r, k, s, n):
    sides = sides_of("I18", {"r": r, "k": k, "s": s, "n": n})
    big, small = luc(2 * k + r + s), luc(r - s)
    left = 2 * sum(sign((k + s) * j) * small ** j * big ** (n - j) for j in range(n + 1))
    middle = sum(Fraction(luc(k + r) * luc(k + s), 2) ** j
                 * (big ** (n - j) + sign((k + s) * (n - j)) * small ** (n - j))
                 for j in range(n + 1))
    closed = (2 * (big ** (n + 1) - sign((k + s) * (n + 1)) * small ** (n + 1))
              / (5 * fib(k + r) * fib(k + s)))
    assert sides[None] == {"left sum": left, "middle sum": middle,
                           "closed form": closed}


# ---------------------------------------------------------------------------
# P01, P03, P04: coefficient lists, Fraction coefficients throughout
# ---------------------------------------------------------------------------

def trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def padd(a, b):
    n = max(len(a), len(b))
    return trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(n))


def pmul(a, b):
    out = [ONE * 0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def pscale(c, a):
    return trim(c * x for x in a)


def ppow(a, e):
    out = (ONE,)
    for _ in range(e):
        out = pmul(out, a)
    return out


def psum(polys):
    out = ()
    for p in polys:
        out = padd(out, p)
    return out


X = (0, ONE)


def fib_p(k):
    """F_k(x): F_0 = 0, F_1 = 1, F_k = x F_(k-1) + F_(k-2); F_(-k) = (-1)^(k-1) F_k."""
    a, b = (), (ONE,)
    for _ in range(abs(k)):
        a, b = b, padd(pmul(X, b), a)
    return a if k >= 0 else pscale(sign(k - 1), a)


def luc_p(k):
    """L_k(x): L_0 = 2, L_1 = x, L_k = x L_(k-1) + L_(k-2); L_(-k) = (-1)^k L_k."""
    a, b = (2 * ONE,), X
    for _ in range(abs(k)):
        a, b = b, padd(pmul(X, b), a)
    return a if k >= 0 else pscale(sign(k), a)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(0, 18))
def test_p01_sides(n):
    sides = sides_of("P01", {"n": n})[None]
    assert sides == {
        "alternating sum": psum(pscale(sign(j), luc_p(n - 2 * j)) for j in range(n + 1)),
        "halved sum": psum(pmul(ppow(pscale(Fraction(1, 2), X), j), luc_p(n - j))
                           for j in range(n + 1)),
        "closed form": pscale(2, fib_p(n + 1)),
    }


@settings(max_examples=15, deadline=None)
@given(n=st.integers(0, 14))
def test_p03_sides(n):
    sides = sides_of("P03", {"n": n})[None]
    weight = (ONE, 0, Fraction(1, 2))                      # (x^2 + 2) / 2
    assert sides == {
        "x * alternating-index sum": pmul(X, psum(luc_p(2 * (n - 2 * j))
                                                  for j in range(n + 1))),
        "x * halved sum": pmul(X, psum(pmul(ppow(weight, j), luc_p(2 * (n - j)))
                                       for j in range(n + 1))),
        "closed form": pscale(2, fib_p(2 * (n + 1))),
    }


@settings(max_examples=25, deadline=None)
@given(r=st.integers(1, 5), n=st.integers(0, 7))
def test_p04_sides(r, n):
    sides = sides_of("P04", {"r": r, "n": n})[None]
    up, down, xf = fib_p(r + 1), fib_p(r - 1), pmul(X, fib_p(r))
    half_l = pscale(Fraction(1, 2), luc_p(r))
    assert sides == {
        "2 x F_r(x) * power sum": pscale(2, pmul(xf, psum(
            pmul(ppow(down, j), ppow(up, n - j)) for j in range(n + 1)))),
        "x F_r(x) * halved sum": pmul(xf, psum(
            pmul(ppow(half_l, j), padd(ppow(up, n - j), ppow(down, n - j)))
            for j in range(n + 1))),
        "closed form": pscale(2, padd(ppow(up, n + 1), pscale(-1, ppow(down, n + 1)))),
    }


# ---------------------------------------------------------------------------
# D21, D22: dividends and divisors
# ---------------------------------------------------------------------------

NONZERO = st.integers(-4, 4).filter(bool)


def witnesses_of(entry_id, bindings):
    try:
        return evaluate_entry(get_entry(entry_id), bindings).witnesses
    except RejectedInstance:
        assume(False)


@settings(max_examples=80, deadline=None)
@given(p=NONZERO, q=NONZERO, a=st.integers(-3, 3), b=st.integers(-3, 3),
       r=st.integers(0, 6), m=st.sampled_from([1, 3, 5]), t=st.integers(0, 12),
       n=st.sampled_from([2, 4, 6, 8]))
def test_d21_dividends(naive_horadam, p, q, a, b, r, m, t, n):
    wits = witnesses_of("D21", {"p": p, "q": q, "a": a, "b": b, "r": r,
                                "m": m, "t": t, "n": n})

    def v(k):
        return naive_horadam(2, p, p, q, k)

    def w(k):
        return naive_horadam(a, b, p, q, k)

    expected = [("v_r | v_(rm)", v(r * m)),
                ("v_r | w_(t+rn) - q^(rn) w_(t-rn)",
                 w(t + r * n) - Fraction(q) ** (r * n) * w(t - r * n)),
                ("v_r | u_(rn)", naive_horadam(0, 1, p, q, r * n))]
    assert [(x.label, x.divisor, x.dividend) for x in wits] \
        == [(label, v(r), value) for label, value in expected]
    for x in wits:
        assert type(x.dividend) is int and x.ok
        assert x.divisor * x.quotient == x.dividend


@settings(max_examples=80, deadline=None)
@given(p=NONZERO, q=NONZERO, a=st.integers(-3, 3), b=st.integers(-3, 3),
       rms=st.lists(st.integers(0, 6), min_size=3, max_size=3).map(sorted),
       t=st.integers(0, 8), n=st.integers(0, 9))
def test_d22_dividend(naive_horadam, p, q, a, b, rms, t, n):
    s, m, r = rms
    (wit,) = witnesses_of("D22", {"p": p, "q": q, "a": a, "b": b, "m": m,
                                  "s": s, "r": r, "t": t, "n": n})

    def u(k):
        return naive_horadam(0, 1, p, q, k)

    def w(k):
        return naive_horadam(a, b, p, q, k)

    q = Fraction(q)
    x = (q ** m * u(r - s) ** 2 + q ** (2 * m - s) * u(r - m) ** 2
         + q ** m * u(r - s) * u(r - m) * naive_horadam(2, p, p, q, m - s))
    y = (q ** m * u(r - s) ** (n + 2) * w(m * n + t)
         + q ** m * u(r - s) ** (n + 1) * u(r - m) * w(m * n + m + t - s)
         + sign(n) * u(r - m) ** (n + 1)
         * (q ** ((m - s) * (n + 1) + m) * u(r - s) * w(s * n + s + t - m)
            + q ** ((m - s) * (n + 2) + s) * u(r - m) * w(s * n + t)))
    assert (wit.divisor, wit.dividend) == (x, y)
    assert type(wit.dividend) is int and wit.ok
    assert wit.divisor * wit.quotient == wit.dividend
