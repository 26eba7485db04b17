"""Second-order linear recurrence sequences at arbitrary signed index.

Families: Fibonacci F, Lucas L, Pell P, Pell companions Q, Gibonacci (free
integer seeds on the Fibonacci recurrence), and the general Horadam
w_n(a, b; p, q) with w_n = p*w_{n-1} - q*w_{n-2} plus its classical
specializations u = w(0,1), v = w(2,p).

Every single term, of every family, comes from one Lucas-sequence
doubling, ``_u_pair``, and the linear form w_n = a*u_(n+1) + (b - a*p)*u_n
in u_n = u_n(p, q). Below zero the work stays in the integers:
y_k = q^k * w_(-k) obeys the same recurrence from the seeds (a, p*a - b),
so w_(-k) = y_k / q^k in Z[1/q]. That one division is the only rational
step, and it returns an int when it is exact, else a reduced Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .scalars import CharRoots, DomainError, make_roots

SeqValue = Union[int, Fraction]


def neg_one(exponent: int) -> int:
    """(-1)**exponent via parity, valid for negative exponents too."""
    return -1 if exponent & 1 else 1


def _over(y: int, d: int) -> SeqValue:
    """y / d canonically: an int when d divides y, else a reduced Fraction."""
    v, r = divmod(y, d)
    return Fraction(y, d) if r else v


# ---------------------------------------------------------------------------
# one doubling for every term
# ---------------------------------------------------------------------------

def _u_pair(p: int, q: int, n: int) -> tuple[int, int]:
    """(u_n, u_(n+1)) of u = w(0, 1; p, q) for n >= 0, one bit at a time.

    u_2k = u_k (2 u_(k+1) - p u_k) and u_(2k+1) = u_(k+1)^2 - q u_k^2.
    """
    u, u1 = 0, 1
    for i in range(n.bit_length() - 1, -1, -1):
        u, u1 = u * (2 * u1 - p * u), u1 * u1 - q * (u * u)
        if n >> i & 1:
            u, u1 = u1, p * u1 - q * u
    return u, u1


def _w(a: int, b: int, p: int, q: int, n: int) -> SeqValue:
    """w_n(a, b; p, q) for any integer n; below zero y_k / q^k."""
    k = abs(n)
    if n < 0:
        b = p * a - b
    u, u1 = _u_pair(p, q, k)
    y = a * u1 + (b - a * p) * u
    return y if n >= 0 else _over(y, q ** k)


def fib(n: int) -> int:
    """F_n for any integer n; F_{-n} = (-1)^(n-1) F_n."""
    return _w(0, 1, 1, -1, n)


def lucas(n: int) -> int:
    """L_n for any integer n; L_{-n} = (-1)^n L_n."""
    return _w(2, 1, 1, -1, n)


# ---------------------------------------------------------------------------
# Horadam sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HoradamParams:
    """Seeds and recurrence coefficients for w_n = p*w_{n-1} - q*w_{n-2}."""

    a: int
    b: int
    p: int
    q: int

    def __post_init__(self):
        if self.p == 0:
            raise DomainError("Horadam recurrence requires p != 0")
        if self.q == 0:
            raise DomainError("Horadam recurrence requires q != 0")

    @property
    def disc(self) -> int:
        return self.p * self.p - 4 * self.q

    def roots(self) -> CharRoots:
        """Characteristic roots; rejects the repeated-root case disc = 0."""
        return make_roots(self.p, self.q)


def horadam_w(params: HoradamParams, n: int) -> SeqValue:
    """w_n exactly; integral for n >= 0, possibly fractional below zero."""
    return _w(params.a, params.b, params.p, params.q, n)


def lucas_u(p: int, q: int, n: int) -> SeqValue:
    """First-kind Lucas sequence u_n(p,q) = w_n(0,1;p,q)."""
    return horadam_w(HoradamParams(0, 1, p, q), n)


def lucas_v(p: int, q: int, n: int) -> SeqValue:
    """Second-kind Lucas sequence v_n(p,q) = w_n(2,p;p,q)."""
    return horadam_w(HoradamParams(2, p, p, q), n)


def pell(n: int) -> int:
    """Pell numbers: seeds 0,1 on x_{k+1} = 2x_k + x_{k-1}, signed index."""
    return lucas_u(2, -1, n)


def pell_lucas(n: int) -> int:
    """Pell companions: seeds 2,2 on the Pell recurrence, signed index."""
    return lucas_v(2, -1, n)


def gibonacci(seed: tuple[int, int], n: int) -> int:
    """Fibonacci recurrence from arbitrary integer seeds (g0, g1), signed n."""
    return _w(seed[0], seed[1], 1, -1, n)


# ---------------------------------------------------------------------------
# index-range tables for grid sweeps
# ---------------------------------------------------------------------------

class SeqTable:
    """Bidirectional value table for one recurrence, extended on demand.

    Grid sweeps hit the same indices thousands of times; walking the
    recurrence once per index range is far cheaper than per-call
    doubling. Both walks are integer: downward it carries y_k, y_(k+1) and
    q^k for k = -lo, and stores each new term w_(-k) = y_k / q^k in
    canonical form.
    """

    __slots__ = ("p", "q", "_vals", "_lo", "_hi", "_down")

    def __init__(self, a: int, b: int, p: int, q: int):
        self.p = p
        self.q = q
        self._vals = {0: a, 1: b}
        self._lo = 0
        self._hi = 1
        self._down = (a, p * a - b, 1)

    def __call__(self, n: int) -> SeqValue:
        vals = self._vals
        if n > self._hi:
            p, q = self.p, self.q
            for k in range(self._hi + 1, n + 1):
                vals[k] = p * vals[k - 1] - q * vals[k - 2]
            self._hi = n
        elif n < self._lo:
            p, q = self.p, self.q
            y0, y1, qk = self._down
            for k in range(self._lo - 1, n - 1, -1):
                qk *= q
                vals[k] = _over(y1, qk)
                y0, y1 = y1, p * y1 - q * y0
            self._down = (y0, y1, qk)
            self._lo = n
        return vals[n]
