"""Second-order linear recurrence sequences at arbitrary signed index.

Families: Fibonacci F, Lucas L, Pell P, Pell companions Q, and the general
Horadam w_n(a, b; p, q) with w_n = p*w_{n-1} - q*w_{n-2} plus its classical
specializations u = w(0,1), v = w(2,p).

Every single term, of every family, comes from one Lucas-sequence
doubling, ``_u_pair``, and the linear form w_n = a*u_(n+1) + (b - a*p)*u_n
in u_n = u_n(p, q). Below zero the work stays in the integers:
y_k = q^k * w_(-k) obeys the same recurrence from the seeds (a, p*a - b),
so w_(-k) = y_k / q^k in Z[1/q]. That one division is the only rational
step, and it returns an int when it is exact, else a reduced Fraction from
the single-term functions and a kernel ``Rat``, which defers the gcd, from
a ``SeqTable``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Union

from .scalars import DomainError, Rat, _rat

#: A single term: an int exactly when it is integral, else a reduced Fraction.
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
        for name in ("a", "b", "p", "q"):
            if not isinstance(getattr(self, name), int):
                raise TypeError(f"HoradamParams.{name} must be an int, "
                                f"not {getattr(self, name)!r}")
        if self.p == 0:
            raise DomainError("Horadam recurrence requires p != 0")
        if self.q == 0:
            raise DomainError("Horadam recurrence requires q != 0")


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


# ---------------------------------------------------------------------------
# index-range tables for grid sweeps
# ---------------------------------------------------------------------------

class SeqTable:
    """Bidirectional table of one recurrence, extended on demand.

    Grid sweeps hit the same indices thousands of times; walking the
    recurrence once per index range is far cheaper than per-call doubling.
    The table's store is integers only: the terms w_0, w_1, ... upward, and
    below zero y_k = q^k w_(-k) beside q^k for k = 0, 1, ..., both walked
    from the seeds as in ``_w``. Each list grows exactly as far as a read
    needs.

    ``table.read(start, step, count)`` reads the progression w_(start),
    w_(start+step), ... and ``table.at(*indices)`` a few listed terms, as
    integers Z_j = q^K w_(i_j) over one power q^K, where K = max(0, -min i_j)
    is the read's own depth: each Z_j is a stored integer times a power of
    q, and no term is divided. ``table(n)`` is the single term w_n, an int
    exactly when it is integral: below zero, for n = -k, the int y_k / q^k
    when q^k divides y_k, else the kernel ``Rat`` y_k / q^k, built through
    ``scalars``' trusted constructor, which defers the gcd.
    """

    __slots__ = ("p", "q", "_w", "_y", "_qk")

    def __init__(self, a: int, b: int, p: int, q: int):
        self.p = p
        self.q = q
        self._w = [a, b]
        self._y = [a, p * a - b]
        self._qk = [1, q]

    def _up(self, n: int) -> None:
        """Extend the terms w_n upward through index n."""
        w, p, q = self._w, self.p, self.q
        x0, x1 = w[-2], w[-1]
        for _ in range(n + 1 - len(w)):
            x0, x1 = x1, p * x1 - q * x0
            w.append(x1)

    def _down(self, k: int) -> None:
        """Extend y_k = q^k w_(-k) and q^k through depth k."""
        y, qk, p, q = self._y, self._qk, self.p, self.q
        y0, y1, qj = y[-2], y[-1], qk[-1]
        for _ in range(k + 1 - len(y)):
            y0, y1 = y1, p * y1 - q * y0
            qj *= q
            y.append(y1)
            qk.append(qj)

    def __call__(self, n: int) -> Union[int, Rat]:
        if n >= 0:
            if n >= len(self._w):
                self._up(n)
            return self._w[n]
        if -n >= len(self._y):
            self._down(-n)
        y, d = self._y[-n], self._qk[-n]
        v, r = divmod(y, d)
        if not r:
            return v
        return _rat(y, d) if d > 0 else _rat(-y, -d)

    def read(self, start: int, step: int, count: int) -> tuple:
        """``(Z, q^K)``: Z_j = q^K w_(start + j*step) for j < count, and
        K = max(0, -min index), so sum(N_j Z_j) / (D q^K) is the weighted
        sum of those terms (``scalars.weighted_sum``).
        """
        if count <= 1 or step == 0:
            if count <= 0:
                return [], 1
            z, scale = self.at(start)
            return z * count, scale
        last = start + (count - 1) * step
        lo, hi = (start, last) if step > 0 else (last, start)
        w = self._w
        if hi >= len(w):
            self._up(hi)
        if lo >= 0:
            # a stop of -1 would read as the end of the list
            return w[start:last + 1 if step > 0 else last - 1 if last else None:step], 1
        depth = -lo
        if depth >= len(self._y):
            self._down(depth)
        y, qk = self._y, self._qk
        scale = qk[depth]
        # an index i = -k below zero reads y_k q^(K - k), one at or above
        # zero w_i q^K: one product of the terms' and the factors' slices,
        # both in the progression's order
        if step > 0:
            neg = min(count, (depth + step - 1) // step)
            first = start + neg * step
            terms = y[depth:-first if first <= 0 else None:-step]
            factors = qk[:neg * step:step]
            if first <= last:
                terms += w[first:last + 1:step]
                factors += [scale] * (count - neg)
        else:
            up = start // -step + 1 if start >= 0 else 0
            k = up * -step - start
            terms = w[start::step] if up else []
            terms += y[k:depth + 1:-step]
            factors = [scale] * up + qk[depth - k::step]
        return list(map(mul, terms, factors)), scale

    def at(self, *indices: int) -> tuple:
        """``(Z, q^K)`` as ``read`` gives, for the terms at ``indices``."""
        w = self._w
        if len(indices) == 1:
            n = indices[0]
            if n >= 0:
                if n >= len(w):
                    self._up(n)
                return [w[n]], 1
            if -n >= len(self._y):
                self._down(-n)
            return [self._y[-n]], self._qk[-n]
        if not indices:
            return [], 1
        lo, hi = min(indices), max(indices)
        if hi >= len(w):
            self._up(hi)
        if lo >= 0:
            return [w[i] for i in indices], 1
        depth = -lo
        if depth >= len(self._y):
            self._down(depth)
        y, qk = self._y, self._qk
        scale = qk[depth]
        return [w[i] * scale if i >= 0 else y[-i] * qk[depth + i] for i in indices], scale
