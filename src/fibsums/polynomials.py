"""Dense exact polynomials and the Fibonacci/Lucas/Chebyshev families.

A polynomial is a tuple of coefficients in ascending powers, trailing
zeros trimmed; the zero polynomial is the empty tuple. Coefficients are
ints, Fractions, or QuadExt elements (the Gaussian-argument checks put
sqrt(-1) into coefficients), all combinable through operator overloading.

The four families are one recurrence, w_n = p*w_(n-1) - q*w_(n-2), over
Z[x] with q = +-1, and one walk computes them all. Below zero it uses the
rule of the integer sequences: y_k = q^k w_(-k) obeys the same recurrence
from the seeds (a, p*a - b), and q^k = +-1 is its own inverse. That one
rule yields F_{-n}(x) = (-1)^(n-1) F_n(x), L_{-n}(x) = (-1)^n L_n(x),
T_{-n} = T_n, U_{-1} = 0 and U_{-n} = -U_{n-2}, which are what the left
sums with negative inner index require.
"""

from __future__ import annotations

from .scalars import render_scalar

Poly = tuple

POLY_ZERO: Poly = ()
POLY_ONE: Poly = (1,)
POLY_X: Poly = (0, 1)


def _trim(coeffs) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly(*coeffs) -> Poly:
    """Polynomial from ascending coefficients, canonicalized."""
    return _trim(coeffs)


def poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n))


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, poly_scale(-1, b))


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return POLY_ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def poly_scale(c, a: Poly) -> Poly:
    return _trim(c * x for x in a)


def poly_pow(a: Poly, n: int) -> Poly:
    if n < 0:
        raise ValueError("negative polynomial power")
    r: Poly = POLY_ONE
    base = a
    while n:
        if n & 1:
            r = poly_mul(r, base)
        base = poly_mul(base, base)
        n >>= 1
    return r


def poly_eval(p: Poly, x):
    """Horner evaluation; x may be int, Fraction, or QuadExt."""
    r = 0
    for c in reversed(p):
        r = r * x + c
    return r


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def _walk(a: Poly, b: Poly, p: Poly, q: int, n: int) -> Poly:
    """w_n(a, b; p, q) over Z[x] for q = +-1 and any integer n."""
    k = abs(n)
    if n < 0:
        b = poly_sub(poly_mul(p, a), b)
    step = poly_add if q == -1 else poly_sub
    for _ in range(k):
        a, b = b, step(poly_mul(p, b), a)
    return a if n >= 0 else poly_scale(q ** k, a)


_TWO_X: Poly = (0, 2)


def fib_poly(n: int) -> Poly:
    """Fibonacci polynomial F_n(x): seeds 0, 1, recurrence x*prev + prev2."""
    return _walk(POLY_ZERO, POLY_ONE, POLY_X, -1, n)


def lucas_poly(n: int) -> Poly:
    """Lucas polynomial L_n(x): seeds 2, x on the same recurrence."""
    return _walk((2,), POLY_X, POLY_X, -1, n)


def cheb_T(n: int) -> Poly:
    """Chebyshev T_n(x): seeds 1, x, recurrence 2x*prev - prev2."""
    return _walk(POLY_ONE, POLY_X, _TWO_X, 1, n)


def cheb_U(n: int) -> Poly:
    """Chebyshev U_n(x): seeds 1, 2x on the same recurrence."""
    return _walk(POLY_ONE, _TWO_X, _TWO_X, 1, n)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_poly(p: Poly) -> str:
    """Descending-power text with exact coefficients, e.g. '4x^2 - 1'."""
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        cs = render_scalar(c)
        neg = cs.startswith("-")
        mag = cs[1:] if neg else cs
        if k == 0:
            term = mag
        else:
            xk = "x" if k == 1 else f"x^{k}"
            term = xk if mag == "1" else f"{mag}{xk}"
        if not parts:
            parts.append(f"-{term}" if neg else term)
        else:
            parts.append(f"- {term}" if neg else f"+ {term}")
    return " ".join(parts)
