"""Exact scalar arithmetic: rationals and quadratic extensions Q(sqrt(D)).

Floating point is never used.

Representation. ``Rat`` is the kernel rational: integers n/d with d > 0,
not kept in lowest terms. ``QuadExt`` holds a + b*sqrt(D), for a fixed
non-square integer D, as (A + B*sqrt(D)) / den with integers A, B and
den > 0. Equality is componentwise, which is sound precisely because
sqrt(D) is irrational. Sums and products multiply numerators and
denominators out and take no gcd. This is Henrici's deferred reduction
(Knuth, TAOCP Vol. 2, 4.5.1). Stdlib ``Fraction`` instead reduces after
every operation, and that gcd and object work dominated the Horadam sweeps.
Both kernel types mix with ``int`` and ``Fraction`` operands. ``Fraction``
does not know ``Rat``, so ``Fraction op Rat`` falls through to Rat's
reflected operator and yields a ``Rat``.

Reduction rule. A result is divided by the gcd of its parts only once its
denominator is longer than ``_REDUCE_BITS`` bits. Denominators therefore
stay bounded by that length plus one operation's growth, unless the
reduced value itself needs more.

Canonical where read. Kernel values stay unreduced until they are read or
rendered. A catalog ``Side`` keeps the value it was given, and the verdict
compares those stored values: ``Rat`` and ``QuadExt`` equality
cross-multiplies, so comparing takes no gcd. Reading ``Side.value`` turns a
``Rat`` into its reduced ``Fraction`` (``Rat.canonical``), and that is what
reports render. ``QuadExt.a``, ``QuadExt.b`` and ``norm()`` are reduced
``Fraction``s. ``==`` and ``hash`` of both types, and ``repr`` and
``render_scalar`` of a ``QuadExt``, depend only on the value, never on how
far it was reduced.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Union

RationalLike = Union[int, Fraction]

#: Kernel values are reduced once their denominator has more bits than this.
#: On the Horadam sweeps 512 ran a few percent faster than 128, and 128 no
#: faster than 64.
_REDUCE_BITS = 512

#: str() of an int below this many bits stays under CPython's default
#: 4,300-digit int->str limit; longer ints are converted in pieces.
_STR_BITS = 14000

_new = object.__new__
_gcd = math.gcd


class DomainError(ArithmeticError):
    """An operation left its mathematical domain (zero divisor, mixed D, ...)."""


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def int_text(n: int) -> str:
    """Decimal text of any int, without lifting CPython's int->str limit.

    ``str()`` sees only pieces below ``_STR_BITS``, which the default limit
    allows, so library callers need no ``sys.set_int_max_str_digits`` call.
    """
    if n.bit_length() < _STR_BITS:
        return str(n)
    if n < 0:
        return "-" + int_text(-n)
    k = n.bit_length() * 3 // 20          # about half the decimal digits
    hi, lo = divmod(n, 10 ** k)
    return int_text(hi) + int_text(lo).zfill(k)


# ---------------------------------------------------------------------------
# kernel rational
# ---------------------------------------------------------------------------

def _nd(x):
    """(numerator, denominator > 0) of an int, Fraction or Rat, else None."""
    t = type(x)
    if t is int:
        return x, 1
    if t is Rat:
        return x.n, x.d
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int):
        return int(x), 1
    return None


def _rat(n: int, d: int) -> "Rat":
    """Trusted Rat from integers with d > 0, reduced only past _REDUCE_BITS."""
    if d.bit_length() > _REDUCE_BITS:
        g = _gcd(n, d)
        if g > 1:
            n //= g
            d //= g
    r = _new(Rat)
    r.n = n
    r.d = d
    return r


class Rat:
    """Exact rational n/d with d > 0, reduced lazily (see the module docstring).

    ``Rat(x)`` takes an int, Fraction or Rat; ``Rat(n, d)`` takes two ints.
    ``canonical()`` gives the reduced value to whatever reads or renders it.
    """

    __slots__ = ("n", "d")

    def __init__(self, n=0, d: int = 1):
        if type(n) is not int:
            parts = _nd(n)
            if parts is None or d != 1:
                raise TypeError(f"Rat({n!r}, {d!r}): expected int, Fraction or Rat")
            n, d = parts
        if d <= 0:
            if d == 0:
                raise ZeroDivisionError("Rat division by zero")
            n, d = -n, -d
        self.n = n
        self.d = d

    def canonical(self) -> Fraction:
        """The same value as a reduced Fraction."""
        return Fraction(self.n, self.d)

    def __add__(self, o):
        if type(o) is int:
            return _rat(self.n + o * self.d, self.d)
        o = _nd(o)
        if o is None:
            return NotImplemented
        n, d = o
        if d == self.d:
            return _rat(self.n + n, d)
        return _rat(self.n * d + n * self.d, self.d * d)

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is int:
            return _rat(self.n - o * self.d, self.d)
        o = _nd(o)
        if o is None:
            return NotImplemented
        n, d = o
        if d == self.d:
            return _rat(self.n - n, d)
        return _rat(self.n * d - n * self.d, self.d * d)

    def __rsub__(self, o):
        if type(o) is int:
            return _rat(o * self.d - self.n, self.d)
        o = _nd(o)
        if o is None:
            return NotImplemented
        n, d = o
        if d == self.d:
            return _rat(n - self.n, d)
        return _rat(n * self.d - self.n * d, self.d * d)

    def __mul__(self, o):
        if type(o) is int:
            return _rat(self.n * o, self.d)
        o = _nd(o)
        if o is None:
            return NotImplemented
        return _rat(self.n * o[0], self.d * o[1])

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = _nd(o)
        if o is None:
            return NotImplemented
        n, d = o
        if n <= 0:
            if n == 0:
                raise ZeroDivisionError("Rat division by zero")
            n, d = -n, -d
        return _rat(self.n * d, self.d * n)

    def __rtruediv__(self, o):
        o = _nd(o)
        if o is None:
            return NotImplemented
        n, d = o
        sn, sd = self.n, self.d
        if sn <= 0:
            if sn == 0:
                raise ZeroDivisionError("Rat division by zero")
            sn, sd = -sn, -sd
        return _rat(n * sd, d * sn)

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e >= 0:
            return _rat(self.n ** e, self.d ** e)
        n, d = self.d, self.n
        if d <= 0:
            if d == 0:
                raise ZeroDivisionError("Rat division by zero")
            n, d = -n, -d
        return _rat(n ** -e, d ** -e)

    def __neg__(self):
        return _rat(-self.n, self.d)

    def __eq__(self, o):
        if type(o) is int:
            return self.n == o * self.d
        o = _nd(o)
        if o is None:
            return NotImplemented
        return self.n * o[1] == o[0] * self.d

    def __hash__(self):
        return hash(Fraction(self.n, self.d))

    def __bool__(self):
        return self.n != 0

    def __repr__(self):
        return f"Rat({self.n}, {self.d})"


def power(base: int, e: int):
    """base**e for an int base and any int e, exactly and never a float.

    An int when |base| = 1, where Horadam terms are integers too. A Rat
    otherwise, also for e >= 0: the terms it multiplies may be Fractions,
    and ``int * Fraction`` takes Fraction's reducing path where
    ``Rat * Fraction`` does not.
    """
    if base == 1 or base == -1:
        return base if e & 1 else 1
    if e >= 0:
        return _rat(base ** e, 1)
    return Rat(1, base ** -e)


# ---------------------------------------------------------------------------
# quadratic extension
# ---------------------------------------------------------------------------

class QuadExt:
    """a + b*sqrt(d) with rational a, b and a fixed non-square integer d.

    Stored as (A + B*sqrt(d)) / den with integer A, B and den > 0, reduced
    lazily like ``Rat``; ``a`` and ``b`` are the canonical Fraction parts.
    Supports mixed arithmetic with int/Fraction/Rat (embedded as b = 0).
    Elements of different extensions never mix; that is a DomainError,
    not a coercion.
    """

    __slots__ = ("_a", "_b", "_den", "d")

    def __init__(self, a: RationalLike, b: RationalLike, d: int):
        if d == 0 or _is_square(d):
            raise DomainError(f"QuadExt requires a non-square d, got {d}")
        fa = a.canonical() if type(a) is Rat else Fraction(a)
        fb = b.canonical() if type(b) is Rat else Fraction(b)
        den = math.lcm(fa.denominator, fb.denominator)
        _set_a(self, fa.numerator * (den // fa.denominator))
        _set_b(self, fb.numerator * (den // fb.denominator))
        _set_den(self, den)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the trusted factory: restoring the
        # slots one by one would go through the refused __setattr__
        return _quad, (self._a, self._b, self._den, self.d)

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._den)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._den)

    def _lift(self, o):
        """o as an (A, B, den) triple over this extension; None if not a scalar."""
        if type(o) is QuadExt:
            if o.d != self.d:
                raise DomainError(f"mixed extensions sqrt({self.d}) and sqrt({o.d})")
            return o._a, o._b, o._den
        o = _nd(o)
        if o is None:
            return None
        return o[0], 0, o[1]

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b, e = o
        den = self._den
        if e == den:
            return _quad(self._a + a, self._b + b, den, self.d)
        return _quad(self._a * e + a * den, self._b * e + b * den, den * e, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b, e = o
        den = self._den
        if e == den:
            return _quad(self._a - a, self._b - b, den, self.d)
        return _quad(self._a * e - a * den, self._b * e - b * den, den * e, self.d)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b, e = o
        den = self._den
        if e == den:
            return _quad(a - self._a, b - self._b, den, self.d)
        return _quad(a * den - self._a * e, b * den - self._b * e, den * e, self.d)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b, e = o
        A, B = self._a, self._b
        if b:
            return _quad(A * a + B * b * self.d, A * b + B * a, self._den * e, self.d)
        return _quad(A * a, B * a, self._den * e, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _quad_div((self._a, self._b, self._den), o, self.d)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _quad_div(o, (self._a, self._b, self._den), self.d)

    def __neg__(self):
        return _quad(-self._a, -self._b, self._den, self.d)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self._inverse()
        result = _quad(1, 0, 1, self.d)
        e = abs(n)
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def _inverse(self) -> "QuadExt":
        return _quad_div((1, 0, 1), (self._a, self._b, self._den), self.d)

    # structure ------------------------------------------------------------

    def conj(self) -> "QuadExt":
        """Galois conjugate a - b*sqrt(d)."""
        return _quad(self._a, -self._b, self._den, self.d)

    def norm(self) -> Fraction:
        """Field norm a^2 - d*b^2 (self times its conjugate)."""
        return Fraction(self._a * self._a - self._b * self._b * self.d,
                        self._den * self._den)

    def __eq__(self, other):
        if type(other) is QuadExt:
            e, f = self._den, other._den
            if other.d != self.d:
                # distinct non-square extensions only share the rationals
                return self._b == 0 and other._b == 0 and self._a * f == other._a * e
            return self._a * f == other._a * e and self._b * f == other._b * e
        o = _nd(other)
        if o is None:
            return NotImplemented
        return self._b == 0 and self._a * o[1] == o[0] * self._den

    def __hash__(self):
        if self._b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        return render_scalar(self)


# __setattr__ refuses assignment, so the slots are filled through their
# descriptors.
_set_a = QuadExt._a.__set__
_set_b = QuadExt._b.__set__
_set_den = QuadExt._den.__set__
_set_d = QuadExt.d.__set__


def _quad(A: int, B: int, den: int, d: int) -> QuadExt:
    """Trusted QuadExt (A + B*sqrt(d)) / den with den > 0 and d non-square."""
    if den.bit_length() > _REDUCE_BITS:
        g = _gcd(A, B, den)
        if g > 1:
            A //= g
            B //= g
            den //= g
    x = _new(QuadExt)
    _set_a(x, A)
    _set_b(x, B)
    _set_den(x, den)
    _set_d(x, d)
    return x


def _quad_div(x: tuple, y: tuple, d: int) -> QuadExt:
    """x / y for (A, B, den) triples over sqrt(d); zero norm is a DomainError."""
    A, B, den = x
    a, b, e = y
    if b == 0:
        if a == 0:
            raise DomainError("inverse of an element with zero norm")
        if a < 0:
            a, e = -a, -e
        return _quad(A * e, B * e, den * a, d)
    n = a * a - b * b * d
    if n == 0:
        raise DomainError("inverse of an element with zero norm")
    if n < 0:
        n, e = -n, -e
    return _quad(e * (A * a - B * b * d), e * (B * a - A * b), den * n, d)


# ---------------------------------------------------------------------------
# characteristic roots of x^2 - p x + q
# ---------------------------------------------------------------------------

class CharRoots(NamedTuple):
    """Roots tau, sigma and their difference delta = tau - sigma.

    All three are QuadExt over d = p^2 - 4q when that is not a perfect
    square, and plain Fractions when it is (sound componentwise equality
    would fail for a square d, so the rational representation is used).
    """

    tau: Union[QuadExt, Fraction]
    sigma: Union[QuadExt, Fraction]
    delta: Union[QuadExt, Fraction]

    @property
    def is_rational(self) -> bool:
        return isinstance(self.tau, Fraction)


def make_roots(p: int, q: int) -> CharRoots:
    """Roots of x^2 - p x + q = 0, exactly.

    Requires q != 0 and p^2 - 4q != 0 (distinct, invertible roots). The
    discriminant's sign does not matter: negative d gives an imaginary
    quadratic extension with the same componentwise arithmetic.
    """
    if q == 0:
        raise DomainError("q = 0 gives a degenerate recurrence (zero root)")
    d = p * p - 4 * q
    if d == 0:
        raise DomainError("repeated root: p^2 - 4q = 0")
    if _is_square(d):
        s = math.isqrt(d)
        return CharRoots(Fraction(p + s, 2), Fraction(p - s, 2), Fraction(s))
    tau = QuadExt(Fraction(p, 2), Fraction(1, 2), d)
    sigma = QuadExt(Fraction(p, 2), Fraction(-1, 2), d)
    return CharRoots(tau, sigma, QuadExt(0, 1, d))


def fib_roots() -> CharRoots:
    """alpha, beta, sqrt5: the classical golden-ratio pair over Q(sqrt 5)."""
    return make_roots(1, -1)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_scalar(value) -> str:
    """Exact text form: integers bare, fractions as num/den, QuadExt spelled out."""
    if isinstance(value, QuadExt):
        if value._b == 0:
            return render_scalar(value.a)
        a, b, d = value.a, value.b, value.d
        root = f"sqrt({d})"
        if b == 1:
            bs = root
        elif b == -1:
            bs = f"-{root}"
        else:
            bs = f"{render_scalar(b)}*{root}"
        if a == 0:
            return bs
        sign = "+" if b > 0 else "-"
        mag = bs.lstrip("-")
        return f"{render_scalar(a)} {sign} {mag}"
    f = Fraction(value)
    if f.denominator == 1:
        return int_text(f.numerator)
    return f"{int_text(f.numerator)}/{int_text(f.denominator)}"


