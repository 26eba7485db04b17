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
reflected operator and yields a ``Rat``. ``+``, ``-``, ``*`` and ``==`` read
a ``Rat`` operand, or a ``QuadExt`` over the same d, in place; only other
operands go through ``_nd`` or ``_lift``.

Reduction rule. A result is divided by the gcd of its parts only once its
denominator is longer than ``_REDUCE_BITS`` bits. Denominators therefore
stay bounded by that length plus one operation's growth, unless the
reduced value itself needs more.

Weighted sums. A sum sum_j c_j x_j whose coefficients c_j are fixed while
its terms x_j vary is split in two. The c_j are written once as integer
numerators N_j over one common denominator D: ``power_weights`` builds the
powers x^j y^(n-j) of a power-weighted sum by two running products of
integers, ``int_weights`` reduces a few rational coefficients, and
``joined_weights`` puts several such lists over one D. The terms come as
integers Z_j over one scale S, x_j = Z_j / S: a sequence table reads them
so, with S = q^K (``SeqTable.read``). ``weighted_sum`` then forms each sum
as one integer dot product of the N_j with the Z_j over D * |S|, and
builds one ``Rat``, not a ``Rat`` product and a ``Rat`` sum per term, so
a sum of n terms builds no ``Rat`` that grows with n.

Canonical where read. Kernel values stay unreduced until they are read or
rendered, and a sweep computes with ``Rat`` alone: ``Fraction`` appears
only in what public functions return. The verdict compares side values as
returned: ``Rat`` and ``QuadExt`` equality cross-multiplies, so comparing
takes no gcd. A reported ``Side`` reads a ``Rat``, or a polynomial's
coefficients, as reduced ``Fraction``s through one function, ``canonical``.
``QuadExt.a``, ``.b`` and ``norm()`` are reduced ``Fraction``s. ``==``,
``hash``, ``repr`` and ``render_scalar`` depend only on the value, never
on how far it was reduced.

Decimal text. ``int_text`` renders every int that a report prints. An int
of at least 2 * ``_STR_DIGITS`` = 600 digits is split once at a cached power
10^(300 * 2^j), and each half is rendered alike (Knuth, TAOCP Vol. 2, 4.4),
so ``str()`` sees only pieces under 600 digits, within any int->str limit
that CPython accepts. On CPython 3.11 that takes 0.6-0.9 of ``str()``'s
time from about 2,000 digits to at least 10^6. ``reports.div_csv`` writes
these texts into a table as they are, since they never need CSV quoting.
The two together raised the ``big-index`` benchmark's points per second by
a third.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Union

#: Kernel values are reduced once their denominator has more bits than this.
#: On the Horadam sweeps 512 ran a few percent faster than 128, and 128 no
#: faster than 64.
_REDUCE_BITS = 512

#: int_text hands str() only pieces of fewer than twice this many digits,
#: below the lowest int->str limit CPython accepts (640 digits).
_STR_DIGITS = 300

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
    """Decimal text of any int, without lifting CPython's int->str limit:
    the texts of n's halves at 10^k, for the largest k = _STR_DIGITS * 2^j
    of at most half n's digits, the low half zero-filled to k digits."""
    digits = n.bit_length() * 30103 // 100000 + 1   # at least n's digit count
    if digits < 2 * _STR_DIGITS:
        return str(n)
    if n < 0:
        return "-" + int_text(-n)
    j = (digits // (2 * _STR_DIGITS)).bit_length() - 1
    hi, lo = divmod(n, _ten_power(j))
    return int_text(hi) + int_text(lo).zfill(_STR_DIGITS << j)


@functools.cache
def _ten_power(j: int) -> int:
    """10^(_STR_DIGITS * 2^j), the divisor of int_text's splits at step j."""
    return 10 ** (_STR_DIGITS << j)


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


def _exact(x):
    """``_nd(x)``, or a TypeError for anything but an int, Fraction or Rat:
    the one reader of every rational given to a constructor or renderer, so
    a float, Decimal or string is refused, never coerced."""
    nd = _nd(x)
    if nd is None:
        raise TypeError(f"expected an int, Fraction or Rat, got {type(x).__name__}")
    return nd


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

    ``Rat(n, d)`` is n / d for ints, Fractions or Rats (``Rat(x)`` is x);
    ``canonical`` gives the reduced value to whatever reads or renders it.
    """

    __slots__ = ("n", "d")

    def __init__(self, n=0, d=1):
        if type(n) is not int or type(d) is not int:
            (n, e), (f, d) = _exact(n), _exact(d)
            n, d = n * d, e * f
        if d <= 0:
            if d == 0:
                raise ZeroDivisionError("Rat division by zero")
            n, d = -n, -d
        self.n = n
        self.d = d

    def __add__(self, o):
        if type(o) is Rat:
            n, d = o.n, o.d
        elif type(o) is int:
            return _rat(self.n + o * self.d, self.d)
        elif (o := _nd(o)) is None:
            return NotImplemented
        else:
            n, d = o
        if d == self.d:
            return _rat(self.n + n, d)
        return _rat(self.n * d + n * self.d, self.d * d)

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is Rat:
            n, d = o.n, o.d
        elif type(o) is int:
            return _rat(self.n - o * self.d, self.d)
        elif (o := _nd(o)) is None:
            return NotImplemented
        else:
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
        if type(o) is Rat:
            n, d = o.n, o.d
        elif type(o) is int:
            return _rat(self.n * o, self.d)
        elif (o := _nd(o)) is None:
            return NotImplemented
        else:
            n, d = o
        return _rat(self.n * n, self.d * d)

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
        if type(o) is Rat:
            n, d = o.n, o.d
        elif type(o) is int:
            return self.n == o * self.d
        elif (o := _nd(o)) is None:
            return NotImplemented
        else:
            n, d = o
        return self.n * d == n * self.d

    def __ne__(self, o):
        if type(o) is Rat:
            return self.n * o.d != o.n * self.d
        eq = self.__eq__(o)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(Fraction(self.n, self.d))

    def __bool__(self):
        return self.n != 0

    def __repr__(self):
        return f"Rat({self.n}, {self.d})"


def canonical(value):
    """``value`` as read: a ``Rat`` as its reduced Fraction, a polynomial
    coefficient tuple coefficient by coefficient, anything else unchanged."""
    if type(value) is tuple:
        return tuple(map(canonical, value))
    return Fraction(value.n, value.d) if type(value) is Rat else value


def power(base: int, e: int):
    """base**e for an int base and any int e, exactly and never a float.

    An int for e >= 0 and for |base| = 1, a Rat otherwise, so a weight
    built from q-powers is plain ints on rows with r >= 0 and a product
    with a table term is an int or a Rat.
    """
    if e >= 0:
        return base ** e
    d = base ** -e
    return d if d == 1 or d == -1 else Rat(1, d)


# ---------------------------------------------------------------------------
# weighted sums over one common denominator
# ---------------------------------------------------------------------------

def int_weights(coeffs) -> tuple:
    """``(N, D)``: integers N_j and D > 0 with N_j / D = coeffs[j].

    The coefficients may be ints, Fractions or Rats. D is the lcm of their
    denominators in lowest terms, 1 when all are ints; ``weighted_sum``
    reads the pair.
    """
    parts = []
    for c in coeffs:
        n, d = _exact(c)
        g = _gcd(n, d)
        parts.append(((n // g,), d // g))
    return joined_weights(*parts)


def power_weights(x, y, n: int) -> tuple:
    """``(N, D)``: a list of integers N_j and D > 0 with N_j / D = x^j y^(n-j)
    for j = 0..n, none for n < 0; x and y are each an int, Fraction or Rat.

    For x = a/b and y = c/d in lowest terms, N_j = (ad)^j (bc)^(n-j) and
    D = (bd)^n, built by two running products. ``weighted_sum`` reads the
    pair; y = 1 gives the weights of a geometric sum. N is a list: CPython
    keeps dropped short tuples for reuse, which held 1.8 MB after I18's
    default grid.
    """
    (a, b), (c, d) = _exact(x), _exact(y)
    if n < 0:
        return [], 1
    g, h = _gcd(a, b), _gcd(c, d)
    a, b, c, d = a // g, b // g, c // h, d // h
    ad, bc = a * d, b * c
    up, down = [1], [1]
    for _ in range(n):
        up.append(up[-1] * ad)
        down.append(down[-1] * bc)
    down.reverse()
    return list(map(mul, up, down)), (b * d) ** n


def joined_weights(*parts) -> tuple:
    """``(N, D)`` for the weight pairs ``parts``, in order: each part's
    numerators over the lcm D of the parts' denominators, the weights of
    the parts' terms listed one part after another."""
    den = math.lcm(*(d for _, d in parts))
    return tuple(x * (den // d) for nums, d in parts for x in nums), den


def weighted_sum(weights, terms, scale: int = 1) -> Rat:
    """sum_j N_j * terms[j] / (D * scale) as one Rat, for ``weights`` = ``(N, D)``.

    The terms, a sequence as long as N, are ints; a length that differs
    from N's is a ValueError, and a term that is not an int a TypeError.
    ``scale`` is a nonzero int, such as the power q^K over which
    ``SeqTable.read`` returns its terms. The sum is one integer dot product,
    summed in order, over D * |scale|, its sign folded into the numerator.
    """
    nums, den = weights
    if len(nums) != len(terms):
        raise ValueError(f"weighted_sum: {len(nums)} weights for {len(terms)} terms")
    s = sum(map(mul, nums, terms))
    if type(s) is not int:
        raise TypeError(f"weighted_sum: terms must be ints, not {type(s).__name__}")
    if scale <= 0:
        if scale == 0:
            raise ZeroDivisionError("weighted_sum: zero scale")
        s, scale = -s, -scale
    return _rat(s, den * scale)


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

    def __init__(self, a, b, d: int):
        if d == 0 or _is_square(d):
            raise DomainError(f"QuadExt requires a non-square d, got {d}")
        (a, e), (b, f) = _exact(a), _exact(b)
        den = math.lcm(e, f)
        _set_a(self, a * (den // e))
        _set_b(self, b * (den // f))
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
        if type(other) is QuadExt and other.d == self.d:
            a, b, e = other._a, other._b, other._den
        elif type(other) is Rat:
            a, b, e = other.n, 0, other.d
        elif (o := self._lift(other)) is None:
            return NotImplemented
        else:
            a, b, e = o
        den = self._den
        if e == den:
            return _quad(self._a + a, self._b + b, den, self.d)
        return _quad(self._a * e + a * den, self._b * e + b * den, den * e, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is QuadExt and other.d == self.d:
            a, b, e = other._a, other._b, other._den
        elif type(other) is Rat:
            a, b, e = other.n, 0, other.d
        elif (o := self._lift(other)) is None:
            return NotImplemented
        else:
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
        if type(other) is QuadExt and other.d == self.d:
            a, b, e = other._a, other._b, other._den
        elif type(other) is int:
            return _quad(self._a * other, self._b * other, self._den, self.d)
        elif type(other) is Rat:
            a, b, e = other.n, 0, other.d
        elif (o := self._lift(other)) is None:
            return NotImplemented
        else:
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
    square, and Fractions (Rats in a sweep's Context) when it is: sound
    componentwise equality would fail for a square d.
    """

    tau: Union[QuadExt, Fraction, Rat]
    sigma: Union[QuadExt, Fraction, Rat]
    delta: Union[QuadExt, Fraction, Rat]

    @property
    def is_rational(self) -> bool:
        return type(self.tau) is not QuadExt


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
    return CharRoots(_quad(p, 1, 2, d), _quad(p, -1, 2, d), _quad(0, 1, 1, d))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_scalar(value) -> str:
    """Exact text form: integers bare, fractions (a ``Rat`` too) as num/den
    in lowest terms, QuadExt spelled out."""
    if type(value) is int:
        return int_text(value)
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
    n, d = _exact(value)
    g = _gcd(n, d)
    if g == d:
        return int_text(n // g)
    return f"{int_text(n // g)}/{int_text(d // g)}"


