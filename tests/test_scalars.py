"""Exact rational and quadratic-extension arithmetic."""

import copy
import itertools
import math
import pickle
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibsums.scalars import (_REDUCE_BITS, _STR_DIGITS, CharRoots, DomainError,
                             QuadExt, Rat, canonical, int_text, int_weights,
                             joined_weights, make_roots, power, power_weights,
                             render_scalar, weighted_sum)
from fibsums.sequences import fib

HALF = Fraction(1, 2)
ALPHA = QuadExt(HALF, HALF, 5)
BETA = QuadExt(HALF, -HALF, 5)


class TestQuadExtConstruction:
    @pytest.mark.parametrize("d", [0, 1, 4, 9, 16])
    def test_square_or_zero_d_rejected(self, d):
        with pytest.raises(DomainError):
            QuadExt(1, 1, d)

    def test_negative_d_allowed(self):
        i = QuadExt(0, 1, -1)
        assert i * i == -1

    def test_components_become_fractions(self):
        u = QuadExt(1, 2, 5)
        assert isinstance(u.a, Fraction) and isinstance(u.b, Fraction)
        assert (u.a, u.b, u.d) == (1, 2, 5)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            ALPHA.a = Fraction(0)

    def test_kernel_rationals_are_read_exactly(self):
        u = QuadExt(Rat(2, 4), Rat(-3, 6), 5)
        assert u == QuadExt(HALF, -HALF, 5) and repr(u) == repr(BETA)


class TestInexactInputIsRefused:
    """Every reader of a rational value takes an int, Fraction or Rat and
    nothing else: a float, a Decimal or a string is never coerced."""

    @pytest.mark.parametrize("read", [
        lambda: QuadExt(0.5, 1, 5),
        lambda: QuadExt("1/2", 1, 5),
        lambda: QuadExt(1, Decimal("0.25"), 5),
        lambda: render_scalar(0.1),
        lambda: render_scalar("1/2"),
        lambda: Rat(0.5),
        lambda: Rat(1, 2.0),
        lambda: int_weights([1, 0.5]),
        lambda: power_weights(0.5, 1, 3),
        lambda: power_weights(2, Decimal("1.5"), 0),
        lambda: power_weights(1.0, 1, -1),
    ], ids=["QuadExt-float", "QuadExt-str", "QuadExt-Decimal", "render-float",
            "render-str", "Rat-float", "Rat-float-denominator", "int_weights",
            "power_weights-float", "power_weights-Decimal", "power_weights-empty"])
    def test_type_error(self, read):
        with pytest.raises(TypeError, match="int, Fraction or Rat"):
            read()

    def test_rat_of_two_rationals_is_their_quotient(self):
        assert Rat(Fraction(1, 2), Rat(3, 4)) == Fraction(2, 3)
        assert Rat(6, Fraction(-3, 2)).d > 0
        with pytest.raises(ZeroDivisionError):
            Rat(Fraction(1, 2), Rat(0, 3))


class TestQuadExtArithmetic:
    def test_golden_pair_relations(self):
        assert ALPHA + BETA == 1
        assert ALPHA * BETA == -1
        assert ALPHA - BETA == QuadExt(0, 1, 5)
        assert ALPHA ** 2 == QuadExt(Fraction(3, 2), HALF, 5)
        assert ALPHA ** 2 == ALPHA + 1          # defining equation x^2 = x + 1
        assert ALPHA ** 0 == 1

    def test_negative_power_is_exact_inverse(self):
        assert ALPHA ** -1 == QuadExt(Fraction(-1, 2), HALF, 5)
        assert ALPHA ** -1 * ALPHA == 1
        assert ALPHA ** -3 * ALPHA ** 3 == 1

    def test_mixed_int_fraction_operands(self):
        assert 2 + ALPHA == QuadExt(Fraction(5, 2), HALF, 5)
        assert 1 - ALPHA == BETA
        assert 3 * ALPHA == QuadExt(Fraction(3, 2), Fraction(3, 2), 5)
        assert ALPHA / HALF == QuadExt(1, 1, 5)
        assert 2 / ALPHA == QuadExt(-1, 1, 5)

    @pytest.mark.parametrize("k", [0, 1, -1, 7, -7, 2 ** 600])
    def test_int_factor_builds_the_general_triple(self, k):
        # an int factor skips the lift to (k, 0, 1); the parts, and the
        # reduction past _REDUCE_BITS, must equal the Fraction path's
        wide = QuadExt(Fraction(1, 3 ** 400), Fraction(2, 5 ** 300), 7)
        for x in (ALPHA, wide):
            general = x * Fraction(k)
            for product in (x * k, k * x):
                assert type(product) is QuadExt
                assert ((product._a, product._b, product._den)
                        == (general._a, general._b, general._den))

    def test_division(self):
        assert ALPHA / ALPHA == 1
        assert (1 / ALPHA) * ALPHA == 1

    def test_zero_has_no_inverse(self):
        zero = QuadExt(0, 0, 5)
        with pytest.raises(DomainError):
            zero ** -1
        with pytest.raises(DomainError):
            1 / zero

    def test_mixed_extensions_never_coerce(self):
        with pytest.raises(DomainError):
            QuadExt(1, 1, 5) + QuadExt(1, 1, 2)
        with pytest.raises(DomainError):
            QuadExt(1, 1, 5) * QuadExt(1, 1, 3)

    def test_equality_across_extensions_and_rationals(self):
        # distinct extensions share only the rationals
        assert QuadExt(3, 0, 5) == QuadExt(3, 0, 2)
        assert QuadExt(1, 1, 5) != QuadExt(1, 1, 2)
        assert QuadExt(7, 0, 5) == 7
        assert QuadExt(7, 0, 5) == Fraction(7)
        assert ALPHA != Fraction(1, 2)

    def test_hash_consistent_with_rational_embedding(self):
        assert hash(QuadExt(7, 0, 5)) == hash(7)
        assert len({QuadExt(7, 0, 5), 7, Fraction(7)}) == 1

    def test_bool(self):
        assert not QuadExt(0, 0, 5)
        assert QuadExt(0, 1, 5)
        assert QuadExt(1, 0, 5)

    def test_conj_and_norm(self):
        assert ALPHA.conj() == BETA
        assert ALPHA.conj().conj() == ALPHA
        assert ALPHA.norm() == Fraction(-1)
        assert ALPHA * ALPHA.conj() == ALPHA.norm()


class TestCharRoots:
    def test_rational_roots_frozen(self):
        roots = make_roots(3, 2)
        assert roots == CharRoots(Fraction(2), Fraction(1), Fraction(1))
        assert roots.is_rational

    def test_repeated_root_rejected(self):
        with pytest.raises(DomainError):
            make_roots(2, 1)
        with pytest.raises(DomainError):
            make_roots(-4, 4)

    def test_zero_q_rejected(self):
        with pytest.raises(DomainError):
            make_roots(1, 0)

    def test_fib_roots(self):
        tau, sigma, delta = make_roots(1, -1)
        assert tau == ALPHA and sigma == BETA and delta == QuadExt(0, 1, 5)
        assert not make_roots(1, -1).is_rational
        assert tau ** 2 == tau + 1

    def test_negative_discriminant(self):
        tau, sigma, delta = make_roots(1, 1)      # discriminant -3
        assert tau.d == -3
        assert tau + sigma == 1
        assert tau * sigma == 1
        assert delta ** 2 == -3

    @given(p=st.integers(-8, 8), q=st.integers(-8, 8))
    def test_root_relations(self, p, q):
        if q == 0 or p * p == 4 * q:
            with pytest.raises(DomainError):
                make_roots(p, q)
            return
        tau, sigma, delta = make_roots(p, q)
        assert tau + sigma == p
        assert tau * sigma == q
        assert tau - sigma == delta
        assert delta ** 2 == p * p - 4 * q


SMALL_RAT = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@st.composite
def quad_pair(draw):
    d = draw(st.sampled_from([2, 3, 5, 7, 10, -1, -3]))
    return (QuadExt(draw(SMALL_RAT), draw(SMALL_RAT), d),
            QuadExt(draw(SMALL_RAT), draw(SMALL_RAT), d))


class TestQuadExtProperties:
    @given(quad_pair())
    def test_conjugation_is_a_ring_homomorphism(self, pair):
        u, v = pair
        assert (u + v).conj() == u.conj() + v.conj()
        assert (u * v).conj() == u.conj() * v.conj()

    @given(quad_pair())
    def test_norm_is_multiplicative(self, pair):
        u, v = pair
        assert (u * v).norm() == u.norm() * v.norm()

    @given(quad_pair())
    def test_commutativity_and_subtraction(self, pair):
        u, v = pair
        assert u * v == v * u
        assert u + v == v + u
        assert (u - v) + v == u

    @given(quad_pair(), st.integers(0, 5))
    def test_powers(self, pair, n):
        u, _ = pair
        expected = QuadExt(1, 0, u.d)
        for _ in range(n):
            expected = expected * u
        assert u ** n == expected
        if u:
            assert u ** -n * u ** n == 1


class TestRendering:
    @pytest.mark.parametrize("value,text", [
        (7, "7"),
        (-3, "-3"),
        (Fraction(7), "7"),
        (Fraction(3, 2), "3/2"),
        (Fraction(-5, 3), "-5/3"),
        (ALPHA, "1/2 + 1/2*sqrt(5)"),
        (BETA, "1/2 - 1/2*sqrt(5)"),
        (QuadExt(0, 1, 5), "sqrt(5)"),
        (QuadExt(0, -1, 5), "-sqrt(5)"),
        (QuadExt(2, -1, 2), "2 - sqrt(2)"),
        (QuadExt(3, 2, -1), "3 + 2*sqrt(-1)"),
        (QuadExt(7, 0, 5), "7"),
        (QuadExt(0, Fraction(-1, 3), 7), "-1/3*sqrt(7)"),
        (Rat(2, 4), "1/2"),
        (Rat(-6, 3), "-2"),
        (Rat(0, 7), "0"),
        (True, "1"),
    ])
    def test_render_scalar_frozen(self, value, text):
        assert render_scalar(value) == text

    def test_str_matches_render(self):
        assert str(ALPHA) == render_scalar(ALPHA)

    def test_repr_frozen(self):
        assert repr(ALPHA) == "QuadExt(Fraction(1, 2), Fraction(1, 2), 5)"

    def test_render_past_the_default_int_str_limit(self, default_int_str_limit):
        for n in (fib(21000), fib(100000)):      # 4,389 and 20,899 digits
            text = default_int_str_limit(n)
            assert render_scalar(n) == text
            assert render_scalar(-n) == "-" + text
            assert render_scalar(Fraction(1, n)) == "1/" + text
            assert render_scalar(QuadExt(n, 1, 5)) == text + " + sqrt(5)"


class TestIntText:
    """int_text against exact str(), across every split of its ladder."""

    LADDER = [_STR_DIGITS << j for j in range(7)]       # 300 ... 19,200 digits

    @staticmethod
    def cases():
        values = [0, 1]
        for split in TestIntText.LADDER:
            for k in (split - 1, split, split + 1):
                values += [10 ** k - 1, 10 ** k, 10 ** k + 1]
        rng = random.Random(22)
        for _ in range(60):
            digits = round(30000 ** rng.random())       # 1 to 30,000, log-uniform
            values.append(rng.randrange(10 ** (digits - 1), 10 ** digits))
        return values + [-v for v in values]

    @pytest.mark.parametrize("limit", [4300, 640])
    def test_equals_str(self, default_int_str_limit, limit):
        # 640 is the lowest limit CPython accepts, so no piece that int_text
        # hands str() may come near it
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(limit)
        elif limit != 4300:
            pytest.skip("this interpreter has no int->str digit limit")
        for n in self.cases():
            assert int_text(n) == default_int_str_limit(n)


# ---------------------------------------------------------------------------
# kernel: lazily reduced Rat and integer-form QuadExt against Fraction
# ---------------------------------------------------------------------------

RAT_OPS = ("+", "-", "*", "/", "**", "r+", "r-", "r*", "r/")
WIDE_RAT = st.fractions(min_value=-10 ** 12, max_value=10 ** 12,
                        max_denominator=10 ** 12)


@st.composite
def operand(draw):
    """An int, Fraction or (unreduced) Rat, with its Fraction value."""
    f = draw(WIDE_RAT)
    kind = draw(st.sampled_from(["int", "Fraction", "Rat"]))
    if kind == "int":
        return int(f), Fraction(int(f))
    if kind == "Fraction":
        return f, f
    k = draw(st.integers(1, 50))
    return Rat(f.numerator * k, f.denominator * k), f


def apply(op, x, y):
    """x op y; 'r'-prefixed ops put y on the left, '**' raises to small y."""
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    if op == "/":
        return x / y
    if op == "r+":
        return y + x
    if op == "r-":
        return y - x
    if op == "r*":
        return y * x
    if op == "r/":
        return y / x
    return x ** y


def long_value(f: Fraction) -> bool:
    return abs(f.numerator).bit_length() + f.denominator.bit_length() > 600


class TestRatKernel:
    @given(st.lists(st.tuples(st.sampled_from(RAT_OPS), operand(),
                              st.integers(-3, 3)), min_size=20, max_size=60))
    def test_chains_match_fraction_reference(self, chain):
        # operand denominators reach 40 bits, so most chains pass _REDUCE_BITS
        x, ref = Rat(1), Fraction(1)
        for op, (y, yref), e in chain:
            if op == "**":
                if long_value(ref):
                    continue
                y = yref = e
            try:
                expected = apply(op, ref, yref)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    apply(op, x, y)
                continue
            x, ref = apply(op, x, y), expected
            assert type(x) is Rat and x.d > 0
            assert x == ref and canonical(x) == ref
        assert hash(x) == hash(ref)

    def test_long_chain_crosses_the_reduction_threshold(self):
        x, ref = Rat(0), Fraction(0)
        for k in range(1, 120):
            x, ref = x + Rat(1, k), ref + Fraction(1, k)
            x, ref = x * Rat(k + 1, 3), ref * Fraction(k + 1, 3)
            assert x == ref
        assert canonical(x) == ref

    def test_unchanged_value_keeps_a_bounded_denominator(self):
        x = Rat(5, 3)
        for _ in range(200):
            x = x * Rat(7, 11) / Fraction(7, 11)
            assert x.d.bit_length() <= _REDUCE_BITS + 8
        assert x == Fraction(5, 3)

    def test_fraction_and_int_operands_fall_back_to_the_kernel(self):
        # Fraction's operators return NotImplemented for Rat on 3.10-3.13
        h = Rat(1, 3)
        for out in (Fraction(1, 2) + h, Fraction(1, 2) - h, Fraction(1, 2) * h,
                    Fraction(1, 2) / h, 2 + h, 2 - h, 2 * h, 2 / h, h ** -2):
            assert type(out) is Rat
        assert Fraction(1, 2) - h == Fraction(1, 6)
        assert 2 / h == 6

    def test_no_float_ever(self):
        assert type(Rat(7) / 2) is Rat and Rat(7) / 2 == Fraction(7, 2)
        assert type(Rat(2) ** -3) is Rat and Rat(2) ** -3 == Fraction(1, 8)

    @given(st.integers(-6, 6), st.integers(-12, 12))
    def test_power_is_exact_and_never_a_float(self, base, e):
        if base == 0 and e < 0:
            with pytest.raises(ZeroDivisionError):
                power(base, e)
            return
        out = power(base, e)
        assert out == Fraction(base) ** e
        assert type(out) is (int if e >= 0 or base in (1, -1) else Rat)

    def test_constructor(self):
        assert Rat(4, -6) == Fraction(-2, 3) and Rat(4, -6).d > 0
        assert Rat(Fraction(3, 4)) == Fraction(3, 4)
        assert Rat(Rat(3, 4)) == Fraction(3, 4)
        with pytest.raises(TypeError):
            Rat(0.5)
        with pytest.raises(ZeroDivisionError):
            Rat(1, 0)

    @given(WIDE_RAT, st.integers(1, 10 ** 6))
    def test_equality_and_hash_across_types(self, f, k):
        r = Rat(f.numerator * k, f.denominator * k)
        assert r == f and f == r and hash(r) == hash(f)
        assert (r == f + 1) is False and r != f + 1
        if f.denominator == 1:
            assert r == int(f) and int(f) == r and hash(r) == hash(int(f))
        q = QuadExt(r, 1, 7) - QuadExt(0, Rat(k, k), 7)
        assert q == r and r == q and q == f and hash(q) == hash(f)
        assert len({r, f, q}) == 1

    def test_division_by_zero(self):
        zeros = (0, Fraction(0), Rat(0), Rat(0, 5))
        for z in zeros:
            with pytest.raises(ZeroDivisionError):
                Rat(1, 2) / z
        for x in (1, Fraction(1, 2), Rat(1, 2)):
            with pytest.raises(ZeroDivisionError):
                x / Rat(0, 3)
        with pytest.raises(ZeroDivisionError):
            Rat(0, 7) ** -1


def as_fraction(x) -> Fraction:
    return canonical(x) if type(x) is Rat else Fraction(x)


@st.composite
def weight(draw, q):
    """A coefficient as the Horadam builders make them: an int, a Fraction,
    an unreduced Rat (zeros included) or a power of q, which is a Rat for
    |q| > 1 and an int for |q| = 1."""
    kind = draw(st.sampled_from(["int", "Fraction", "Rat", "power"]))
    num, den = draw(st.integers(-40, 40)), draw(st.integers(1, 12))
    if kind == "int":
        return num
    if kind == "Fraction":
        return Fraction(num, den)
    if kind == "Rat":
        g = draw(st.integers(1, 6)) * draw(st.sampled_from([1, -1]))
        return Rat(num * g, den * g)
    return power(q, draw(st.integers(-6, 6)))


class TestWeightedSum:
    @given(data=st.data())
    def test_matches_a_fraction_reference(self, data):
        # terms as a table read gives them: ints Z_j = q^K x_j over the
        # scale q^K, which is negative for q < 0 and odd K
        q = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 6]))
        size = data.draw(st.integers(0, 9))
        coeffs = [data.draw(weight(q)) for _ in range(size)]
        nums, den = weights = int_weights(coeffs)
        exact = [as_fraction(c) for c in coeffs]
        assert type(den) is int and den > 0
        assert den == math.lcm(*(c.denominator for c in exact))
        assert [type(n) for n in nums] == [int] * size
        assert [Fraction(n, den) for n in nums] == exact
        terms = [data.draw(st.integers(-10 ** 6, 10 ** 6)) for _ in range(size)]
        for scale in (1, q ** data.draw(st.integers(0, 7))):
            got = weighted_sum(weights, terms, scale)
            assert type(got) is Rat and got.d > 0
            assert got == sum((c * Fraction(x, scale) for c, x in zip(exact, terms)),
                              Fraction(0))

    def test_a_negative_scale_folds_into_the_numerator(self):
        weights = int_weights([Fraction(1, 2), 3, Rat(-5, 4)])
        terms, scale = [7, -2, 9], (-3) ** 5
        got = weighted_sum(weights, terms, scale)
        assert got.d > 0 and got.d == 4 * 3 ** 5
        assert canonical(got) == (Fraction(7, 2) - 6 - Fraction(45, 4)) / scale

    def test_rejects_terms_that_are_not_ints(self):
        weights = int_weights([1, 2, 3])
        for terms in ([5, Fraction(1, 2), 7], [5, 6, Rat(7, 2)], [5, 6.0, 7]):
            with pytest.raises(TypeError):
                weighted_sum(weights, terms)
        with pytest.raises(ZeroDivisionError):
            weighted_sum(weights, [5, 6, 7], 0)

    def test_rejects_a_non_rational_weight(self):
        with pytest.raises(TypeError):
            int_weights([1, 0.5])

    def test_int_weights_are_kept_over_one(self):
        assert int_weights([6, -4, 0]) == ((6, -4, 0), 1)
        assert int_weights(k * k for k in range(3)) == ((0, 1, 4), 1)
        assert int_weights([]) == ((), 1)
        assert int_weights([6, Fraction(4, 2)]) == ((6, 2), 1)

    def test_rejects_terms_of_another_length(self):
        weights = int_weights([1, 2, 3])
        for terms in ([5, 6], [5, 6, 7, 8], [5, Fraction(1, 2)]):
            with pytest.raises(ValueError):
                weighted_sum(weights, terms)
        assert weighted_sum(weights, [5, 6, 7]) == 38


@st.composite
def ratio(draw):
    """A ratio of a power-weighted sum, with its Fraction value: 0, +-1, an
    int, a Fraction or an unreduced Rat with a negative part."""
    kind = draw(st.sampled_from(["special", "int", "Fraction", "Rat"]))
    if kind == "special":
        x = draw(st.sampled_from([0, 1, -1, Fraction(0), Rat(0, 5), Rat(-3, 3),
                                  Fraction(-1, 2), Rat(2, -4)]))
        return x, as_fraction(x)
    num, den = draw(st.integers(-10 ** 6, 10 ** 6)), draw(st.integers(1, 10 ** 4))
    if kind == "int":
        return num, Fraction(num)
    if kind == "Fraction":
        return Fraction(num, den), Fraction(num, den)
    g = draw(st.integers(1, 9)) * draw(st.sampled_from([1, -1]))
    return Rat(num * g, den * g), Fraction(num, den)


class TestPowerWeights:
    @given(ratio(), ratio(), st.integers(0, 12))
    def test_matches_a_fraction_reference(self, x, y, n):
        (x, fx), (y, fy) = x, y
        nums, den = power_weights(x, y, n)
        assert type(den) is int and den > 0
        assert [type(v) for v in nums] == [int] * (n + 1)
        assert [Fraction(v, den) for v in nums] == [fx ** j * fy ** (n - j)
                                                    for j in range(n + 1)]

    @given(ratio(), st.lists(st.integers(-10 ** 9, 10 ** 9), max_size=12))
    def test_y_one_gives_a_geometric_sum(self, x, terms):
        x, fx = x
        got = weighted_sum(power_weights(x, 1, len(terms) - 1), terms)
        assert got == sum((fx ** j * t for j, t in enumerate(terms)), Fraction(0))

    def test_small_cases(self):
        assert power_weights(Rat(3, 2), 1, 3) == ([8, 12, 18, 27], 8)
        assert power_weights(0, Fraction(1, 2), 2) == ([1, 0, 0], 4)
        assert power_weights(Rat(-4, -6), Rat(1, -3), 2) == ([9, -18, 36], 81)
        assert power_weights(5, 7, 0) == ([1], 1)
        assert power_weights(5, 7, -1) == ([], 1)

    def test_joined_weights_share_one_denominator(self):
        parts = (power_weights(Rat(1, 2), 1, 2), ((3,), 1), power_weights(1, Rat(1, 3), 1))
        nums, den = joined_weights(*parts)
        assert den == 12
        want = [Fraction(v, d) for vs, d in parts for v in vs]
        assert [Fraction(v, den) for v in nums] == want
        assert joined_weights(((), 1), ((1, -2), 6)) == ((1, -2), 6)


def quad_ref(op, x, y, d):
    """Componentwise-Fraction reference for x op y over Q(sqrt d)."""
    (a, b), (c, e) = x, y
    if op == "+":
        return a + c, b + e
    if op == "-":
        return a - c, b - e
    if op == "*":
        return a * c + b * e * d, a * e + b * c
    n = c * c - e * e * d
    if n == 0:
        raise DomainError("zero norm")
    return quad_ref("*", x, (c / n, -e / n), d)


@st.composite
def ext_operand(draw, d):
    """A QuadExt over sqrt(d), or an int/Fraction/Rat, with its (a, b) pair."""
    if draw(st.booleans()):
        a, b = draw(WIDE_RAT), draw(WIDE_RAT)
        return QuadExt(a, b, d), (a, b)
    y, f = draw(operand())
    return y, (f, Fraction(0))


class TestQuadExtKernel:
    @given(st.data(), st.sampled_from([2, 3, 5, 7, 10, -1, -3]))
    def test_chains_match_componentwise_reference(self, data, d):
        x, ref = QuadExt(1, 1, d), (Fraction(1), Fraction(1))
        for _ in range(data.draw(st.integers(10, 30))):
            op = data.draw(st.sampled_from(["+", "-", "*", "/", "r-", "r/"]))
            y, yref = data.draw(ext_operand(d))
            lhs, rhs = (y, x) if op.startswith("r") else (x, y)
            lref, rref = (yref, ref) if op.startswith("r") else (ref, yref)
            try:
                expected = quad_ref(op[-1], lref, rref, d)
            except DomainError:
                with pytest.raises(DomainError):
                    apply(op[-1], lhs, rhs)
                continue
            x, ref = apply(op[-1], lhs, rhs), expected
            if long_value(ref[0]) or long_value(ref[1]):
                x, ref = QuadExt(1, 1, d), (Fraction(1), Fraction(1))
                continue
            assert type(x) is QuadExt
            assert (x.a, x.b) == ref
            assert type(x.a) is Fraction and type(x.b) is Fraction
        assert x == QuadExt(*ref, d) and hash(x) == hash(QuadExt(*ref, d))
        assert x.norm() == ref[0] ** 2 - d * ref[1] ** 2

    @given(quad_pair(), st.integers(-6, 6))
    def test_powers_match_repeated_products(self, pair, n):
        u, _ = pair
        if not u:
            return
        expected = QuadExt(1, 0, u.d)
        for _ in range(abs(n)):
            expected = expected * u if n > 0 else expected / u
        assert u ** n == expected
        assert repr(u ** n) == repr(expected)

    def test_unreduced_results_render_and_compare_canonically(self):
        x = ALPHA
        for _ in range(200):                      # den passes _REDUCE_BITS
            x = x * Rat(7, 11) * Fraction(11, 7)
        assert x == ALPHA and hash(x) == hash(ALPHA)
        assert repr(x) == repr(ALPHA) and render_scalar(x) == render_scalar(ALPHA)

    def test_pickle_and_deepcopy_keep_an_unreduced_value(self):
        x = ALPHA
        for _ in range(3):                        # den stays below _REDUCE_BITS
            x = x * Rat(7, 11) * Fraction(11, 7)
        assert x._den != ALPHA._den               # not reduced
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert type(y) is QuadExt and y == x == ALPHA
            assert hash(y) == hash(x) == hash(ALPHA)
            assert render_scalar(y) == render_scalar(ALPHA)
            assert (y._a, y._b, y._den, y.d) == (x._a, x._b, x._den, x.d)

    def test_zero_norm_inverse_and_zero_division(self):
        zero = ALPHA - ALPHA
        for divisor in (zero, 0, Fraction(0), Rat(0)):
            with pytest.raises(DomainError):
                ALPHA / divisor
        for x in (1, Fraction(1, 2), Rat(1, 2), ALPHA):
            with pytest.raises(DomainError):
                x / zero
        with pytest.raises(DomainError):
            zero ** -2


# ---------------------------------------------------------------------------
# operand pairs: each same-type fast path and the generic path it sits beside
# ---------------------------------------------------------------------------

#: unreduced Rats over equal and unequal denominators, and values equal to
#: an int, a Fraction and a rational QuadExt below
PAIR_RATS = (Rat(6, 4), Rat(-5, 3), Rat(3, 6), Rat(4, 2), Rat(0, 7))
PAIR_INTS = (2, -3, 0)
PAIR_FRACTIONS = (Fraction(1, 2), Fraction(-7, 3))
PAIR_QUADS = (ALPHA, QuadExt(Fraction(-2, 3), 1, 5), QuadExt(1, 0, 5) * Rat(3, 6))
PAIRS = {
    "Rat, Rat": (PAIR_RATS, PAIR_RATS),
    "Rat, int": (PAIR_RATS, PAIR_INTS),
    "int, Rat": (PAIR_INTS, PAIR_RATS),
    "Rat, Fraction": (PAIR_RATS, PAIR_FRACTIONS),
    "Rat, QuadExt": (PAIR_RATS, PAIR_QUADS),
    "QuadExt, QuadExt": (PAIR_QUADS, PAIR_QUADS),
    "QuadExt, Rat": (PAIR_QUADS, PAIR_RATS),
    "QuadExt, int": (PAIR_QUADS, PAIR_INTS),
}


def components(x):
    """(a, b) of x = a + b sqrt(5) as Fractions."""
    return (x.a, x.b) if type(x) is QuadExt else (as_fraction(x), Fraction(0))


class TestOperandPairs:
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    @pytest.mark.parametrize("op", ["+", "-", "*", "r+", "r-", "r*"])
    def test_arithmetic_matches_the_componentwise_reference(self, pair, op):
        lefts, rights = PAIRS[pair]
        for x, y in itertools.product(lefts, rights):
            lhs, rhs = (y, x) if op.startswith("r") else (x, y)
            out = apply(op[-1], lhs, rhs)
            want = quad_ref(op[-1], components(lhs), components(rhs), 5)
            if QuadExt in (type(x), type(y)):
                assert type(out) is QuadExt and (out.a, out.b) == want
            else:
                assert type(out) is Rat and out.d > 0
                assert (canonical(out), Fraction(0)) == want

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_equality_matches_the_reference_both_ways(self, pair):
        lefts, rights = PAIRS[pair]
        for x, y in itertools.product(lefts, rights):
            same = components(x) == components(y)
            assert (x == y) is same and (y == x) is same
            assert (x != y) is not same and (y != x) is not same

    def test_foreign_operands_compare_unequal_without_raising(self):
        assert (Rat(1, 2) != "1/2") is True
        assert (Rat(1, 2) == None) is False     # noqa: E711
        assert (Rat(1, 2) != None) is True      # noqa: E711
        assert (Rat(1, 2) == "1/2") is False

    @pytest.mark.parametrize("op", ["+", "-", "*"])
    def test_extensions_over_different_d_never_mix(self, op):
        x, y = QuadExt(1, 1, 5), QuadExt(1, 1, 2)
        for lhs, rhs in ((x, y), (y, x)):
            with pytest.raises(DomainError):
                apply(op, lhs, rhs)
