"""Dense exact polynomials and the Fibonacci/Lucas/Chebyshev families."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibsums.polynomials import (POLY_ONE, POLY_X, POLY_ZERO, cheb_T, cheb_U,
                                 fib_poly, lucas_poly, poly, poly_add,
                                 poly_eval, poly_mul, poly_pow, poly_scale,
                                 poly_sub, render_poly)
from fibsums.scalars import QuadExt
from fibsums.sequences import fib, lucas, neg_one, pell, pell_lucas


class TestPolyOps:
    def test_canonicalization(self):
        assert poly(1, 2, 0) == (1, 2)
        assert poly(0, 0) == ()
        assert poly() == POLY_ZERO
        assert POLY_ONE == (1,) and POLY_X == (0, 1)

    def test_add_sub(self):
        assert poly_add((1, 2), (0, 0, 3)) == (1, 2, 3)
        assert poly_sub((1, 2), (1, 2)) == ()
        assert poly_add((1, 2), ()) == (1, 2)

    def test_mul(self):
        assert poly_mul((1, 1), (1, -1)) == (1, 0, -1)   # (1+x)(1-x)
        assert poly_mul((1, 2), ()) == ()
        assert poly_mul((), ()) == ()

    def test_scale_and_pow(self):
        assert poly_scale(0, (1, 2)) == ()
        assert poly_scale(Fraction(1, 2), (2, 4)) == (1, 2)
        assert poly_pow(POLY_X, 3) == (0, 0, 0, 1)
        assert poly_pow((1, 1), 2) == (1, 2, 1)
        assert poly_pow((5, 2), 0) == (1,)
        with pytest.raises(ValueError):
            poly_pow(POLY_X, -1)

    def test_eval(self):
        assert poly_eval((1, 2, 3), 2) == 17
        assert poly_eval((), 5) == 0
        assert poly_eval((0, 1), Fraction(2, 3)) == Fraction(2, 3)
        assert poly_eval((0, 0, 1), QuadExt(0, 1, 5)) == 5

    @settings(max_examples=50)
    @given(a=st.lists(st.integers(-9, 9), max_size=6),
           b=st.lists(st.integers(-9, 9), max_size=6),
           x=st.fractions(min_value=-5, max_value=5, max_denominator=6))
    def test_eval_is_a_ring_homomorphism(self, a, b, x):
        pa, pb = poly(*a), poly(*b)
        assert poly_eval(poly_add(pa, pb), x) == \
            poly_eval(pa, x) + poly_eval(pb, x)
        assert poly_eval(poly_mul(pa, pb), x) == \
            poly_eval(pa, x) * poly_eval(pb, x)


class TestFamilies:
    def test_fib_poly_frozen(self):
        assert fib_poly(0) == ()
        assert fib_poly(1) == (1,)
        assert fib_poly(2) == (0, 1)
        assert fib_poly(3) == (1, 0, 1)
        assert fib_poly(4) == (0, 2, 0, 1)
        assert fib_poly(5) == (1, 0, 3, 0, 1)

    def test_lucas_poly_frozen(self):
        assert lucas_poly(0) == (2,)
        assert lucas_poly(1) == (0, 1)
        assert lucas_poly(2) == (2, 0, 1)
        assert lucas_poly(3) == (0, 3, 0, 1)

    def test_cheb_frozen(self):
        assert cheb_T(0) == (1,)
        assert cheb_T(1) == (0, 1)
        assert cheb_T(2) == (-1, 0, 2)
        assert cheb_T(3) == (0, -3, 0, 4)
        assert cheb_U(0) == (1,)
        assert cheb_U(1) == (0, 2)
        assert cheb_U(2) == (-1, 0, 4)
        assert cheb_U(3) == (0, -4, 0, 8)

    def test_negative_index_rules(self):
        assert fib_poly(-3) == (1, 0, 1)                       # odd: unchanged
        assert fib_poly(-4) == (0, -2, 0, -1)                  # even: negated
        assert lucas_poly(-3) == (0, -3, 0, -1)
        assert lucas_poly(-2) == (2, 0, 1)
        assert cheb_T(-2) == cheb_T(2)
        assert cheb_T(-5) == cheb_T(5)
        assert cheb_U(-1) == ()
        assert cheb_U(-2) == (-1,)
        assert cheb_U(-3) == (0, -2)
        for n in range(13):
            assert fib_poly(-n) == poly_scale(neg_one(n - 1), fib_poly(n))
            assert lucas_poly(-n) == poly_scale(neg_one(n), lucas_poly(n))
            if n >= 2:
                assert cheb_U(-n) == poly_scale(-1, cheb_U(n - 2))

    def test_recurrences(self):
        two_x = (0, 2)
        for n in range(-40, 41):
            assert fib_poly(n + 1) == \
                poly_add(poly_mul(POLY_X, fib_poly(n)), fib_poly(n - 1))
            assert lucas_poly(n + 1) == \
                poly_add(poly_mul(POLY_X, lucas_poly(n)), lucas_poly(n - 1))
            assert cheb_T(n + 1) == \
                poly_sub(poly_mul(two_x, cheb_T(n)), cheb_T(n - 1))
            assert cheb_U(n + 1) == \
                poly_sub(poly_mul(two_x, cheb_U(n)), cheb_U(n - 1))

    def test_specializations(self):
        assert poly_eval(fib_poly(4), 2) == 12
        for n in range(-15, 16):
            assert poly_eval(fib_poly(n), 1) == fib(n)
            assert poly_eval(lucas_poly(n), 1) == lucas(n)
            assert poly_eval(fib_poly(n), 2) == pell(n)
            assert poly_eval(lucas_poly(n), 2) == pell_lucas(n)

    def test_degree_and_parity(self):
        for n in range(1, 16):
            assert len(fib_poly(n)) == n                 # degree n - 1
            assert len(lucas_poly(n)) == n + 1           # degree n
            assert len(cheb_T(n)) == n + 1
            assert len(cheb_U(n)) == n + 1
            # each family alternates: coefficients of the "wrong" parity vanish
            assert all(c == 0 for k, c in enumerate(fib_poly(n))
                       if (n - 1 - k) % 2)
            assert all(c == 0 for k, c in enumerate(lucas_poly(n)) if (n - k) % 2)


class TestRenderPoly:
    @pytest.mark.parametrize("p,text", [
        ((), "0"),
        ((-1, 0, 4), "4x^2 - 1"),
        ((2, 0, 1), "x^2 + 2"),
        ((0, 1), "x"),
        ((0, -1), "-x"),
        ((1, 1), "x + 1"),
        ((Fraction(1, 2),), "1/2"),
        ((0, 0, -3), "-3x^2"),
        ((0, Fraction(3, 2), 0, 1), "x^3 + 3/2x"),
    ])
    def test_frozen(self, p, text):
        assert render_poly(p) == text
