"""Sequence families: frozen values, signed indices, oracle equivalence."""

import contextlib
import dataclasses
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_mutation import _sub_grid

from fibsums import sequences
from fibsums.identities import ENTRIES, Context, engine, get_entry, sweep
from fibsums.scalars import DomainError, Rat, canonical, make_roots
from fibsums.sequences import (HoradamParams, SeqTable, fib, horadam_w,
                               lucas, lucas_u, lucas_v, neg_one, pell,
                               pell_lucas)

# classic opening terms (textbook values)
FIB = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
LUCAS = [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123]
PELL = [0, 1, 2, 5, 12, 29, 70]
PELL_LUCAS = [2, 2, 6, 14, 34, 82]
# indices with long binary expansions, for the doubling's bit loop
BIG = (257, 1023, 1024, 4097)


class TestNegOne:
    @pytest.mark.parametrize("e,sign", [(0, 1), (1, -1), (2, 1), (-3, -1),
                                        (-4, 1), (7, -1)])
    def test_parity_sign(self, e, sign):
        assert neg_one(e) == sign


class TestClassicFamilies:
    def test_fib_frozen(self):
        assert [fib(n) for n in range(11)] == FIB
        assert fib(10) == 55
        assert fib(50) == 12586269025
        assert fib(-4) == -3

    def test_lucas_frozen(self):
        assert [lucas(n) for n in range(11)] == LUCAS
        assert lucas(10) == 123
        assert lucas(-3) == -4
        assert lucas(-4) == 7

    def test_pell_frozen(self):
        assert [pell(n) for n in range(7)] == PELL
        assert pell(5) == 29
        assert pell(-2) == -2

    def test_pell_lucas_frozen(self):
        assert [pell_lucas(n) for n in range(6)] == PELL_LUCAS
        assert pell_lucas(4) == 34
        assert pell_lucas(-2) == 6
        assert pell_lucas(-3) == -14

    def test_reflection_rules(self):
        for n in (*range(61), *BIG):
            assert fib(-n) == neg_one(n - 1) * fib(n)
            assert lucas(-n) == neg_one(n) * lucas(n)
            assert pell(-n) == neg_one(n - 1) * pell(n)
            assert pell_lucas(-n) == neg_one(n) * pell_lucas(n)
            # g_(-n) = (-1)^n (g0 F_(n+1) - g1 F_n)
            assert horadam_w(HoradamParams(4, -7, 1, -1), -n) \
                == neg_one(n) * (4 * fib(n + 1) + 7 * fib(n))

    def test_recurrence_through_zero(self):
        for n in range(-30, 30):
            assert fib(n + 2) == fib(n + 1) + fib(n)
            assert lucas(n + 2) == lucas(n + 1) + lucas(n)
            assert pell(n + 2) == 2 * pell(n + 1) + pell(n)
            assert pell_lucas(n + 2) == 2 * pell_lucas(n + 1) + pell_lucas(n)

    def test_integer_type(self):
        assert all(isinstance(fib(n), int) for n in range(-10, 11))
        assert all(isinstance(pell(n), int) for n in range(-10, 11))


class TestGibonacci:
    """Free integer seeds (g0, g1) on the Fibonacci recurrence."""

    def test_frozen_values(self):
        assert horadam_w(HoradamParams(2, 1, 1, -1), 4) == 7
        assert horadam_w(HoradamParams(3, 5, 1, -1), 3) == 13
        assert horadam_w(HoradamParams(2, 1, 1, -1), -3) == -4

    def test_specializes_to_fib_and_lucas(self):
        for n in range(-20, 21):
            assert horadam_w(HoradamParams(0, 1, 1, -1), n) == fib(n)
            assert horadam_w(HoradamParams(2, 1, 1, -1), n) == lucas(n)

    def test_recurrence(self):
        g = HoradamParams(4, -7, 1, -1)
        for n in range(-10, 10):
            assert horadam_w(g, n + 2) == horadam_w(g, n + 1) + horadam_w(g, n)


class TestHoradam:
    def test_specializes_to_fib(self):
        params = HoradamParams(0, 1, 1, -1)
        for n in range(-15, 16):
            value = horadam_w(params, n)
            assert value == fib(n)
            assert isinstance(value, int)

    def test_fractional_below_zero_frozen(self):
        params = HoradamParams(2, 3, 3, 2)     # w_n = 2^n + 1
        assert horadam_w(params, 4) == 17
        assert isinstance(horadam_w(params, 4), int)
        assert horadam_w(params, -1) == Fraction(3, 2)
        assert horadam_w(params, -2) == Fraction(5, 4)

    def test_lucas_sequences_frozen(self):
        # roots 2 and 1: u_n = 2^n - 1, v_n = 2^n + 1
        assert lucas_u(3, 2, 4) == 15
        assert lucas_v(3, 2, 2) == 5
        for n in range(13):
            assert lucas_u(3, 2, n) == 2 ** n - 1
            assert lucas_v(3, 2, n) == 2 ** n + 1

    def test_pell_is_a_lucas_sequence(self):
        for n in range(-8, 9):
            assert lucas_u(2, -1, n) == pell(n)
            assert lucas_v(2, -1, n) == pell_lucas(n)

    @pytest.mark.parametrize("params", [(0.5, 1, 1, -1), (0, Fraction(1), 1, -1),
                                        (0, 1, 1.0, -1), (0, 1, 1, "-1")])
    def test_parameters_that_are_not_ints_are_refused(self, params):
        with pytest.raises(TypeError):
            HoradamParams(*params)

    def test_degenerate_coefficients_rejected(self):
        with pytest.raises(DomainError):
            HoradamParams(0, 1, 0, 1)
        with pytest.raises(DomainError):
            HoradamParams(0, 1, 1, 0)

    def test_matches_naive_oracle(self, naive_horadam):
        rng = random.Random(411)
        for _ in range(12):
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            p = rng.choice([k for k in range(-5, 6) if k])
            q = rng.choice([k for k in range(-5, 6) if k])
            params = HoradamParams(a, b, p, q)
            for n in range(-40, 41):
                assert horadam_w(params, n) == naive_horadam(a, b, p, q, n), \
                    (a, b, p, q, n)

    @pytest.mark.parametrize("p,q", [(1, -1), (3, 2), (2, -1), (1, 1), (-2, -3)])
    def test_binet_forms(self, p, q):
        tau, sigma, delta = make_roots(p, q)
        for n in range(-10, 11):
            assert delta * lucas_u(p, q, n) == tau ** n - sigma ** n
            assert lucas_v(p, q, n) == tau ** n + sigma ** n

    @settings(max_examples=60)
    @given(a=st.integers(-6, 6), b=st.integers(-6, 6),
           p=st.integers(-4, 4).filter(bool), q=st.integers(-4, 4).filter(bool),
           n=st.integers(-25, 25))
    def test_recurrence_property(self, a, b, p, q, n):
        params = HoradamParams(a, b, p, q)
        assert horadam_w(params, n) == \
            p * horadam_w(params, n - 1) - q * horadam_w(params, n - 2)


class TestSeqTable:
    def test_matches_fib_and_lucas_in_any_access_order(self):
        indices = list(range(-25, 26))
        random.Random(7).shuffle(indices)
        ft, lt = SeqTable(0, 1, 1, -1), SeqTable(2, 1, 1, -1)
        for n in indices:
            assert ft(n) == fib(n)
            assert lt(n) == lucas(n)

    def test_matches_horadam_with_fractional_tail(self):
        rows = [(2, 3, 3, 2),       # w_n = 2^n + 1: fractional below zero
                (2, 5, 3, 1),       # q = 1
                (1, 4, 2, -1),      # q = -1
                (-2, 0, 2, 2),      # gcd(p, q) = 2: some terms below zero integral
                (3, -1, -2, 3)]     # negative p
        indices = [*range(-30, 31), *BIG, *(-n for n in BIG)]
        random.Random(12).shuffle(indices)
        for row in rows:
            table, params = SeqTable(*row), HoradamParams(*row)
            for n in indices:
                value, want = table(n), horadam_w(params, n)
                if type(want) is int:
                    assert type(value) is int and value == want, (row, n)
                else:
                    assert type(value) is Rat, (row, n, value)
                    assert canonical(value) == want, (row, n)

    def test_values_are_cached(self):
        table = SeqTable(0, 1, 1, -1)
        assert table(30) is table(30)


#: Seeds and p for each q in +-1..+-4: every sum of H01-H11 reads such rows.
READ_ROWS = [(a, b, p, q) for q in (-4, -3, -2, -1, 1, 2, 3, 4)
             for a, b, p in ((2, 3, 3), (3, -2, -2))]

# (start, step, count) runs: across index 0, wholly above or below it, steps
# of both signs and 0 (H02, H06, H08, H09 and H11 at r = 0), counts 0 (H07,
# H09 and H10 at n = 0) and 1; depths K odd and even
READ_RUNS = [(start, step, count) for start in (-9, -4, -1, 0, 3, 8)
             for step in (-5, -2, -1, 0, 1, 3) for count in (0, 1, 2, 5)]
# descending runs that end at index 0 or just past it: a slice stop of -1
# would read as the end of the list
READ_RUNS += [(4, -2, 3), (6, -3, 3), (2, -1, 3), (1, -1, 2), (0, -1, 1),
              (4, -2, 4), (-1, -1, 3), (7, -7, 2), (3, -2, 2)]


class TestRead:
    """``read`` and ``at`` give Z_j = q^K w_(i_j) over q^K, K = max(0, -min i)."""

    @staticmethod
    def check(row, indices, got, reference):
        z, scale = got
        assert scale == row[3] ** max([0] + [-i for i in indices])
        assert all(type(x) is int for x in z)
        assert [Fraction(x, scale) for x in z] == [reference[i] for i in indices], \
            (row, indices)

    @pytest.mark.parametrize("row", READ_ROWS)
    def test_runs_match_the_naive_loop(self, naive_horadam, row):
        reference = {i: naive_horadam(*row, i) for i in range(-45, 46)}
        grown_down, grown_up = SeqTable(*row), SeqTable(*row)
        grown_down(-40)
        grown_up(40)
        # a fresh table grows with each read, at either end; the others
        # were grown before, beyond every read, at one end
        for table in (SeqTable(*row), grown_down, grown_up):
            for start, step, count in READ_RUNS:
                indices = [start + j * step for j in range(count)]
                self.check(row, indices, table.read(start, step, count), reference)
            for n in range(-45, 46):
                assert table(n) == reference[n]

    @pytest.mark.parametrize("row", READ_ROWS)
    def test_listed_terms_match_the_naive_loop(self, naive_horadam, row):
        reference = {i: naive_horadam(*row, i) for i in range(-30, 31)}
        table = SeqTable(*row)
        rng = random.Random(row[3])
        for size in (0, 1, 2, 4) * 20:
            indices = [rng.randint(-30, 30) for _ in range(size)]
            self.check(row, indices, table.at(*indices), reference)

    def test_reads_agree_with_single_terms_after_growth(self):
        # w_n = 2^n + 1: no term below zero is an integer
        table = SeqTable(2, 3, 3, 2)
        z, scale = table.read(-5, 3, 6)
        assert scale == 2 ** 5 and table(-5) == Fraction(33, 32)
        table(-60)
        assert table.read(-5, 3, 6) == (z, scale)
        assert table.read(-60, 0, 3) == ([2 ** 60 + 1] * 3, 2 ** 60)
        assert table.read(10, -5, 0) == ([], 1)
        assert table.at() == ([], 1)


#: Sub-grids whose (p, q) rows have |q| > 1, so their terms below index 0
#: are not all integers; each is swept through overrides.
PQ_ROWS = {"p": [1, 3], "q": [2, -3]}
SWEEPS = {
    "LEM2": {"s": range(-3, 4)},
    "LEM3": {"r": range(-2, 3), "s": range(-2, 3)},
    "LEM4": {"a": [1, 2], "b": [-1, 3], "n": range(0, 5)},
    "LEM5": {"r": range(-2, 3), "m": range(-2, 3), "s": range(-2, 3)},
    "LEM6": {"n": range(-3, 4), "m": range(-3, 4)},
    "D20": {"r": range(-3, 4), "n": range(0, 4)},
    "D21": {"r": range(0, 3), "m": [1, 3], "t": range(0, 3), "n": [2, 4]},
}


class TestSweepsBuildNoFraction:
    """A table term below index 0 is an int or a kernel ``Rat``: with
    ``Fraction`` unusable in ``sequences``, table reads and the sweeps that
    read such terms still work."""

    @pytest.fixture(autouse=True)
    def no_fraction(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"Fraction{args} built in a table read")
        monkeypatch.setattr(sequences, "Fraction", refuse)

    def test_table_reads_below_zero(self):
        table = SeqTable(2, 3, 3, 2)            # w_n = 2^n + 1
        assert [table(n) for n in (-1, -3)] == [Rat(3, 2), Rat(9, 8)]
        assert type(table(-3)) is Rat and table(-3).d == 8
        assert table(-40) == Rat(2 ** 40 + 1, 2 ** 40)
        assert table(0) == 2 and type(SeqTable(-2, 0, 2, 2)(-2)) is int
        with pytest.raises(AssertionError):
            horadam_w(HoradamParams(2, 3, 3, 2), -1)

    @pytest.mark.parametrize("entry_id", SWEEPS)
    def test_sweeps_verify(self, entry_id):
        ctx = Context()
        rep = sweep(get_entry(entry_id), {**PQ_ROWS, **SWEEPS[entry_id]}, ctx)
        assert rep.checked and not rep.failures and rep.verified
        assert type(ctx.u(1, 2)(-1)) is Rat


#: (p, q) rows whose discriminant p^2 - 4q is a nonzero square (1 or 25), so
#: their roots (2 and 1, or 4 and -1, up to sign) are rational.
SQUARE_ROWS = {"p": [3, -3], "q": [2, -4]}


@contextlib.contextmanager
def counted_fractions():
    """Yields a list that gets, for every Fraction built, the name of the
    function that built it and the arguments."""
    built, new = [], Fraction.__dict__["__new__"]

    def counted(cls, *args, **kwargs):
        built.append((sys._getframe(1).f_code.co_name, args))
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    try:
        yield built
    finally:
        Fraction.__new__ = new


class TestRationalRootsBuildNoFraction:
    """A Context keeps rational roots as kernel ``Rat``s: once it is warm,
    a sweep of the root-level lemmas on square-discriminant rows builds no
    Fraction (``make_roots`` itself still returns Fractions)."""

    @pytest.mark.parametrize("entry_id", ["LEM2", "LEM3", "LEM4", "LEM5"])
    def test_sweeps_verify(self, entry_id, monkeypatch):
        monkeypatch.setattr(engine, "_cpu_count", lambda: 1)    # no fork
        entry, ranges = get_entry(entry_id), {**SQUARE_ROWS, **SWEEPS[entry_id]}
        ctx = Context()
        sweep(entry, ranges, ctx)
        assert type(ctx.roots(3, -4).tau) is Rat
        assert type(make_roots(3, -4).tau) is Fraction
        with counted_fractions() as built:
            rep = sweep(entry, ranges, ctx)
        assert rep.checked and not rep.failures and rep.verified
        assert built == []


class TestNoSweepBuildsAFraction:
    """``Rat`` is the only rational type a sweep computes with: every entry,
    swept on a sub-grid over a warm Context, builds no Fraction, and a cold
    Context builds them only in ``make_roots``, whose rational roots are
    public Fractions that the Context keeps as Rats."""

    def test_every_entry(self, monkeypatch):
        monkeypatch.setattr(engine, "_cpu_count", lambda: 1)    # no fork
        subs = [dataclasses.replace(e, grid=_sub_grid(e, e.primary_variant))
                for e in ENTRIES]
        ctx = Context()
        with counted_fractions() as cold:
            reports = [sweep(e, None, ctx) for e in subs]
        assert {name for name, _ in cold} <= {"make_roots"}
        with counted_fractions() as warm:
            reports += [sweep(e, None, ctx) for e in subs]
        assert warm == []
        assert all(rep.checked and rep.verified for rep in reports)
