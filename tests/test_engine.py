"""Sweep engine: per-level guards against a flat reference, error instances."""

import dataclasses
import gc
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibsums.identities import (ENTRIES, Axis, Context, Entry, Evaluation,
                                Guard, Outcome, RejectedInstance, Side, axis,
                                evaluate_entry, get_entry, joint, make_witness,
                                sweep)


class Boom(Exception):
    """Raised by the synthetic entry's evaluate function, never by a guard."""


def reference_sweep(entry):
    """The flat sweep: every grid point through evaluate_entry, in order.

    Returns (checked, rejected, variant_verified, failures, stream, error):
    ``stream`` is every checked Evaluation, ``error`` the exception type a
    guard raised (the sweep stops there), else None.
    """
    ctx = Context()
    names = [n for ax in entry.grid for n in ax.names]
    checked = rejected = 0
    verified = dict.fromkeys(entry.variants, 0)
    failures, stream = [], []
    try:
        for combo in itertools.product(*(ax.values for ax in entry.grid)):
            b = dict(zip(names, (x for row in combo for x in row)))
            try:
                ev = evaluate_entry(entry, b, ctx)
            except RejectedInstance:
                rejected += 1
                continue
            except Boom as exc:
                ev = Evaluation(entry.id, b, [], [],
                                dict.fromkeys(entry.variants, False), False,
                                ("error", f"Boom: {exc}"))
            checked += 1
            for v, ok in ev.variant_ok.items():
                verified[v] += ok
            if not ev.ok:
                failures.append(ev)
            stream.append(ev)
    except Exception as exc:
        return checked, rejected, verified, failures, stream, type(exc)
    return checked, rejected, verified, failures, stream, None


def engine_sweep(entry):
    """``sweep`` with the same return shape as ``reference_sweep``."""
    stream = []
    try:
        rep = sweep(entry, on_result=stream.append)
    except Exception as exc:
        return None, None, None, None, stream, type(exc)
    return (rep.checked, rep.rejected, rep.variant_verified, rep.failures,
            stream, None)


def assert_same_sweep(got, want):
    assert got[5] is want[5]
    assert got[4] == want[4]
    # dict equality ignores order; bindings must also keep axis order
    assert [list(ev.bindings) for ev in got[4]] \
        == [list(ev.bindings) for ev in want[4]]
    if want[5] is None:
        assert got[:4] == want[:4]
        assert [list(ev.bindings.items()) for ev in got[3]] \
            == [list(ev.bindings.items()) for ev in want[3]]


def grid_size(grid):
    return math.prod(len(ax.values) for ax in grid)


# ---------------------------------------------------------------------------
# synthetic entry: a joint axis, guards at every depth in any declared order
# ---------------------------------------------------------------------------

GUARD_POOL = (
    Guard("d != 0", ("d",), lambda ctx, b: b["d"] != 0),
    Guard("a + b != 1", ("a", "b"), lambda ctx, b: b["a"] + b["b"] != 1),
    Guard("a != -1", ("a",), lambda ctx, b: b["a"] != -1),
    Guard("c % 3 != 2", ("c",), lambda ctx, b: b["c"] % 3 != 2),
    # raises ZeroDivisionError at d = 0 unless "d != 0" was declared first
    Guard("12 % d != 5", ("d",), lambda ctx, b: 12 % b["d"] != 5),
    # e is never bound by the grid, so this guard must never run
    Guard("e >= 0", ("e",), lambda ctx, b: b["e"] >= 0),
    Guard("no parameters", (), lambda ctx, b: True),
)


def _synthetic_evaluate(ctx, b):
    a, bb, c, d = b["a"], b["b"], b["c"], b["d"]
    if a * d == 2:
        raise Boom(f"a * d = {a * d}")
    return Outcome(
        sides=[Side("lhs", Fraction(a + c, 2)),
               Side("printed", Fraction(a + c + (a == bb), 2),
                    variant="as-printed"),
               Side("proved", Fraction(a + c + (d == 3), 2),
                    variant="as-proved")],
        witnesses=[make_witness("2 | 2a + c d", 2, 2 * a + c * d)])


def synthetic_entry(a, bc, d, guards):
    return Entry(
        id="XSYN", kind="identity", statement="synthetic",
        params=("a", "b", "c", "d", "e"), domain="see guards",
        guards=tuple(guards), evaluate=_synthetic_evaluate,
        grid=(axis("a", a), joint(("b", "c"), bc), axis("d", d)),
        required=("a", "b", "c", "d"),
        variants=("as-printed", "as-proved"), primary="as-proved")


small = st.integers(-3, 3)


@st.composite
def synthetic_entries(draw):
    guards = draw(st.permutations(GUARD_POOL))
    return synthetic_entry(
        draw(st.lists(small, max_size=4)),
        draw(st.lists(st.tuples(small, small), max_size=4)),
        draw(st.lists(small, max_size=4)),
        guards[:draw(st.integers(0, len(guards)))])


CHEAP_IDS = ("I01", "I03", "I07", "I10", "P01", "D01", "D06", "D09", "D21",
             "D22")


@st.composite
def catalog_sub_grids(draw):
    entry = get_entry(draw(st.sampled_from(CHEAP_IDS)))
    grid = []
    for ax in entry.grid:
        rows = draw(st.lists(st.integers(0, len(ax.values) - 1),
                             min_size=1, max_size=3, unique=True))
        grid.append(Axis(ax.names, tuple(ax.values[i] for i in rows)))
    return dataclasses.replace(entry, grid=tuple(grid))


class TestSweepMatchesFlatReference:
    @settings(max_examples=150, deadline=None)
    @given(synthetic_entries())
    def test_synthetic_entries(self, entry):
        want = reference_sweep(entry)
        assert_same_sweep(engine_sweep(entry), want)
        if want[5] is None:
            assert want[0] + want[1] == grid_size(entry.grid)

    @settings(max_examples=30, deadline=None)
    @given(catalog_sub_grids())
    def test_catalog_sub_grids(self, entry):
        want = reference_sweep(entry)
        assert want[5] is None
        assert_same_sweep(engine_sweep(entry), want)
        assert want[0] + want[1] == grid_size(entry.grid)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(synthetic_entries(), catalog_sub_grids()), st.data())
    def test_splitting_the_outer_axis_sums(self, entry, data):
        outer, *inner = entry.grid
        k = data.draw(st.integers(0, len(outer.values)))
        halves = [dataclasses.replace(
            entry, grid=(Axis(outer.names, values), *inner))
            for values in (outer.values[:k], outer.values[k:])]
        try:
            whole = sweep(entry)
        except ZeroDivisionError:   # a guard declared before "d != 0"
            return
        parts = [sweep(h) for h in halves]
        assert sum(p.checked for p in parts) == whole.checked
        assert sum(p.rejected for p in parts) == whole.rejected
        assert whole.checked + whole.rejected == grid_size(entry.grid)
        for v in entry.variants:
            assert sum(p.variant_verified[v] for p in parts) \
                == whole.variant_verified[v]
        assert [f for p in parts for f in p.failures] == whole.failures


class TestPerLevelGuards:
    def test_each_guard_runs_once_per_row_of_its_level(self):
        calls = {"a": 0, "c": 0, "b": 0}

        def counted(name, holds):
            def check(ctx, b):
                calls[name] += 1
                return holds(b)
            return Guard(f"{name} guard", (name,), check)

        entry = Entry(
            id="XLVL", kind="identity", statement="x = x",
            params=("a", "b", "c"), domain="a != 0; b, c any",
            # the b guard is declared after the c guard, so it waits for c
            guards=(counted("a", lambda b: b["a"] != 0),
                    counted("c", lambda b: True),
                    counted("b", lambda b: b["b"] != 1)),
            evaluate=lambda ctx, b: Outcome(sides=[Side("x", 1), Side("y", 1)]),
            grid=(axis("a", [0, 1, 2]), axis("b", [0, 1, 2, 3]),
                  axis("c", [0, 1, 2, 3, 4])))
        rep = sweep(entry)
        assert calls == {"a": 3, "c": 40, "b": 40}
        assert (rep.checked, rep.rejected) == (30, 30)

    def test_sweep_leaves_no_reference_cycles(self):
        entry = get_entry("D22")
        grid = (*entry.grid[:2], *(Axis(ax.names, ax.values[:2])
                                   for ax in entry.grid[2:]))
        gc.collect()
        gc.disable()
        try:
            sweep(dataclasses.replace(entry, grid=grid))
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0


class TestInstanceErrors:
    def entry(self, guards=()):
        def evaluate(ctx, b):
            if b["n"] % 2:
                raise KeyError("m")
            return Outcome(sides=[Side("x", b["n"]), Side("y", b["n"])])

        return Entry(
            id="XERR", kind="identity", statement="n = n", params=("n",),
            domain="any n", guards=guards, evaluate=evaluate,
            grid=(axis("n", range(5)),))

    def test_evaluate_errors_become_failing_instances(self):
        seen = []
        rep = sweep(self.entry(), on_result=seen.append)
        assert (rep.checked, rep.rejected) == (5, 0)
        assert rep.variant_verified == {"as-stated": 3}
        assert not rep.verified
        assert [f.bindings for f in rep.failures] == [{"n": 1}, {"n": 3}]
        failure = rep.failures[0]
        assert failure.first_diff == ("error", "KeyError: 'm'")
        assert (failure.sides, failure.witnesses) == ([], [])
        assert failure.variant_ok == {"as-stated": False} and not failure.ok
        assert [ev.bindings["n"] for ev in seen] == [0, 1, 2, 3, 4]

    def test_guard_errors_propagate(self):
        def holds(ctx, b):
            raise RuntimeError("guard bug")

        with pytest.raises(RuntimeError, match="guard bug"):
            sweep(self.entry(guards=(Guard("bad", ("n",), holds),)))


# ---------------------------------------------------------------------------
# per-level checking relies on every guard reading only its `needs`
# ---------------------------------------------------------------------------

GUARD_SAMPLE_POINTS = 100


class TestGuardContract:
    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.id)
    def test_guards_read_only_their_needs(self, entry):
        rng = random.Random(entry.id)
        names = [n for ax in entry.grid for n in ax.names]
        ctx = Context()
        for _ in range(GUARD_SAMPLE_POINTS):
            rows = [rng.choice(ax.values) for ax in entry.grid]
            b = dict(zip(names, (x for row in rows for x in row)))
            for g in entry.guards:
                held = g.holds(ctx, {n: b[n] for n in g.needs})
                assert held == g.holds(ctx, b), (entry.id, g.text, b)
                if not held:
                    break
