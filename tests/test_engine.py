"""Sweep engine: per-level guards and sharded sweeps against a flat
reference, error instances, the D22 guard order."""

import contextlib
import dataclasses
import gc
import itertools
import math
import os
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibsums.identities import (ENTRIES, Axis, Context, Entry, Evaluation,
                                Guard, Outcome, RejectedInstance, Side, Slot,
                                axis, evaluate_entry, get_entry, joint, sweep)
from fibsums.identities import engine
from fibsums.reports import document, sweep_payload, to_json
from fibsums.scalars import QuadExt, Rat


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


def engine_sweep(entry, rows=True):
    """``sweep`` with the same return shape as ``reference_sweep``. Its
    stream is the sweep's rows, one Evaluation per checked point, or None
    without ``rows`` or when the sweep raised."""
    try:
        rep = sweep(entry, row=(lambda ev: ev) if rows else None)
    except Exception as exc:
        return None, None, None, None, None, type(exc)
    return (rep.checked, rep.rejected, rep.variant_verified, rep.failures,
            rep.rows, None)


def assert_same_sweep(got, want):
    assert got[5] is want[5]
    if got[4] is not None:      # a sweep without rows streams nothing
        assert got[4] == want[4]
        # dict equality ignores order; bindings must also keep axis order
        assert [list(ev.bindings) for ev in got[4]] \
            == [list(ev.bindings) for ev in want[4]]
    if want[5] is None:
        assert got[:4] == want[:4]
        assert [list(ev.bindings.items()) for ev in got[3]] \
            == [list(ev.bindings.items()) for ev in want[3]]


#: The two sides of the synthetic entries that return (x, y).
XY = (Slot("x"), Slot("y"))


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
    Guard("no parameters", (), lambda ctx, b: True),
)


def _synthetic_evaluate(ctx, b):
    a, bb, c, d = b["a"], b["b"], b["c"], b["d"]
    if a * d == 2:
        raise Boom(f"a * d = {a * d}")
    return Outcome(
        (Fraction(a + c, 2), Fraction(a + c + (a == bb), 2),
         Fraction(a + c + (d == 3), 2)),
        ((2, 2 * a + c * d),))


def synthetic_entry(a, bc, d, guards):
    return Entry(
        id="XSYN", statement="synthetic", domain="see guards",
        guards=tuple(guards), evaluate=_synthetic_evaluate,
        grid=(axis("a", a), joint(("b", "c"), bc), axis("d", d)),
        sides=(Slot("lhs"), Slot("printed", variant="as-printed"),
               Slot("proved", variant="as-proved")),
        witnesses=("2 | 2a + c d",))


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
            id="XLVL", statement="x = x",
            domain="a != 0; b, c any",
            # the b guard is declared after the c guard, so it waits for c
            guards=(counted("a", lambda b: b["a"] != 0),
                    counted("c", lambda b: True),
                    counted("b", lambda b: b["b"] != 1)),
            evaluate=lambda ctx, b: Outcome((1, 1)), sides=XY,
            grid=(axis("a", [0, 1, 2]), axis("b", [0, 1, 2, 3]),
                  axis("c", [0, 1, 2, 3, 4])))
        with shards(1):     # the calls are counted in this process
            rep = sweep(entry)
        assert calls == {"a": 3, "c": 40, "b": 40}
        assert (rep.checked, rep.rejected) == (30, 30)

    def test_a_guard_on_an_unbound_parameter_never_runs(self):
        # overrides that bind a subset of the parameters, as div D21 takes,
        # leave the guards on the others unchecked, in a sweep and at a point
        def holds(ctx, b):
            raise AssertionError("a guard on an unbound parameter ran")

        entry = Entry(
            id="XOPT", statement="a = a", domain="e >= 0",
            guards=(Guard("e >= 0", ("e",), holds),),
            evaluate=lambda ctx, b: Outcome((b["a"], b["a"])), sides=XY,
            grid=(axis("a", [0, 1, 2]), axis("e", [0, 1])), required=("a",))
        rep = sweep(entry, {"a": [0, 1, 2]})
        assert [ax.names for ax in rep.axes] == [("a",)]
        assert (rep.checked, rep.rejected) == (3, 0) and rep.verified
        assert evaluate_entry(entry, {"a": 1}).ok
        with pytest.raises(AssertionError, match="unbound parameter ran"):
            sweep(entry)

    def test_sweep_leaves_no_reference_cycles(self):
        entry = get_entry("D22")
        grid = (*entry.grid[:2], *(Axis(ax.names, ax.values[:2])
                                   for ax in entry.grid[2:]))
        # one process: a first sharded sweep imports pickle, which leaves
        # garbage cycles (see test_sharded_sweep_leaves_no_reference_cycles)
        with shards(1):
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
            return Outcome((b["n"], b["n"]))

        return Entry(
            id="XERR", statement="n = n",
            domain="any n", guards=guards, evaluate=evaluate,
            grid=(axis("n", range(5)),), sides=XY)

    def test_evaluate_errors_become_failing_instances(self):
        rep = sweep(self.entry(), row=lambda ev: ev)
        assert (rep.checked, rep.rejected) == (5, 0)
        assert rep.variant_verified == {"as-stated": 3}
        assert not rep.verified
        assert [f.bindings for f in rep.failures] == [{"n": 1}, {"n": 3}]
        failure = rep.failures[0]
        assert failure.first_diff == ("error", "KeyError: 'm'")
        assert (failure.sides, failure.witnesses) == ([], [])
        assert failure.variant_ok == {"as-stated": False} and not failure.ok
        assert [ev.bindings["n"] for ev in rep.rows] == [0, 1, 2, 3, 4]
        assert sweep(self.entry()).rows is None

    def test_guard_errors_propagate(self):
        def holds(ctx, b):
            raise RuntimeError("guard bug")

        with pytest.raises(RuntimeError, match="guard bug"):
            sweep(self.entry(guards=(Guard("bad", ("n",), holds),)))


# ---------------------------------------------------------------------------
# sharded sweeps: forced onto 2 or 3 processes, they must equal one process
# ---------------------------------------------------------------------------

def assert_no_children():
    """Every child a sweep forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def shards(workers):
    """Shard every sweep over ``workers`` processes; yields the forked pids."""
    forked = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_cpu_count", lambda: workers)
        mp.setattr(engine, "SHARD_MIN_POINTS", 0)
        mp.setattr(os, "fork", counted_fork)
        yield forked
    assert_no_children()


def d22_sub_grid():
    entry = get_entry("D22")
    grid = (*entry.grid[:2], *(Axis(ax.names, ax.values[:2])
                               for ax in entry.grid[2:]))
    return dataclasses.replace(entry, grid=grid)


def n_entry(guards=(), evaluate=None):
    """One axis n = 0..9: with 2 or 3 shares each point is its own prefix."""
    return Entry(
        id="XSHD", statement="n = n",
        domain="any n", guards=guards,
        evaluate=evaluate or (lambda ctx, b: Outcome((b["n"], b["n"]))),
        grid=(axis("n", range(10)),), sides=XY)


def raising_guard(name, bad):
    def holds(ctx, b):
        if b[name] in bad:
            raise ValueError(f"bad {name} = {b[name]}")
        return True
    return Guard(f"{name} is good", (name,), holds)


class TwoArgError(Exception):
    """Pickles, but cannot be rebuilt from its message alone."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


class Interrupt(BaseException):
    """Stands in for KeyboardInterrupt in the parent's own share."""


class TestShardedSweep:
    @pytest.mark.parametrize("workers", [2, 3])
    @settings(max_examples=40, deadline=None)
    @given(entry=synthetic_entries())
    def test_synthetic_entries(self, workers, entry):
        want = reference_sweep(entry)
        for rows in (False, True):
            with shards(workers):
                got = engine_sweep(entry, rows)
            assert_same_sweep(got, want)
            if want[5] is None:
                assert got[0] + got[1] == grid_size(entry.grid)

    @pytest.mark.parametrize("workers", [2, 3])
    @settings(max_examples=15, deadline=None)
    @given(entry=catalog_sub_grids())
    def test_catalog_sub_grids(self, workers, entry):
        want = reference_sweep(entry)
        with shards(workers):
            got = engine_sweep(entry)
        assert_same_sweep(got, want)
        assert got[0] + got[1] == grid_size(entry.grid)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_report_bytes_match_one_process(self, workers):
        entry = d22_sub_grid()
        want = to_json(document("verify", [sweep_payload(sweep(entry))]))
        with shards(workers) as forked:
            rep = sweep(entry)
        assert len(forked) == workers - 1
        assert to_json(document("verify", [sweep_payload(rep)])) == want
        assert rep.checked + rep.rejected == grid_size(entry.grid)

    def test_one_share_does_not_fork(self):
        with shards(1) as forked:
            rep = sweep(d22_sub_grid())
            with_rows = sweep(d22_sub_grid(), row=lambda ev: ev.bindings)
        assert forked == [] and rep.verified and with_rows.verified
        assert len(with_rows.rows) == with_rows.checked

    @pytest.mark.parametrize("workers", [2, 3])
    def test_rows_match_one_process(self, workers):
        # n = 3 fails its witness, n = 6 raises in evaluate
        def evaluate(ctx, b):
            n = b["n"]
            if n == 6:
                raise KeyError("m")
            return Outcome((n, n), ((3, 3 * n + (n == 3)),))

        entry = dataclasses.replace(n_entry(evaluate=evaluate),
                                    witnesses=("3 | 3n",))
        with shards(1):
            want = sweep(entry, row=lambda ev: ev)
        with shards(workers) as forked:
            got = sweep(entry, row=lambda ev: ev)
        assert len(forked) == workers - 1
        assert [ev.bindings["n"] for ev in got.rows] == list(range(10))
        assert got.rows == want.rows
        assert got.failures == want.failures == [got.rows[3], got.rows[6]]
        assert got.rows[3].witnesses[0].residue == 1
        assert got.rows[6].first_diff == ("error", "KeyError: 'm'")

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("bad", [(5, 7), (4, 5, 7)])
    def test_row_error_in_a_child_share_matches_one_process(self, workers, bad):
        def row(ev):
            if ev.bindings["n"] in bad:
                raise ValueError(f"bad row {ev.bindings['n']}")
            return ev.bindings["n"]

        with shards(1):
            with pytest.raises(ValueError) as serial:
                sweep(n_entry(), row=row)
        with shards(workers) as forked:     # reaps every child or fails
            with pytest.raises(ValueError) as sharded:
                sweep(n_entry(), row=row)
        assert len(forked) == workers - 1
        assert str(sharded.value) == str(serial.value) == f"bad row {bad[0]}"

    def test_small_sweeps_stay_in_process(self, monkeypatch):
        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
        # a small sweep that ends before the fork gate opens
        monkeypatch.setattr(engine, "_clock", lambda: 0.0)
        assert engine.SHARD_MIN_POINTS > 0
        monkeypatch.setattr(os, "fork", None)    # any fork would raise
        entry = n_entry()
        assert grid_size(entry.grid) < engine.SHARD_MIN_POINTS
        assert sweep(entry).verified
        assert sweep(entry, row=lambda ev: ev.bindings["n"]).rows == list(range(10))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_evaluate_errors_in_child_shares(self, workers):
        def evaluate(ctx, b):
            if b["n"] % 2:
                raise KeyError("m")
            return Outcome((b["n"], b["n"]))

        entry = n_entry(evaluate=evaluate)
        with shards(workers) as forked:
            rep = sweep(entry)
        assert forked
        assert (rep.checked, rep.rejected) == (10, 0)
        assert rep.variant_verified == {"as-stated": 5}
        assert [f.bindings for f in rep.failures] \
            == [{"n": n} for n in (1, 3, 5, 7, 9)]
        assert {f.first_diff for f in rep.failures} \
            == {("error", "KeyError: 'm'")}

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("limit", [MemoryError, RecursionError])
    def test_a_resource_limit_ends_the_sweep(self, workers, limit):
        # a resource limit is not a failing instance; with 2 shares n = 7
        # is walked in the child
        def evaluate(ctx, b):
            if b["n"] == 7:
                raise limit(f"at n = {b['n']}")
            return Outcome((b["n"], b["n"]))

        with shards(workers) as forked:
            with pytest.raises(limit, match="^at n = 7$"):
                sweep(n_entry(evaluate=evaluate))
        assert len(forked) == workers - 1

    @pytest.mark.parametrize("workers", [2, 3])
    def test_failing_quadext_sides_cross_the_pipe(self, workers):
        def evaluate(ctx, b):
            n = b["n"]
            x = QuadExt(n, 1, 5)
            unreduced = x * Rat(7, 11) * Fraction(11, 7)
            return Outcome((x, unreduced + (n % 3 == 1)))

        entry = n_entry(evaluate=evaluate)
        want = sweep(entry)
        with shards(workers) as forked:
            got = sweep(entry)
        assert forked
        assert [f.bindings["n"] for f in got.failures] == [1, 4, 7]
        assert got.failures == want.failures
        assert to_json(document("verify", [sweep_payload(got)])) \
            == to_json(document("verify", [sweep_payload(want)]))

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("bad", [(5, 7), (4, 5, 7)])
    def test_guard_error_in_a_child_share_matches_one_process(self, workers,
                                                              bad):
        entry = n_entry(guards=(raising_guard("n", bad),))
        with pytest.raises(ValueError) as serial:
            sweep(entry)
        with shards(workers) as forked:
            with pytest.raises(ValueError) as sharded:
                sweep(entry)
        assert forked
        assert str(sharded.value) == str(serial.value) == f"bad n = {bad[0]}"

    def test_unpicklable_guard_error_becomes_runtime_error(self):
        def holds(ctx, b):
            if b["n"] == 5:
                raise TwoArgError("bad n", 5)
            return True

        entry = n_entry(guards=(Guard("n is good", ("n",), holds),))
        with pytest.raises(TwoArgError, match=r"^bad n at 5$"):
            sweep(entry)
        for workers in (2, 3):
            with shards(workers):
                with pytest.raises(RuntimeError,
                                   match=r"^TwoArgError: bad n at 5$"):
                    sweep(entry)

    @pytest.mark.parametrize("deeper_bad", [(), ((1, 2),)])
    def test_guard_error_while_binding_prefixes_keeps_grid_order(
            self, deeper_bad):
        # with 2 shares every (a, n) prefix checks the a guard as its walk
        # starts; the n guard failing first in grid order must still win
        def n_holds(ctx, b):
            if (b["a"], b["n"]) in deeper_bad:
                raise ValueError("bad (a, n)")
            return True

        entry = Entry(
            id="XPRE", statement="a = a",
            domain="any",
            evaluate=lambda ctx, b: Outcome((b["a"], b["a"])), sides=XY,
            guards=(raising_guard("a", (2,)), Guard("n ok", ("n",), n_holds)),
            grid=(axis("a", range(4)), axis("n", range(3))))
        with pytest.raises(ValueError) as serial:
            sweep(entry)
        with shards(2):
            with pytest.raises(ValueError) as sharded:
                sweep(entry)
        assert str(sharded.value) == str(serial.value) \
            == ("bad (a, n)" if deeper_bad else "bad a = 2")

    @pytest.mark.parametrize("raised, printed",
                             [(KeyboardInterrupt, False), (Interrupt, True)])
    def test_only_an_interrupted_child_prints_no_traceback(
            self, raised, printed, capfd, monkeypatch):
        parent, run_share = os.getpid(), engine._run_share

        def interrupted(*args):
            if os.getpid() != parent:
                raise raised
            return run_share(*args)

        monkeypatch.setattr(engine, "_run_share", interrupted)
        with shards(2) as forked:
            with pytest.raises(RuntimeError, match="without reporting"):
                sweep(n_entry())
        assert len(forked) == 1
        assert ("Traceback" in capfd.readouterr().err) is printed

    @pytest.mark.parametrize("how", ["exit", "kill"])
    def test_a_lost_shard_never_verifies(self, how, monkeypatch):
        parent, run_share = os.getpid(), engine._run_share

        def lost(*args):
            if os.getpid() != parent:
                if how == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(0)
            return run_share(*args)

        monkeypatch.setattr(engine, "_run_share", lost)
        with shards(2) as forked:
            with pytest.raises(RuntimeError, match="without reporting"):
                sweep(n_entry())
        assert len(forked) == 1

    def test_children_are_reaped_when_the_parent_share_raises(self):
        parent = os.getpid()

        def holds(ctx, b):
            if os.getpid() == parent:
                raise Interrupt
            return True

        entry = n_entry(guards=(Guard("n ok", ("n",), holds),))
        with shards(3) as forked:
            with pytest.raises(Interrupt):
                sweep(entry)
        assert len(forked) == 2

    def test_sharded_sweep_leaves_no_reference_cycles(self):
        entry = d22_sub_grid()
        with shards(2) as forked:
            # the first sharded sweep imports pickle, whose pure-Python
            # exception classes, replaced by _pickle's, are garbage cycles
            sweep(entry)
            gc.collect()
            gc.disable()
            try:
                sweep(entry)
                unreachable = gc.collect()
            finally:
                gc.enable()
        assert forked and unreachable == 0


# ---------------------------------------------------------------------------
# small sweeps: walked in this process until the clock says forking pays
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def gate_opens_before(k, workers):
    """Gate every sweep over ``workers`` CPUs at prefix ``k``; yields the
    forked pids.

    The sweep reads the clock once as ``_run_gated`` starts, after its
    prefixes are bound, and once before each prefix it walks alone. The
    clock stays at 0 s up to the read before prefix k and then jumps by
    10^9 s, so the first estimate past SHARD_MIN_SECONDS comes right before
    prefix k.
    """
    reads = itertools.count()
    with shards(workers) as forked, pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "SHARD_MIN_POINTS", 10 ** 9)
        mp.setattr(engine, "_clock",
                   lambda: 0.0 if next(reads) <= k else 1e9)
        yield forked


def prefix_count(entry, workers):
    sw = engine._Sweep(entry, Context(), None, list(entry.grid))
    return len(engine._prefixes(sw, 4 * workers)[1])


def one_process_bytes(entry):
    with shards(1):
        return to_json(document("verify", [sweep_payload(sweep(entry))]))


class TestTimeGatedSweep:
    @pytest.mark.parametrize("workers", [2, 3])
    @settings(max_examples=20, deadline=None)
    @given(entry=st.one_of(synthetic_entries(), catalog_sub_grids()))
    def test_every_gate_position_matches_one_process(self, workers, entry):
        want = reference_sweep(entry)
        want_bytes = one_process_bytes(entry) if want[5] is None else None
        for k in range(prefix_count(entry, workers) + 1):
            with gate_opens_before(k, workers):
                got = engine_sweep(entry)
            assert_same_sweep(got, want)
            if want_bytes is not None:
                with gate_opens_before(k, workers):
                    rep = sweep(entry)
                assert to_json(document("verify", [sweep_payload(rep)])) \
                    == want_bytes

    @pytest.mark.parametrize("workers", [2, 3])
    def test_the_gate_forks_the_prefixes_left(self, workers):
        entry = n_entry()       # ten prefixes, one a point
        with gate_opens_before(4, workers) as forked:
            rep = sweep(entry)
        assert len(forked) == workers - 1
        assert (rep.checked, rep.rejected) == (10, 0) and rep.verified

    @pytest.mark.parametrize("workers", [2, 3])
    def test_guard_error_before_the_gate_opens_forks_nothing(self, workers):
        entry = n_entry(guards=(raising_guard("n", (3, 7)),))
        with pytest.raises(ValueError) as serial:
            sweep(entry)
        with gate_opens_before(5, workers) as forked:
            with pytest.raises(ValueError) as gated:
                sweep(entry)
        assert forked == []
        assert str(gated.value) == str(serial.value) == "bad n = 3"

    def test_bound_levels_check_their_guards_once_per_prefix(self):
        calls = {"a": 0, "c": 0, "b": 0}

        def counted(name, holds):
            def check(ctx, b):
                calls[name] += 1
                return holds(b)
            return Guard(f"{name} guard", (name,), check)

        entry = Entry(
            id="XPFX", statement="x = x",
            domain="a != 0; b, c any",
            guards=(counted("a", lambda b: b["a"] != 0),
                    counted("c", lambda b: True),
                    counted("b", lambda b: b["b"] != 1)),
            evaluate=lambda ctx, b: Outcome((1, 1)), sides=XY,
            grid=(axis("a", [0, 1, 2]), axis("b", [0, 1, 2, 3]),
                  axis("c", [0, 1, 2, 3, 4])))
        prefixes = prefix_count(entry, 2)     # 12: the grid splits after b
        calls.update(a=0, c=0, b=0)
        # the gate never opens, so every prefix is walked, and every guard
        # call counted, in this process
        with gate_opens_before(prefixes + 1, 2) as forked:
            rep = sweep(entry)
        assert forked == []
        assert calls == {"a": 12, "c": 40, "b": 40}
        assert (rep.checked, rep.rejected) == (30, 30)


class TestZeroInstanceSweeps:
    def test_an_empty_axis_does_not_verify(self):
        # a fully rejected grid: test_identities.py::TestVerifyGrid
        rep = sweep(get_entry("I07"), {"r": [2], "n": []})
        assert (rep.checked, rep.rejected, rep.failures) == (0, 0, [])
        assert not rep.verified


class TestExactBindings:
    """A binding that is not an int, Fraction, Rat or QuadExt is a usage
    error naming its parameter: a float would run the sweep in floats and
    refute true identities with its binary expansion."""

    @pytest.mark.parametrize("entry_id,overrides", [
        ("I01", {"u": [0.1], "v": [Fraction(3, 10)], "n": range(11)}),
        ("I06", {"x": [Fraction(1, 10)], "y": [0.7], "n": range(11)}),
        ("I07", {"r": [2], "n": [1, "2"]}),
    ])
    def test_sweep_refuses_inexact_values(self, entry_id, overrides):
        name = next(k for k, vs in overrides.items()
                    if any(type(v) in (float, str) for v in vs))
        with pytest.raises(engine.UsageError, match=f"parameter {name} takes exact"):
            sweep(get_entry(entry_id), overrides)

    def test_a_replaced_grid_is_read_too(self):
        entry = get_entry("I07")
        sub = dataclasses.replace(entry, grid=(axis("r", [2.0]), axis("n", [1])))
        with pytest.raises(engine.UsageError, match="parameter r"):
            sweep(sub)

    def test_evaluate_entry_refuses_inexact_values(self):
        with pytest.raises(engine.UsageError, match="parameter u"):
            evaluate_entry(get_entry("I01"), {"u": 0.1, "v": 0, "n": 2})

    def test_exact_values_of_every_type_sweep(self):
        i = QuadExt(0, 1, -1)
        rep = sweep(get_entry("I06"), {"x": [1, Fraction(1, 10), Rat(2, 3), i],
                                       "y": [Rat(7, 10), -i], "n": range(4)})
        assert rep.verified and rep.checked == 32
        rep = sweep(get_entry("I01"), {"u": [Fraction(1, 10)], "v": [Rat(3, 10), 2],
                                       "n": range(11)})
        assert rep.verified and rep.checked == 22

    # I07 reads r's parity by a bit test and H06's v_r != 0 guard indexes a
    # table by r: an integral Fraction or Rat there would be a TypeError
    @pytest.mark.parametrize("entry_id,bindings,value,r", [
        ("I07", {"n": 1}, Fraction(4, 2), 2),
        ("I07", {"n": 1}, True, 1),
        ("H06", {"p": 1, "q": -1, "a": 2, "b": 1, "t": 0, "n": 1}, Rat(2, 1), 2),
    ], ids=["I07-Fraction", "I07-bool", "H06-Rat"])
    def test_integer_parameters_take_only_ints(self, entry_id, bindings,
                                               value, r):
        entry = get_entry(entry_id)
        message = f"{entry_id}: parameter r takes integers, not {value!r}"
        with pytest.raises(engine.UsageError) as exc:
            evaluate_entry(entry, {**bindings, "r": value})
        assert str(exc.value) == message
        with pytest.raises(engine.UsageError) as exc:
            sweep(entry, {k: [v] for k, v in {**bindings, "r": value}.items()})
        assert str(exc.value) == message
        assert evaluate_entry(entry, {**bindings, "r": r}).ok
        assert sweep(entry, {k: [v] for k, v in {**bindings, "r": r}.items()}).verified


class TestD22GuardOrder:
    def test_x_guard_runs_once_per_row(self):
        entry = get_entry("D22")
        assert [g.text for g in entry.guards] == [
            "p != 0 and q != 0", "r >= m >= s >= 0", "X != 0", "t >= 0",
            "n >= 0"]
        calls = []

        def counted(g):
            def holds(ctx, b):
                calls.append(dict(b))
                return g.holds(ctx, b)
            return dataclasses.replace(g, holds=holds)

        _, q, ab, msr, t, n = entry.grid
        grid = (axis("p", [0, 1, 3]), Axis(q.names, q.values[:2]), ab, msr,
                t, n)
        entry = dataclasses.replace(entry, grid=grid, guards=tuple(
            counted(g) if g.text == "X != 0" else g for g in entry.guards))
        with shards(1):
            rep = sweep(entry)
        # one call per (p, q, a, b, m, s, r) row with p, q != 0
        rows = 2 * len(q.values[:2]) * len(ab.values) * len(msr.values)
        assert len(calls) == rows == 280
        row = ("p", "q", "a", "b", "m", "s", "r")
        assert len({tuple(b[k] for k in row) for b in calls}) == rows
        assert rep.checked + rep.rejected == grid_size(grid)
        assert rep.verified


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


class TestDeclaredSlots:
    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.id)
    def test_evaluate_returns_the_declared_widths(self, entry):
        # absent slots are None, never a shorter tuple, and every point has
        # something to check
        rng = random.Random(entry.id)
        names = [n for ax in entry.grid for n in ax.names]
        ctx, checked = Context(), 0
        for _ in range(GUARD_SAMPLE_POINTS):
            rows = [rng.choice(ax.values) for ax in entry.grid]
            b = dict(zip(names, (x for row in rows for x in row)))
            if not all(g.holds(ctx, b) for g in entry.guards):
                continue
            sides, witnesses = entry.evaluate(ctx, b)
            assert (len(sides), len(witnesses)) \
                == (len(entry.sides), len(entry.witnesses))
            assert any(x is not None for x in sides + witnesses)
            assert all(len(w) == 2 for w in witnesses if w is not None)
            # a group is present or absent as a whole
            absent = {}
            for slot, x in zip(entry.sides, sides):
                absent.setdefault(slot.group, set()).add(x is None)
            assert all(len(kinds) == 1 for kinds in absent.values()), b
            checked += 1
        assert checked
        assert len({s.label for s in entry.sides}) == len(entry.sides)
        assert {s.variant for s in entry.sides} <= {None, "as-printed", "as-proved"}

    def test_more_values_than_sides_is_an_instance_error(self):
        # so is a shorter tuple that is not empty: sides are () or full width
        for values in ((1, 1, 1), (1,)):
            entry = n_entry(evaluate=lambda ctx, b: Outcome(values))
            rep = sweep(entry)
            assert rep.checked == 10 and len(rep.failures) == 10
            assert rep.failures[0].first_diff == (
                "error", f"ValueError: {len(values)} side values for 2 declared sides")
            assert rep.failures[0].sides == []


class TestGuardOrder:
    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.id)
    def test_each_guard_runs_at_its_own_deepest_need(self, entry):
        # a guard runs no deeper than its declared predecessors force it, so
        # declaring a deep guard (such as n >= 0) before shallow ones would
        # check the shallow ones once per point; no entry is exempt
        depth = {name: i + 1 for i, ax in enumerate(entry.grid) for name in ax.names}
        levels = engine._guard_levels(entry, list(entry.grid))
        assert sum(map(len, levels)) == len(entry.guards)
        for level, guards in enumerate(levels):
            for g in guards:
                assert level == max((depth[n] for n in g.needs), default=0), g.text


# ---------------------------------------------------------------------------
# raw verdicts: sides are compared as stored, unreduced kernel values too
# ---------------------------------------------------------------------------

READINGS = ("as-printed", "as-proved")


def verdict_plan(slots):
    """The verdict layout of an entry declaring ``slots``: two readings when
    a slot names one, else the one reading "as-stated"."""
    return engine._Plan(Entry(
        id="XRAW", statement="raw sides",
        domain="none", guards=(), evaluate=None, grid=(), sides=tuple(slots)))


@st.composite
def drawn_slots(draw, count, groups, variants):
    return [Slot(f"s{i}", draw(st.sampled_from(groups)),
                 draw(st.sampled_from(variants))) for i in range(count)]


@st.composite
def stored_values(draw, d):
    """One of a few small values, in any representation a side may store.

    A Rat is drawn with a common factor, sign included; a QuadExt over
    sqrt(d) is scaled by g/g, which leaves its parts unreduced.
    """
    num, den = draw(small), draw(st.integers(1, 3))
    g = draw(st.integers(1, 4)) * draw(st.sampled_from((1, -1)))
    kind = draw(st.sampled_from(("int", "Fraction", "Rat", "QuadExt")))
    if kind == "int":
        return num
    if kind == "Fraction":
        return Fraction(num, den)
    if kind == "Rat":
        return Rat(num * g, den * g)
    b = draw(st.sampled_from((0, Fraction(1, 2), -1)))
    return QuadExt(Fraction(num, den), b, d) * Rat(g, g)


def canonical_form(value):
    if type(value) is Rat:
        return Fraction(value.n, value.d)
    if type(value) is QuadExt:
        return QuadExt(value.a, value.b, value.d)
    return value


class TestRawVerdict:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_stored_values_get_the_verdict_of_their_canonical_forms(self, data):
        d = data.draw(st.sampled_from((2, 5, -1)))
        slots = data.draw(drawn_slots(data.draw(st.integers(1, 5)), ("eq", "alt"),
                                      READINGS + (None,)))
        values = tuple(data.draw(stored_values(d)) for _ in slots)
        canonical = tuple(canonical_form(x) for x in values)
        plan = verdict_plan(slots)
        verdict = engine._judge(plan, values, ())
        assert verdict == engine._judge(plan, canonical, ())
        # a reported side reads its value reduced
        ev = engine._evaluation(plan, {}, values, (), *verdict)
        assert [s.value for s in ev.sides] == list(canonical)
        assert [type(s.value) for s in ev.sides] == [type(x) for x in canonical]


def all_pairs_disagreement(slots, values, variant):
    """Reference verdict over whole groups: every pair of every group of
    ``variant``, an absent (None) side included, groups in order of first
    appearance, pairs in (i, j) order; the first unequal pair."""
    groups = {}
    for s, x in zip(slots, values):
        if s.variant in (None, variant):
            groups.setdefault(s.group, []).append((s.label, x))
    for members in groups.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if members[i][1] != members[j][1]:
                    return members[i][0], members[j][0]
    return None


class TestFirstMemberVerdict:
    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_matches_the_all_pairs_reference(self, data):
        # small values in mixed representations: sides are often equal;
        # a side may be absent (None), whole groups or parts of them, and
        # the values are empty or one per slot
        d = data.draw(st.sampled_from((2, 5, -1)))
        slots = data.draw(drawn_slots(data.draw(st.integers(0, 9)),
                                      ("eq", "alt", "third"),
                                      READINGS + (None, None)))
        values = tuple(data.draw(st.one_of(stored_values(d), st.none()))
                       for _ in slots)
        if data.draw(st.booleans()):
            values = ()
        plan = verdict_plan(slots)
        held, diff = engine._judge(plan, values, ())
        assert diff == all_pairs_disagreement(slots, values, plan.variants[-1])
        assert held == tuple(
            k for k, v in enumerate(plan.variants)
            if all_pairs_disagreement(slots, values, v) is None)

    def test_a_later_group_is_not_reported_first(self):
        # the second group's mismatch comes first in side order
        slots = [Slot("a0"), Slot("b0", "b"), Slot("b1", "b"), Slot("a1"),
                 Slot("a2")]
        plan = verdict_plan(slots)
        assert engine._judge(plan, (1, 2, 3, 1, Rat(4, 2)), ()) == ((), ("a0", "a2"))

    def test_a_group_absent_in_part_fails_naming_its_absent_side(self):
        def entry(values):
            return Entry(
                id="XABS", statement="x = y and z = w", domain="none",
                guards=(), grid=(), evaluate=lambda ctx, b: Outcome(values),
                sides=(Slot("x"), Slot("y"), Slot("z", "h"), Slot("w", "h")))

        whole = evaluate_entry(entry((None, None, 2, Rat(4, 2))), {})
        assert whole.ok and whole.sides == [Side("z", 2, "h"), Side("w", 2, "h")]
        for values, diff in (((1, None, 2, 2), ("x", "y")),
                             ((None, 1, 2, 2), ("x", "y")),
                             ((1, 1, 2, None), ("z", "w"))):
            ev = evaluate_entry(entry(values), {})
            assert not ev.ok and ev.first_diff == diff
            assert ev.variant_ok == {"as-stated": False}
            assert [s.label for s in ev.sides] \
                == [s.label for s, x in zip(entry(values).sides, values)
                    if x is not None]


class TestSideContract:
    def test_positional_and_keyword_sides_are_equal(self):
        for args in (("left sum", Fraction(6, 4)), ("t", 3, "g"),
                     ("t", Fraction(3, 2), "g", "as-proved")):
            pos = Side(*args)
            kw = Side(**dict(zip(("label", "value", "group", "variant"), args)))
            assert pos == kw and hash(pos) == hash(kw)
        side = Side("t", 1)
        assert (side.label, side.value, side.group, side.variant) \
            == ("t", 1, "eq", None)

    def test_fields_are_frozen(self):
        side = Side("t", 1)
        for name in ("label", "value", "group", "variant"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(side, name, 2)
        assert side.value == 1

    def test_reported_sides_hold_reduced_values(self):
        entry = Entry(
            id="XSID", statement="3/2 = 3/2",
            domain="none", guards=(), grid=(),
            evaluate=lambda ctx, b: Outcome((Rat(6, 4), None, Fraction(3, 2))),
            sides=(Slot("t", "g", "as-proved"), Slot("absent", "h"), Slot("u", "g")))
        ev = evaluate_entry(entry, {})
        assert ev.ok and ev.variant_ok == {"as-printed": True, "as-proved": True}
        assert ev.sides == [Side("t", Fraction(3, 2), "g", "as-proved"),
                            Side("u", Fraction(3, 2), "g")]
        assert type(ev.sides[0].value) is Fraction


def half_off(entry, half):
    """``entry`` with ``half`` added to its first side at every point."""
    def evaluate(ctx, b):
        (first, *rest), witnesses = entry.evaluate(ctx, b)
        return Outcome((first + half, *rest), witnesses)
    return dataclasses.replace(entry, evaluate=evaluate)


class TestUnreducedFailures:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_unreduced_rat_side_renders_as_its_fraction(self, workers):
        entry = dataclasses.replace(
            get_entry("I07"), grid=(axis("r", [1, 2, 3]), axis("n", range(4))))
        reports = {}
        for half in (Rat(2, 4), Fraction(1, 2)):
            with shards(workers) as forked:
                rep = sweep(half_off(entry, half))
            assert len(forked) == workers - 1
            assert (rep.checked, len(rep.failures)) == (12, 12)
            reports[type(half)] = rep
        # every failure, also those the child walked, reads its Rat reduced
        values = [f.sides[0].value for f in reports[Rat].failures]
        assert {type(x) for x in values} == {Fraction}
        assert all(x.denominator == 2 for x in values)
        rat, frac = (to_json(document("verify", [sweep_payload(reports[t])]))
                     for t in (Rat, Fraction))
        assert rat == frac


# ---------------------------------------------------------------------------
# Context.memo: the seed- and shift-free factors of the Horadam sums
# ---------------------------------------------------------------------------

MEMO_ENTRIES = ("H01", "H04", "H05", "H06", "H07", "H10", "H11")


# H05's (m, s, r) rows differ in one coordinate at a time, so that a key
# leaving out any of the three maps two rows to one value
H05_MSR = ((1, 0, 2), (1, 0, 3), (1, -1, 2), (2, 0, 2))


def reversed_sub_grid(entry):
    """Two (p, q) values a side, two seed rows, three of every other axis,
    every axis in reverse order."""
    grid = []
    for ax in entry.grid:
        k = 2 if ax.names in (("p",), ("q",), ("a", "b")) else 3
        picks = ax.values[::max(1, len(ax.values) // k)][:k]
        if ax.names == ("m", "s", "r"):
            picks = H05_MSR
        grid.append(Axis(ax.names, picks[::-1]))
    return tuple(grid)


class TestContextMemo:
    def test_build_runs_once_per_key(self):
        ctx, calls = Context(), []

        def build(c, x, y):
            calls.append((c, x, y))
            return [x, y]

        def other(c, x, y):
            return ["other", x, y]

        assert ctx.memo(build, 1, 2) == [1, 2]
        assert ctx.memo(build, 2, 1) == [2, 1]
        assert ctx.memo(build, 1, 2) is ctx.memo(build, 1, 2)
        assert calls == [(ctx, 1, 2), (ctx, 2, 1)]
        # equal arguments under another builder are another value
        assert ctx.memo(other, 1, 2) == ["other", 1, 2]
        assert ctx.memo(build, 1, 2) == [1, 2]
        # the cache belongs to one Context
        fresh = Context()
        assert fresh.memo(build, 1, 2) == [1, 2]
        assert calls == [(ctx, 1, 2), (ctx, 2, 1), (fresh, 1, 2)]

    def test_shared_context_equals_fresh_evaluation(self):
        # all the memo-using entries in one Context, as verify --all runs
        # them; H11 reads the values H06 left there
        ctx, streamed = Context(), []
        for entry_id in MEMO_ENTRIES:
            entry = get_entry(entry_id)
            sub = dataclasses.replace(entry, grid=reversed_sub_grid(entry))
            with shards(1):     # every sweep fills the one Context
                rep = sweep(sub, ctx=ctx, row=lambda ev: ev)
            assert rep.checked and rep.verified, entry_id
            streamed += rep.rows
        for ev in streamed:
            fresh = evaluate_entry(get_entry(ev.entry_id), ev.bindings)
            assert [(s.label, s.value) for s in ev.sides] \
                == [(s.label, s.value) for s in fresh.sides], (ev.entry_id, ev.bindings)
        for entry_id in MEMO_ENTRIES:    # the checked points span the axes
            points = [ev.bindings for ev in streamed if ev.entry_id == entry_id]
            assert len({(b["p"], b["q"]) for b in points}) >= 2
            if "a" in points[0]:
                assert len({(b["a"], b["b"]) for b in points}) >= 2
            if "t" in points[0]:
                assert len({b["t"] for b in points}) >= 3
            if "m" in points[0]:
                assert {(b["m"], b["s"], b["r"]) for b in points} == set(H05_MSR)

    def test_h06_middle_sums_are_built_once_per_row(self, monkeypatch):
        from fibsums.identities import entries_horadam

        entry = get_entry("H06")
        grid = (axis("p", [3]), axis("q", [2, -1]),
                joint(("a", "b"), [(0, 1), (2, 1), (2, 3), (-1, 2)]),
                axis("r", [-1, 0, 2]), axis("t", [-2, 0, 3]), axis("n", [0, 1, 3]))
        built = []
        shared = entries_horadam._h06_shared

        def counted(ctx, p, q, r, n):
            built.append((p, q, r, n))
            return shared(ctx, p, q, r, n)

        monkeypatch.setattr(entries_horadam, "_h06_shared", counted)
        with shards(1):
            rep = sweep(dataclasses.replace(entry, grid=grid))
        guard_ctx = Context()
        passing = [(p, q, r, n) for p in (3,) for q in (2, -1)
                   for r in (-1, 0, 2) for n in (0, 1, 3)
                   if all(g.holds(guard_ctx, {"p": p, "q": q, "r": r, "n": n})
                          for g in entry.guards)]
        assert 0 < len(passing) < 18        # u_0 = 0 rejects r = 0 past n = 0
        assert rep.verified and rep.checked == len(passing) * 4 * 3
        assert sorted(built) == sorted(passing)

    @pytest.mark.parametrize("theorem, corollary", [
        ("H07", "H10"), ("H05", "D22"), ("H06", "H11"), ("H06", "H08")])
    def test_corollary_adds_no_memo_key(self, theorem, corollary):
        # on rows that pass every guard of the theorem, the corollary reads
        # the values the theorem's sweep built and builds none of its own
        rows = {("p",): [1, 3], ("q",): [-1, 2], ("a", "b"): [(0, 1), (2, 3)],
                ("r",): [-2, 1, 3], ("t",): [0, 2], ("n",): [0, 1, 3],
                ("m", "s", "r"): [(1, 0, 2), (2, 1, 3), (0, 0, 1)]}

        def sub(entry_id):
            entry = get_entry(entry_id)
            return dataclasses.replace(entry, grid=tuple(
                joint(ax.names, rows[ax.names]) if len(ax.names) > 1
                else axis(ax.names[0], rows[ax.names]) for ax in entry.grid))

        ctx = Context()
        with shards(1):
            first = sweep(sub(theorem), ctx=ctx)
            keys = set(ctx._memo)
            second = sweep(sub(corollary), ctx=ctx)
        assert first.checked and not first.rejected and first.verified
        assert second.checked and second.verified
        assert set(ctx._memo) == keys
