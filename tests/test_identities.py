"""Catalog structure, single-point evaluation, grid sweeps, variants."""

import dataclasses
import itertools
from collections import Counter
from fractions import Fraction

import pytest

from fibsums.identities import (ENTRIES, Axis, Context, RejectedInstance,
                                UsageError, engine, entries_horadam,
                                evaluate_entry, get_entry, irange, sweep)
from fibsums import scalars
from fibsums.polynomials import poly_eval
from fibsums.scalars import QuadExt, Rat, make_roots
from fibsums.sequences import SeqTable

EXPECTED_IDS = ([f"I{k:02d}" for k in range(1, 19)]
                + [f"P{k:02d}" for k in range(1, 7)]
                + [f"LEM{k}" for k in range(2, 7)]
                + [f"H{k:02d}" for k in range(1, 12)]
                + [f"D{k:02d}" for k in range(1, 23)])

FLAGGED = {"I10", "I11", "I16", "I17", "H10"}


class TestCatalog:
    def test_size_and_order(self):
        assert [e.id for e in ENTRIES] == EXPECTED_IDS
        assert len(ENTRIES) == 62

    def test_kinds(self):
        for e in ENTRIES:
            expected = "divisibility" if e.id.startswith("D") else "identity"
            assert e.kind == expected

    def test_entries_are_well_formed(self):
        for e in ENTRIES:
            assert e.params and all(isinstance(p, str) for p in e.params)
            assert e.statement and e.domain
            # params are the grid's names: each is bound by one axis only
            assert len(set(e.params)) == len(e.params)
            assert set(e.required_params) <= set(e.params)

    def test_guards_need_only_entry_params(self):
        # a guard that needs a parameter the entry lacks is never checked
        for e in ENTRIES:
            for g in e.guards:
                assert set(g.needs) <= set(e.params), (e.id, g.text)

    def test_variant_declarations(self):
        for e in ENTRIES:
            if e.id in FLAGGED:
                assert e.flagged
                assert e.variants == ("as-printed", "as-proved")
                assert e.primary_variant == "as-proved"
                assert e.notes
            else:
                assert not e.flagged
                assert e.variants == ("as-stated",)
                assert e.primary_variant == "as-stated"

    def test_get_entry(self):
        assert get_entry("I07") is ENTRIES[6]
        with pytest.raises(UsageError):
            get_entry("NOPE")


class TestEvaluate:
    def test_frozen_three_way_values(self):
        ev = evaluate_entry(get_entry("I07"), {"r": 2, "n": 2})
        assert [s.value for s in ev.sides] == [16, 16, 16]
        assert ev.ok and ev.first_diff is None
        assert ev.variant_ok == {"as-stated": True}

        ev = evaluate_entry(get_entry("I08"), {"r": 1, "n": 1})
        assert [s.value for s in ev.sides] == [8, 8, 8]

        ev = evaluate_entry(get_entry("H03"), {"p": 3, "q": 2, "n": 2})
        assert [s.value for s in ev.sides] == [14, 14, 14]

    def test_frozen_four_way_generating_sum(self):
        ev = evaluate_entry(get_entry("I06"), {"x": 2, "y": 1, "n": 2})
        assert [s.value for s in ev.sides] == [14, 14, 14, 14]

    def test_polynomial_sides_specialize(self):
        ev = evaluate_entry(get_entry("P02"), {"n": 3})
        assert [s.value for s in ev.sides] == [24, 24, 24]
        # P01 at x = 1 collapses onto I07 at r = 1
        for n in range(8):
            closed = evaluate_entry(get_entry("I07"),
                                    {"r": 1, "n": n}).sides[-1].value
            for side in evaluate_entry(get_entry("P01"), {"n": n}).sides:
                assert poly_eval(side.value, 1) == closed

    def test_generalized_specializes_to_classic(self):
        ev = evaluate_entry(
            get_entry("H01"),
            {"p": 1, "q": -1, "a": 0, "b": 1, "r": 2, "t": 1, "n": 2})
        assert ev.ok
        assert [s.value for s in ev.sides] == [8, 8, 8]

    def test_guard_rejection_names_predicate(self):
        with pytest.raises(RejectedInstance) as exc:
            evaluate_entry(get_entry("I07"), {"r": 0, "n": 1})
        assert exc.value.entry_id == "I07"
        assert "r != 0" in exc.value.predicate
        assert exc.value.bindings == {"r": 0, "n": 1}

        with pytest.raises(RejectedInstance) as exc:
            evaluate_entry(get_entry("H03"), {"p": 0, "q": 1, "n": 1})
        assert "p != 0" in exc.value.predicate

    def test_binding_validation(self):
        with pytest.raises(UsageError, match="missing parameter"):
            evaluate_entry(get_entry("I07"), {"r": 1})
        with pytest.raises(UsageError, match="unknown parameter"):
            evaluate_entry(get_entry("I07"), {"r": 1, "n": 1, "z": 9})
        with pytest.raises(UsageError, match="unknown catalog id"):
            evaluate_entry(get_entry("NOPE"), {"n": 1})

    def test_shared_context_is_equivalent(self):
        ctx = Context()
        a = evaluate_entry(get_entry("I07"), {"r": 3, "n": 4}, ctx)
        b = evaluate_entry(get_entry("I07"), {"r": 3, "n": 4}, ctx)
        fresh = evaluate_entry(get_entry("I07"), {"r": 3, "n": 4})
        assert [s.value for s in a.sides] == [s.value for s in b.sides] \
            == [s.value for s in fresh.sides]


def i06_forms(x, y, n):
    """I06's four sides at (x, y, n), as ``evaluate_entry`` reports them:
    the pair sum, the halved sum, the doubled convolution, the closed form."""
    ev = evaluate_entry(get_entry("I06"), {"x": x, "y": y, "n": n})
    return [side.value for side in ev.sides]


class TestGeneratingSum:
    def test_rational_forms_agree_frozen(self):
        assert i06_forms(2, 1, 2) == [14] * 4

    def test_quadratic_forms_agree(self):
        alpha, beta, _ = make_roots(1, -1)
        assert i06_forms(alpha, beta, 3) == [6] * 4

    def test_gaussian_arguments(self):
        i = QuadExt(0, 1, -1)
        pair, half, conv, closed = i06_forms(2 + i, 2 - i, 4)
        assert pair == half == conv == closed

    @pytest.mark.parametrize("x,y,n,first", [
        (2, 2, -1, "x != y"), (0, 1, -1, "x != 0 and y != 0"),
        (2, 1, -1, "n >= 0")])
    def test_rejection_names_the_first_failing_guard_of_i06(self, x, y, n, first):
        with pytest.raises(RejectedInstance) as exc:
            evaluate_entry(get_entry("I06"), {"x": x, "y": y, "n": n})
        assert exc.value.entry_id == "I06"
        assert exc.value.predicate == first

    def test_a_rational_pairs_with_a_quadratic_argument(self):
        i = QuadExt(0, 1, -1)
        pair, half, conv, closed = i06_forms(Fraction(1, 2), i, 3)
        assert pair == half == conv == closed
        closed = i06_forms(Fraction(1, 2), 2, 1)[3]
        assert closed == Fraction(5) and type(closed) is Fraction


class TestVariants:
    def test_two_readings_disagree_generically(self):
        ev = evaluate_entry(get_entry("I10"), {"r": 3, "n": 2})
        assert ev.variant_ok == {"as-printed": False, "as-proved": True}
        assert ev.ok                      # verdict follows the primary reading
        assert ev.first_diff is None

        for entry_id in ("I11", "I16", "I17"):
            bindings = {"r": 3, "n": 2} if entry_id == "I11" \
                else {"r": 3, "t": 2, "n": 1}
            ev = evaluate_entry(get_entry(entry_id), bindings)
            assert ev.variant_ok == {"as-printed": False, "as-proved": True}, \
                entry_id

    def test_shifted_reading_agrees_only_without_shift(self):
        h10 = get_entry("H10")
        both = evaluate_entry(h10, {"p": 1, "q": -1, "r": 2, "t": 0, "n": 1})
        assert both.variant_ok == {"as-printed": True, "as-proved": True}
        shifted = evaluate_entry(h10, {"p": 1, "q": -1, "r": 2, "t": 1, "n": 1})
        assert shifted.variant_ok == {"as-printed": False, "as-proved": True}

    def test_flagged_sweep_verifies_via_single_reading(self):
        rep = sweep(get_entry("I10"), {"r": irange(1, 3), "n": irange(0, 2)})
        assert rep.checked == 9 and rep.rejected == 0
        assert rep.variant_verified == {"as-printed": 0, "as-proved": 9}
        assert rep.verified and not rep.failures


class TestVerifyGrid:
    def test_counts_and_verdict(self):
        rep = sweep(get_entry("I07"), {"r": irange(-1, 1), "n": irange(0, 5)})
        assert rep.checked == 12
        assert rep.rejected == 6          # the r = 0 column
        assert rep.variant_verified == {"as-stated": 12}
        assert rep.verified and rep.failures == []

    def test_value_lists_and_scalars(self):
        assert sweep(get_entry("I07"), {"r": [2], "n": [0, 1, 2]}).checked == 3

    def test_fully_rejected_grid_does_not_verify(self):
        rep = sweep(get_entry("I07"), {"r": [0], "n": [0]})
        assert rep.checked == 0 and rep.rejected == 1
        assert not rep.verified

    def test_override_validation(self):
        with pytest.raises(UsageError, match="unknown parameter"):
            sweep(get_entry("I07"), {"z": irange(0, 1)})
        with pytest.raises(UsageError, match="missing parameter"):
            sweep(get_entry("D21"), {"m": [1]})    # p, q, r are required

    def test_optional_parameters_run_partial_checks(self):
        rep = sweep(get_entry("D21"),
                    {"p": [1], "q": [-1], "r": irange(1, 2), "n": [2]})
        assert rep.checked == 2 and rep.verified


# |q| = 1 (integer terms both ways), |q| > 1 (fractions below index 0), and a
# square discriminant (rational roots) at p = 3, q = 2
BOUNDARY_PQ = ((1, -1), (-1, 3), (4, -4), (3, 2))


class TestSideValueBoundary:
    @pytest.mark.parametrize("entry_id", [i for i in EXPECTED_IDS
                                          if i.startswith(("LEM", "H"))])
    def test_sides_leave_the_kernel_canonical(self, entry_id):
        entry = get_entry(entry_id)
        assert [ax.names for ax in entry.grid[:2]] == [("p",), ("q",)]
        inner = [Axis(ax.names, ax.values[::max(1, len(ax.values) // 3)])
                 for ax in entry.grid[2:]]
        ctx, values = Context(), []
        for p, q in BOUNDARY_PQ:
            grid = (Axis(("p",), ((p,),)), Axis(("q",), ((q,),)), *inner)
            rep = sweep(dataclasses.replace(entry, grid=grid), ctx=ctx,
                        row=lambda ev: [s.value for s in ev.sides])
            assert rep.checked and rep.verified
            values += [v for row in rep.rows for v in row]
        assert values
        assert {type(v) for v in values} <= {int, Fraction, QuadExt}


class TestTableFetches:
    @pytest.mark.parametrize("entry_id", [i for i in EXPECTED_IDS
                                          if not i.startswith("P")])
    def test_one_warm_evaluate_fetches_each_table_once(self, monkeypatch,
                                                        entry_id):
        entry = get_entry(entry_id)
        names = [n for ax in entry.grid for n in ax.names]
        ctx, fetched, memo = Context(), Counter(), Context.memo

        def counted(self, build, *args):
            if build is engine._table:
                fetched[args] += 1
            return memo(self, build, *args)

        points = 0
        # every 29th of the first 2,900 points: D14 and D15 reach (r, t) = (2, 0)
        for combo in itertools.islice(
                itertools.product(*(ax.values for ax in entry.grid)), 0, 2900, 29):
            b = dict(zip(names, (x for row in combo for x in row)))
            try:
                evaluate_entry(entry, b, ctx)      # fills what the point reads
            except RejectedInstance:
                continue
            fetched.clear()
            with monkeypatch.context() as mp:
                mp.setattr(Context, "memo", counted)
                entry.evaluate(ctx, b)
            assert set(fetched.values()) <= {1}, (b, fetched)
            points += 1
        assert points


class TestIEntrySideValues:
    @pytest.mark.parametrize("entry_id", [i for i in EXPECTED_IDS
                                          if i.startswith("I")])
    def test_streamed_side_values_read_canonical(self, entry_id):
        entry = get_entry(entry_id)
        grid = tuple(Axis(ax.names, ax.values[::max(1, len(ax.values) // 3)])
                     for ax in entry.grid)
        rep = sweep(dataclasses.replace(entry, grid=grid), row=lambda ev: ev.sides)
        assert rep.checked and not rep.failures
        sides = [s for row in rep.rows for s in row]
        assert {type(s.value) for s in sides} <= {int, Fraction, QuadExt}


# one point of each power-weighted sum; H02, H08 and H09 at r < 0, where
# their weights q^(rj) are fractions
_H = {"p": 1, "q": -2, "a": 2, "b": 3, "r": 2, "t": 1}
LONG_SUMS = {**{f"I{k:02d}": {"r": 2} for k in range(7, 16)},
             "I16": {"r": 2, "t": 1}, "I17": {"r": 2, "t": 1},
             "I18": {"r": 2, "k": 1, "s": 1},
             "H01": _H, "H04": _H, "H06": _H, "H07": _H,
             "H02": {"p": 1, "q": -2, "r": -1}, "H08": {"p": 1, "q": -2, "r": -1},
             "H09": {"p": 1, "q": -2, "r": -1}, "H10": {"p": 1, "q": -2, "r": 2, "t": 1},
             "H11": {"p": 1, "q": -2, "r": 2}, "H03": {"p": 3, "q": 2},
             "H05": {**_H, "q": -3, "m": 2, "s": -1, "r": -2}}


class TestPowerWeightedSums:
    """A sum of n + 1 terms is a fixed number of integer dot products
    (``scalars.power_weights`` and ``weighted_sum``), so the ``Rat``s one
    point builds do not grow with n."""

    @pytest.mark.parametrize("entry_id", sorted(LONG_SUMS))
    def test_rats_built_do_not_grow_with_n(self, entry_id, monkeypatch):
        built = []
        rat, init = scalars._rat, Rat.__init__

        def counted_rat(n, d):
            built.append(1)
            return rat(n, d)

        def counted_init(self, *args):
            built.append(1)
            init(self, *args)

        monkeypatch.setattr(scalars, "_rat", counted_rat)
        monkeypatch.setattr(Rat, "__init__", counted_init)
        counts = []
        for n in (40, 80):
            built.clear()
            ev = evaluate_entry(get_entry(entry_id), {**LONG_SUMS[entry_id], "n": n},
                                Context())
            assert ev.ok
            counts.append(len(built))
        assert counts[0] == counts[1] > 0


#: one point each, n >= 1, so that no read there is a single term
READS_PER_POINT = {"H01": 2, "H04": 2, "H05": 2, "H07": 2, "H06": 1}
READ_POINTS = {**{k: {**_H, "n": 3} for k in ("H01", "H04", "H06", "H07")},
               "H05": {**LONG_SUMS["H05"], "n": 3}}


class TestWorkPerPoint:
    """A warm point reads each table term once and builds each repeated
    value once."""

    @pytest.mark.parametrize("entry_id", sorted(READS_PER_POINT))
    @pytest.mark.parametrize("t", [1, -9])
    def test_table_reads_per_warm_evaluate(self, entry_id, t, monkeypatch):
        entry, ctx = get_entry(entry_id), Context()
        b = {**READ_POINTS[entry_id], "t": t}
        assert evaluate_entry(entry, b, ctx).ok       # fills the memo builders
        calls = []

        def counted(method):
            def call(self, *args):
                calls.append(method.__name__)
                return method(self, *args)
            return call

        monkeypatch.setattr(SeqTable, "read", counted(SeqTable.read))
        monkeypatch.setattr(SeqTable, "at", counted(SeqTable.at))
        entry.evaluate(ctx, b)
        assert len(calls) == READS_PER_POINT[entry_id], calls

    def test_lem4_builds_a_and_b_once_per_seed_row(self, monkeypatch):
        built = Counter()
        build = entries_horadam._lem4_ab

        def counted(ctx, *key):
            built[key] += 1
            return build(ctx, *key)

        monkeypatch.setattr(entries_horadam, "_lem4_ab", counted)
        monkeypatch.setattr(engine, "_cpu_count", lambda: 1)
        entry = get_entry("LEM4")
        grid = (Axis(("p",), ((1,), (2,))), Axis(("q",), ((-1,), (1,), (3,))),
                *entry.grid[2:])
        rep = sweep(dataclasses.replace(entry, grid=grid))
        assert rep.verified and rep.checked == len(built) * 7
        assert set(built.values()) == {1}

    @pytest.mark.parametrize("p,q", [(1, -1), (2, 3), (-1, 1), (3, 2)])
    def test_lem5_quad_builds_per_warm_point(self, p, q, monkeypatch):
        # 19 QuadExt results over a non-square p^2 - 4q; none where the
        # roots are rational (3, 2)
        entry, ctx = get_entry("LEM5"), Context()
        quad, built = scalars._quad, []

        def counted(*args):
            built.append(1)
            return quad(*args)

        for r, m, s in ((1, 2, 3), (-4, 4, 0), (0, 0, 0), (-2, 3, -4)):
            b = {"p": p, "q": q, "r": r, "m": m, "s": s}
            assert evaluate_entry(entry, b, ctx).ok
            built.clear()
            with monkeypatch.context() as mp:
                mp.setattr(scalars, "_quad", counted)
                entry.evaluate(ctx, b)
            assert len(built) == (0 if (p, q) == (3, 2) else 19), b
