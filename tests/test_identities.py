"""Catalog structure, single-point evaluation, grid sweeps, variants."""

import dataclasses
from fractions import Fraction

import pytest

from fibsums.identities import (ENTRIES, Axis, Context, RejectedInstance,
                                UsageError, evaluate_entry, get_entry, irange,
                                sury_f, sweep)
from fibsums.polynomials import poly_eval
from fibsums.scalars import QuadExt, fib_roots

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


class TestGeneratingSum:
    def test_rational_forms_agree_frozen(self):
        forms = sury_f(2, 1, 2)
        assert forms.pair_sum == forms.half_sum == forms.convolution \
            == forms.closed == 14

    def test_quadratic_forms_agree(self):
        alpha, beta, _ = fib_roots()
        forms = sury_f(alpha, beta, 3)
        assert forms.closed == 6
        assert forms.pair_sum == forms.half_sum == forms.convolution \
            == forms.closed

    def test_gaussian_arguments(self):
        i = QuadExt(0, 1, -1)
        forms = sury_f(2 + i, 2 - i, 4)
        assert forms.pair_sum == forms.half_sum == forms.convolution \
            == forms.closed

    def test_rejections(self):
        with pytest.raises(RejectedInstance) as exc:
            sury_f(2, 2, 3)
        assert exc.value.predicate == "x != y"
        with pytest.raises(RejectedInstance):
            sury_f(2, 0, 3)
        with pytest.raises(RejectedInstance):
            sury_f(2, 1, -1)

    @pytest.mark.parametrize("x,y,n,first", [
        (2, 2, -1, "x != y"), (0, 1, -1, "x != 0 and y != 0"),
        (2, 1, -1, "n >= 0")])
    def test_rejection_names_the_first_failing_guard_of_i06(self, x, y, n, first):
        for check in (lambda: sury_f(x, y, n),
                      lambda: evaluate_entry(get_entry("I06"),
                                             {"x": x, "y": y, "n": n})):
            with pytest.raises(RejectedInstance) as exc:
                check()
            assert exc.value.predicate == first

    def test_a_rational_pairs_with_a_quadratic_argument(self):
        i = QuadExt(0, 1, -1)
        forms = sury_f(Fraction(1, 2), i, 3)
        assert forms.pair_sum == forms.half_sum == forms.convolution \
            == forms.closed
        assert sury_f(Fraction(1, 2), 2, 1).closed == Fraction(5)
        assert type(sury_f(Fraction(1, 2), 2, 1).closed) is Fraction

    @pytest.mark.parametrize("x,y", [(0.5, 1.5), (0.5, 0.5), (1, "2")])
    def test_inexact_arguments_are_type_errors(self, x, y):
        with pytest.raises(TypeError):
            sury_f(x, y, 2)


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
                        on_result=lambda ev: values.extend(
                            s.value for s in ev.sides))
            assert rep.checked and rep.verified
        assert values
        assert {type(v) for v in values} <= {int, Fraction, QuadExt}


class TestIEntrySideValues:
    @pytest.mark.parametrize("entry_id", [i for i in EXPECTED_IDS
                                          if i.startswith("I")])
    def test_streamed_side_values_read_canonical(self, entry_id):
        entry = get_entry(entry_id)
        grid = tuple(Axis(ax.names, ax.values[::max(1, len(ax.values) // 3)])
                     for ax in entry.grid)
        sides = []
        rep = sweep(dataclasses.replace(entry, grid=grid),
                    on_result=lambda ev: sides.extend(ev.sides))
        assert rep.checked and not rep.failures
        assert {type(s.value) for s in sides} <= {int, Fraction, QuadExt}
