"""Divisibility entries: witness soundness, frozen quotients, rejections;
the classic entries as specialisations of the Horadam theorems."""

import csv
import dataclasses
import io
import json
import pickle
from fractions import Fraction

import pytest
from test_mutation import _sub_grid

from fibsums.identities import (ENTRIES, Context, RejectedInstance, Witness,
                                axis, engine, evaluate_entry, get_entry,
                                make_witness, sweep)
from fibsums.polynomials import poly_eval
from fibsums.reports import (div_csv, document, sweep_payload, to_json,
                             witness_row)
from fibsums.scalars import QuadExt, Rat
from fibsums.sequences import neg_one


class TestMakeWitness:
    def test_success_has_quotient_and_no_residue(self):
        w = make_witness("3 | 21", 3, 21)
        assert (w.quotient, w.residue, w.ok) == (7, None, True)
        assert w.divisor * w.quotient == w.dividend

    def test_failure_has_residue_and_no_quotient(self):
        w = make_witness("3 | 10", 3, 10)
        assert w.quotient is None
        assert w.residue == 1
        assert not w.ok

    def test_negative_divisor_and_dividend(self):
        w = make_witness("x", -3, 21)
        assert w.quotient == -7 and w.ok
        assert w.divisor * w.quotient == w.dividend
        w = make_witness("x", -3, -21)
        assert w.quotient == 7 and w.ok

    def test_integral_fractions_accepted(self):
        w = make_witness("x", Fraction(4), Fraction(20))
        assert (w.divisor, w.dividend, w.quotient) == (4, 20, 5)

    def test_zero_divisor_and_nonintegral_values_rejected(self):
        with pytest.raises(ZeroDivisionError):
            make_witness("x", 0, 5)
        with pytest.raises(ValueError):
            make_witness("x", Fraction(1, 2), 1)
        for value in (Rat(1, 2), Rat(9, 6)):
            with pytest.raises(ValueError, match="3/2|1/2"):
                make_witness("x", value, 1)
            with pytest.raises(ValueError):
                make_witness("x", 1, value)

    @pytest.mark.parametrize("value", [Rat(4), Rat(8, 2)],
                             ids=["Rat", "unreduced Rat"])
    def test_integral_rats_read_as_ints(self, value):
        w = make_witness("x", value, value * 5)
        assert (w.divisor, w.dividend, w.quotient) == (4, 20, 5)
        assert type(w.divisor) is int and type(w.dividend) is int

    @pytest.mark.parametrize("value", [
        4.0, QuadExt(Fraction(4), Fraction(0), 5)], ids=["float", "QuadExt"])
    def test_values_other_than_int_or_fraction_are_type_errors(self, value):
        with pytest.raises(TypeError, match="int, Fraction or Rat"):
            make_witness("x", value, 20)
        with pytest.raises(TypeError, match="int, Fraction or Rat"):
            make_witness("x", 4, value)


FIELDS = ("label", "divisor", "dividend", "quotient", "residue")


class TestWitnessContract:
    """``Witness`` has a hand-written ``__init__``; the rest stays the
    dataclass's."""

    CASES = [("3 | 21", 3, 21, 7, None), ("3 | 10", 3, 10, None, 1),
             ("x", -3, -21, 7, None)]

    @pytest.mark.parametrize("args", CASES)
    def test_positional_and_keyword_witnesses_are_equal(self, args):
        pos = Witness(*args)
        kw = Witness(**dict(zip(FIELDS, args)))
        assert pos == kw and hash(pos) == hash(kw)
        assert tuple(getattr(pos, f) for f in FIELDS) == args
        assert pos.ok == (args[3] is not None)
        assert pos == make_witness(*args[:3])

    def test_fields_are_frozen(self):
        w = Witness("3 | 21", 3, 21, 7, None)
        for name in FIELDS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(w, name, 2)
        assert w == Witness("3 | 21", 3, 21, 7, None)

    def test_replace(self):
        w = Witness("3 | 21", 3, 21, 7, None)
        new = dataclasses.replace(w, dividend=22, quotient=None, residue=1)
        assert new == Witness("3 | 21", 3, 22, None, 1) and not new.ok
        assert w.dividend == 21

    @pytest.mark.parametrize("args", CASES)
    def test_pickle_round_trip(self, args):
        # sharded sweeps pickle their failures, witnesses included
        w = Witness(*args)
        back = pickle.loads(pickle.dumps(w))
        assert back == w and hash(back) == hash(w) and back.ok == w.ok


class TestFrozenWitnesses:
    def test_fib_divides_fib_multiple(self):
        (w,) = evaluate_entry(get_entry("D01"), {"r": 3, "m": 3}).witnesses
        assert w.label == "F_r | F_(mr)"
        assert (w.divisor, w.dividend, w.quotient, w.residue) == (2, 34, 17, None)

    def test_negative_index_witnesses(self):
        (w,) = evaluate_entry(get_entry("D01"), {"r": -3, "m": 3}).witnesses
        assert (w.divisor, w.dividend, w.quotient) == (2, 34, 17)
        (w,) = evaluate_entry(get_entry("D01"), {"r": -4, "m": 2}).witnesses
        assert (w.divisor, w.dividend, w.quotient) == (-3, -21, 7)
        assert w.divisor * w.quotient == w.dividend

    def test_constant_modulus_family(self):
        (w,) = evaluate_entry(get_entry("D06"), {"n": 3}).witnesses
        assert (w.divisor, w.dividend, w.quotient) == (5, 110, 22)

    def test_partial_bindings_emit_partial_witnesses(self):
        witnesses = evaluate_entry(
            get_entry("D21"), {"p": 1, "q": -1, "r": 2, "n": 4}).witnesses
        assert [w.label for w in witnesses] == ["v_r | u_(rn)"]
        w = witnesses[0]
        assert (w.divisor, w.dividend, w.quotient) == (3, 21, 7)

    def test_full_bindings_emit_all_witnesses(self):
        witnesses = evaluate_entry(
            get_entry("D21"), {"p": 1, "q": -1, "a": 2, "b": 1, "r": 2,
                               "m": 3, "t": 2, "n": 4}).witnesses
        assert [w.label for w in witnesses] == [
            "v_r | v_(rm)",
            "v_r | w_(t+rn) - q^(rn) w_(t-rn)",
            "v_r | u_(rn)",
        ]
        assert all(w.ok for w in witnesses)

    def test_five_parameter_entry_spot(self):
        (w,) = evaluate_entry(
            get_entry("D22"), {"p": 3, "q": 2, "a": 0, "b": 1, "m": 1,
                               "s": 0, "r": 2, "t": 0, "n": 1}).witnesses
        assert (w.divisor, w.dividend, w.quotient) == (40, 120, 3)


class TestCombinedEntries:
    def test_decomposition_sides_plus_two_witnesses(self):
        ev = evaluate_entry(get_entry("D11"), {"r": 2, "n": 1})
        assert ev.ok
        assert [s.group for s in ev.sides] == ["decomposition", "decomposition"]
        assert ev.sides[0].value == ev.sides[1].value == -45
        assert [(w.divisor, w.dividend, w.quotient) for w in ev.witnesses] \
            == [(5, -45, -9), (1, 8, 8)]

    def test_particular_case_appears_only_at_its_point(self):
        at_point = evaluate_entry(get_entry("D14"), {"r": 2, "t": 0, "n": 1})
        assert len(at_point.witnesses) == 2
        assert {s.group for s in at_point.sides} == {"mod-11 particular"}
        assert all(w.ok for w in at_point.witnesses)

        elsewhere = evaluate_entry(get_entry("D14"), {"r": 3, "t": 1, "n": 1})
        assert len(elsewhere.witnesses) == 1
        assert elsewhere.sides == []

    def test_partner_entry_particular_case(self):
        ev = evaluate_entry(get_entry("D15"), {"r": 2, "t": 0, "n": 2})
        assert len(ev.witnesses) == 2
        assert all(w.ok for w in ev.witnesses)
        assert ev.witnesses[0].divisor == 11      # denominator at r = 2


class TestRejections:
    def test_zero_divisor_is_a_domain_rejection(self):
        with pytest.raises(RejectedInstance) as exc:
            evaluate_entry(get_entry("D01"), {"r": 0, "m": 1})
        assert "r != 0" in exc.value.predicate

    def test_parity_guards(self):
        with pytest.raises(RejectedInstance) as exc:
            evaluate_entry(get_entry("D02"), {"r": 2, "m": 2})
        assert exc.value.predicate == "m odd"
        with pytest.raises(RejectedInstance) as exc:
            evaluate_entry(get_entry("D21"), {"p": 1, "q": -1, "r": 2, "n": 3})
        assert exc.value.predicate == "n even and n >= 2"

    def test_ordering_guard(self):
        with pytest.raises(RejectedInstance) as exc:
            evaluate_entry(get_entry("D22"), {"p": 3, "q": 2, "a": 0, "b": 1,
                                              "m": 2, "s": 0, "r": 1, "t": 0,
                                              "n": 1})
        assert exc.value.predicate == "r >= m >= s >= 0"

    def test_integrality_guard_on_generalized_sequences(self):
        # u_{-1}(3, 2) = -1/2 is not an integer, so no witness is attempted
        with pytest.raises(RejectedInstance) as exc:
            evaluate_entry(get_entry("D20"), {"p": 3, "q": 2, "r": -1, "n": 1})
        assert "integers" in exc.value.predicate

    @pytest.mark.parametrize("p, q, below_zero_rejected, counts",
                             [(1, -1, False, (56, 7)), (3, 2, True, (28, 35))])
    def test_d20_integrality_guard_rejects_only_fractional_terms(
            self, monkeypatch, p, q, below_zero_rejected, counts):
        # u_(-k)(1, -1) = (-1)^(k+1) F_k is an integer; u_(-k)(3, 2) =
        # -(2^k - 1) / 2^k never is. u_0 = 0 is rejected by the u_r guard.
        entry = get_entry("D20")
        integral = entry.guards[-1]
        assert "integers" in integral.text
        refused = []

        def holds(ctx, b):
            held = integral.holds(ctx, b)
            if not held:
                refused.append((b["r"], b["n"]))
            return held

        entry = dataclasses.replace(entry, guards=(
            *entry.guards[:-1], dataclasses.replace(integral, holds=holds)))
        grid = {"p": [p], "q": [q], "r": list(range(-4, 5)),
                "n": list(range(7))}
        # one CPU keeps the sweep in this process, so every call is counted
        monkeypatch.setattr(engine, "_cpu_count", lambda: 1)
        rep = sweep(entry, grid)
        want = [(r, n) for r in range(-4, 0) for n in range(7)]
        assert refused == (want if below_zero_rejected else [])
        assert (rep.checked, rep.rejected) == counts and rep.verified


class TestWitnessSoundnessSweeps:
    @pytest.mark.parametrize("entry_id",
                             ["D01", "D02", "D03", "D10", "D12", "D13"])
    def test_every_default_grid_witness_is_sound(self, entry_id):
        rep = sweep(get_entry(entry_id), None, Context(), row=lambda ev: ev)
        assert rep.verified
        assert rep.checked == len(rep.rows) > 0
        for ev in rep.rows:
            for w in ev.witnesses:
                assert w.ok, (entry_id, ev.bindings, w)
                assert w.residue is None
                assert w.divisor * w.quotient == w.dividend


def _axes(entry_id, *names):
    """The axes of the entry's default grid that bind only ``names``."""
    return tuple(ax for ax in get_entry(entry_id).grid
                 if set(ax.names) <= set(names))


@pytest.mark.parametrize("entry_id", [e.id for e in ENTRIES if e.required])
def test_required_parameters_alone_check_a_witness_at_every_point(entry_id):
    # a point with every optional parameter unbound must still check one
    # witness, or its verdict is vacuous
    entry = get_entry(entry_id)
    entry = dataclasses.replace(entry, grid=_axes(entry_id, *entry.required))
    rep = sweep(entry, None, Context(), row=lambda ev: len(ev.witnesses))
    assert rep.verified and len(rep.rows) == rep.checked
    assert min(rep.rows) >= 1


#: D entry -> (source identity, factor at the bindings): the D entry's first
#: quotient times the factor is the source's left side at every point. A
#: factor of 2 carries the sign of the source's closed-form denominator,
#: (-1)^(r+1) 5 F_r^2 for I12 and I13. D01-D03 and D21 bind other
#: parameters than their sources and are listed in MAPPED.
COROLLARIES = {
    "D04": ("I10", lambda b: 1),
    "D05": ("I11", lambda b: 1),
    "D14": ("I16", lambda b: 1),
    "D15": ("I17", lambda b: 1),
    "D22": ("H05", lambda b: 1),
    "D09": ("I13", lambda b: 2 * neg_one(b["r"] + 1)),
    "D11": ("I12", lambda b: 2 * neg_one(b["r"] + 1)),
    "D12": ("I14", lambda b: 2),
    "D13": ("I14", lambda b: 2),
    "D16": ("I18", lambda b: 2),
}


_SEEDED = ("p", "q", "a", "b", "r", "t")

#: case -> (D entry, its grid, witness label, source identity, the map from
#: the D entry's bindings to the source's, factor, source side, points with
#: a source point, points without): factor * quotient is the source's side
#: at the mapped point. Where the source rejects the mapped point (its
#: n < 0, or H07's and H10's u_r != 0 and p^2 - 4q != 0), the D entry rests
#: on its own argument. D21 runs one witness at a time, each on the axes of
#: its own parameters (v_r | v_(rm) at n = 2 alone, n being required).
MAPPED = {
    "D01": ("D01", _axes("D01", "r", "m"), "F_r | F_(mr)", "I07",
            lambda b: {"r": b["r"], "n": b["m"] - 1}, 2, "left sum", 72, 84),
    "D02": ("D02", _axes("D02", "r", "m"), "L_r | L_(mr)", "I08",
            lambda b: {"r": b["r"], "n": (b["m"] - 1) // 2}, 2, "left sum",
            39, 39),
    "D03": ("D03", _axes("D03", "r", "m"), "L_r | F_(mr)", "I09",
            lambda b: {"r": b["r"], "n": b["m"] // 2}, 2, "left sum", 52, 39),
    "D21-seeded": ("D21", _axes("D21", *_SEEDED, "n"),
                   "v_r | w_(t+rn) - q^(rn) w_(t-rn)", "H07",
                   lambda b: {**{k: b[k] for k in _SEEDED}, "n": b["n"] // 2},
                   1, "left sum", 13800, 5160),
    "D21-vm": ("D21", (*_axes("D21", "p", "q", "r", "m"), axis("n", [2])),
               "v_r | v_(rm)", "H11",
               lambda b: {"p": b["p"], "q": b["q"], "r": b["r"],
                          "n": (b["m"] - 1) // 2}, 2, "left sum", 562, 70),
    "D21-un": ("D21", _axes("D21", "p", "q", "r", "n"), "v_r | u_(rn)", "H10",
               lambda b: {"p": b["p"], "q": b["q"], "r": b["r"], "t": 0,
                          "n": b["n"] // 2},
               2, "left sum without shift", 690, 258),
}


class TestCorollaryTable:
    @pytest.mark.parametrize("entry_id", COROLLARIES)
    def test_quotient_times_factor_is_the_source_left_side(self, entry_id):
        source_id, factor = COROLLARIES[entry_id]
        entry, source = get_entry(entry_id), get_entry(source_id)
        if entry_id == "D22":       # 132,580 default points; a sub-grid will do
            entry = dataclasses.replace(
                entry, grid=_sub_grid(entry, entry.primary_variant))
        ctx = Context()
        rep = sweep(entry, None, ctx, row=lambda ev: ev)
        assert rep.verified and len(rep.rows) == rep.checked
        nonzero = 0
        for ev in rep.rows:
            left = evaluate_entry(source, ev.bindings, ctx).sides[0]
            assert left.label == "left sum"
            quotient = ev.witnesses[0].quotient
            assert quotient * factor(ev.bindings) == left.value, ev.bindings
            nonzero += quotient != 0
        assert nonzero

    @pytest.mark.parametrize("case", MAPPED)
    def test_quotient_times_factor_is_the_mapped_source_side(self, case):
        (entry_id, grid, label, source_id, to_source, factor, side,
         held, unsourced) = MAPPED[case]
        entry = dataclasses.replace(get_entry(entry_id), grid=grid)
        source = get_entry(source_id)
        ctx = Context()
        rep = sweep(entry, None, ctx, row=lambda ev: ev)
        assert rep.verified and len(rep.rows) == rep.checked
        sourced = nonzero = 0
        for ev in rep.rows:
            (quotient,) = [w.quotient for w in ev.witnesses if w.label == label]
            try:
                sides = evaluate_entry(source, to_source(ev.bindings), ctx).sides
            except RejectedInstance:
                continue
            (value,) = [s.value for s in sides if s.label == side]
            assert factor * quotient == value, ev.bindings
            sourced += 1
            nonzero += quotient != 0
        assert nonzero
        assert (sourced, len(rep.rows) - sourced) == (held, unsourced)


#: Horadam bindings at (p, q) = (1, -1) and t = 0, where w is L or F.
LUCAS_W = {"p": 1, "q": -1, "a": 2, "b": 1, "t": 0}
FIB_W = {**LUCAS_W, "a": 0, "b": 1}
#: Where a P entry's polynomial sides are read.
XS = [x for x in range(-4, 5) if x]
THREE = ("left sum", "middle sum", "closed form")
SAME = dict(zip(THREE, THREE))
AS_PROVED = dict(zip(("left sum", "middle sum, weight 1/2^(j+1)",
                      "closed form"), THREE))

#: classic entry -> (Horadam entry, the map from the classic bindings and x
#: to the Horadam's, classic slot -> Horadam slot, factor, (points the
#: classic guards reject, points compared, points the Horadam guards
#: reject)): each classic slot is factor times its Horadam slot at every
#: default-grid point, at every x in XS for a P entry. The Horadam guards
#: reject I08's and I09's r = 0 at n >= 1 (u_r = 0), which rest on the
#: classic argument alone.
SPECIALISATIONS = {
    "I07": ("H01", lambda b, x: {**LUCAS_W, **b}, SAME, lambda b: 1,
            (11, 132, 0)),
    "I12": ("H04", lambda b, x: {**LUCAS_W, **b}, SAME, lambda b: 1,
            (11, 132, 0)),
    "I13": ("H04", lambda b, x: {**FIB_W, **b}, SAME, lambda b: 1,
            (11, 132, 0)),
    "I08": ("H06", lambda b, x: {**LUCAS_W, **b}, SAME, lambda b: 1,
            (0, 133, 10)),
    "I09": ("H07", lambda b, x: {**FIB_W, **b}, SAME, lambda b: 1,
            (0, 133, 10)),
    "I10": ("H05", lambda b, x: {**LUCAS_W, "m": 0, "s": 1, **b}, AS_PROVED,
            lambda b: 1, (0, 143, 0)),
    "I11": ("H05", lambda b, x: {**FIB_W, "m": 0, "s": 1, **b}, AS_PROVED,
            lambda b: 1, (0, 143, 0)),
    "I02": ("H03", lambda b, x: {"p": 1, "q": -1, **b},
            {"sum": "middle sum", "closed form": "closed form"},
            lambda b: 2 ** b["n"], (0, 11, 0)),
    "P02": ("H03", lambda b, x: {"p": 2, "q": -1, **b},
            dict(zip(("alternating sum", "unit-weight sum", "closed form"),
                     THREE)), lambda b: 1, (0, 16, 0)),
    # L_n(x) = v_n(x, -1) and F_n(x) = u_n(x, -1)
    "P01": ("H03", lambda b, x: {"p": x, "q": -1, **b},
            dict(zip(("alternating sum", "halved sum", "closed form"), THREE)),
            lambda b: 1, (0, 128, 0)),
    # 2 T_n(x) = v_n(2x, 1) and U_n(x) = u_(n+1)(2x, 1)
    "P05": ("H03", lambda b, x: {"p": 2 * x, "q": 1, **b},
            dict(zip(("folded sum", "convolution sum", "closed form"), THREE)),
            lambda b: Fraction(1, 2), (0, 168, 0)),
}

#: Classic entries with no Horadam parent found yet: each is a candidate for
#: a new generalisation. I01 is the identity in u and v the sums are derived
#: from; it reads no sequence.
UNMAPPED = ("I03", "I04", "I05", "I06", "I14", "I15", "I16", "I17", "I18",
            "P03", "P04", "P06")


class TestHoradamSpecialisations:
    @pytest.mark.parametrize("classic_id", SPECIALISATIONS)
    def test_classic_slots_are_horadam_slots(self, classic_id):
        horadam_id, to_horadam, slots, factor, counts = \
            SPECIALISATIONS[classic_id]
        classic, horadam = get_entry(classic_id), get_entry(horadam_id)
        ctx = Context()
        rep = sweep(classic, None, ctx, row=lambda ev: ev)
        assert rep.verified and len(rep.rows) == rep.checked
        compared = unsourced = 0
        for ev in rep.rows:
            mine = {s.label: s.value for s in ev.sides}
            polynomial = type(ev.sides[0].value) is tuple
            for x in XS if polynomial else [None]:
                try:
                    theirs = evaluate_entry(
                        horadam, to_horadam(ev.bindings, x), ctx).sides
                except RejectedInstance:
                    unsourced += 1
                    continue
                theirs = {s.label: s.value for s in theirs}
                for label, source in slots.items():
                    value = poly_eval(mine[label], x) if polynomial \
                        else mine[label]
                    assert value == factor(ev.bindings) * theirs[source], \
                        (ev.bindings, x, label)
                compared += 1
        assert (rep.rejected, compared, unsourced) == counts

    def test_every_classic_entry_is_mapped_or_listed(self):
        classic = [e.id for e in ENTRIES if e.id[0] in "IP"]
        assert sorted(["I01", *SPECIALISATIONS, *UNMAPPED]) == classic


class TestDigitLimit:
    def test_witness_tables_past_the_default_int_str_limit(self, default_int_str_limit):
        # 2^20102 L_20102 has about 10,250 digits; the default limit is 4,300
        entry = get_entry("D06")
        rep = sweep(entry, {"n": [20100, 20101]}, Context(),
                    row=lambda ev: witness_row(ev, {}))
        evaluations = [evaluate_entry(entry, {"n": n}) for n in (20100, 20101)]
        doc = json.loads(to_json(document("div", [sweep_payload(rep)])))
        table = list(csv.reader(io.StringIO(div_csv(entry.params, rep.rows))))
        assert rep.verified and len(rep.rows) == 2 and len(table) == 3
        for ev, row, line in zip(evaluations, doc["reports"][0]["rows"], table[1:]):
            (w,) = ev.witnesses
            expected = [default_int_str_limit(x)
                        for x in (w.divisor, w.dividend, w.quotient)]
            (got,) = row["witnesses"]
            assert [got["divisor"], got["dividend"], got["quotient"]] == expected
            assert line[2:5] == expected and line[5] == ""
            assert len(expected[1]) > 10000


def csv_module_div_csv(entry_params, rows):
    """div_csv as it was before its number columns bypassed the csv module:
    every field of every row through one csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [*entry_params, "label", "divisor", "dividend", "quotient", "residue"])
    writer.writerows(
        [*head, w["label"], w["divisor"], w["dividend"], w["quotient"] or "",
         w["residue"] or ""]
        for row in rows
        for head in ([row["bindings"].get(p, "") for p in entry_params],)
        for w in row["witnesses"])
    return buf.getvalue()


class TestDivCsvQuoting:
    PARAMS = ("p", "r", "n")
    ROWS = [
        {"bindings": {"p": "1/2", "n": "3"},                # r is missing
         "witnesses": [
             {"label": "a, b", "divisor": "2", "dividend": "8",
              "quotient": "4", "residue": None},
             {"label": 'the "odd" one', "divisor": "3", "dividend": "-8",
              "quotient": None, "residue": "1"}]},
        {"bindings": {"p": "-1/2", "r": "", "n": "1 + sqrt(5)"},
         "witnesses": [
             {"label": "two\nlines", "divisor": "-7", "dividend": "0",
              "quotient": "0", "residue": None},
             {"label": 'all, "three"\nat once', "divisor": "1" + "0" * 700,
              "dividend": "9" * 1500, "quotient": None, "residue": "9" * 700}]},
    ]

    def test_equals_the_csv_module_rendering(self):
        assert div_csv(self.PARAMS, self.ROWS) == csv_module_div_csv(
            self.PARAMS, self.ROWS)

    def test_reads_back_to_the_same_fields(self):
        table = list(csv.reader(io.StringIO(div_csv(self.PARAMS, self.ROWS))))
        assert table[0] == [*self.PARAMS, "label", "divisor", "dividend",
                            "quotient", "residue"]
        assert table[1:] == [
            [*(row["bindings"].get(p, "") for p in self.PARAMS), w["label"],
             w["divisor"], w["dividend"], w["quotient"] or "", w["residue"] or ""]
            for row in self.ROWS for w in row["witnesses"]]
