"""Every side and witness of the entries with shared factors is falsifiable.

``test_mutation.py`` bumps the first side of each reading. The verdict
compares each side with the first side of its group only, so here every
side of H01, H03-H07, H10, H11, I16-I18, P01, P03 and P04 is bumped by 1
in turn (a polynomial side at its constant coefficient), on the same
sub-grid: a wrong sum in any position, first or not, must fail every point
of each reading it belongs to.

``test_mutation.py`` also bumps only the first witness whose divisor is not
a unit, while D21 reads one divisor v_r for its three witnesses and D22
builds its one witness from shared coefficients. So each witness dividend of
D21 and D22 is bumped in turn, and every point where that witness's divisor
is not a unit must fail.
"""

import dataclasses

import pytest
from test_mutation import _bump, _sub_grid

from fibsums.identities import Outcome, get_entry, sweep

WEIGHTED_IDS = ("H01", "H03", "H04", "H05", "H06", "H07", "H10", "H11",
                "I16", "I17", "I18", "P01", "P03", "P04")
WITNESS_IDS = ("D21", "D22")


def bumped(entry, i):
    """``entry.evaluate`` with side ``i`` made 1 larger."""
    def evaluate(ctx, b):
        sides, witnesses = entry.evaluate(ctx, b)
        sides = list(sides)
        sides[i] = _bump(sides[i])
        return Outcome(tuple(sides), witnesses)
    return evaluate


@pytest.mark.parametrize("entry_id", WEIGHTED_IDS)
def test_every_side_is_caught(entry_id):
    entry = get_entry(entry_id)
    caught = 0
    for variant in entry.variants:
        sub = dataclasses.replace(entry, grid=_sub_grid(entry, variant))
        clean = sweep(sub, row=lambda ev: ev)
        assert clean.checked and clean.variant_verified[variant] == clean.checked
        assert len(clean.rows[0].sides) == len(entry.sides)
        for i, side in enumerate(entry.sides):
            if side.variant not in (None, variant):
                continue
            rep = sweep(dataclasses.replace(sub, evaluate=bumped(entry, i)))
            assert rep.checked == clean.checked
            assert rep.variant_verified[variant] == 0, (variant, side.label)
            if variant == entry.primary_variant:
                assert not rep.verified and len(rep.failures) == rep.checked
            caught += 1
    assert caught >= 3 * len(entry.variants)


def bumped_witness(entry, i):
    """``entry.evaluate`` with the dividend of witness ``i`` made 1 larger."""
    def evaluate(ctx, b):
        sides, witnesses = entry.evaluate(ctx, b)
        witnesses = list(witnesses)
        divisor, dividend = witnesses[i]
        witnesses[i] = divisor, dividend + 1
        return Outcome(sides, tuple(witnesses))
    return evaluate


@pytest.mark.parametrize("entry_id", WITNESS_IDS)
def test_every_witness_is_caught(entry_id):
    entry = get_entry(entry_id)
    sub = dataclasses.replace(entry, grid=_sub_grid(entry, entry.primary_variant))
    clean = sweep(sub, row=lambda ev: ev)
    assert clean.checked and clean.verified
    count = len(clean.rows[0].witnesses)
    for i in range(count):
        rep = sweep(dataclasses.replace(sub, evaluate=bumped_witness(entry, i)),
                    row=lambda ev: ev)
        assert rep.checked == clean.checked and not rep.verified
        caught = [ev for ev in rep.rows if abs(ev.witnesses[i].divisor) != 1]
        assert caught and not any(ev.ok for ev in caught), clean.rows[0].witnesses[i].label
    assert count == {"D21": 3, "D22": 1}[entry_id]
