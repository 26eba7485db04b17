"""Every side of the weighted-sum Horadam entries is falsifiable.

``test_mutation.py`` bumps the first side of each reading. The verdict
compares each side with the first side of its group only, so here every
side of H01, H04-H07, H10 and H11 is bumped by 1 in turn, on the same
sub-grid: a wrong sum in any position, first or not, must fail every point
of each reading it belongs to.
"""

import dataclasses

import pytest
from test_mutation import _bump, _sub_grid

from fibsums.identities import Outcome, get_entry, sweep

WEIGHTED_IDS = ("H01", "H04", "H05", "H06", "H07", "H10", "H11")


def bumped(entry, i):
    """``entry.evaluate`` with side ``i`` made 1 larger."""
    def evaluate(ctx, b):
        out = entry.evaluate(ctx, b)
        sides = list(out.sides)
        sides[i] = dataclasses.replace(sides[i], value=_bump(sides[i].raw))
        return Outcome(sides, out.witnesses)
    return evaluate


@pytest.mark.parametrize("entry_id", WEIGHTED_IDS)
def test_every_side_is_caught(entry_id):
    entry = get_entry(entry_id)
    caught = 0
    for variant in entry.variants:
        sub = dataclasses.replace(entry, grid=_sub_grid(entry, variant))
        streamed = []
        clean = sweep(sub, on_result=streamed.append)
        assert clean.checked and clean.variant_verified[variant] == clean.checked
        for i, side in enumerate(streamed[0].sides):
            if side.variant not in (None, variant):
                continue
            rep = sweep(dataclasses.replace(sub, evaluate=bumped(entry, i)))
            assert rep.checked == clean.checked
            assert rep.variant_verified[variant] == 0, (variant, side.label)
            if variant == entry.primary_variant:
                assert not rep.verified and len(rep.failures) == rep.checked
            caught += 1
    assert caught >= 3 * len(entry.variants)
