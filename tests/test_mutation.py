"""Every catalog entry is falsifiable: a sweep catches a side that is off by one.

Each entry's evaluate function is wrapped (never edited) so that one side
comes out 1 larger, or, for a divisibility entry, one witness dividend does.
A polynomial side gets 1 added to its constant coefficient. The sweep runs
on a sub-grid of the default grid that keeps two values of each axis. A
flagged entry has one side per reading, and each reading is perturbed in
turn. The printed reading holds only at some points, so its perturbation
runs on points where it holds; elsewhere it fails already, and a change
there would show nothing.
"""

import dataclasses

import pytest

from fibsums.identities import ENTRIES, Axis, Outcome, axis, get_entry, sweep
from fibsums.polynomials import POLY_ONE, poly_add

CASES = [(e, v) for e in ENTRIES for v in e.variants]

# default-grid points where the printed reading of a flagged entry holds
PRINTED_HOLDS = {
    "I10": {"r": [-1], "n": [3]},
    "I11": {"r": [-6, 2], "n": [0]},
    "I16": {"r": [-6, 3], "t": [-6, 2], "n": [0]},
    "I17": {"r": [-6, 3], "t": [-6, 2], "n": [0]},
    "H10": {"p": [1, 3], "q": [-1, 2], "r": [2], "t": [0], "n": [1, 4]},
}

# default-grid rows added to the two picks of a joint axis: D22's picks
# (m, s, r) = (3, 1, 3) and (4, 4, 4) have r = m, where u_(r-m) = u_0 = 0
# zeroes every term of Y but the first; at r > m > s every term counts
EXTRA_ROWS = {("D22", ("m", "s", "r")): ((2, 1, 4),)}


def _sub_grid(entry, variant):
    """A few default-grid points at which ``variant`` holds."""
    if variant != entry.primary_variant:
        return tuple(axis(p, v) for p, v in PRINTED_HOLDS[entry.id].items())
    grid = []
    for ax in entry.grid:
        n = len(ax.values)
        # the middle and the last value: the first values are often units
        picks = sorted({n // 2, n - 1})
        extra = EXTRA_ROWS.get((entry.id, ax.names), ())
        grid.append(Axis(ax.names, tuple(ax.values[i] for i in picks) + extra))
    return tuple(grid)


def _bump(value):
    if type(value) is tuple:
        return poly_add(value, POLY_ONE)
    return value + 1


def _off_by_one(outcome, entry, variant):
    """``outcome`` with the first side of ``variant`` (or a witness) bumped.

    A divisibility entry bumps the dividend of its first present witness
    whose divisor is not a unit: past a unit divisor every dividend divides.
    """
    sides, witnesses = map(list, outcome)
    if entry.kind == "divisibility":
        present = [i for i, w in enumerate(witnesses) if w is not None]
        i = next((i for i in present if abs(witnesses[i][0]) != 1), present[0])
        divisor, dividend = witnesses[i]
        witnesses[i] = divisor, dividend + 1
    else:
        owner = variant if entry.flagged else None
        i = next(i for i, (slot, x) in enumerate(zip(entry.sides, sides))
                 if slot.variant == owner and x is not None)
        sides[i] = _bump(sides[i])
    return Outcome(tuple(sides), tuple(witnesses))


@pytest.mark.parametrize("entry,variant", CASES,
                         ids=[f"{e.id}-{v}" for e, v in CASES])
def test_an_off_by_one_side_is_caught(entry, variant):
    sub = dataclasses.replace(entry, grid=_sub_grid(entry, variant))
    clean = sweep(sub)
    assert clean.checked and clean.variant_verified[variant] == clean.checked

    def evaluate(ctx, b):
        return _off_by_one(entry.evaluate(ctx, b), entry, variant)

    rep = sweep(dataclasses.replace(sub, evaluate=evaluate))
    assert rep.checked == clean.checked
    if variant == entry.primary_variant:
        assert not rep.verified and rep.failures
    if entry.kind == "identity":
        # every point is caught, not just one
        assert rep.variant_verified[variant] == 0


def test_sub_grids_bind_exactly_the_entry_parameters():
    # a grid swapped in with dataclasses.replace redefines the parameters,
    # so a sub-grid leaving a name out would sweep fewer checks; this covers
    # every sub-grid swept here, in test_every_side and in test_failure_bytes
    from test_every_side import WEIGHTED_IDS, WITNESS_IDS
    from test_failure_bytes import CASES as BYTE_CASES
    cases = {(e.id, v) for e, v in CASES}
    cases |= {(i, v) for i in WEIGHTED_IDS for v in get_entry(i).variants}
    cases |= {(i, get_entry(i).primary_variant) for i in WITNESS_IDS}
    cases |= {(i, v) for i, ranges, v in BYTE_CASES.values() if ranges is None}
    for entry_id, variant in sorted(cases):
        entry = get_entry(entry_id)
        names = tuple(n for ax in _sub_grid(entry, variant) for n in ax.names)
        assert names == entry.params, (entry_id, variant)
