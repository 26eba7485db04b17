"""Identity catalog: evaluable entries, grid sweeps, divisibility witnesses.

The catalog is a fixed, ordered list of entries, ``ENTRIES``. Each entry
knows its parameters, admissible domain (as explicit guards), default
verification grid, and how to evaluate every displayed side exactly.
``get_entry(id)`` looks one up; the engine's ``evaluate_entry`` checks it
at one binding and ``sweep`` over a grid, reporting witnesses for a
divisibility entry.
"""

from __future__ import annotations

from .engine import (
    Axis,
    Context,
    Entry,
    Evaluation,
    Guard,
    Outcome,
    RejectedInstance,
    Side,
    Slot,
    SweepReport,
    UsageError,
    Witness,
    axis,
    evaluate_entry,
    irange,
    joint,
    make_witness,
    resolve_axes,
    sweep,
)
from .entries_divisibility import DIVISIBILITY_ENTRIES
from .entries_fibonacci import FIB_ENTRIES, SuryForms, sury_f
from .entries_horadam import HORADAM_ENTRIES
from .entries_polynomial import POLY_ENTRIES

#: Every catalog entry in stable report order.
ENTRIES: tuple[Entry, ...] = (*FIB_ENTRIES, *POLY_ENTRIES,
                              *HORADAM_ENTRIES, *DIVISIBILITY_ENTRIES)

_BY_ID = {entry.id: entry for entry in ENTRIES}


def get_entry(entry_id: str) -> Entry:
    """Look up one catalog entry; raises UsageError for unknown ids."""
    try:
        return _BY_ID[entry_id]
    except KeyError:
        raise UsageError(f"unknown catalog id {entry_id!r}") from None


__all__ = [
    "Axis", "Context", "Entry", "Evaluation", "Guard", "Outcome",
    "RejectedInstance", "Side", "Slot", "SuryForms", "SweepReport", "UsageError",
    "Witness", "ENTRIES", "axis", "evaluate_entry", "get_entry", "irange",
    "joint", "make_witness", "resolve_axes", "sury_f", "sweep",
]
