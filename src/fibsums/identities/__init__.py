"""Identity catalog: evaluable entries, grid sweeps, divisibility witnesses.

The catalog is a fixed, ordered list of entries. Each entry knows its
parameters, admissible domain (as explicit guards), default verification
grid, and how to evaluate every displayed side exactly. This package adds
the lookup and driver functions on top of the engine primitives.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

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


def catalog() -> tuple[Entry, ...]:
    """The full identity/divisibility catalog in stable order."""
    return ENTRIES


def get_entry(entry_id: str) -> Entry:
    """Look up one catalog entry; raises UsageError for unknown ids."""
    try:
        return _BY_ID[entry_id]
    except KeyError:
        raise UsageError(f"unknown catalog id {entry_id!r}") from None


def evaluate_identity(entry_id: str, bindings: Mapping[str, object],
                      ctx: Context | None = None) -> Evaluation:
    """Evaluate every displayed side of one entry at one binding.

    Raises RejectedInstance when the binding violates the entry's domain
    and UsageError for unknown ids or missing/unknown parameters.
    """
    return evaluate_entry(get_entry(entry_id), bindings, ctx)


def _expand(value: object) -> list[object]:
    if isinstance(value, tuple) and len(value) == 2 \
            and all(isinstance(v, int) for v in value):
        return irange(value[0], value[1])
    if isinstance(value, Iterable) and not isinstance(value, (str, bytes)):
        return list(value)
    return [value]


def verify_grid(entry_id: str, ranges: Mapping[str, object] | None = None,
                ctx: Context | None = None) -> SweepReport:
    """Sweep one entry over a parameter grid and collect every failure.

    ``ranges`` maps parameter names to an inclusive ``(lo, hi)`` pair, an
    explicit list of values, or a single value. With no ranges the entry's
    default grid is swept; with any, exactly the named parameters are swept
    (they must cover the entry's required parameters).
    """
    overrides = None
    if ranges:
        overrides = {name: _expand(value) for name, value in ranges.items()}
    return sweep(get_entry(entry_id), overrides, ctx)


def check_divisibility(entry_id: str, bindings: Mapping[str, object],
                       ctx: Context | None = None) -> list[Witness]:
    """Compute the divisibility witnesses of one D-entry at one binding.

    Returns the witness records (divisor, dividend, quotient, residue); a
    nonzero residue is a reported finding, not an error. Zero divisors and
    domain violations raise RejectedInstance.
    """
    entry = get_entry(entry_id)
    if entry.kind != "divisibility":
        raise UsageError(f"{entry_id} is not a divisibility entry")
    return list(evaluate_entry(entry, bindings, ctx).witnesses)


__all__ = [
    "Axis", "Context", "Entry", "Evaluation", "Guard", "Outcome",
    "RejectedInstance", "Side", "Slot", "SuryForms", "SweepReport", "UsageError",
    "Witness", "ENTRIES", "axis", "catalog", "check_divisibility",
    "evaluate_entry", "evaluate_identity", "get_entry", "irange", "joint",
    "make_witness", "resolve_axes", "sury_f", "sweep", "verify_grid",
]
