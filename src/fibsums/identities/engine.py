"""Catalog machinery: entries, guarded exact evaluation, grid sweeps.

An Entry bundles one catalog statement with its domain guards, a default
sweep grid that names its parameters, its sides and witnesses, declared
once, and an evaluate function returning the exact raw value of every side
and a (divisor, dividend) pair per witness, in declared order. Where a
printed formula admits two readings, the slots that differ name theirs
(``READINGS``), the verdict is computed against the reading its proof
implies, and sweep reports tally every reading so exactly one should
verify in full.

The verdict reads those raw values only, laid out by the slots alone: once
per sweep (``_Plan``), per reading, each side is paired with the first side
of its group, and a group is present or absent as a whole. A point compares
those pairs by index and checks each witness by one integer remainder.
Side, Witness and Evaluation objects, labels included, are built from the
values already returned only for a point that fails its primary reading or
whose sweep was given a row function.

A sweep walks its grid one axis level at a time, binding each axis into one
bindings dict that keeps axis order; the rows of the last axis are walked
in one loop, which evaluates each point in place. Each guard is checked once
per row of the shallowest level at which it and every guard declared before
it are bound, so guards still run in declaration order and each only after
the earlier ones held; a failing guard rejects its whole subtree at once.
This relies on a guard reading nothing but its ``needs``. A point that
passes only bumps counters. An exception raised by an entry's evaluate function,
or by reading its witnesses (a value that is not an integer, a zero
divisor), is recorded as a failing instance, not propagated. MemoryError
and RecursionError are resource limits, not findings: they propagate, as
guard exceptions do.

A sweep is sharded when the process runs one thread, can fork and may use
more than one CPU: the parent binds whole shallow axes into binding
prefixes, deals them round-robin over the CPUs in the process's affinity
mask, walks one share itself and forks a child per other share. The guards
of the bound axes move down to the split level, so each prefix checks them
once as its walk starts. A sweep's row function runs in the process that
walks the point. The children pickle their counts, failures and row values
back, and the parent merges them in prefix order. One
driver runs every sweep: a grid of at least SHARD_MIN_POINTS points forks
at once; a smaller one is walked prefix by prefix in the parent until its
measured time per prefix, times the prefixes left, reaches
SHARD_MIN_SECONDS, and the prefixes left then go to the shares, so a cheap
small sweep never forks. A one-process sweep is the one-share case: the
single prefix ``{}``, no fork. ``taskset -c 0`` forces it.

Everything here is pure and deterministic: sweeps iterate grids in
declaration order, failures are collected exhaustively in that order, and
no timing or environment data enters a report; sharding changes no byte.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from ..scalars import CharRoots, QuadExt, Rat, _exact, _nd, canonical, make_roots
from ..sequences import SeqTable

# The fork gate of the one sweep driver. A grid of at least this many points
# is sharded over the available CPUs at once: on 2 CPUs the cheapest entries
# (about 6 us a point) break even near 2,000 points. A smaller grid forks once
# the parent estimates that walking the rest of it alone would take at least
# SHARD_MIN_SECONDS, a few times what a fork and merge cost (about 2.5 ms on a
# 2-CPU machine). Probing the large grids too made them slower, so they keep
# forking at once.
SHARD_MIN_POINTS = 2000
SHARD_MIN_SECONDS = 0.01

# The clock the fork gate reads.
_clock = time.perf_counter


class UsageError(ValueError):
    """Malformed request: unknown entry, unknown or missing parameter."""


class RejectedInstance(Exception):
    """Bindings fall outside an entry's domain; names the violated predicate."""

    def __init__(self, entry_id: str, predicate: str, bindings: dict):
        self.entry_id = entry_id
        self.predicate = predicate
        self.bindings = dict(bindings)
        super().__init__(f"{entry_id}: rejected ({predicate}) at {bindings}")


#: The readings of an entry whose slots name one; the verdict follows the last.
READINGS = ("as-printed", "as-proved")


class Slot(NamedTuple):
    """One declared side of an entry: its label, the group whose sides must
    agree, and the reading it belongs to (None: every reading)."""

    label: str
    group: str = "eq"
    variant: Optional[str] = None


@dataclass(frozen=True)
class Side:
    """One exactly evaluated side of a reported point, built from an entry's
    ``Slot`` and the value its evaluate function returned for it.

    value is an int, Fraction, QuadExt or polynomial coefficient tuple: a
    kernel ``Rat``, alone or as a coefficient, is read as its reduced
    Fraction when the Side is built.
    variant None means the side is common to every reading of the entry;
    otherwise it belongs to the named reading only.
    """

    label: str
    value: object
    group: str = "eq"
    variant: Optional[str] = None


@dataclass(frozen=True)
class Witness:
    """Exact divisibility certificate: divisor * quotient == dividend.

    quotient is None and residue the nonzero remainder when the division
    fails.
    """

    label: str
    divisor: int
    dividend: int
    quotient: Optional[int]
    residue: Optional[int]

    @property
    def ok(self) -> bool:
        return self.quotient is not None


def make_witness(label: str, divisor, dividend) -> Witness:
    """The Witness of ``divisor | dividend``, each an integral int, Fraction
    or ``Rat``. A value that is not integral is a ValueError, one of any
    other type a TypeError, and a zero divisor a ZeroDivisionError."""
    divisor = _to_int(divisor)
    dividend = _to_int(dividend)
    if divisor == 0:
        raise ZeroDivisionError(f"witness {label!r} with zero divisor")
    q, r = divmod(dividend, divisor)
    if r == 0:
        return Witness(label, divisor, dividend, q, None)
    return Witness(label, divisor, dividend, None, r)


def _to_int(x) -> int:
    if type(x) is int:
        return x
    q, r = divmod(*_exact(x))
    if r:
        raise ValueError(f"expected an integer value, got {canonical(x)}")
    return q


class Outcome(NamedTuple):
    """What an entry's evaluate function returns for one point.

    ``sides`` is ``()`` or one raw value per declared side, in order: an
    int, Fraction, kernel ``Rat``, QuadExt or polynomial coefficient tuple,
    or None where the side is absent. A group is absent as a whole, else it
    fails, naming its absent side; another non-empty width is an error
    instance. ``witnesses`` holds a (divisor, dividend) pair per declared
    witness label, each an integral int, Fraction or ``Rat``, absent where
    None or past the tuple's end. Nothing absent is compared, checked or
    reported, so ``Outcome()`` is a point with no side and no witness, and
    passes.

    Any (sides, witnesses) pair is the same value; the catalog's evaluate
    functions return plain pairs, since building the named tuple takes
    about a tenth of a cheap point's time.
    """

    sides: tuple = ()
    witnesses: tuple = ()


@dataclass(frozen=True)
class Guard:
    """Domain predicate; only checked when all `needs` parameters are bound."""

    text: str
    needs: tuple
    holds: Callable


@dataclass(frozen=True)
class Axis:
    """One sweep dimension: a tuple of names bound jointly from value rows."""

    names: tuple
    values: tuple


def axis(name: str, values) -> Axis:
    return Axis((name,), tuple((v,) for v in values))


def joint(names, rows) -> Axis:
    return Axis(tuple(names), tuple(tuple(r) for r in rows))


def irange(lo: int, hi: int) -> list:
    return list(range(lo, hi + 1))


@dataclass(frozen=True)
class Entry:
    """One catalog statement and how to check it at a point.

    ``sides`` declares each side once, as a ``Slot`` (label, group,
    reading), and ``witnesses`` a label per divisibility witness.
    ``evaluate(ctx, bindings)`` returns an ``Outcome``: the raw side values
    and (divisor, dividend) pairs in that order, None where a slot is absent
    at the point. Labels, groups and readings never travel with the values:
    the engine reads them from the declaration when it reports a point.
    The default grid binds every parameter, so ``params`` is read from it,
    ``kind`` from whether it declares witnesses, and ``variants`` from the
    readings its slots name. A grid swapped
    in with ``dataclasses.replace`` redefines the parameters, and one that
    leaves a name out drops it: sweep a subset through overrides instead.
    """

    id: str
    statement: str                 # ASCII rendering of what is asserted
    domain: str
    guards: tuple
    evaluate: Callable             # (Context, bindings) -> Outcome
    grid: tuple                    # default Axis tuple, binding every parameter
    sides: tuple = ()              # a Slot per side, in Outcome order
    witnesses: tuple = ()          # a label per witness, in Outcome order
    required: Optional[tuple] = None   # params that must be bound; None = all
    notes: tuple = ()

    @property
    def params(self) -> tuple:
        """The default grid's axis names, in order."""
        return tuple(name for ax in self.grid for name in ax.names)

    @property
    def kind(self) -> str:
        return "divisibility" if self.witnesses else "identity"

    @property
    def variants(self) -> tuple:
        """The readings the slots name, else the one reading ``as-stated``."""
        return READINGS if any(s.variant for s in self.sides) else ("as-stated",)

    @property
    def flagged(self) -> bool:
        return len(self.variants) > 1

    @property
    def primary_variant(self) -> str:
        """The reading the verdict is computed against: the last."""
        return self.variants[-1]

    @property
    def required_params(self) -> tuple:
        return self.params if self.required is None else self.required


@dataclass
class Evaluation:
    """One entry at one binding: sides, witnesses, per-variant verdicts."""

    entry_id: str
    bindings: dict
    sides: list
    witnesses: list
    variant_ok: dict
    ok: bool
    first_diff: Optional[tuple]    # (label, label) of first unequal pair


@dataclass
class SweepReport:
    entry: Entry
    axes: list
    checked: int
    rejected: int
    variant_verified: dict         # variant -> count of fully-ok instances
    failures: list                 # Evaluations failing the primary reading
    rows: Optional[list] = None    # the row function's value per checked point

    @property
    def verified(self) -> bool:
        """Some instance checked and none failed; flagged entries must also
        single out one verifying reading."""
        if self.failures or not self.checked:
            return False
        if self.entry.flagged:
            full = sum(1 for v in self.entry.variants
                       if self.variant_verified[v] == self.checked)
            return full == 1
        return True


# ---------------------------------------------------------------------------
# evaluation context: shared recurrence tables and cached roots
# ---------------------------------------------------------------------------

class Context:
    """Caches what a sweep reads again and again, for the Context's life.

    One cache with one key rule: ``memo(build, *args)`` returns
    ``build(ctx, *args)``, built once per ``(build, *args)``, so two
    builders never share a value. ``table`` (and ``fib``, ``luc``, ``u``,
    ``v``) keeps one sequence table per (a, b, p, q); sweeps iterate (p, q)
    on the outermost axes, so every inner binding reuses the same few
    tables. ``roots`` and ``root_pow`` keep the characteristic roots of each
    (p, q), rational ones as ``Rat``, and (tau^e, sigma^e) per (p, q, e).
    Entries pass their own builders for any other value built from a few
    integer parameters and read at many points, such as a sub-sum that no
    seed or shift changes.

    The cache grows with the distinct keys the sweeps touch and dies with
    the Context. A forked shard inherits what the parent filled before the
    fork and fills its own copy from there.
    """

    __slots__ = ("_memo",)

    def __init__(self):
        self._memo = {}

    def memo(self, build: Callable, *args):
        """``build(self, *args)``, built once per ``(build, *args)``."""
        key = (build,) + args
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build(self, *args)
            return value

    def table(self, a, b, p, q) -> SeqTable:
        return self.memo(_table, a, b, p, q)

    def fib(self) -> SeqTable:
        return self.memo(_table, 0, 1, 1, -1)

    def luc(self) -> SeqTable:
        return self.memo(_table, 2, 1, 1, -1)

    def u(self, p: int, q: int) -> SeqTable:
        return self.memo(_table, 0, 1, p, q)

    def v(self, p: int, q: int) -> SeqTable:
        return self.memo(_table, 2, p, p, q)

    def roots(self, p: int, q: int) -> CharRoots:
        return self.memo(_roots, p, q)

    def root_pow(self, p: int, q: int, e: int):
        """(tau^e, sigma^e): root-level sweeps reuse few exponents."""
        return self.memo(_root_pow, p, q, e)


def _table(ctx, a, b, p, q) -> SeqTable:
    return SeqTable(a, b, p, q)


def _roots(ctx, p, q) -> CharRoots:
    # rational roots as Rats: their per-point arithmetic takes no gcd
    roots = make_roots(p, q)
    return CharRoots(*map(Rat, roots)) if roots.is_rational else roots


def _root_pow(ctx, p, q, e):
    tau, sigma, _ = ctx.roots(p, q)
    return tau ** e, sigma ** e


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

class _Plan:
    """An entry's declared sides and witnesses, laid out for the verdict.

    Per reading, ``pairs`` pairs each of its sides with the first side of
    its group, groups in order of first appearance. Exact equality is
    transitive, so a group agrees exactly when every member equals its
    first, and the first unequal pair is the first one in all-pairs order:
    the first group that disagrees, its first member and the earliest
    member unequal to it. An absent side is None, equal to None alone, so
    a group absent as a whole agrees and one absent in part does not.
    """

    __slots__ = ("entry", "width", "variants", "pairs", "all_held")

    def __init__(self, entry: Entry):
        self.entry = entry
        self.width = len(entry.sides)
        self.variants = entry.variants
        self.pairs = []
        for v in self.variants:
            groups = {}
            for k, s in enumerate(entry.sides):
                if s.variant in (None, v):
                    groups.setdefault(s.group, []).append(k)
            self.pairs.append(tuple((g[0], k) for g in groups.values() for k in g[1:]))
        self.all_held = tuple(range(len(self.variants)))


def _judge(plan: _Plan, sides: tuple, witnesses: tuple,
           built: Optional[list] = None) -> tuple:
    """(indices of the readings that hold, the primary reading's first
    difference or None) at one point, from its raw values.

    Each present witness is read as integers and checked by one division;
    a value that is not an integer, or a zero divisor, raises. That
    division is a remainder alone, or, when ``built`` is a list, the one
    ``make_witness`` takes, and the Witness is appended to ``built`` for
    the report. Sides are compared as returned: ``Rat`` and ``QuadExt``
    equality cross-multiplies, so no side is reduced to be compared. Every
    point walks the precomputed pairs; a non-empty ``sides`` of another
    width than the declaration raises. The primary reading is the last.
    """
    bad = None
    for k, w in enumerate(witnesses):
        if w is not None:
            if built is not None:
                built.append(make_witness(plan.entry.witnesses[k], *w))
                if bad is None and not built[-1].ok:
                    bad = k
                continue
            d, n = w
            if type(d) is not int:
                d = _to_int(d)
            if type(n) is not int:
                n = _to_int(n)
            if not d:
                raise ZeroDivisionError(
                    f"witness {plan.entry.witnesses[k]!r} with zero divisor")
            if bad is None and n % d:
                bad = k
    diffs = None
    if len(sides) == plan.width:
        for v, pairs in enumerate(plan.pairs):
            for i, j in pairs:
                if sides[i] != sides[j]:
                    if diffs is None:
                        diffs = [None] * len(plan.pairs)
                    diffs[v] = i, j
                    break
    elif sides:
        raise ValueError(f"{len(sides)} side values for {plan.width} declared sides")
    if bad is None and diffs is None:
        return plan.all_held, None
    held = () if bad is not None else tuple(v for v, d in enumerate(diffs) if d is None)
    diff = diffs[-1] if diffs is not None else None
    if diff is not None:
        slots = plan.entry.sides
        return held, (slots[diff[0]].label, slots[diff[1]].label)
    if bad is not None:
        return held, (plan.entry.witnesses[bad], "remainder != 0")
    return held, None


def _evaluation(plan: _Plan, bindings: dict, sides: tuple, witnesses: list,
                held: tuple, diff: Optional[tuple]) -> Evaluation:
    """The reported form of a judged point: a Side per present side slot,
    in declaration order, and the Witnesses ``_judge`` built."""
    entry = plan.entry
    return Evaluation(
        entry.id, dict(bindings),
        [Side(s.label, canonical(x), s.group, s.variant)
         for s, x in zip(entry.sides, sides) if x is not None],
        witnesses, {v: k in held for k, v in enumerate(plan.variants)},
        diff is None, diff)


# ---------------------------------------------------------------------------
# public evaluation API
# ---------------------------------------------------------------------------

def _check_bindings(entry: Entry, bindings: dict):
    unknown = sorted(set(bindings) - set(entry.params))
    if unknown:
        raise UsageError(f"{entry.id}: unknown parameter(s) {', '.join(unknown)}")
    missing = [p for p in entry.required_params if p not in bindings]
    if missing:
        raise UsageError(f"{entry.id}: missing parameter(s) {', '.join(missing)}")


def _check_exact(entry: Entry, bindings):
    """Refuse a (name, value) binding whose value is not an int, Fraction,
    Rat or QuadExt: a float would run the entry in floats. A parameter whose
    default-grid values are all ints takes only ints (not ``True``): an
    integral Fraction there reaches index and parity code that reads ints."""
    ints = None
    for name, x in bindings:
        if type(x) is int:
            continue
        if type(x) is not QuadExt and _nd(x) is None:
            raise UsageError(f"{entry.id}: parameter {name} takes exact values "
                             f"(int, Fraction, Rat or QuadExt), not {x!r}")
        if ints is None:
            ints = {name for ax in entry.grid for k, name in enumerate(ax.names)
                    if all(type(row[k]) is int for row in ax.values)}
        if name in ints:
            raise UsageError(f"{entry.id}: parameter {name} takes integers, "
                             f"not {x!r}")


def evaluate_entry(entry: Entry, bindings: dict, ctx: Optional[Context] = None) -> Evaluation:
    """Evaluate one instance; domain violations raise RejectedInstance."""
    ctx = ctx if ctx is not None else Context()
    _check_bindings(entry, bindings)
    _check_exact(entry, bindings.items())
    for g in entry.guards:
        if all(name in bindings for name in g.needs) and not g.holds(ctx, bindings):
            raise RejectedInstance(entry.id, g.text, bindings)
    plan, built = _Plan(entry), []
    sides, witnesses = entry.evaluate(ctx, bindings)
    held, diff = _judge(plan, sides, witnesses, built)
    return _evaluation(plan, bindings, sides, built, held, diff)


def resolve_axes(entry: Entry, overrides: Optional[dict]) -> list:
    """Default grid, or, when any explicit ranges are given, exactly those.

    Explicit mode binds only the parameters the caller named (entries that
    declare optional parameters may then run a subset of their checks); the
    entry's required parameters must all be covered. A value that is not
    exact is a UsageError naming its parameter.
    """
    if not overrides:
        axes = list(entry.grid)
    else:
        _check_bindings(entry, overrides)
        axes = [axis(p, overrides[p]) for p in entry.params if p in overrides]
    _check_exact(entry, (pair for ax in axes for row in ax.values
                         for pair in zip(ax.names, row)))
    return axes


def _guard_levels(entry: Entry, axes: list, floor: int = 0) -> list:
    """Guards by the number of axes bound when each is checked.

    A guard's level is the deepest axis among its ``needs`` and those of
    every guard declared before it, so declaration order is kept; no level
    is shallower than ``floor``, the level a sharded walk starts at. Guards
    needing a parameter the grid does not bind are skipped.
    """
    depth = {name: i + 1 for i, ax in enumerate(axes) for name in ax.names}
    levels = [[] for _ in range(len(axes) + 1)]
    level = floor
    for g in entry.guards:
        if all(name in depth for name in g.needs):
            level = max([level, *(depth[name] for name in g.needs)])
            levels[level].append(g)
    return levels


class _Sweep:
    """State of one sweep, shared by every level of ``_walk``."""

    __slots__ = ("plan", "evaluate", "ctx", "row", "rows", "guards",
                 "below", "bindings", "checked", "rejected", "verified",
                 "failures", "made")

    def __init__(self, entry, ctx, row, axes):
        self.plan = _Plan(entry)
        self.evaluate = entry.evaluate
        self.ctx = ctx
        self.row = row
        self.rows = [[dict(zip(ax.names, row)) for row in ax.values] for ax in axes]
        self.guards = None      # by level, once the split level is known
        sizes = [len(ax.values) for ax in axes]
        self.below = [math.prod(sizes[level:]) for level in range(len(axes) + 1)]
        self.bindings = {}
        self.checked = self.rejected = 0
        self.verified = [0] * len(self.plan.variants)     # points each reading held at
        self.failures = []
        self.made = []          # the row function's values, when it is given


def _walk(sw: _Sweep, level: int):
    """Check the guards of ``level``, then visit each row of the next axis.

    The last axis is walked in this call's own loop: each row runs the leaf
    guards in declaration order, a failing one rejecting that point alone,
    and a point that passes them is evaluated here. A grid with no axis, or
    a prefix that binds every axis, is the one-row case. A module-level
    function, not a self-calling closure: a closure cycle would keep each
    sweep's Context alive until the cyclic garbage collector runs.
    """
    b, ctx = sw.bindings, sw.ctx
    for g in sw.guards[level]:
        if not g.holds(ctx, b):
            sw.rejected += sw.below[level]
            return
    if level < len(sw.rows) - 1:
        for row in sw.rows[level]:
            b.update(row)
            _walk(sw, level + 1)
        return
    if level < len(sw.rows):
        rows, leaf = sw.rows[level], sw.guards[level + 1]
    else:
        rows, leaf = ({},), ()
    plan, evaluate, row_fn, verified = sw.plan, sw.evaluate, sw.row, sw.verified
    for row in rows:
        b.update(row)
        for g in leaf:
            if not g.holds(ctx, b):
                sw.rejected += 1
                break
        else:
            # a point given to the row function has its witnesses built by
            # the division that checks them
            built = None if row_fn is None else []
            try:
                sides, witnesses = evaluate(ctx, b)
                held, diff = _judge(plan, sides, witnesses, built)
            except (MemoryError, RecursionError):   # a resource limit, not a finding
                raise
            except Exception as exc:  # one broken instance must not hide the rest
                sides, held, built = (), (), []
                diff = ("error", f"{type(exc).__name__}: {exc}")
            sw.checked += 1
            for v in held:
                verified[v] += 1
            if diff is not None or row_fn is not None:
                if built is None:       # a failure without a row: build its witnesses
                    built = []
                    _judge(plan, sides, witnesses, built)
                ev = _evaluation(plan, b, sides, built, held, diff)
                if diff is not None:
                    sw.failures.append(ev)
                if row_fn is not None:
                    sw.made.append(row_fn(ev))


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _share_count() -> int:
    """Processes a sweep may spread over: 1 unless it may fork. A process
    running other threads must not fork."""
    if hasattr(os, "fork") and threading.active_count() == 1:
        return _cpu_count()
    return 1


def _prefixes(sw: _Sweep, want: int) -> tuple:
    """Bind whole shallow levels until there are at least ``want`` prefixes.

    Returns ``(level, prefixes)``: every binding of the first ``level`` axes,
    in grid order. No guard runs here; the walk of each prefix checks the
    guards of those levels (see ``_guard_levels``).
    """
    level, prefixes = 0, [{}]
    while len(prefixes) < want and level < len(sw.rows):
        prefixes = [{**b, **row} for b in prefixes for row in sw.rows[level]]
        level += 1
    return level, prefixes


def _run_share(sw: _Sweep, level: int, prefixes: list, share) -> tuple:
    """Walk the prefixes of one share from ``level`` down, from zeroed counts.

    Returns ``(checked, rejected, variant_verified, parts, error)`` for these
    prefixes alone, where ``parts`` holds ``(prefix index, failures, row
    values)`` for each prefix that found either below it, and ``error`` is
    ``(prefix index, exception)`` for a guard or row function that raised or
    a resource limit reached, which ends the share, else None.
    """
    sw.checked = sw.rejected = 0
    sw.verified = [0] * len(sw.verified)
    parts = []
    error = None
    for i in share:
        sw.bindings = dict(prefixes[i])
        sw.failures, sw.made = [], []
        try:
            _walk(sw, level)
        except Exception as exc:
            error = i, exc
            break
        if sw.failures or sw.made:
            parts.append((i, sw.failures, sw.made))
    verified = dict(zip(sw.plan.variants, sw.verified))
    return sw.checked, sw.rejected, verified, parts, error


def _child(sw: _Sweep, level: int, prefixes: list, share, r: int, w: int):
    """Run one share in a forked child, pickle its result to ``w``, exit.

    Leaves only through ``os._exit``, so no handler or buffer inherited from
    the parent runs twice. A child that cannot report exits non-zero with
    nothing written, which the parent treats as a lost shard. It prints the
    traceback of what stopped it, unless that is a KeyboardInterrupt: a
    terminal's Ctrl-C reaches the whole process group, and the parent
    reports its own.
    """
    status = 1
    try:
        import pickle
        os.close(r)
        result = _run_share(sw, level, prefixes, share)
        if result[4] is not None:
            i, exc = result[4]
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            result = (*result[:4], (i, exc))
        with os.fdopen(w, "wb") as f:
            pickle.dump(result, f, pickle.HIGHEST_PROTOCOL)
        status = 0
    except KeyboardInterrupt:
        pass
    except BaseException:   # report it here: unwinding would reach the parent's frames
        import traceback
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def _receive(fd: int) -> tuple:
    """A child's share result, unpickled from its pipe as it arrives. The
    caller closes ``fd``."""
    import pickle
    try:
        with open(fd, "rb", closefd=False) as f:
            return pickle.load(f)
    except Exception:
        raise RuntimeError("a sweep shard ended without reporting its result") from None


def _run_shares(sw: _Sweep, level: int, prefixes: list, workers: int,
                start: int = 0) -> list:
    """Deal the prefixes from index ``start`` on round-robin to shares and
    walk every share.

    The parent walks share 0 itself; each further share runs in a forked
    child that sends back its ``_run_share`` result over a pipe. Every child
    is reaped before this returns or raises, and killed first if the parent
    gives up on it.
    """
    shares = [range(k, len(prefixes), workers)
              for k in range(start, min(start + workers, len(prefixes)))]
    pids, reads = [], []
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(sw, level, prefixes, share, r, w)
            finally:
                os.close(w)
            pids.append(pid)
        results = [_run_share(sw, level, prefixes, shares[0])]
        results += [_receive(r) for r in reads]
    except BaseException:
        import signal
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for r in reads:
            os.close(r)
        for pid in pids:
            os.waitpid(pid, 0)
    return results


def _run_gated(sw: _Sweep, level: int, prefixes: list, workers: int) -> list:
    """Run a sweep's prefixes: the one driver of every sweep.

    A grid of SHARD_MIN_POINTS or more goes to ``_run_shares`` at once.
    Otherwise the prefixes are walked in order in this process; before
    prefix i the time since this call began per prefix walked, times the
    prefixes left, estimates the time the rest would take here, and once
    that reaches SHARD_MIN_SECONDS the prefixes left go to ``_run_shares``.
    With one worker ``_run_shares`` forks nothing. Returns share results
    as ``_run_shares`` does, one per prefix walked alone first.
    """
    if sw.below[0] >= SHARD_MIN_POINTS:
        return _run_shares(sw, level, prefixes, workers)
    started = _clock()
    results = []
    for i in range(len(prefixes)):
        if ((_clock() - started) * (len(prefixes) - i)
                >= SHARD_MIN_SECONDS * max(i, 1)):
            return results + _run_shares(sw, level, prefixes, workers, i)
        results.append(_run_share(sw, level, prefixes, (i,)))
        if results[-1][4] is not None:
            break
    return results


def sweep(entry: Entry, overrides: Optional[dict] = None,
          ctx: Optional[Context] = None,
          row: Optional[Callable] = None) -> SweepReport:
    """Evaluate the entry over a grid; collect all primary-reading failures.

    The grid is walked axis by axis in declaration order. Each guard runs
    once per row of the level where it and all earlier-declared guards are
    bound, in declaration order, and a violated guard counts its whole
    subtree as rejected. An instance whose evaluate function raises, or
    whose witnesses cannot be read (a value that is not an integer, a zero
    divisor), is a checked failure with first difference
    ``("error", "<Type>: <message>")`` and no sides or witnesses; guard
    exceptions propagate, and so do MemoryError and RecursionError, which
    are resource limits and not findings.

    Where the process may use several CPUs, the grid is split into binding
    prefixes of its shallow axes, dealt over those CPUs and walked in forked
    children: at once for a grid of SHARD_MIN_POINTS or more, otherwise
    once the prefixes the parent walked first show that the rest would take
    SHARD_MIN_SECONDS or more. The guards of the shallow axes then run once
    per prefix, as its walk starts. The merge restores grid order, so the
    report equals the one-process walk, which is the one-share case (the
    single prefix ``{}``). Of several guard exceptions the first in grid
    order is raised, a resource limit reached in a share counting as one.

    ``row`` (if given) is called with the Evaluation of every checked point,
    in the process that walks the point, and the report's ``rows`` holds
    what it returned, in grid order: a witness table is built where its
    points are, and a sharded sweep's row values travel back pickled, so
    they must pickle. A row function that raises ends the sweep as a guard
    exception does. Without it, ``rows`` is None and Evaluations are built
    only for failures.
    """
    axes = resolve_axes(entry, overrides)
    sw = _Sweep(entry, ctx if ctx is not None else Context(), row, axes)
    checked = rejected = 0
    verified = dict.fromkeys(entry.variants, 0)
    parts = []
    if sw.below[0]:     # an empty axis leaves no point, so no guard may run
        workers = _share_count()
        # four prefixes a share even out the work the shares get
        level, prefixes = _prefixes(sw, 4 * workers if workers > 1 else 1)
        sw.guards = _guard_levels(entry, axes, level)
        errors = []
        for c, r, vv, share_parts, share_error in _run_gated(
                sw, level, prefixes, workers):
            checked += c
            rejected += r
            for v, n in vv.items():
                verified[v] += n
            parts += share_parts
            if share_error is not None:
                errors.append(share_error)
        if errors:
            raise min(errors, key=lambda e: e[0])[1]
        parts.sort(key=lambda part: part[0])
    return SweepReport(entry, axes, checked, rejected, verified,
                       [f for _, failures, _ in parts for f in failures],
                       None if row is None else [v for _, _, made in parts for v in made])
