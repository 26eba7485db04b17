"""Catalog machinery: entries, guarded exact evaluation, grid sweeps.

An Entry bundles one catalog statement with its parameter names, domain
guards, a default sweep grid, and an evaluate function returning the exact
value of every stated side plus any divisibility witnesses. Where a printed
formula admits two readings, the entry carries both as named variants and
the verdict is computed against the reading its proof implies; sweep
reports tally every variant so exactly one should verify in full.

A sweep walks its grid one axis level at a time, binding each axis into one
bindings dict that keeps axis order. Each guard is checked once per row of
the shallowest level at which it and every guard declared before it are
bound, so guards still run in declaration order and each only after the
earlier ones held; a failing guard rejects its whole subtree at once. This
relies on a guard reading nothing but its ``needs``. A point that passes
only bumps counters: an Evaluation is built for a primary-reading failure
or when the caller streams results. An exception raised by an entry's
evaluate function is recorded as a failing instance, not propagated.

A sweep that streams no results is sharded when the process runs one
thread, can fork and may use more than one CPU: the parent binds whole
shallow axes into binding prefixes, deals them round-robin over the CPUs in
the process's affinity mask, walks one share itself and forks a child per
other share. The guards of the bound axes move down to the split level, so
each prefix checks them once as its walk starts. The children pickle their
counts and failures back, and the parent merges them in prefix order. One
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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from ..scalars import CharRoots, Rat, make_roots
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


class _Canonical:
    """``Side.value``: kept as given in ``raw``, read back canonically."""

    def __get__(self, side, owner=None):
        if side is None:
            raise AttributeError("value")   # a required field, no default
        value = side.raw
        return value.canonical() if type(value) is Rat else value

    def __set__(self, side, value):
        side.__dict__["raw"] = value


@dataclass(frozen=True)
class Side:
    """One exactly evaluated expression. Sides sharing a group must agree.

    value reads as an int, Fraction, QuadExt or polynomial coefficient
    tuple. A side keeps the value it was given, unreduced, in ``raw``, and
    the verdict compares those; a kernel ``Rat`` is reduced to a Fraction
    only when ``value`` is read, so a passing point takes no gcd for it.
    variant None means the side is common to every reading of the entry;
    otherwise it belongs to the named reading only.
    """

    label: str
    value: object = _Canonical()
    group: str = "eq"
    variant: Optional[str] = None


@dataclass(frozen=True)
class Witness:
    """Exact divisibility certificate: divisor * quotient == dividend."""

    label: str
    divisor: int
    dividend: int
    quotient: Optional[int]
    residue: Optional[int]

    @property
    def ok(self) -> bool:
        return self.quotient is not None


def make_witness(label: str, divisor, dividend) -> Witness:
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
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ValueError(f"expected an integer value, got {x}")
        return x.numerator
    raise TypeError(f"expected an int or integral Fraction, got {type(x).__name__}")


@dataclass
class Outcome:
    """Raw product of an entry's evaluate function."""

    sides: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)


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
    id: str
    kind: str                      # "identity" | "divisibility"
    statement: str                 # ASCII rendering of what is asserted
    params: tuple
    domain: str
    guards: tuple
    evaluate: Callable             # (Context, bindings) -> Outcome
    grid: tuple                    # default Axis tuple covering params
    required: Optional[tuple] = None   # params that must be bound; None = all
    variants: tuple = ("as-stated",)
    primary: Optional[str] = None      # reading the verdict is computed against
    notes: tuple = ()

    @property
    def flagged(self) -> bool:
        return len(self.variants) > 1

    @property
    def primary_variant(self) -> str:
        return self.primary if self.primary is not None else self.variants[0]

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
    """Caches per-parameter sequence tables across a sweep.

    Sweeps iterate (p, q) on the outermost axes, so every inner binding
    reuses the same few tables; memory stays bounded by the index ranges
    the formulas actually touch.
    """

    __slots__ = ("_tables", "_roots", "_root_pows")

    def __init__(self):
        self._tables = {}
        self._roots = {}
        self._root_pows = {}

    def table(self, a, b, p, q) -> SeqTable:
        key = (a, b, p, q)
        t = self._tables.get(key)
        if t is None:
            t = self._tables[key] = SeqTable(a, b, p, q)
        return t

    def fib(self) -> SeqTable:
        return self.table(0, 1, 1, -1)

    def luc(self) -> SeqTable:
        return self.table(2, 1, 1, -1)

    def u(self, p: int, q: int) -> SeqTable:
        return self.table(0, 1, p, q)

    def v(self, p: int, q: int) -> SeqTable:
        return self.table(2, p, p, q)

    def roots(self, p: int, q: int) -> CharRoots:
        key = (p, q)
        r = self._roots.get(key)
        if r is None:
            r = self._roots[key] = make_roots(p, q)
        return r

    def root_pow(self, p: int, q: int, e: int):
        """(tau^e, sigma^e), memoized: root-level sweeps reuse few exponents."""
        key = (p, q, e)
        pair = self._root_pows.get(key)
        if pair is None:
            tau, sigma, _ = self.roots(p, q)
            pair = self._root_pows[key] = (tau ** e, sigma ** e)
        return pair


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def _sides_agree(sides, variant: str) -> Optional[tuple]:
    """First unequal (label, label) pair for the given reading, else None.

    Compares the stored values: ``Rat`` and ``QuadExt`` equality
    cross-multiplies, so no side is reduced to be compared.
    """
    groups = {}
    for s in sides:
        if s.variant is None or s.variant == variant:
            groups.setdefault(s.group, []).append(s)
    for members in groups.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if members[i].raw != members[j].raw:
                    return members[i].label, members[j].label
    return None


def _verdicts(entry: Entry, out: Outcome) -> tuple:
    """(variant -> ok, first difference of the primary reading or None)."""
    bad = None
    for w in out.witnesses:
        if not w.ok:
            bad = w
            break
    primary = entry.primary_variant
    variant_ok = {}
    primary_diff = None
    for v in entry.variants:
        diff = _sides_agree(out.sides, v)
        variant_ok[v] = diff is None and bad is None
        if v == primary:
            primary_diff = diff
    if primary_diff is None and bad is not None:
        primary_diff = (bad.label, "remainder != 0")
    return variant_ok, primary_diff


def _first_violated_guard(entry: Entry, ctx: Context, b: dict) -> Optional[str]:
    for g in entry.guards:
        if all(name in b for name in g.needs) and not g.holds(ctx, b):
            return g.text
    return None


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


def evaluate_entry(entry: Entry, bindings: dict, ctx: Optional[Context] = None) -> Evaluation:
    """Evaluate one instance; domain violations raise RejectedInstance."""
    ctx = ctx if ctx is not None else Context()
    _check_bindings(entry, bindings)
    violated = _first_violated_guard(entry, ctx, bindings)
    if violated is not None:
        raise RejectedInstance(entry.id, violated, bindings)
    out = entry.evaluate(ctx, bindings)
    variant_ok, diff = _verdicts(entry, out)
    return Evaluation(entry.id, dict(bindings), out.sides, out.witnesses,
                      variant_ok, variant_ok[entry.primary_variant], diff)


def resolve_axes(entry: Entry, overrides: Optional[dict]) -> list:
    """Default grid, or, when any explicit ranges are given, exactly those.

    Explicit mode binds only the parameters the caller named (entries that
    declare optional parameters may then run a subset of their checks); the
    entry's required parameters must all be covered.
    """
    if not overrides:
        return list(entry.grid)
    _check_bindings(entry, overrides)
    return [axis(p, overrides[p]) for p in entry.params if p in overrides]


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

    __slots__ = ("entry", "primary", "ctx", "on_result", "rows", "guards",
                 "below", "bindings", "checked", "rejected",
                 "variant_verified", "failures")

    def __init__(self, entry, ctx, on_result, axes):
        self.entry = entry
        self.primary = entry.primary_variant
        self.ctx = ctx
        self.on_result = on_result
        self.rows = [[dict(zip(ax.names, row)) for row in ax.values] for ax in axes]
        self.guards = None      # by level, once the split level is known
        sizes = [len(ax.values) for ax in axes]
        self.below = [math.prod(sizes[level:]) for level in range(len(axes) + 1)]
        self.bindings = {}
        self.checked = self.rejected = 0
        self.variant_verified = {v: 0 for v in entry.variants}
        self.failures = []


def _walk(sw: _Sweep, level: int):
    """Check the guards of ``level``, then visit each row of the next axis.

    At the last level the bound point is evaluated. A module-level function,
    not a self-calling closure: a closure cycle would keep each sweep's
    Context alive until the cyclic garbage collector runs.
    """
    b = sw.bindings
    for g in sw.guards[level]:
        if not g.holds(sw.ctx, b):
            sw.rejected += sw.below[level]
            return
    if level < len(sw.rows):
        for row in sw.rows[level]:
            b.update(row)
            _walk(sw, level + 1)
        return
    entry = sw.entry
    try:
        out = entry.evaluate(sw.ctx, b)
    except Exception as exc:  # one broken instance must not hide the rest
        out = Outcome()
        variant_ok = dict.fromkeys(entry.variants, False)
        diff = ("error", f"{type(exc).__name__}: {exc}")
    else:
        variant_ok, diff = _verdicts(entry, out)
    sw.checked += 1
    for v, ok in variant_ok.items():
        if ok:
            sw.variant_verified[v] += 1
    ok = variant_ok[sw.primary]
    if not ok or sw.on_result is not None:
        ev = Evaluation(entry.id, dict(b), out.sides, out.witnesses,
                        variant_ok, ok, diff)
        if not ok:
            sw.failures.append(ev)
        if sw.on_result is not None:
            sw.on_result(ev)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _share_count(sw: _Sweep) -> int:
    """Processes a sweep may spread over: 1 unless it may fork.

    A streamed sweep stays in-process (its caller sees every result in grid
    order), and so does a process running other threads, which must not
    fork.
    """
    if (sw.on_result is None and hasattr(os, "fork")
            and threading.active_count() == 1):
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
    prefixes alone, where ``parts`` pairs each prefix index with the failures
    found below it and ``error`` is ``(prefix index, exception)`` for a guard
    that raised, which ends the share, else None.
    """
    sw.checked = sw.rejected = 0
    sw.variant_verified = dict.fromkeys(sw.variant_verified, 0)
    parts = []
    for i in share:
        sw.bindings = dict(prefixes[i])
        sw.failures = []
        try:
            _walk(sw, level)
        except Exception as exc:
            return sw.checked, sw.rejected, sw.variant_verified, parts, (i, exc)
        if sw.failures:
            parts.append((i, sw.failures))
    return sw.checked, sw.rejected, sw.variant_verified, parts, None


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
            f.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
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
    """A child's share result, read from its pipe until the child closes it."""
    import pickle
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    try:
        return pickle.loads(b"".join(chunks))
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
          on_result: Optional[Callable] = None) -> SweepReport:
    """Evaluate the entry over a grid; collect all primary-reading failures.

    The grid is walked axis by axis in declaration order. Each guard runs
    once per row of the level where it and all earlier-declared guards are
    bound, in declaration order, and a violated guard counts its whole
    subtree as rejected. An instance whose evaluate function raises is a
    checked failure with first difference ``("error", "<Type>: <message>")``
    and no sides or witnesses; guard exceptions propagate.

    Where the process may use several CPUs, the grid is split into binding
    prefixes of its shallow axes, dealt over those CPUs and walked in forked
    children: at once for a grid of SHARD_MIN_POINTS or more, otherwise
    once the prefixes the parent walked first show that the rest would take
    SHARD_MIN_SECONDS or more. The guards of the shallow axes then run once
    per prefix, as its walk starts. The merge restores grid order, so the
    report equals the one-process walk, which is the one-share case (the
    single prefix ``{}``). Of several guard exceptions the first in grid
    order is raised.

    ``on_result`` (if given) receives every checked Evaluation in grid order,
    letting callers stream per-instance rows (witness tables) without the
    sweep retaining them all; such a sweep runs in one process. Without it,
    Evaluations are built only for failures.
    """
    axes = resolve_axes(entry, overrides)
    sw = _Sweep(entry, ctx if ctx is not None else Context(), on_result, axes)
    checked = rejected = 0
    verified = dict.fromkeys(entry.variants, 0)
    parts = []
    if sw.below[0]:     # an empty axis leaves no point, so no guard may run
        workers = _share_count(sw)
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
                       [f for _, failures in parts for f in failures])
