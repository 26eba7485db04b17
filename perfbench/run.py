"""fibsums benchmark: exact sweeps, divisibility witness tables, big terms.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each was chosen):

    verify-horadam  LEM2-LEM6 and H01-H11 on one shared Context, one p row
                    and two q rows per pass, inner axes whole; JSON and CSV
                    summaries rendered.
    verify-classic  I01-I18, P01-P06 and D01-D22, a quarter of each entry's
                    outer-axis rows per pass; summaries rendered.
    big-index       in-process ``fibsums div`` (JSON and CSV) on D01, D06 and
                    D20 with index ranges in the thousands, plus 200 fib,
                    lucas, pell and horadam_w terms at |n| in 10^3..10^5.

One caller runs passes back to back (a closed loop, no threads). Each pass
draws fresh inputs from a stream seeded by ``--seed`` and every output is
checked after its pass, outside the timed phase. ``--trace 0`` runs passes
for ``--seconds`` and reports the end-to-end metrics; ``--trace 1`` runs
untraced passes for a third of that, then profiles the first pass's inputs
again under cProfile and reports the per-layer metrics. The last stdout
line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import dataclasses
import hashlib
import io
import itertools
import json
import marshal
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

try:
    import fibsums
    from fibsums import cli
    from fibsums.identities import (ENTRIES, Axis, Context, Outcome,
                                    get_entry, sweep)
    from fibsums.reports import document, sweep_payload, to_json, verify_csv
    from fibsums.sequences import HoradamParams, fib, horadam_w, lucas, pell
except ImportError as exc:
    sys.exit(f"perfbench: cannot import fibsums from {SRC}: {exc}")
if not os.path.abspath(fibsums.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: fibsums resolved to {fibsums.__file__}, not {SRC}")

import checks  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("verify-horadam", "verify-classic", "big-index")
SETUP_RUNS = 7
CLASSIC_ROW_SHARE = 0.25
TERMS_PER_PASS = 200
TERM_PERCENTILE = 95       # 200 terms per pass leave 10 samples above p95
# Rendered integers must stay below CPython's 4,300-digit int->str limit:
# past it render_scalar raises ValueError (a known defect, see README.md).
DIGIT_BUDGET = 3500
TINY_POINTS = 2000         # tiny runs (the smoke test) drop larger sub-grids
# A shared host's speed drifts by +-25% within seconds, and more passes do
# not average that out (README.md, "Calibration"). Each timing is scaled by
# REF_SECONDS over the mean time of a fixed loop sampled about every TICK_S
# while it ran: the seconds it would take where that loop takes REF_SECONDS.
REF_SECONDS = 0.03
TICK_S = 0.25


def grid_points(grid) -> int:
    return math.prod(len(ax.values) for ax in grid)


@dataclasses.dataclass
class Pass:
    """One pass: timings, the rendered outputs and what the checks found."""

    wall: float = 0.0            # timed phase: sweeps or div runs, terms, rendering
    busy: float = 0.0            # inside sweep / div calls
    points: int = 0              # grid points, checked plus rejected
    checked: int = 0
    ops: int = 0
    spans: dict = dataclasses.field(default_factory=dict)   # id -> [s, points]
    term_us: list = dataclasses.field(default_factory=list)
    outputs: list = dataclasses.field(default_factory=list)    # rendered reports
    term_hex: list = dataclasses.field(default_factory=list)
    problems: list = dataclasses.field(default_factory=list)
    sha: str = ""
    scale: float = 1.0           # machine-speed scale, see Calibrator

    def span(self, eid: str, seconds: float, points: int):
        s = self.spans.setdefault(eid, [0.0, 0])
        s[0] += seconds
        s[1] += points
        self.busy += seconds
        self.points += points

    def digest(self) -> str:
        return hashlib.sha256("\0".join(self.outputs + self.term_hex).encode()).hexdigest()


def _noop(ctx, bindings):
    return Outcome()


def reference_s() -> float:
    """Time of a fixed stdlib-only loop that shares no code with fibsums:
    small-Fraction and integer interpreter work, like the sweeps."""
    t = time.perf_counter()
    x = Fraction(1)
    for i in range(1, 2000):
        x = x * Fraction(i + 1, i) + Fraction(1, i * i)
        x = Fraction(x.numerator % 10 ** 12, x.denominator % 10 ** 12 + 1)
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return time.perf_counter() - t


_BIG = 3 ** 6500                                   # 3,102 digits
_RENDER_DOC = [{"divisor": str(7 ** 1500 + k), "dividend": str(_BIG + k), "quotient": None}
               for k in range(150)]


def render_reference_s() -> float:
    """Like reference_s, for big-index's mix: indented json.dumps, int->str of
    3,000-digit integers and big-int products (README.md, "Calibration")."""
    t = time.perf_counter()
    json.dumps(_RENDER_DOC, indent=2)
    for k in range(30):
        str(_BIG + k)
    x = 7 ** 25000
    for _ in range(10):
        x * (x + 1)
    return time.perf_counter() - t


class Calibrator:
    """Samples the machine's speed around and during timed work.

    ``sample`` times the reference loop now. ``tick``, called between a
    pass's operations, does so when TICK_S has gone by since the last
    sample; ``paused`` totals those in-pass samples, which the pass takes
    off its wall time. ``scale`` turns a time measured meanwhile into
    seconds on a machine where the loop takes REF_SECONDS.
    """

    def __init__(self, reference=reference_s, ticking: bool = True):
        self.reference = reference
        self.ticking = ticking
        self.samples = []
        self.paused = 0.0
        self._last = time.perf_counter()

    def sample(self):
        self.samples.append(self.reference())
        self._last = time.perf_counter()

    def tick(self):
        if self.ticking and time.perf_counter() - self._last >= TICK_S:
            t = time.perf_counter()
            self.sample()
            self.paused += time.perf_counter() - t

    @property
    def scale(self) -> float:
        return REF_SECONDS / statistics.fmean(self.samples)


def calibrated(reference, fn, *args):
    """``(fn(*args), scale)`` with the loop sampled just before and after."""
    cal = Calibrator(reference, ticking=False)
    cal.sample()
    out = fn(*args)
    cal.sample()
    return out, cal.scale


def calibrated_pass(run_pass, reference, inputs, prof=None) -> Pass:
    """One pass with its speed scale; no in-pass samples while profiling."""
    cal = Calibrator(reference, ticking=prof is None)
    cal.sample()
    rec = run_pass(inputs, cal, prof)
    cal.sample()
    rec.scale = cal.scale
    return rec


# ---------------------------------------------------------------------------
# verify-horadam / verify-classic
# ---------------------------------------------------------------------------

def horadam_inputs(seed: int, tiny: bool):
    """Per pass: one p row and two q rows of the shared (p, q) outer axes.

    The four repeated-root pairs p^2 = 4q are left out. There every
    root-form entry rejects all points and H10's two readings agree, so a
    pass holding one runs a third faster and a sub-grid of only such pairs
    cannot single out a reading.
    """
    entries = [e for e in ENTRIES if e.id.startswith(("LEM", "H"))]
    p_rows, q_rows = entries[0].grid[0].values, entries[0].grid[1].values
    rng = random.Random(seed)
    while True:
        p = rng.choice(p_rows)
        qs = set(rng.sample([q for q in q_rows if p[0] ** 2 != 4 * q[0]], 2))
        jobs = []
        for e in entries:
            ax_p, ax_q, *inner = e.grid
            grid = (Axis(ax_p.names, (p,)),
                    Axis(ax_q.names, tuple(r for r in ax_q.values if r in qs)),
                    *inner)
            if not tiny or grid_points(grid) <= TINY_POINTS:
                jobs.append((e, grid))
        yield jobs


def classic_inputs(seed: int, tiny: bool):
    """Per pass: a seeded quarter (at least two) of each entry's outer rows."""
    entries = [e for e in ENTRIES if e.id[0] in "IPD"]
    rng = random.Random(seed)
    while True:
        jobs = []
        for e in entries:
            outer, *inner = e.grid
            k = max(2, round(CLASSIC_ROW_SHARE * len(outer.values)))
            rows = sorted(rng.sample(range(len(outer.values)), k))
            grid = (Axis(outer.names, tuple(outer.values[i] for i in rows)), *inner)
            if not tiny or grid_points(grid) <= TINY_POINTS:
                jobs.append((e, grid))
        yield jobs


def verify_pass(jobs, cal, prof=None) -> Pass:
    """Sweep and render under ``prof`` (if given), then check the outputs."""
    rec = Pass(ops=len(jobs) + 1)
    ctx = Context()
    reports = []
    with prof or contextlib.nullcontext():
        t0 = time.perf_counter()
        for entry, grid in jobs:
            t = time.perf_counter()
            try:
                rep = sweep(dataclasses.replace(entry, grid=grid), None, ctx)
            except Exception as exc:  # a failed operation, counted and reported
                rec.problems.append((entry.id, f"sweep raised {exc!r}"))
                continue
            rec.span(entry.id, time.perf_counter() - t, grid_points(grid))
            rec.checked += rep.checked
            reports.append(rep)
            cal.tick()
        try:
            rec.outputs = [to_json(document("verify", [sweep_payload(r) for r in reports])),
                           verify_csv(reports)]
        except Exception as exc:
            rec.problems.append(("render", f"rendering raised {exc!r}"))
        rec.wall = time.perf_counter() - t0 - cal.paused
    if rec.outputs:
        expected = {e.id: (grid_points(g), e.flagged) for e, g in jobs}
        rec.problems += checks.check_verify(*rec.outputs, expected)
    return rec


def verify_noop_us(jobs) -> float:
    ctx = Context()
    t = time.perf_counter()
    for entry, grid in jobs:
        sweep(dataclasses.replace(entry, grid=grid, evaluate=_noop), None, ctx)
    return (time.perf_counter() - t) / sum(grid_points(g) for _, g in jobs) * 1e6


# ---------------------------------------------------------------------------
# big-index
# ---------------------------------------------------------------------------

PHI_DIGITS = math.log10((1 + math.sqrt(5)) / 2)      # digits per Fibonacci index
D20_PQ = ((2, -1), (3, -1), (3, 1), (3, 2), (4, 3))    # larger root 2 to 3.3


def _root_digits(p: int, q: int) -> float:
    """log10 of the larger root of x^2 - p x + q (real roots only here)."""
    return math.log10((abs(p) + math.sqrt(p * p - 4 * q)) / 2)


def _window(rng, top: int, width: int) -> tuple:
    """A seeded run of ``width`` indices in the top tenth below ``top``."""
    lo = rng.randint(top * 9 // 10 - width, top - width + 1)
    return lo, lo + width - 1


def big_index_inputs(seed: int, tiny: bool):
    """Per pass: three div runs sized to the digit budget, and 200 terms.

    D01 sweeps F_r | F_(mr) for m = 1..3, D06 5 | 2^(n+1) L_(n+1) - 2, and
    D20 u_r | u_(r(n+1)) for r = 1..3 on a (p, q) with larger root 2 to 3.3,
    taking the pairs in turn from a seeded start: their tables differ in
    length, so every run of five passes holds each once. Each window ends in the top tenth of the indices whose values fit
    the digit budget, so every pass renders numbers of about the same size
    and holds about the same memory.

    Terms: 50 per family, alternating in sign, with log10|n| stratified over
    3..5 (one seeded draw per stratum), so every pass has the same spread of
    sizes. Below zero pell and horadam_w multiply exact Fraction matrices,
    which is scalar-kernel work, so there |n| stops at 10^4 and Horadam terms
    take |q| = 1: this workload stays a control for scalar-kernel changes.
    Tiny runs use |n| = 10^3.
    """
    rng = random.Random(seed)
    widths = (4, 4, 4) if tiny else (300, 300, 200)
    digits = DIGIT_BUDGET // 20 if tiny else DIGIT_BUDGET
    first = rng.randrange(len(D20_PQ))
    for i in itertools.count(first):
        p, q = D20_PQ[i % len(D20_PQ)]
        d01 = _window(rng, int(digits / (3 * PHI_DIGITS)), widths[0])
        d06 = _window(rng, int(digits / (PHI_DIGITS + math.log10(2))) - 1, widths[1])
        d20 = _window(rng, int(digits / (3 * _root_digits(p, q))) - 1, widths[2])
        jobs = [("D01", {"r": d01, "m": (1, 3)}),
                ("D06", {"n": d06}),
                ("D20", {"p": (p, p), "q": (q, q), "r": (1, 3), "n": d20})]
        terms = []
        count = 8 if tiny else TERMS_PER_PASS
        for i in range(count):
            family = ("fib", "lucas", "pell", "horadam")[i % 4]
            k = i // 4                       # stratum of log|n| within the family
            sign = 1 if k % 2 == 0 else -1
            top = 3 if tiny else 4 if sign < 0 and family in ("pell", "horadam") else 5
            n = sign * round(10 ** (3 + (top - 3) * (k + rng.random()) * 4 / count))
            if family == "horadam":
                a, b = rng.choice(((0, 1), (2, 1), (2, 3), (-1, 2)))
                hp = rng.choice((1, 2, 3))
                hq = rng.choice((-1, 1)) if n < 0 else rng.choice((-3, -2, -1, 1, 2, 3))
                params = (a, b, hp, hq)
            else:
                params = {"fib": (0, 1, 1, -1), "lucas": (2, 1, 1, -1),
                          "pell": (0, 1, 2, -1)}[family]
            terms.append((family, params, n))
        yield jobs, terms


def _term(family: str, params: tuple, n: int):
    if family == "fib":
        return fib(n)
    if family == "lucas":
        return lucas(n)
    if family == "pell":
        return pell(n)
    return horadam_w(HoradamParams(*params), n)


def range_points(ranges: dict) -> int:
    """Grid points of inclusive ``{param: (lo, hi)}`` ranges."""
    return math.prod(hi - lo + 1 for lo, hi in ranges.values())


def _div_argv(eid: str, ranges: dict) -> list:
    return ["div", eid, *(f"--{k}={lo}..{hi}" for k, (lo, hi) in ranges.items())]


def _term_text(value) -> str:
    """Hex text of a term, for byte comparison past the decimal digit limit."""
    if isinstance(value, int):
        return format(value, "x")
    return f"{value.numerator:x}/{value.denominator:x}"


def big_index_pass(inputs, cal, prof=None) -> Pass:
    """Run div and terms under ``prof`` (if given), then check the outputs."""
    jobs, terms = inputs
    rec = Pass(ops=2 * len(jobs) + len(terms))
    texts = {}
    values = []
    with prof or contextlib.nullcontext():
        t0 = time.perf_counter()
        for eid, ranges in jobs:
            points = range_points(ranges)
            for fmt in ("json", "csv"):
                out, err = io.StringIO(), io.StringIO()
                t = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = cli.main(_div_argv(eid, ranges) + ["--format", fmt])
                except Exception as exc:
                    rec.problems.append((f"{eid} {fmt}", f"div raised {exc!r}"))
                    continue
                rec.span(eid, time.perf_counter() - t, points)
                if rc != 0:
                    rec.problems.append((f"{eid} {fmt}", f"exit {rc}: {err.getvalue()[:200]}"))
                texts[eid, fmt] = out.getvalue()
                cal.tick()
        for family, params, n in terms:
            t = time.perf_counter()
            try:
                values.append(_term(family, params, n))
            except Exception as exc:
                values.append(None)
                rec.problems.append((f"term {family}({params}, {n})", f"raised {exc!r}"))
            rec.term_us.append((time.perf_counter() - t) * 1e6)
            cal.tick()
        rec.wall = time.perf_counter() - t0 - cal.paused
    rec.outputs = list(texts.values())
    rec.term_hex = [_term_text(v) for v in values if v is not None]
    for eid, ranges in jobs:
        if (eid, "json") in texts and (eid, "csv") in texts:
            points = range_points(ranges)
            rec.problems += checks.check_div(eid, texts[eid, "json"], texts[eid, "csv"],
                                             get_entry(eid).params, points)
            rep = json.loads(texts[eid, "json"])["reports"][0]
            rec.checked += 2 * (rep["pass"] + rep["failure_count"])
    rec.problems += checks.check_terms(terms, values)
    return rec


def big_index_noop_us(inputs) -> float:
    jobs, _ = inputs
    points = 0
    t = time.perf_counter()
    for eid, ranges in jobs:
        entry = dataclasses.replace(get_entry(eid), evaluate=_noop)
        sweep(entry, {k: list(range(lo, hi + 1)) for k, (lo, hi) in ranges.items()}, Context())
        points += range_points(ranges)
    return (time.perf_counter() - t) / points * 1e6


KINDS = {
    "verify-horadam": (horadam_inputs, verify_pass, verify_noop_us, reference_s),
    "verify-classic": (classic_inputs, verify_pass, verify_noop_us, reference_s),
    "big-index": (big_index_inputs, big_index_pass, big_index_noop_us, render_reference_s),
}


# ---------------------------------------------------------------------------
# set-up: a fresh interpreter imports fibsums.cli and runs `fibsums catalog`
# (the catalog is built at import, the argument parser by main)
# ---------------------------------------------------------------------------

SETUP_CODE = r"""
import contextlib, io, json, marshal, sys, time
src, profile = sys.argv[1], sys.argv[2] == "1"
if profile:
    import cProfile
    prof = cProfile.Profile()
    prof.enable()
t0 = time.perf_counter()
sys.path.insert(0, src)
import fibsums.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = fibsums.cli.main(["catalog"])
seconds = time.perf_counter() - t0
if profile:
    prof.disable()
    prof.create_stats()
print(json.dumps({"seconds": seconds, "rc": rc, "lines": len(out.getvalue().splitlines())}))
if profile:
    print(marshal.dumps(prof.stats).hex())
"""


def run_setup(profile: bool):
    """(seconds, problem or None, profile stats or None) of one fresh set-up."""
    proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, SRC, "1" if profile else "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        return None, f"set-up exited {proc.returncode}: {proc.stderr[-300:]}", None
    lines = proc.stdout.splitlines()
    res = json.loads(lines[0])
    problem = None
    if res["rc"] != 0 or res["lines"] != len(ENTRIES):
        problem = f"catalog exited {res['rc']} with {res['lines']} lines"
    stats = marshal.loads(bytes.fromhex(lines[1])) if profile else None
    return res["seconds"], problem, stats


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Tally:
    """Attempted and failed operations; a failed one is listed on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ops: int, problems: list):
        bad = sorted({op for op, _ in problems})
        self.attempted += ops
        self.failed += len(bad)
        for op, msg in problems:
            print(f"FAILED {op}: {msg}", file=sys.stderr)


def run_passes(run_pass, reference, inputs, seconds: float, tally: Tally) -> list:
    """Passes back to back until ``seconds`` have gone by (at least one)."""
    passes = []
    end = time.perf_counter() + seconds
    for inp in inputs:
        rec = calibrated_pass(run_pass, reference, inp)
        tally.add(rec.ops, rec.problems)
        rec.sha = rec.digest()
        rec.outputs, rec.term_hex = [], []    # keep one pass's texts in memory
        passes.append(rec)
        if time.perf_counter() >= end:
            return passes
    return passes


def end_to_end(passes: list, setup_s: list, tally: Tally) -> dict:
    return {
        "wall_s": (statistics.median(p.wall * p.scale for p in passes), "s"),
        "points_per_s": (statistics.median(p.points / (p.busy * p.scale) if p.busy else 0.0
                                           for p in passes), "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }


def per_layer(passes: list, traced: Pass, att, setup_att, noop_us: float) -> dict:
    m = {}
    for layer in layers.LAYERS:
        m[f"{layer}.self_s"] = (att.self_s[layer], "s")
        m[f"{layer}.self_share"] = (att.share(layer), "ratio")
    m["cli.self_s"] = (att.self_s["cli"] + setup_att.self_s["cli"], "s")
    scalars = "scalars"
    m["scalars.fraction_new.calls"] = (att.calls(scalars, {"__new__"}, "fractions.py"), "count")
    m["scalars.gcd.calls"] = (att.builtin_calls("<built-in method math.gcd>"), "count")
    m["scalars.quadext_new.calls"] = (att.calls(scalars, {"__init__"}, "scalars.py"), "count")
    m["scalars.quadext_op.calls"] = (att.calls(
        scalars, {"__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
                  "__rtruediv__", "__neg__", "__pow__"}, "scalars.py"), "count")
    m["sequences.table_call.calls"] = (att.calls("sequences", {"__call__"}), "count")
    m["sequences.table_new.calls"] = (att.calls("sequences", {"__init__"}), "count")
    terms = sorted(t * p.scale for p in passes for t in p.term_us)
    m["sequences.term_us.p50"] = (statistics.median(terms) if terms else 0.0, "us")
    m[f"sequences.term_us.p{TERM_PERCENTILE}"] = (
        terms[math.ceil(TERM_PERCENTILE / 100 * len(terms)) - 1] if terms else 0.0, "us")
    m["sequences.term_us.samples"] = (len(terms), "count")
    m["polynomials.poly_mul.calls"] = (att.calls("polynomials", {"poly_mul"}), "count")
    m["identities.engine_noop_us_per_point"] = (noop_us, "us")
    for e in ENTRIES:
        s, n = [0.0, 0]
        for p in passes:
            s += p.spans.get(e.id, (0.0, 0))[0] * p.scale
            n += p.spans.get(e.id, (0.0, 0))[1]
        m[f"identities.us_per_point.{e.id}"] = (s / n * 1e6 if n else 0.0, "us")
    m["identities.checked_ratio"] = (sum(p.checked for p in passes)
                                     / sum(p.points for p in passes), "ratio")
    for name, fn, miss in (("table", "table", ("sequences.py", "__init__")),
                           ("root_pow", "root_pow", ("engine.py", "roots"))):
        attempts = att.calls("identities.engine", {fn}, "engine.py")
        misses = att.edge_calls(miss, ("engine.py", fn))
        m[f"identities.context.{name}_hit_ratio"] = (
            1 - misses / attempts if attempts else 0.0, "ratio")
    render_s = att.inclusive_s("reports")
    size = sum(len(o.encode()) for o in traced.outputs)
    m["reports.render_s"] = (render_s, "s")
    m["reports.bytes"] = (size, "bytes")
    m["reports.mb_per_s"] = (size / 1e6 / render_s if render_s else 0.0, "MB/s")
    m["trace.overhead_ratio"] = (traced.wall * traced.scale
                                 / (passes[0].wall * passes[0].scale), "ratio")
    return m


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              tiny: bool = False) -> dict:
    make_inputs, run_pass, noop, reference = KINDS[workload]
    tally = Tally()
    if not trace:
        setup_s = []
        for _ in range(SETUP_RUNS):
            (s, problem, _), scale = calibrated(reference_s, run_setup, False)
            tally.add(1, [("set-up", problem)] if problem else [])
            if s is not None:
                setup_s.append(s * scale)
        passes = run_passes(run_pass, reference, make_inputs(seed, tiny), seconds, tally)
        metrics = end_to_end(passes, setup_s, tally)
        return {"metrics": metrics, "tally": tally, "passes": passes}

    first = next(make_inputs(seed, tiny))
    passes = run_passes(run_pass, reference, make_inputs(seed, tiny), seconds / 3, tally)
    noop_us, noop_scale = calibrated(reference, noop, first)
    prof = cProfile.Profile()
    traced = calibrated_pass(run_pass, reference, first, prof)
    prof.create_stats()
    problems = list(traced.problems)
    if traced.digest() != passes[0].sha:
        problems.append(("traced output", "bytes differ from the untraced run"))
    tally.add(traced.ops + 1, problems)
    _, problem, setup_stats = run_setup(True)
    tally.add(1, [("set-up", problem)] if problem else [])
    att = layers.Attribution(prof.stats, SRC)
    setup_att = layers.Attribution(setup_stats or {}, SRC)
    metrics = per_layer(passes, traced, att, setup_att, noop_us * noop_scale)
    return {"metrics": metrics, "tally": tally, "passes": passes}


def _commit() -> str:
    """Commit of the checkout from .git, or "unknown" outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            return next((line.split()[0] for line in f
                         if line.rstrip().endswith(" " + ref)), "unknown")
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    stamp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "python": platform.python_version(),
             "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
             "commit": _commit()}
    print("stamp " + json.dumps(stamp))
    res = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    tally = res["tally"]
    passes = res["passes"]
    print(f"passes {len(passes)}  attempted {tally.attempted}  failed {tally.failed}  "
          f"unscaled wall median {statistics.median(p.wall for p in passes):.4f} s  "
          f"speed scale median {statistics.median(p.scale for p in passes):.4f}")
    for name, (value, unit) in res["metrics"].items():
        print(f"{name:<40} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
