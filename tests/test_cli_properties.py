"""Every command line the CLI grammar can form ends in a defined way.

Argument lists are drawn from the grammar of ``fibsums``: known and unknown
catalog ids, parameter ranges inside, at and past ``MAX_RANGE_BOUND`` and
``MAX_RANGE_POINTS``, output formats, and ``seq`` families with missing and
extra flags and indices at and past ``MAX_SEQ_INDEX``. Each runs in its own
interpreter, one at a time, under a 400 MB address-space limit and a
timeout, and must exit 0, 1 or 2 without a traceback; an exit of 1 (a sweep
that does not verify) must come with a complete report on stdout, and an
exit of 2 (a usage error) with none.

An accepted grid stays at a few hundred points: a known id always comes
with ranges, each of one to three values, and at most one range reaches
the bound. Two requests would run for minutes by design and are drawn only
where the command refuses them first: ``verify --all`` (it comes with an
id or with ranges) and a grid of exactly ``MAX_RANGE_POINTS`` points (it
comes with an unknown id or parameter, or a command that takes no ranges).
"""

import csv
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fibsums
from fibsums import cli
from fibsums.identities import ENTRIES

resource = pytest.importorskip("resource")

BOUND, POINTS, INDEX = cli.MAX_RANGE_BOUND, cli.MAX_RANGE_POINTS, cli.MAX_SEQ_INDEX
BY_ID = {e.id: e for e in ENTRIES}
D_IDS = [i for i, e in BY_ID.items() if e.kind == "divisibility"]
UNKNOWN_IDS = ["I00", "D23", "i01", "LEM7", "X"]
FORMATS = [None, None, "json", "csv", "xml"]
SRC = os.path.dirname(os.path.dirname(fibsums.__file__))
TIMEOUT_S = 60


def _range(name, lo, hi):
    return f"--{name}={lo}" if lo == hi else f"--{name}={lo}..{hi}"


@st.composite
def small_range(draw):
    lo = draw(st.integers(-3, 3))
    return lo, lo + draw(st.integers(0, 2))


#: ranges that reach the bound, at it (accepted) or one past it (refused)
EDGE_RANGES = [(BOUND, BOUND), (BOUND - 1, BOUND), (-BOUND, -BOUND),
               (BOUND + 1, BOUND + 1), (-BOUND - 1, -BOUND + 1),
               (0, BOUND + 1), (10 ** 30, 10 ** 30)]


@st.composite
def ranges(draw, params):
    """Range flags for ``params``: small, with one at an edge, or spanning
    past MAX_RANGE_POINTS; a parameter may be left out or an unknown one
    added."""
    names = list(params)
    kind = draw(st.sampled_from(["small", "small", "edge", "edge", "points"]))
    if kind == "points":
        # 101 * 9901 = MAX_RANGE_POINTS + 1; (2 * BOUND + 1)^2 far past it
        a, b = draw(st.sampled_from([(101, 9901), (2 * BOUND + 1, 2 * BOUND + 1)]))
        first, second = (names + ["zz", "yy"])[:2]
        return [_range(first, -(a // 2), a - 1 - a // 2),
                _range(second, -(b // 2), b - 1 - b // 2)]
    bounds = {name: draw(small_range()) for name in names}
    if kind == "edge":
        bounds[draw(st.sampled_from(names))] = draw(st.sampled_from(EDGE_RANGES))
    if names and draw(st.integers(0, 5)) == 0:
        del bounds[draw(st.sampled_from(names))]
    if draw(st.integers(0, 5)) == 0:
        bounds["zz"] = (0, 0)
    return [_range(name, lo, hi) for name, (lo, hi) in bounds.items()]


#: a grid of exactly MAX_RANGE_POINTS points, 1,000 values of each of two names
AT_POINTS = [_range("zz", -500, 499), _range("yy", -500, 499)]


@st.composite
def sweep_argv(draw, command):
    ids = list(BY_ID) if command == "verify" else D_IDS
    target = draw(st.sampled_from(["known", "known", "known", "other", "unknown",
                                   "none", "all"]))
    if target in ("known", "other"):
        # "other": a verify-only id given to div, or a D id given to verify
        pool = ids if target == "known" else [i for i in BY_ID if i not in ids] or ids
        entry_id = draw(st.sampled_from(pool))
        argv = [command, entry_id, *draw(ranges(BY_ID[entry_id].params))]
    elif target == "unknown":
        argv = [command, draw(st.sampled_from(UNKNOWN_IDS)),
                *draw(st.sampled_from([[], ["--n=0..2"], AT_POINTS]))]
    elif target == "none":
        argv = [command, *draw(st.sampled_from([[], ["--n=0..2"]]))]
    else:
        # --all sweeps the whole catalog; drawn with what makes it a usage error
        argv = [command, "--all", *draw(st.sampled_from(
            [["I01"], ["--n=0..2"], ["D01", "--n=0"]]))]
    fmt = draw(st.sampled_from(FORMATS))
    return argv + (["--format", fmt] if fmt else [])


SEQ_FAMILIES = sorted(cli._SEQ_FAMILIES) + ["tribonacci"]
SEQ_INDICES = [0, 1, -1, 30, -30, INDEX, -INDEX, INDEX + 1, -INDEX - 1, 10 ** 30]


@st.composite
def seq_argv(draw):
    argv = ["seq", draw(st.sampled_from(SEQ_FAMILIES))]
    for flag in ("a", "b", "p", "q"):
        if draw(st.booleans()):
            argv += [f"-{flag}", str(draw(st.integers(-2, 2)))]
    if draw(st.integers(0, 7)):
        argv += ["-n", str(draw(st.sampled_from(SEQ_INDICES)))]
    if draw(st.integers(0, 7)) == 0:
        argv += draw(st.sampled_from([["--n=0"], AT_POINTS]))
    return argv


@st.composite
def catalog_argv(draw):
    argv = ["catalog"]
    fmt = draw(st.sampled_from(FORMATS + ["text"]))
    if fmt:
        argv += ["--format", fmt]
    if draw(st.integers(0, 3)) == 0:
        argv += draw(st.sampled_from([["--n=0"], AT_POINTS]))
    return argv


ARGV = st.one_of(sweep_argv("verify"), sweep_argv("verify"), sweep_argv("div"),
                 seq_argv(), catalog_argv())


def _limit():
    resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))


def run(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    try:
        return subprocess.run([sys.executable, "-m", "fibsums.cli", *argv],
                              capture_output=True, text=True, env=env,
                              preexec_fn=_limit, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pytest.fail(f"fibsums {' '.join(argv)} ran past {TIMEOUT_S} s")


def assert_complete_report(argv, out):
    """stdout of an exit-1 sweep: the whole document or table, one report
    per swept entry, some report not verified."""
    command, entry_id = argv[0], argv[1]
    if "csv" not in argv:
        doc = json.loads(out)
        assert doc["command"] == command
        (report,) = doc["reports"]
        assert report["identity"] == entry_id and report["verified"] is False
        assert report["failure_count"] == len(report["failures"])
        # a resource limit is a usage error, never a counterexample
        assert not any(f["first_difference"][1].startswith(
            ("MemoryError", "RecursionError")) for f in report["failures"])
        if command == "div":
            assert len(report["rows"]) == report["pass"] + report["failure_count"]
        return
    assert out.endswith("\n")
    rows = list(csv.reader(io.StringIO(out)))
    if command == "verify":
        assert rows[0][0] == "identity" and len(rows) == 2
        assert rows[1][0] == entry_id and rows[1][5] == "False"
    else:
        params = list(BY_ID[entry_id].params)
        assert rows[0] == params + ["label", "divisor", "dividend", "quotient",
                                    "residue"]
        assert all(len(row) == len(rows[0]) for row in rows)


@settings(max_examples=30, derandomize=True, database=None, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(ARGV)
def test_every_command_line_ends_in_a_defined_way(argv):
    proc = run(argv)
    assert proc.returncode in (0, 1, 2), (argv, proc.returncode, proc.stderr[-2000:])
    assert "Traceback" not in proc.stderr, (argv, proc.stderr[-2000:])
    if proc.returncode == 1:
        assert_complete_report(argv, proc.stdout)
    else:
        assert (proc.stdout == "") == (proc.returncode == 2), argv
