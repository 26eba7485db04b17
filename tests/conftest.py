"""Shared fixtures: independent naive oracles used across test modules, and
the one set of ``verify --all`` sweeps that several modules read."""

import contextlib
import io
import sys
from fractions import Fraction

import pytest

from fibsums import cli
from fibsums.cli import main
from fibsums.identities import sweep


def run_main(argv):
    """``fibsums.cli.main(argv)`` in process: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="session")
def run_pinned():
    """``run_main``, except that ``verify --all``, in any format, renders
    one set of sweeps, taken once per session through ``cli.main``."""
    reports = {}

    def swept_once(entry, overrides, ctx):
        if entry.id not in reports:
            reports[entry.id] = sweep(entry, overrides, ctx)
        return reports[entry.id]

    def run(argv):
        if argv[:2] != ["verify", "--all"]:
            return run_main(argv)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "sweep", swept_once)
            return run_main(argv)

    return run


@pytest.fixture(scope="session")
def verify_all(run_pinned):
    """(exit code, stdout) of ``fibsums verify --all``, swept once per session."""
    return run_pinned(["verify", "--all"])


@pytest.fixture(scope="session")
def naive_horadam():
    """Plain-loop reference for w_n = p*w_{n-1} - q*w_{n-2}, exact Fractions.

    Deliberately the dumbest possible implementation (one recurrence step
    per index, no doubling, no matrices) so it is an independent oracle for
    the fast paths in fibsums.sequences.
    """

    def _naive(a, b, p, q, n):
        lo, hi = Fraction(a), Fraction(b)          # (w_0, w_1)
        if n >= 0:
            if n == 0:
                return lo
            for _ in range(n - 1):
                lo, hi = hi, p * hi - q * lo
            return hi
        for _ in range(-n):                        # w_{k-1} = (p*w_k - w_{k+1}) / q
            lo, hi = (p * lo - hi) / q, lo
        return lo

    return _naive


@pytest.fixture
def default_int_str_limit():
    """Run a test under CPython's default 4,300-digit int->str limit.

    Yields ``exact_str(n)``: ``str(n)`` taken with the limit lifted for that
    one call, after which the limit in force before the call holds again,
    so a test may lower it. The limit the process had before the test is
    restored afterwards. Interpreters without the limit run the test
    unchanged.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield str
        return

    def exact_str(n):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(n)
        finally:
            sys.set_int_max_str_digits(limit)

    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield exact_str
    finally:
        sys.set_int_max_str_digits(previous)
