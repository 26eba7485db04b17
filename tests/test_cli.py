"""Command-line interface: frozen outputs, exit codes, report schema."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import jsonschema
import pytest

import fibsums
from fibsums import cli
from fibsums.cli import main
from fibsums.identities import ENTRIES, SweepReport, resolve_axes
from fibsums.reports import document

DOCUMENT_SCHEMA = {
    "type": "object",
    "required": ["format", "generator", "command", "reports"],
    "additionalProperties": False,
    "properties": {
        "format": {"const": 1},
        "generator": {"type": "string", "pattern": "^fibsums "},
        "command": {"type": "string"},
        "reports": {"type": "array", "items": {
            "type": "object",
            "required": ["identity", "kind", "statement", "domain", "params",
                         "grid", "pass", "rejected", "failure_count",
                         "verified", "primary_variant", "variant_pass",
                         "notes", "failures"],
            "properties": {
                "identity": {"type": "string"},
                "kind": {"enum": ["identity", "divisibility"]},
                "statement": {"type": "string"},
                "domain": {"type": "string"},
                "params": {"type": "array", "items": {"type": "string"}},
                "grid": {"type": "array", "items": {
                    "type": "object",
                    "required": ["params", "values"],
                }},
                "pass": {"type": "integer", "minimum": 0},
                "rejected": {"type": "integer", "minimum": 0},
                "failure_count": {"type": "integer", "minimum": 0},
                "verified": {"type": "boolean"},
                "primary_variant": {"type": "string"},
                "variant_pass": {
                    "type": "object",
                    "additionalProperties": {"type": "integer"},
                },
                "notes": {"type": "array", "items": {"type": "string"}},
                "failures": {"type": "array"},
                "rows": {"type": "array", "items": {
                    "type": "object",
                    "required": ["bindings", "witnesses"],
                }},
            },
        }},
    },
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    doc = json.loads(out)
    jsonschema.validate(doc, DOCUMENT_SCHEMA)
    return code, doc, err


class TestSeq:
    @pytest.mark.parametrize("argv,expected", [
        (("seq", "fib", "-n", "10"), "55"),
        (("seq", "fib", "-n", "-4"), "-3"),
        (("seq", "lucas", "-n", "-3"), "-4"),
        (("seq", "pell", "-n", "5"), "29"),
        (("seq", "pell_lucas", "-n", "4"), "34"),
        (("seq", "horadam", "-a", "2", "-b", "3", "-p", "3", "-q", "2",
          "-n", "-2"), "5/4"),
        (("seq", "u", "-p", "3", "-q", "2", "-n", "4"), "15"),
        (("seq", "v", "-p", "3", "-q", "2", "-n", "2"), "5"),
    ])
    def test_frozen_terms(self, capsys, argv, expected):
        assert run_cli(capsys, *argv) == (0, expected + "\n", "")

    def test_missing_parameters(self, capsys):
        code, out, err = run_cli(capsys, "seq", "horadam", "-n", "3")
        assert code == 2 and out == "" and err.startswith("error:")
        code, _, err = run_cli(capsys, "seq", "u", "-p", "3", "-n", "1")
        assert code == 2 and "-q" in err

    def test_extra_parameters(self, capsys):
        code, _, err = run_cli(capsys, "seq", "fib", "-n", "3", "-p", "1")
        assert code == 2 and "does not take" in err

    def test_degenerate_recurrence(self, capsys):
        # u/v need no distinct roots: u_n(2,1) = n is well-defined
        code, out, _ = run_cli(capsys, "seq", "u", "-p", "2", "-q", "1",
                               "-n", "3")
        assert code == 0 and out.strip() == "3"
        code, _, err = run_cli(capsys, "seq", "horadam", "-a", "0", "-b", "1",
                               "-p", "0", "-q", "1", "-n", "3")
        assert code == 2 and "p != 0" in err

    def test_term_past_the_default_int_str_limit(self, capsys):
        # F_21000 has 4,389 digits; CPython's default limit is 4,300
        limited = hasattr(sys, "set_int_max_str_digits")
        if limited:
            previous = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run_cli(capsys, "seq", "fib", "-n", "21000")
        finally:
            if limited:
                sys.set_int_max_str_digits(previous)
        assert code == 0 and err == ""
        assert len(out) == 4389 + 1 and out.strip().isdigit()

    @pytest.mark.parametrize("n", [cli.MAX_SEQ_INDEX + 1, -cli.MAX_SEQ_INDEX - 1])
    @pytest.mark.parametrize("argv", [("fib",), ("horadam", "-a", "2", "-b", "3",
                                                 "-p", "3", "-q", "2")])
    def test_index_past_the_limit_is_refused_before_computing(
            self, capsys, monkeypatch, argv, n):
        def never(*args):
            raise AssertionError("the term was computed")

        for family, (needs, _) in list(cli._SEQ_FAMILIES.items()):
            monkeypatch.setitem(cli._SEQ_FAMILIES, family, (needs, never))
        code, out, err = run_cli(capsys, "seq", *argv, "-n", str(n))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(cli.MAX_SEQ_INDEX) in err

    def test_index_at_the_limit_is_computed(self, capsys):
        # F_1000000 has 208,988 digits
        code, out, err = run_cli(capsys, "seq", "fib", "-n", str(cli.MAX_SEQ_INDEX))
        assert code == 0 and err == ""
        assert len(out) == 208988 + 1 and out.startswith("19532821287077577316")

    def test_argparse_level_errors_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["seq", "tribonacci", "-n", "1"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestVerify:
    def test_single_entry_json(self, capsys):
        code, doc, err = run_json(capsys, "verify", "I07",
                                  "--r=-1..1", "--n=0..5")
        assert code == 0 and err == ""
        assert doc["command"] == "verify"
        (rep,) = doc["reports"]
        assert rep["identity"] == "I07" and rep["kind"] == "identity"
        assert rep["pass"] == 12 and rep["rejected"] == 6
        assert rep["failure_count"] == 0 and rep["verified"] is True
        assert rep["variant_pass"] == {"as-stated": 12}
        assert rep["primary_variant"] == "as-stated"
        assert rep["grid"] == [
            {"params": ["r"], "values": [["-1"], ["0"], ["1"]]},
            {"params": ["n"],
             "values": [["0"], ["1"], ["2"], ["3"], ["4"], ["5"]]},
        ]

    def test_single_point_range(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "I07", "--r=2", "--n=0")
        assert code == 0
        assert doc["reports"][0]["pass"] == 1

    def test_csv_summary(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "I07", "--format", "csv",
                               "--r=-1..1", "--n=0..5")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["identity", "kind", "pass", "rejected", "failures",
                           "verified", "primary_variant"]
        assert rows[1] == ["I07", "identity", "12", "6", "0", "True",
                           "as-stated"]

    def test_unknown_id_prints_catalog_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, "verify", "BOGUS")
        assert code == 2 and out == ""
        assert "unknown catalog id 'BOGUS'" in err
        assert "known catalog entries:" in err
        assert "I01" in err and "D22" in err

    def test_id_and_all_are_exclusive(self, capsys):
        code, _, err = run_cli(capsys, "verify", "I07", "--all")
        assert code == 2 and "not both" in err

    def test_all_refuses_ranges(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--all", "--r=1..2")
        assert code == 2 and "single identity" in err

    def test_verify_needs_a_target(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2 and "id or --all" in err

    def test_unknown_range_parameter(self, capsys):
        code, _, err = run_cli(capsys, "verify", "I07", "--z=1..2")
        assert code == 2 and "unknown parameter" in err

    def test_malformed_and_duplicate_ranges(self, capsys):
        code, _, err = run_cli(capsys, "verify", "I07", "--r=1..x")
        assert code == 2 and "unrecognized argument" in err
        code, _, err = run_cli(capsys, "verify", "I07", "--r=1..2", "--r=3")
        assert code == 2 and "duplicate range" in err

    def test_empty_range_is_a_usage_error(self, capsys):
        # lo > hi would sweep nothing and still "verify"
        code, out, err = run_cli(capsys, "verify", "I07", "--r=2..2", "--n=5..3")
        assert code == 2 and out == ""
        assert "empty range 5..3" in err and "'n'" in err
        code, out, err = run_cli(capsys, "div", "D01", "--r=3..1", "--m=1..1")
        assert code == 2 and out == "" and "'r'" in err

    def test_range_budget_is_checked_before_any_list_is_built(
            self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "irange", lambda lo, hi: built.append((lo, hi)))
        limit = cli.MAX_RANGE_POINTS
        code, out, err = run_cli(capsys, "verify", "I07", "--r=1",
                                 f"--n=1..{limit + 1}")
        assert code == 2 and out == "" and f"limit of {limit}" in err
        code, _, err = run_cli(capsys, "div", "D01", "--r=1..2",
                               f"--m=1..{limit // 2 + 1}")
        assert code == 2 and f"limit of {limit}" in err
        assert built == []
        # exactly the point limit, with every bound inside MAX_RANGE_BOUND
        side = math.isqrt(limit)
        cli._parse_ranges([f"--r=1..{side}", f"--n=1..{limit // side}"])
        assert built == [(1, side), (1, limit // side)]

    def test_range_bound_past_the_magnitude_limit_is_a_usage_error(
            self, capsys, monkeypatch):
        # one point, but SeqTable would store every term up to its index
        built = []
        monkeypatch.setattr(cli, "irange", lambda lo, hi: built.append((lo, hi)))
        limit = cli.MAX_RANGE_BOUND
        for argv in (("verify", "I07", "--r=1", f"--n={limit + 1}"),
                     ("verify", "I07", f"--r=-{limit + 1}..1", "--n=1"),
                     ("div", "D06", f"--n=1..{limit + 1}")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "", argv
            assert f"reaches {limit + 1}" in err and f"limit of {limit}" in err
        assert built == []
        # the limit itself, and the benchmark's largest bound, pass
        cli._parse_ranges([f"--r=-{limit}..{limit}"])
        cli._parse_ranges(["--n=6562..6861"])
        assert built == [(-limit, limit), (6562, 6861)]

    def test_zero_instance_sweep_exits_1(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "I07", "--r=0", "--n=1")
        assert code == 1
        (rep,) = doc["reports"]
        assert (rep["pass"], rep["rejected"], rep["failure_count"]) == (0, 1, 0)
        assert rep["verified"] is False

    def test_range_past_the_default_digit_limit_is_a_usage_error(
            self, capsys, default_int_str_limit):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no int<->str digit limit")
        code, out, err = run_cli(capsys, "verify", "I07", "--r=1",
                                 "--n=0.." + "9" * 5000)
        assert code == 2 and out == "" and "too many digits" in err

    def test_ranges_only_for_verify_and_div(self, capsys):
        code, _, err = run_cli(capsys, "catalog", "--r=1..2")
        assert code == 2 and "does not take parameter ranges" in err
        code, _, err = run_cli(capsys, "seq", "fib", "-n", "1", "--r=1..2")
        assert code == 2

    def test_failing_entry_exits_1(self, capsys, monkeypatch):
        from fibsums import identities
        from fibsums.identities import Entry, Outcome, Slot, axis

        bad = Entry(
            id="XBAD", statement="zero equals one",
            domain="n >= 0", guards=(),
            evaluate=lambda ctx, b: Outcome((0, 1)),
            grid=(axis("n", [0, 1]),), sides=(Slot("left"), Slot("right")))
        monkeypatch.setitem(identities._BY_ID, "XBAD", bad)

        code, doc, _ = run_json(capsys, "verify", "XBAD")
        assert code == 1
        (rep,) = doc["reports"]
        assert rep["verified"] is False
        assert rep["failure_count"] == 2 and rep["pass"] == 0
        failure = rep["failures"][0]
        assert failure["first_difference"] == ["left", "right"]
        assert failure["equal"] is False
        assert failure["sides"][0]["value"] == "0"

    def test_instance_error_is_a_failure_not_a_traceback(self, capsys,
                                                          monkeypatch):
        from fibsums import identities
        from fibsums.identities import Entry, Outcome, Slot, axis

        def evaluate(ctx, b):
            if b["n"] == 1:
                raise ZeroDivisionError("division by zero")
            return Outcome((1, 1))

        broken = Entry(
            id="XERR", statement="one equals one",
            domain="any n", guards=(), evaluate=evaluate,
            grid=(axis("n", [0, 1, 2]),), sides=(Slot("left"), Slot("right")))
        monkeypatch.setitem(identities._BY_ID, "XERR", broken)

        code, doc, err = run_json(capsys, "verify", "XERR")
        assert code == 1 and err == ""
        (rep,) = doc["reports"]
        assert rep["verified"] is False
        assert (rep["pass"], rep["failure_count"]) == (2, 1)
        (failure,) = rep["failures"]
        assert failure["bindings"] == {"n": "1"}
        assert failure["first_difference"] == [
            "error", "ZeroDivisionError: division by zero"]
        assert failure["sides"] == [] and failure["witnesses"] == []
        assert failure["variant_equal"] == {"as-stated": False}

    def test_exhausted_memory_is_a_usage_error_not_a_counterexample(self):
        # I07 at r = n = 1500 reads F_(r(n+1)), index 2,251,500: its table
        # does not fit in 400 MB of address space
        resource = pytest.importorskip("resource")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

        proc = subprocess.run(
            [sys.executable, "-m", "fibsums.cli", "verify", "I07",
             "--r=1500..1500", "--n=1500..1500"],
            capture_output=True, text=True, preexec_fn=limit, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("error: I07: the sweep ran out of memory; "
                               "try narrower parameter ranges\n")


class TestDiv:
    def test_fully_rejected_grid_exits_1(self, capsys):
        # no instance was checked, so nothing was verified
        code, doc, _ = run_json(capsys, "div", "D01", "--r=0..0", "--m=1..1")
        assert code == 1
        (rep,) = doc["reports"]
        assert rep["pass"] == 0 and rep["rejected"] == 1
        assert rep["verified"] is False and rep["rows"] == []

    def test_witness_rows_json(self, capsys):
        code, doc, _ = run_json(capsys, "div", "D01", "--r=3..3", "--m=3..3")
        assert code == 0
        (rep,) = doc["reports"]
        assert rep["rows"] == [{
            "bindings": {"r": "3", "m": "3"},
            "witnesses": [{"label": "F_r | F_(mr)", "divisor": "2",
                           "dividend": "34", "quotient": "17",
                           "residue": None}],
        }]

    def test_witness_rows_csv(self, capsys):
        code, out, _ = run_cli(capsys, "div", "D01", "--format", "csv",
                               "--r=3..3", "--m=2..3")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["r", "m", "label", "divisor", "dividend",
                           "quotient", "residue"]
        assert rows[1] == ["3", "2", "F_r | F_(mr)", "2", "8", "4", ""]
        assert rows[2] == ["3", "3", "F_r | F_(mr)", "2", "34", "17", ""]

    def test_ranges_binding_no_witness_are_a_usage_error(self, capsys):
        # p, q and r alone bind none of D21's witnesses: a sweep would check
        # nothing and still verify
        for command in ("verify", "div"):
            code, out, err = run_cli(capsys, command, "D21", "--p=1..1",
                                     "--q=-1..-1", "--r=1..2", "--format", "csv")
            assert (code, out) == (2, ""), command
            assert "D21: missing parameter(s) n" in err

    def test_identity_entries_are_refused(self, capsys):
        code, _, err = run_cli(capsys, "div", "I07")
        assert code == 2 and "not a divisibility entry" in err

    def test_unknown_id(self, capsys):
        code, _, err = run_cli(capsys, "div", "NOPE")
        assert code == 2 and "known catalog entries:" in err

    def test_failing_witness_exits_1(self, capsys, monkeypatch):
        from fibsums import identities
        from fibsums.identities import Entry, Outcome, axis

        bad = Entry(
            id="XDIV", statement="three divides ten",
            domain="n >= 0", guards=(),
            evaluate=lambda ctx, b: Outcome(witnesses=((3, 10),)),
            grid=(axis("n", [0]),), witnesses=("3 | 10",))
        monkeypatch.setitem(identities._BY_ID, "XDIV", bad)

        code, doc, _ = run_json(capsys, "div", "XDIV")
        assert code == 1
        (rep,) = doc["reports"]
        assert rep["verified"] is False
        witness = rep["rows"][0]["witnesses"][0]
        assert witness["quotient"] is None and witness["residue"] == "1"


class TestRangeFlags:
    """Every catalog parameter can be given as a range flag.

    argparse would read a prefix of a long option as that option (--a as
    --all), so the sweep is replaced by one that records what it is given.
    """

    CASES = [("verify", e) for e in ENTRIES] + [
        ("div", e) for e in ENTRIES if e.kind == "divisibility"]

    @pytest.mark.parametrize("command,entry", CASES,
                             ids=[f"{c}-{e.id}" for c, e in CASES])
    def test_every_parameter_reaches_the_sweep(self, capsys, monkeypatch,
                                               command, entry):
        calls = []

        def recorded(entry, overrides=None, ctx=None, on_result=None):
            calls.append((entry.id, overrides))
            variants = {v: int(v == entry.primary_variant) for v in entry.variants}
            return SweepReport(entry, resolve_axes(entry, overrides), 1, 0,
                               variants, [])

        monkeypatch.setattr(cli, "sweep", recorded)
        flags = [f"--{name}={i}..{i + 1}" for i, name in enumerate(entry.params)]
        code, _, err = run_cli(capsys, command, entry.id, *flags)
        assert code == 0 and err == ""
        assert calls == [(entry.id, {name: [i, i + 1]
                                     for i, name in enumerate(entry.params)})]

    def test_seed_a_is_not_read_as_all(self, capsys):
        code, doc, err = run_json(capsys, "verify", "H06", "--p=1..1", "--q=-1..-1",
                                  "--a=0..0", "--b=1..1", "--r=1..1", "--t=0..0",
                                  "--n=0..2")
        assert code == 0 and err == ""
        (rep,) = doc["reports"]
        assert rep["pass"] == 3 and rep["verified"] is True

    @pytest.mark.parametrize("argv", [
        ("verify", "H01", "--p=1", "--q=-1", "--b=1", "--r=1", "--t=0", "--n=0..2"),
        ("verify", "I07", "--r=1", "--n=0", "--z=1"),
        ("div", "D01", "--r=3", "--m=3", "--z=1"),
    ], ids=["verify-missing", "verify-unknown", "div-unknown"])
    def test_parameter_errors_do_not_list_the_catalog(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "parameter(s)" in err
        assert "known catalog entries:" not in err


class TestCatalogCommand:
    def test_text_listing(self, capsys):
        code, out, err = run_cli(capsys, "catalog")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 62
        assert lines[0].startswith("I01")
        flagged = [ln for ln in lines if "[two displayed readings]" in ln]
        assert sorted(ln.split()[0] for ln in flagged) \
            == ["H10", "I10", "I11", "I16", "I17"]

    def test_json_listing(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "catalog" and len(doc["reports"]) == 62
        first = doc["reports"][0]
        assert first["identity"] == "I01" and first["params"]

    def test_csv_listing(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 63
        assert rows[0] == ["identity", "kind", "params", "domain", "statement"]


class TestStartup:
    """A fresh interpreter runs ``catalog`` without reading installed metadata."""

    CHILD = (
        "import contextlib, io, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import fibsums.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = fibsums.cli.main(['catalog'])\n"
        "print(rc, fibsums.cli.__file__, *sys.modules)\n")

    @staticmethod
    def modules(code, *args):
        out = subprocess.run([sys.executable, "-I", "-c", code, *args],
                             capture_output=True, text=True, check=True).stdout
        return out.split()

    def test_catalog_loads_no_metadata_reader(self):
        src = os.path.dirname(os.path.dirname(fibsums.__file__))
        rc, path, *loaded = self.modules(self.CHILD, src)
        assert rc == "0" and path == cli.__file__
        bare = self.modules("import sys; print(*sys.modules)")
        heavy = ("importlib.metadata", "email")
        extra = {m for m in set(loaded) - set(bare)
                 if m in heavy or m.startswith(tuple(h + "." for h in heavy))}
        assert extra == set()

    def test_generator_names_the_declared_version(self):
        doc = document("catalog", [])
        assert doc["generator"] == f"fibsums {fibsums.__version__}"


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("verify", "I16", "--r=2..3", "--t=0..1", "--n=0..2"),
        ("div", "D16", "--r=1..2", "--k=0..1", "--s=0..1", "--n=0..2"),
        ("catalog", "--format", "json"),
    ])
    def test_repeated_runs_are_byte_identical(self, capsys, argv):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second
        assert first[0] == 0
