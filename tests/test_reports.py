"""Report rendering: the JSON writer, and the per-run cache of witness texts.

``to_json`` writes the bytes of ``json.dumps(doc, indent=2)`` with its own
recursive writer, so documents are drawn from every type a report holds,
with the strings that need escapes, and compared with the stdlib. ``div``
converts each distinct witness integer to text once per run, through a
dict that its row function fills and that dies with the run.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibsums import cli, reports
from fibsums.identities import engine, get_entry, sweep
from fibsums.reports import to_json, witness_row

#: strings that need escapes: quotes, backslashes, control, non-ASCII and
#: astral characters, and line and paragraph separators
TRICKY = ['"', "\\", '\\"', "\x00", "\x1f\x7f", "\n\t\r\b\f", "é",
          "\u2028\u2029", "\U0001f600", "\ud800"]
TEXT = st.text(max_size=6) | st.sampled_from(TRICKY) | \
    st.lists(st.sampled_from(TRICKY), max_size=4).map("".join)
LEAVES = (st.none() | st.booleans() | st.integers()
          | st.integers(2 ** 64, 2 ** 200) | st.integers(-2 ** 200, -1) | TEXT)
DOCS = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(TEXT, inner, max_size=4), max_leaves=40)


class TestWriter:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(DOCS)
    def test_bytes_equal_indented_json_dumps(self, doc):
        assert to_json(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [{}, [], {"a": {}, "b": [[], {}]}, "", 0, None])
    def test_empty_containers_and_bare_values(self, doc):
        assert to_json(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [1.5, {"rows": [{"x": 0.0}]}, {1: "a"},
                                     {"rows": [{None: "a"}]}, {"a": (1, 2)}])
    def test_a_float_a_non_str_key_or_a_tuple_is_refused(self, doc):
        # json.dumps writes each of these; the writer does not guess
        with pytest.raises(TypeError):
            to_json(doc)


class TestWitnessTexts:
    ARGV = ["div", "D01", "--r=2000..2009", "--m=1..3"]

    def _count_run(self, monkeypatch, capsys):
        calls = []
        convert = reports.int_text

        def counted(n):
            calls.append(n)
            return convert(n)

        with monkeypatch.context() as mp:
            mp.setattr(reports, "int_text", counted)
            assert cli.main(self.ARGV) == 0
        return calls, json.loads(capsys.readouterr().out)["reports"][0]["rows"]

    def test_each_distinct_integer_is_converted_once_per_run(self, monkeypatch,
                                                             capsys):
        # one CPU keeps the sweep in this process, so every call is counted
        monkeypatch.setattr(engine, "_cpu_count", lambda: 1)
        grid = {"r": list(range(2000, 2010)), "m": [1, 2, 3]}
        witnesses = [w for row in sweep(get_entry("D01"), grid,
                                        row=lambda ev: ev.witnesses).rows
                     for w in row]
        distinct = {n for w in witnesses
                    for n in (w.divisor, w.dividend, w.quotient, w.residue)
                    if n is not None}
        # F_r is the divisor at m = 1..3 and the dividend at m = 1
        assert len(distinct) < 3 * len(witnesses)

        calls, rows = self._count_run(monkeypatch, capsys)
        assert sorted(calls) == sorted(distinct)
        again, rows_again = self._count_run(monkeypatch, capsys)
        assert len(again) == len(calls)     # nothing outlives a run
        uncached = sweep(get_entry("D01"), grid,
                         row=lambda ev: witness_row(ev, {})).rows
        assert rows == rows_again == uncached
