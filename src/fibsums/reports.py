"""Deterministic report rendering.

JSON is the authoritative format: every mathematical value is an exact
string ("9/4", "1/2 + 1/2*sqrt(5)", "4x^2 - 1"), counts are integers, and
no timing or environment data is included, so identical inputs produce
byte-identical documents. CSV is a lossy flattening for spreadsheets.
"""

from __future__ import annotations

import csv
import io
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

from . import __version__
from .identities import Evaluation, SweepReport, Witness
from .polynomials import render_poly
from .scalars import int_text, render_scalar

#: Bumped when the report document layout changes.
REPORT_FORMAT = 1


def render_value(value) -> str:
    """Exact text for any value a side or binding can hold."""
    if isinstance(value, tuple):  # polynomial coefficient tuple
        return render_poly(value)
    return render_scalar(value)


def _text(n, texts: dict):
    """``int_text(n)`` through ``texts``, which maps each int already
    converted to its text and gains ``n``; None for None."""
    if n is None:
        return None
    text = texts.get(n)
    if text is None:
        text = texts[n] = int_text(n)
    return text


def witness_payload(w: Witness, texts: dict) -> dict:
    """A witness's numbers as text, each converted at most once per
    ``texts`` (see ``_text``)."""
    return {
        "label": w.label,
        "divisor": _text(w.divisor, texts),
        "dividend": _text(w.dividend, texts),
        "quotient": _text(w.quotient, texts),
        "residue": _text(w.residue, texts),
    }


def evaluation_payload(ev: Evaluation) -> dict:
    return {
        "bindings": {k: render_value(v) for k, v in ev.bindings.items()},
        "sides": [{"label": s.label, "group": s.group, "variant": s.variant,
                   "value": render_value(s.value)} for s in ev.sides],
        "witnesses": [witness_payload(w, {}) for w in ev.witnesses],
        "equal": ev.ok,
        "variant_equal": dict(ev.variant_ok),
        "first_difference": list(ev.first_diff) if ev.first_diff else None,
    }


def sweep_payload(rep: SweepReport) -> dict:
    """One entry's sweep as a JSON-able dict, with its ``rows`` (a witness
    table) when the sweep was given a row function."""
    entry = rep.entry
    payload = {
        "identity": entry.id,
        "kind": entry.kind,
        "statement": entry.statement,
        "domain": entry.domain,
        "params": list(entry.params),
        "grid": [{"params": list(ax.names),
                  "values": [[render_value(v) for v in row] for row in ax.values]}
                 for ax in rep.axes],
        "pass": rep.checked - len(rep.failures),
        "rejected": rep.rejected,
        "failure_count": len(rep.failures),
        "verified": rep.verified,
        "primary_variant": entry.primary_variant,
        "variant_pass": dict(rep.variant_verified),
        "notes": list(entry.notes),
        "failures": [evaluation_payload(f) for f in rep.failures],
    }
    if rep.rows is not None:
        payload["rows"] = rep.rows
    return payload


def document(command: str, reports: list[dict]) -> dict:
    """The top-level report envelope shared by every JSON-emitting command."""
    return {
        "format": REPORT_FORMAT,
        "generator": f"fibsums {__version__}",
        "command": command,
        "reports": reports,
    }


def to_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte, for a document
    of dicts with str keys, lists, strs, ints, bools and None; anything else,
    a float or an int key say, is a TypeError. ``json.dumps`` with an indent
    runs the pure-Python encoder; this writes the same text in one pass,
    quoting strings with the C one."""
    parts = []
    _write(doc, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _write(o, newline: str, put) -> None:
    """Append the JSON text of ``o``, whose line starts at ``newline``."""
    t = type(o)
    if t is str:
        put(_quote(o))
    elif t is dict:
        if not o:
            put("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for k, v in o.items():
            if type(k) is not str:
                raise TypeError(f"JSON keys must be str, not {type(k).__name__}")
            put(sep + _quote(k) + ": ")
            _write(v, inner, put)
            sep = comma
        put(newline + "}")
    elif t is list:
        if not o:
            put("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for v in o:
            put(sep)
            _write(v, inner, put)
            sep = comma
        put(newline + "]")
    elif t is int:
        put(repr(o))
    elif t is bool:
        put("true" if o else "false")
    elif o is None:
        put("null")
    else:
        raise TypeError(f"{t.__name__} is not a report value")


# ---------------------------------------------------------------------------
# CSV flattening
# ---------------------------------------------------------------------------

def _csv_text(header: list, rows) -> str:
    """A header line and one line per row, each ending in ``\\n``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def verify_csv(reports: list[SweepReport]) -> str:
    """One summary row per identity (failures are JSON-only detail)."""
    return _csv_text(
        ["identity", "kind", "pass", "rejected", "failures", "verified",
         "primary_variant"],
        ([rep.entry.id, rep.entry.kind, rep.checked - len(rep.failures),
          rep.rejected, len(rep.failures), rep.verified,
          rep.entry.primary_variant] for rep in reports))


def witness_row(ev: Evaluation, texts: dict) -> dict:
    """Compact per-instance row for witness tables (shared by JSON and CSV).

    ``texts`` is one run's cache of converted witness integers: D01's F_r,
    say, is the divisor at m = 1..3 and the dividend at m = 1, but is
    converted once. A run creates it and drops it at its end, and a forked
    share fills its own copy."""
    return {"bindings": {k: render_value(v) for k, v in ev.bindings.items()},
            "witnesses": [witness_payload(w, texts) for w in ev.witnesses]}


def div_csv(entry_params: tuple, rows: list[dict]) -> str:
    """Witness rows (from witness_row) with bindings flattened into columns.

    Only a row's head, its bindings and label, goes through the csv module,
    whose writer returns the line here instead of writing it. The number
    columns, ``int_text`` output or "", never need quoting and are written
    as they are: scanning thousands of digits cost more than rendering them.
    """
    head_line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    buf = io.StringIO()
    write = buf.write
    write(head_line([*entry_params, "label", "divisor", "dividend", "quotient",
                     "residue"]))
    for row in rows:
        bindings = [row["bindings"].get(p, "") for p in entry_params]
        for w in row["witnesses"]:
            write(head_line([*bindings, w["label"]])[:-1])
            write(f",{w['divisor']},{w['dividend']},{w['quotient'] or ''},"
                  f"{w['residue'] or ''}\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# the catalog listing
# ---------------------------------------------------------------------------

def catalog_text(entries) -> str:
    """One line per entry: id, kind, parameters, domain and a flag for an
    entry with two displayed readings."""
    lines = []
    for e in entries:
        flag = "  [two displayed readings]" if e.flagged else ""
        lines.append(f"{e.id:<5} {e.kind:<13} ({', '.join(e.params)})  "
                     f"{e.domain}{flag}")
    return "\n".join(lines) + "\n"


def catalog_payload(entries) -> list[dict]:
    return [{"identity": e.id, "kind": e.kind, "params": list(e.params),
             "domain": e.domain, "statement": e.statement,
             "variants": list(e.variants), "primary_variant": e.primary_variant,
             "notes": list(e.notes)} for e in entries]


def catalog_csv(entries) -> str:
    return _csv_text(["identity", "kind", "params", "domain", "statement"],
                     ([e.id, e.kind, " ".join(e.params), e.domain, e.statement]
                      for e in entries))
