"""Deterministic report rendering.

JSON is the authoritative format: every mathematical value is an exact
string ("9/4", "1/2 + 1/2*sqrt(5)", "4x^2 - 1"), counts are integers, and
no timing or environment data is included, so identical inputs produce
byte-identical documents. CSV is a lossy flattening for spreadsheets.
"""

from __future__ import annotations

import csv
import io
import json
from importlib import metadata

from .identities import Evaluation, SweepReport, Witness
from .polynomials import render_poly
from .scalars import int_text, render_scalar

#: Bumped when the report document layout changes.
REPORT_FORMAT = 1


def _version() -> str:
    try:
        return metadata.version("fibsums")
    except metadata.PackageNotFoundError:
        return "unknown"


def render_value(value) -> str:
    """Exact text for any value a side or binding can hold."""
    if isinstance(value, tuple):  # polynomial coefficient tuple
        return render_poly(value)
    return render_scalar(value)


def witness_payload(w: Witness) -> dict:
    return {
        "label": w.label,
        "divisor": int_text(w.divisor),
        "dividend": int_text(w.dividend),
        "quotient": None if w.quotient is None else int_text(w.quotient),
        "residue": None if w.residue is None else int_text(w.residue),
    }


def evaluation_payload(ev: Evaluation) -> dict:
    return {
        "bindings": {k: render_value(v) for k, v in ev.bindings.items()},
        "sides": [{"label": s.label, "group": s.group, "variant": s.variant,
                   "value": render_value(s.value)} for s in ev.sides],
        "witnesses": [witness_payload(w) for w in ev.witnesses],
        "equal": ev.ok,
        "variant_equal": dict(ev.variant_ok),
        "first_difference": list(ev.first_diff) if ev.first_diff else None,
    }


def sweep_payload(rep: SweepReport, rows: list | None = None) -> dict:
    """One entry's sweep as a JSON-able dict; ``rows`` adds a witness table."""
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
    if rows is not None:
        payload["rows"] = rows
    return payload


def document(command: str, reports: list[dict]) -> dict:
    """The top-level report envelope shared by every JSON-emitting command."""
    return {
        "format": REPORT_FORMAT,
        "generator": f"fibsums {_version()}",
        "command": command,
        "reports": reports,
    }


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# CSV flattening
# ---------------------------------------------------------------------------

def verify_csv(reports: list[SweepReport]) -> str:
    """One summary row per identity (failures are JSON-only detail)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["identity", "kind", "pass", "rejected", "failures",
                     "verified", "primary_variant"])
    for rep in reports:
        writer.writerow([rep.entry.id, rep.entry.kind,
                         rep.checked - len(rep.failures), rep.rejected,
                         len(rep.failures), rep.verified,
                         rep.entry.primary_variant])
    return buf.getvalue()


def witness_row(ev: Evaluation) -> dict:
    """Compact per-instance row for witness tables (shared by JSON and CSV)."""
    return {"bindings": {k: render_value(v) for k, v in ev.bindings.items()},
            "witnesses": [witness_payload(w) for w in ev.witnesses]}


def div_csv(entry_params: tuple, rows: list[dict]) -> str:
    """Witness rows (from witness_row) with bindings flattened into columns."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*entry_params, "label", "divisor", "dividend",
                     "quotient", "residue"])
    for row in rows:
        head = [row["bindings"].get(p, "") for p in entry_params]
        for w in row["witnesses"]:
            writer.writerow([*head, w["label"], w["divisor"], w["dividend"],
                             w["quotient"] or "", w["residue"] or ""])
    return buf.getvalue()
