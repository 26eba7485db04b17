"""Attribute a cProfile run to fibsums layers by source file.

A profiled function belongs to the layer that owns its source file:

    scalars             fibsums/scalars.py, stdlib fractions.py and numbers.py
                        (``Rational`` is ``fractions.Fraction``)
    sequences           fibsums/sequences.py
    polynomials         fibsums/polynomials.py
    identities.engine   fibsums/identities/engine.py and __init__.py
    identities.entries  fibsums/identities/entries_*.py
    reports             fibsums/reports.py, stdlib json/ and csv.py
    cli                 fibsums/cli.py

A function whose file no layer owns (a C built-in such as ``math.gcd``, a
generated dataclass ``__init__``, ``abc`` or ``argparse`` helpers) runs on
behalf of whoever called it, so its self time is split over its callers'
layers in proportion to the time each call edge took. What still reaches no
owned file lands in ``other``; its share shows how much the map misses.
"""

from __future__ import annotations

import os
import sysconfig

LAYERS = ("scalars", "sequences", "polynomials", "identities.engine",
          "identities.entries", "reports", "cli", "other")

_STDLIB = sysconfig.get_paths()["stdlib"]
_STDLIB_OWNED = {
    os.path.join(_STDLIB, "fractions.py"): "scalars",
    os.path.join(_STDLIB, "numbers.py"): "scalars",
    os.path.join(_STDLIB, "csv.py"): "reports",
}
_JSON_DIR = os.path.join(_STDLIB, "json") + os.sep
_FIBSUMS_OWNED = {
    "scalars.py": "scalars",
    "sequences.py": "sequences",
    "polynomials.py": "polynomials",
    "reports.py": "reports",
    "cli.py": "cli",
}


def file_layer(filename: str, src: str) -> str | None:
    """Layer owning a source file, or None when no layer owns it."""
    if filename in _STDLIB_OWNED:
        return _STDLIB_OWNED[filename]
    if filename.startswith(_JSON_DIR):
        return "reports"
    package = os.path.join(src, "fibsums") + os.sep
    if not filename.startswith(package):
        return None
    rel = filename[len(package):]
    if rel.startswith("identities" + os.sep):
        base = rel[len("identities") + 1:]
        return "identities.entries" if base.startswith("entries_") \
            else "identities.engine"
    return _FIBSUMS_OWNED.get(rel)


class Attribution:
    """Self time per layer and call counts from raw ``Profile.stats`` dicts."""

    def __init__(self, stats: dict, src: str):
        self.stats = stats
        self.src = src
        self._shares = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        for func, (_, _, tt, _, _) in stats.items():
            for layer, w in self._layer_shares(func, ()).items():
                self.self_s[layer] += tt * w

    def _own(self, func) -> str | None:
        return file_layer(func[0], self.src)

    def _layer_shares(self, func, stack) -> dict:
        if func in self._shares:
            return self._shares[func]
        own = self._own(func)
        if own is not None:
            return {own: 1.0}
        callers = {c: edge for c, edge in self.stats.get(func, (0, 0, 0, 0, {}))[4].items()
                   if c != func and c not in stack}
        if not callers:
            return {"other": 1.0}
        weight = {c: edge[2] for c, edge in callers.items()}
        total = sum(weight.values())
        if total <= 0:
            weight = {c: edge[0] for c, edge in callers.items()}
            total = sum(weight.values())
        out = {}
        for c, w in weight.items():
            for layer, share in self._layer_shares(c, stack + (func,)).items():
                out[layer] = out.get(layer, 0.0) + share * w / total
        if not stack:
            self._shares[func] = out
        return out

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())

    def share(self, layer: str) -> float:
        total = self.total_s
        return self.self_s[layer] / total if total > 0 else 0.0

    def calls(self, layer: str, names, file_suffix: str = "") -> int:
        """Total calls of the named functions in the layer's own files."""
        return sum(v[1] for f, v in self.stats.items()
                   if f[2] in names and self._own(f) == layer
                   and f[0].endswith(file_suffix))

    def builtin_calls(self, label: str) -> int:
        return sum(v[1] for f, v in self.stats.items() if f[0] == "~" and f[2] == label)

    def edge_calls(self, callee: tuple, caller: tuple) -> int:
        """Calls from one fibsums function to another, matched as (file suffix, name)."""
        total = 0
        for f, v in self.stats.items():
            if f[0].endswith(callee[0]) and f[2] == callee[1]:
                total += sum(edge[0] for c, edge in v[4].items()
                             if c[0].endswith(caller[0]) and c[2] == caller[1])
        return total

    def inclusive_s(self, layer: str) -> float:
        """Time inside the layer's own functions entered from outside the layer."""
        total = 0.0
        for f, v in self.stats.items():
            if self._own(f) != layer:
                continue
            total += sum(edge[3] for c, edge in v[4].items() if self._own(c) != layer)
        return total
