"""The bytes of the failure path are pinned.

Catalog sweeps pass, so no report of a real sweep renders a failing point.
Here a few entries are swept with one side or witness made off by one
(``test_mutation.py``'s wrapper) and one entry with evaluate errors, with
``evaluation_payload`` as the row function. Each sweep is rendered as a
``verify`` document whose rows are every checked point's payload (sides,
witnesses, verdicts, first difference), and as ``verify_csv``; the SHA-256 digests of both are
pinned. The cases cover a plain identity (H01), two flagged entries under
each reading (I16, H10), sides beside witnesses (D11, D14 at
(r, t) = (2, 0)), a witness built from shared factors (D22), sides whose
labels and groups change with the parity of r (P06), a D entry with some optional
parameters left unbound (D21), the error instances, and the Horadam
theorems H04-H07 at q < 0 with |q| > 1, where their sums read terms below
index 0 that are not integers.
"""

import dataclasses
import hashlib
from fractions import Fraction

import pytest
from test_mutation import PRINTED_HOLDS, _off_by_one, _sub_grid

from fibsums.identities import Outcome, get_entry, sweep
from fibsums.reports import (document, evaluation_payload, sweep_payload,
                             to_json, verify_csv)


def _errors(entry):
    """D06's evaluate, failing at n = 1 to 4 in the ways an instance can:
    evaluate raises, its witness is not integral, has a zero divisor, or is
    not a number."""
    def evaluate(ctx, b):
        n = b["n"]
        if n == 1:
            raise ArithmeticError(f"no value at n = {n}")
        if n == 2:
            return Outcome(witnesses=((5, Fraction(1, 2)),))
        if n == 3:
            return Outcome(witnesses=((0, 5),))
        if n == 4:
            return Outcome(witnesses=(("5", 5),))
        return entry.evaluate(ctx, b)
    return evaluate


def _bumped(entry, variant):
    def evaluate(ctx, b):
        return _off_by_one(entry.evaluate(ctx, b), entry, variant)
    return evaluate


# name -> (entry id, the values of each swept parameter, or None for the
# sub-grid of test_mutation, and the reading to bump, or "errors" for the
# error instances); D21-partial sweeps only some parameters, as ``div`` may
CASES = {
    "H01": ("H01", None, "as-stated"),
    "I16-as-proved": ("I16", None, "as-proved"),
    "I16-as-printed": ("I16", PRINTED_HOLDS["I16"], "as-printed"),
    "H10-as-proved": ("H10", None, "as-proved"),
    "H10-as-printed": ("H10", PRINTED_HOLDS["H10"], "as-printed"),
    "D22": ("D22", None, "as-stated"),
    "D11": ("D11", dict(r=[-3, 2, 5], n=[0, 1, 4]), "as-stated"),
    "P06": ("P06", dict(r=[3, 4], n=[0, 1, 2, 5]), "as-stated"),
    "D14": ("D14", dict(r=[2, 3], t=[0, 1], n=[0, 1, 2]), "as-stated"),
    "D21-partial": ("D21", dict(p=[1, 2], q=[-2, 2], r=[1, 2, 3], m=[1, 3],
                                n=[2, 4]), "as-stated"),
    "D06-errors": ("D06", dict(n=[0, 1, 2, 3, 4, 5]), "errors"),
    # the Horadam theorems with q < 0, |q| > 1 and terms below index 0
    "H04": ("H04", dict(p=[-2, 3], q=[-3, -2], a=[2], b=[3], r=[-2, 3],
                        t=[-3, 2], n=[0, 2, 3]), "as-stated"),
    "H05": ("H05", dict(p=[-2, 3], q=[-3, -2], a=[2], b=[-1], m=[-2, 1],
                        s=[-1, 2], r=[-2, 2], t=[-1, 1], n=[0, 2]), "as-stated"),
    "H06": ("H06", dict(p=[-3, 2], q=[-4, -2], a=[3], b=[-2], r=[-3, 2],
                        t=[-4, 3], n=[0, 1, 3]), "as-stated"),
    "H07": ("H07", dict(p=[-3, 4], q=[-4, -3], a=[3], b=[-2], r=[-2, 3],
                        t=[-4, 3], n=[0, 1, 3]), "as-stated"),
}

DIGESTS = {
    "H01": ("b834537e5d8112a0107d9373b0bc6213bae9b6ab337d6cddf860d6754026e878",
            "cf53d1ba26496171020e526103c9067992bc1e2e632d6005e52a6fcd837b9063"),
    "I16-as-proved": ("017aa2863543583a8b389832548d0b923bb66ef61d601a56bc45d22969d70a5d",
                      "fa0c10f0ef9b997d74a5c7c946c986ce8171c3703b431a98daea173e702e3d0e"),
    "I16-as-printed": ("33d0215a32be0bd1be169537d784377e4379b62edaf22e0f3d8aeb6af5ac8f68",
                       "cbfbda239251b38ff4b921418e1915f6f091b9002af2ffd1a524ec321015eeeb"),
    "H10-as-proved": ("7ea9cd0f00d74ce5f8a568809799802337f550c13230fd7e3a5075e3dfcda8d2",
                      "164c4579d6df63f6a11d53293358b11f4d19964ff77ebd2deda1d6ea7f8507e9"),
    "H10-as-printed": ("fbfbded5f6bffc14b9292a6d6a103aedcaf93efb2a3b559b078ea227c57c65b9",
                       "e628238975e05535e0f99c9b82902759004116aaedbf1ee342d099b1cf570461"),
    "D22": ("b304523fe25ca6b8baae19ff11ee91a89438af5737c146c9d699a99879cd7296",
            "eedc93f6dbaebf86f449bdc9db02ce159dd9d713e1fbbd2898dc9960e1ebd61e"),
    "D11": ("f2da916b3bfe78de72db4a34051e3c2d253960bd131886557ee98942aa732d29",
            "2b37c938c766d075662db46fd76052cbfca6fade3401e5a2328d95da54a59291"),
    "P06": ("b839b378dfca9f99add97700f7f398fec6587679f0aa76a671c9f23234f598e8",
            "65cce4d0e75c7bdde4c54ccb12ac737f3cd998b9c62657a3184e9cdb8fcc285d"),
    "D14": ("c365f9fa3d0b9f716c65492367ab79c9aab9a2cfd2baaf2fecd9a1963a9c1197",
            "025c3917a67aad5040ee642c3c42e608dc8905333cae7187bd01a2cd1f95ba73"),
    "D21-partial": ("7747677ff336f6d3e8cc5ca9fb525ceeefb9b82e16141ad02a6617e16b7f6281",
                    "3a9f4ca2d08a3d18cc54b2736936d2464565324a6780b8747c81f6ebbb8a6f62"),
    "D06-errors": ("6192bd648974eb0ecd42618be3a624aacfefabc10bb23243c9810ef89a8bc211",
                   "b71076404f5b3f2c8cd8a34261868d58d64848beb63854fde2c79d2d9fc00f69"),
    "H04": ("d7ce47c8e8a1fe867c590bdcc7231c5cf1d19a20c660d9e3d1b6c96b8fdf7edc",
            "0fcba2291abfd7987c043a51f700a7c0b76a24ed85b7960c0d81b6b7feaf1b17"),
    "H05": ("ad361caf69d06fcf4d81fb9df5ce8cb7d133ea256ce593cdcf81324d794c232a",
            "c4c0040bd9a0b68587ef8b2745134e158b3442968f43d43e5069ef88523b23ab"),
    "H06": ("a57c80d4b41fc9f4000d843df5c3120b02568d4a59c2b5b7ecc77c1bae868cab",
            "254a0ed2385b5d55a31d8f442a8c3d25a7a105b86f2e6a7f2b4db67af3ece213"),
    "H07": ("d6ba8dc39a57e88554347e3555a8dc72c1f4073ec6b1f209051562fce958172e",
            "b006b179e7406797209ddc1b88c5719810bda2f5beecfb7b9b6bacb8a6b2eda8"),
}


def render(name):
    entry_id, ranges, variant = CASES[name]
    entry = get_entry(entry_id)
    sub = entry if ranges else dataclasses.replace(
        entry, grid=_sub_grid(entry, variant))
    wrap = _errors if variant == "errors" else lambda e: _bumped(e, variant)
    rep = sweep(dataclasses.replace(sub, evaluate=wrap(entry)), ranges,
                row=evaluation_payload)
    doc = document("verify", [sweep_payload(rep)])
    del doc["generator"]        # the package version, which a release changes
    json_text = to_json(doc)
    csv_text = verify_csv([rep])
    return (hashlib.sha256(json_text.encode()).hexdigest(),
            hashlib.sha256(csv_text.encode()).hexdigest(), rep)


@pytest.mark.parametrize("name", CASES)
def test_failure_bytes_are_pinned(name):
    json_digest, csv_digest, rep = render(name)
    assert rep.checked and (rep.failures or name.endswith("as-printed"))
    assert (json_digest, csv_digest) == DIGESTS[name]
