"""The bytes of the catalog listing and of ``verify --all`` are pinned.

Byte-identical output is the product's contract. Each digest below is the
SHA-256 of one command's stdout, run in process through
``fibsums.cli.main``: ``catalog`` in text, CSV and JSON, the
``verify --all`` JSON of acceptance criterion 1, read from the same
session-wide run rather than swept again, and the gate commands that sweep
the root-level lemmas LEM2-LEM6 and D20 past their default grids, into
rows with |q| > 1 and indices below 0, and those that exercise the two
readings of a flagged entry (I16, I17, H10) and sides absent at a point
(P06, D14, D15). JSON documents drop their
``generator`` field, the package version a release changes ("fibsums
unknown" when the package is not installed), before they are hashed, as
``test_failure_bytes.py`` does. An intended byte change shows as an edited
digest here.
"""

import hashlib
import json

import pytest
from conftest import run_main

from fibsums.reports import to_json


def digest(text, is_json):
    if is_json:
        doc = json.loads(text)
        del doc["generator"]
        text = to_json(doc)
    return hashlib.sha256(text.encode()).hexdigest()


CATALOG = {
    "text": ((), "c4c780ab21f5d112e761f1b023bb3141c0ece13a3fbb82e8a6d62800f0225ecd"),
    "csv": (("--format", "csv"),
            "5ff93b2488056bbdce3b0359f68128c5550002df3658527f41632e4b29a07b78"),
    "json": (("--format", "json"),
             "12c1ec1315f9786171bbc19a842c23d048120f1fd33d72c00292cbec76e95859"),
}

VERIFY_ALL = "eac44d4f7ecb8ce953d53a4427def28260c18ff067875346c2c6d46875b780b5"

#: JSON unless the command asks for CSV; the CI gate "Outputs equal the
#: base commit's" runs them too.
GATE = {
    "LEM2-wide": (("verify", "LEM2", "--p=-6..6", "--q=-6..6", "--s=-8..8"),
                  "d7f1dac7e468bb5951cbed9d7bf34af0fcffe499a4f8ed896315cc3173d56277"),
    "LEM3-wide": (("verify", "LEM3", "--p=-3..3", "--q=2..5", "--r=-7..7", "--s=-7..7"),
                  "05b8bfd5a8704b9bc890f7cc5c5fcde3627c7c14497aefcae61ee6dcc661a253"),
    "LEM4-wide": (("verify", "LEM4", "--p=-3..3", "--q=-6..6", "--a=-2..2",
                   "--b=-2..2", "--n=0..10"),
                  "0b69a698f4fe9a31c9ed800620b58022df53a04888ca98870b47b0e0a3a3f5d6"),
    "LEM5-wide": (("verify", "LEM5", "--p=1..3", "--q=2..5", "--r=-6..6",
                   "--m=-6..6", "--s=-6..6"),
                  "155d02caaa956ac8ce76ff6bfd1d0041a6bae606b03a1f6245ee7550ded42cee"),
    "LEM6-wide": (("verify", "LEM6", "--p=-4..4", "--q=-6..6", "--n=-8..8", "--m=-8..8"),
                  "df1a50579182150e3e4ba3cc17f118e43d14cf8afd798cfc6d73b1f4e6f8a5b6"),
    "D20-neg": (("div", "D20", "--p=-4..4", "--q=-4..4", "--r=-5..-1", "--n=0..4",
                 "--format", "json"),
                "bb733be068cba294acb384ac1e159aba1929fe18155531c6356ad7c89eedfeb7"),
    # the readings of the flagged entries, and sides absent at a point
    "P06-wide": (("verify", "P06", "--r=1..8", "--n=0..30"),
                 "04ef34d6fb3c3479b9ead3d194caf4fe7100fcd4751346c68f8b363d6b421b5c"),
    "D14": (("div", "D14", "--format", "csv"),
            "71982e0228202e77c986a3eaf28bb341c8228f932c89258dc76603a6c0889c17"),
    "D15": (("div", "D15", "--format", "csv"),
            "b2963daa76ca19be533f27c97b0c78195c851f8e2602981e5b6c3fe73ed2551e"),
    "I16-wide": (("verify", "I16", "--r=-8..8", "--t=-9..9", "--n=11..13"),
                 "7c2be896b28268bff10bd02b4e25ff4c9e2e6dccffff4e29621884a4b0a1e5c8"),
    "I17-wide": (("verify", "I17", "--r=-8..8", "--t=-9..9", "--n=11..13",
                  "--format", "csv"),
                 "1fc177b1eb34584ac4e9d01cb0f8236c96d17e57e7491ac6d317d30c64f4b040"),
    "H10-wide": (("verify", "H10", "--p=-2..3", "--q=-3..2", "--r=-6..6", "--t=-2..2",
                  "--n=7..9"),
                 "c1810b751dc9e5143f3c4f07fdf6d9f7a97a74f60c6aaf87ca079ed498bc51e9"),
}


@pytest.mark.parametrize("fmt", CATALOG)
def test_catalog_bytes_are_pinned(fmt):
    args, want = CATALOG[fmt]
    code, out = run_main(["catalog", *args])
    assert code == 0
    assert digest(out, fmt == "json") == want


def test_verify_all_bytes_are_pinned(verify_all):
    code, out = verify_all
    assert code == 0
    assert digest(out, True) == VERIFY_ALL


@pytest.mark.parametrize("name", GATE)
def test_gate_command_bytes_are_pinned(name):
    argv, want = GATE[name]
    code, out = run_main(list(argv))
    assert code == 0
    assert digest(out, "csv" not in argv) == want
