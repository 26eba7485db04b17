"""The bytes of the catalog listing and of ``verify --all`` are pinned.

Byte-identical output is the product's contract. Each digest below is the
SHA-256 of one command's stdout, run in process through
``fibsums.cli.main``: ``catalog`` in text, CSV and JSON, and the
``verify --all`` JSON of acceptance criterion 1, read from the same
session-wide run rather than swept again. JSON documents drop their
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
