"""The bytes of every output listed in ``gate.txt`` are pinned.

Byte-identical output is the product's contract. Each line of ``gate.txt``
is the SHA-256 of one command's stdout, then the command's arguments; each
runs here in process through ``fibsums.cli.main`` and must exit 0. The CI
gate "Outputs equal the base commit's" runs the same lines at a PR's base
and head. A JSON document drops its ``generator`` field, which names the
package version a release changes ("fibsums 0.1.0", from
``fibsums.__version__``), before it is hashed, as ``test_failure_bytes.py``
does. The ``verify --all`` lines render the session's one set of sweeps,
which acceptance criterion 1 reads too. An intended byte change shows as
an edited digest line.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fibsums.reports import to_json

PINNED = [line.split(maxsplit=1)
          for line in Path(__file__).with_name("gate.txt").read_text().splitlines()
          if line and not line.startswith("#")]


def digest(text):
    if text.startswith("{"):
        doc = json.loads(text)
        del doc["generator"]
        text = to_json(doc)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("want, command", PINNED,
                         ids=[command.replace(" ", "_") for _, command in PINNED])
def test_sha(run_pinned, want, command):
    code, out = run_pinned(command.split())
    assert code == 0
    assert digest(out) == want
