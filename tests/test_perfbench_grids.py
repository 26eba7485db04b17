"""The benchmark's sub-grids bind every parameter of their entry.

``perfbench/run.py`` sweeps ``dataclasses.replace(entry, grid=sub)``, and
``Entry.params`` is read from the grid, so a sub-grid that left an axis out
would silently shrink the entry's parameters. This reads the benchmark's
input generators and changes nothing under ``perfbench/``.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def run():
    path = list(sys.path)       # run.py puts src/ and perfbench/ first
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


@pytest.mark.parametrize("tiny", [True, False], ids=["tiny", "full"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("inputs", ["horadam_inputs", "classic_inputs"])
def test_sub_grids_keep_every_parameter(run, inputs, seed, tiny):
    for jobs in itertools.islice(getattr(run, inputs)(seed, tiny), 3):
        assert jobs
        for entry, grid in jobs:
            names = tuple(name for ax in grid for name in ax.names)
            assert names == entry.params, entry.id
