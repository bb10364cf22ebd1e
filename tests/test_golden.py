"""The benchmark's golden outputs, checked with the benchmark's own code.

``perfbench/run.py`` checks every op against ``perfbench/golden.json``: the
six golden matches and the sha256 of each ``tournament`` CSV for every
master seed a run may draw.  These tests replay both in process, so that a
change to any output the benchmark pins fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from predipd import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """``perfbench/run.py``, imported from its file; it imports its sibling
    ``reference.py``."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look themselves up there
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_golden_matches_replay(bench):
    assert bench.check_golden_matches(bench.load_golden()) == 0


def test_tournament_outputs_match_the_golden_hashes(bench, tmp_path, capsys):
    expected = bench.load_golden()["cli"]["tournament"]
    wrong = []
    for seed in bench.MASTER_SEEDS:
        out = tmp_path / str(seed)
        assert cli.main(bench.cli_argv("tournament", seed, out)) == 0
        if bench.output_hashes(out) != expected[str(seed)]:
            wrong.append(seed)
    assert wrong == []
