import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    """Workloads write their inputs and outputs to the working directory;
    one set-up per run keeps the tiny runs quick."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("harness.SETUP_REPS", 1)
