"""Every demo script runs to completion in-process.

``03_square_tours.py`` is left out: it takes several seconds on its own.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SLOW = {"03_square_tours.py"}


def test_demo_directory_found():
    assert (DEMOS / "03_square_tours.py").is_file()


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")
                                          if p.name not in SLOW))
def test_demo_runs(script, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out
