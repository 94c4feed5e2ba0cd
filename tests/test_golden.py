"""Every input file of the golden corpus has its pinned bytes, and every
command prints the pinned bytes and exit code.

The corpus and how to regenerate it are described in ``tests/golden.py``."""

import json

import pytest

from golden import (CASES, HERE, MANIFEST, environment, input_digests, run_case,
                    write_inputs)

PINNED = json.loads(MANIFEST.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


def test_corpus_lists_every_case():
    assert list(PINNED["cases"]) == list(CASES)
    assert sorted(p.stem for p in HERE.glob("*.stdout")) == sorted(CASES)


def test_input_files_are_pinned(inputs):
    """``gen`` and the hand-written inputs give the pinned bytes, so a writer
    change that moves one byte of a point-set file fails here."""
    where = f"corpus written on {PINNED['environment']}, running on {environment()}"
    assert input_digests(inputs) == PINNED["inputs"], where


@pytest.mark.parametrize("name", list(CASES))
def test_golden_output(name, inputs, monkeypatch):
    pinned = PINNED["cases"][name]
    assert pinned["argv"] == CASES[name]
    monkeypatch.chdir(inputs)
    code, out, err = run_case(CASES[name])
    where = f"corpus written on {PINNED['environment']}, running on {environment()}"
    assert (code, err) == (pinned["exit"], pinned["stderr"]), where
    assert out == (HERE / f"{name}.stdout").read_text(), where
