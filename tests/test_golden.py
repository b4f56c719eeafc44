"""Byte-identical outputs on the seeded corpus of `golden_corpus`: each
case's exit code and the SHA-256 of its stdout, recorded before the exact
layers moved to dense coefficient lists."""

import json

import pytest

from golden_corpus import HASHES, SLOW, cases, run_case

GOLDEN = json.loads(HASHES.read_text())


def test_corpus_is_the_recorded_one():
    assert {name: case["argv"] for name, case in GOLDEN.items()} == cases()


@pytest.mark.parametrize("name", [pytest.param(name, marks=pytest.mark.slow) if name in SLOW
                                  else name for name in sorted(GOLDEN)])
def test_golden_output(name):
    case = GOLDEN[name]
    assert run_case(case["argv"]) == (case["exit"], case["sha256"])
