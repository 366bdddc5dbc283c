"""Every engine result named in tests/data/digests.json hashes to its
recorded sha256 (see tests/make_digests.py for the cases)."""

import json

import pytest

import make_digests

RECORDED = json.loads(make_digests.DIGESTS.read_text())
CASES = dict(make_digests._cases())


def test_recorded_cases_are_the_generated_cases():
    assert sorted(RECORDED) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_digest_unchanged(name):
    assert CASES[name]() == RECORDED[name]
