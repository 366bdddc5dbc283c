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


def test_make_digests_records_missing_cases_and_refuses_changed_ones(tmp_path, monkeypatch,
                                                                      capsys):
    """Without --rewrite the tool adds missing cases only: a changed or
    dropped case exits 1, is named, and leaves the file as it was."""
    path, cases = tmp_path / "digests.json", {"a": "1", "b": "2"}
    monkeypatch.setattr(make_digests, "DIGESTS", path)
    monkeypatch.setattr(make_digests, "_cases",
                        lambda: [(name, lambda d=d: d) for name, d in cases.items()])
    assert make_digests.main([]) == 0
    assert json.loads(path.read_text()) == {"a": "1", "b": "2"}
    cases.update(b="3", c="4")
    assert make_digests.main([]) == 1
    assert "digest changed: b" in capsys.readouterr().err
    assert json.loads(path.read_text()) == {"a": "1", "b": "2"}
    del cases["a"]
    assert make_digests.main([]) == 1
    assert "no longer generated: a" in capsys.readouterr().err
    assert make_digests.main(["--rewrite"]) == 0
    assert json.loads(path.read_text()) == {"b": "3", "c": "4"}
    assert make_digests.main([]) == 0
