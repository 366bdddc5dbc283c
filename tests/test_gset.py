"""Tests for G-set parsing, serialization, the registry, and bundled data."""

import numpy as np
import pytest

from ssqa import gset
from ssqa.gset import GsetParseError, UnknownInstanceError


SAMPLE = "3 2\n1 2 1\n2 3 -1\n"


def test_parse_basic():
    g = gset.parse_gset(SAMPLE)
    assert g.n_nodes == 3
    assert g.edges == ((0, 1, 1), (1, 2, -1))


def test_parse_normalizes_edge_order():
    g = gset.parse_gset("3 1\n3 1 5\n")
    assert g.edges == ((0, 2, 5),)


def test_parse_tolerates_comments_and_blank_lines():
    text = "# header comment\nc solver comment\n\n3 1\n\n1 2 1\n"
    assert gset.parse_gset(text).edges == ((0, 1, 1),)


def test_roundtrip():
    g = gset.parse_gset(SAMPLE)
    assert gset.parse_gset(gset.serialize_gset(g)) == g


@pytest.mark.parametrize("text,match", [
    ("", "header"),
    ("3\n", "header"),
    ("a b\n", "non-integer header"),
    ("3 1\n1 2\n", "expected 'u v w'"),
    ("3 1\n1 2 x\n", "non-integer edge"),
    ("3 1\n1 4 1\n", "out of range"),
    ("3 1\n2 2 1\n", "self-loop"),
    ("3 2\n1 2 1\n", "count mismatch"),
    ("3 2\n1 2 1\n2 1 3\n", "line 3: duplicate"),
])
def test_parse_errors(text, match):
    with pytest.raises(GsetParseError, match=match):
        gset.parse_gset(text)


def test_error_messages_name_line_numbers():
    with pytest.raises(GsetParseError, match="line 3"):
        gset.parse_gset("# comment\n3 1\n1 1 1\n")


def test_registry_contents():
    rec = gset.registry_lookup("G11")
    assert (rec.n_nodes, rec.n_edges, rec.best_known_cut) == (800, 1600, 564)
    assert gset.registry_lookup("G13").best_known_cut == 582
    with pytest.raises(UnknownInstanceError):
        gset.registry_lookup("G99")
    assert gset.registry_names() == ["G11", "G12", "G13", "G14", "G15"]


def test_registry_json():
    import json

    data = json.loads(gset.registry_as_json())
    assert data["G14"]["best_known_cut"] == 3064
    assert data["G12"]["n_edges"] == 1600


def test_bundled_g11_structure():
    """G11 is a toroidal +-1-weighted grid: every node has degree 4."""
    g = gset.load_instance("G11")
    assert g.n_nodes == 800 and len(g.edges) == 1600
    deg = np.zeros(800, dtype=int)
    for u, v, w in g.edges:
        assert w in (-1, 1)
        deg[u] += 1
        deg[v] += 1
    assert (deg == 4).all()


def test_bundled_matches_registry():
    for name in gset.bundled_instance_names():
        g = gset.load_instance(name)
        rec = gset.registry_lookup(name)
        assert g.n_nodes == rec.n_nodes
        assert len(g.edges) == rec.n_edges


def test_load_instance_from_path(tmp_path):
    p = tmp_path / "toy.txt"
    p.write_text(SAMPLE)
    assert gset.load_instance(str(p)).n_nodes == 3
    with pytest.raises(FileNotFoundError):
        gset.load_instance(str(tmp_path / "absent.txt"))
