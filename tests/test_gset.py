"""Tests for G-set parsing, serialization, the registry, and bundled data."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssqa import gset
from ssqa.gset import GsetParseError, UnknownInstanceError


SAMPLE = "3 2\n1 2 1\n2 3 -1\n"


def test_parse_basic():
    g = gset.parse_gset(SAMPLE)
    assert g.n_nodes == 3
    assert g.edges.tolist() == [[0, 1, 1], [1, 2, -1]]


def test_parse_normalizes_edge_order():
    g = gset.parse_gset("3 1\n3 1 5\n")
    assert g.edges.tolist() == [[0, 2, 5]]


def test_parse_tolerates_comments_and_blank_lines():
    text = "# header comment\nc solver comment\n\n3 1\n\n1 2 1\n"
    assert gset.parse_gset(text).edges.tolist() == [[0, 1, 1]]


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
    ("2 1\n1 2 -9223372036854775808\n", "sum of \\|weight\\| exceeds int64"),
    # The fewest nodes whose pair keys a*n + b pass int64 (n^2 > 2^63 - 1).
    ("4000000000 1\n1 2 1\n", "^line 1: 4000000000 nodes: .* would not fit int64"),
    ("# c\n3037000500 1\n1 2 1\n", "^line 2: 3037000500 nodes: .* would not fit int64"),
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


def test_unbundled_registry_instance_names_the_missing_file(tmp_path, monkeypatch):
    """G12 is in the registry but its edge file is not bundled: loading it
    raises FileNotFoundError saying so, and a G12 file on the path loads."""
    assert "G12" not in gset.bundled_instance_names()
    monkeypatch.chdir(tmp_path)
    with pytest.raises(FileNotFoundError,
                       match="G12 is a registry instance whose edge file is not bundled; "
                             "pass a path to a G12 G-set file"):
        gset.load_instance("G12")
    (tmp_path / "G12").write_text(SAMPLE)
    assert gset.load_instance("G12").n_nodes == 3


@pytest.mark.parametrize("text,match", [
    ("3 2\n1 4 1\n1 2\n", "line 2: edge \\(1,4\\) out of range 1..3"),
    ("3 2\n1 2 1\n2 1 3\n1 2 x\n", "line 3: duplicate edge \\(1,2\\)"),
    ("3 2\n1 2 1\n2 3 99999999999999999999\n", "line 3: edge 2 holds a value that is not an integer in int64"),
    ("3 2\n# c\n1 0 1\n", "line 3: edge \\(0,1\\) out of range 1..3"),
])
def test_edge_rule_errors_name_the_first_bad_line(text, match):
    """An edge that breaks a rule is reported before a later malformed line,
    with 1-based nodes, and a weight past int64 is an error."""
    with pytest.raises(GsetParseError, match=match):
        gset.parse_gset(text)


def loop_parse_error_line(text):
    """Line of the first error a line-by-line reading finds, or None (the
    texts below always carry a good header)."""
    n, seen, header = 0, set(), False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] in "#c":
            continue
        if not header:
            n, header = int(parts[0]), True
            continue
        if len(parts) != 3:
            return lineno
        try:
            u, v, w = (int(p) for p in parts)
        except ValueError:
            return lineno
        pair = (min(u, v), max(u, v))
        if not (1 <= u <= n and 1 <= v <= n) or u == v or pair in seen or abs(w) >= 2**63:
            return lineno
        seen.add(pair)
    return None


@st.composite
def gset_texts(draw):
    """A G-set text with a good header, comment and blank lines, and edge
    lines that are good or carry one fault each."""
    n = draw(st.integers(1, 6))
    good = st.tuples(st.integers(1, n), st.integers(1, n), st.integers(-3, 3)).map(
        lambda e: f"{e[0]} {e[1]} {e[2]}")
    bad = st.sampled_from([f"1 {n + 1} 1", "0 1 1", "2 2", "1 2 x", "1 2 3 4", "1 2 1.5",
                           f"1 {n} {2**63}", "# note", "c note", ""])
    lines = draw(st.lists(st.one_of(good, good, good, bad), max_size=10))
    edges = sum(1 for line in lines if line and line.split()[0][0] not in "#c")
    return "\n".join([f"{n} {edges}", *lines]) + "\n"


@settings(max_examples=300, deadline=None)
@given(gset_texts())
def test_parse_names_the_line_a_line_by_line_reading_names(text):
    line = loop_parse_error_line(text)
    if line is None:
        graph = gset.parse_gset(text)
        assert gset.parse_gset(gset.serialize_gset(graph)) == graph
    else:
        with pytest.raises(GsetParseError, match=f"^line {line}: "):
            gset.parse_gset(text)
