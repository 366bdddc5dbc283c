"""G-set benchmark file parsing and the instance metadata registry.

File format: first non-comment line "N M", then M lines "u v w" with
1-based node indices. Lines starting with '#' or 'c' are skipped (some
mirrors include them). Duplicate edges are a hard error, not merged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from importlib import resources

from .ising import WeightedGraph


class GsetParseError(ValueError):
    """Malformed G-set file; message names the offending line."""


class UnknownInstanceError(KeyError):
    """Instance name not present in the registry."""


@dataclass(frozen=True)
class GsetRecord:
    name: str
    n_nodes: int
    n_edges: int
    structure: str
    weights: str
    best_known_cut: int


# Metadata for the 800-node instances used by the benchmark harness.
_REGISTRY = {
    "G11": GsetRecord("G11", 800, 1600, "toroidal", "{+1,-1}", 564),
    "G12": GsetRecord("G12", 800, 1600, "toroidal", "{+1,-1}", 566),
    "G13": GsetRecord("G13", 800, 1600, "toroidal", "{+1,-1}", 582),
    "G14": GsetRecord("G14", 800, 4694, "planar", "{+1}", 3064),
    "G15": GsetRecord("G15", 800, 4661, "planar", "{+1}", 3050),
}


def registry_lookup(name: str) -> GsetRecord:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownInstanceError(name) from None


def registry_names() -> list:
    return sorted(_REGISTRY)


def registry_as_json() -> str:
    """Registry as a JSON document (name, nodes, edges, best value)."""
    return json.dumps(
        {name: asdict(rec) for name, rec in sorted(_REGISTRY.items())}, indent=2
    )


def parse_gset(text: str) -> WeightedGraph:
    lines = text.splitlines()
    header = None
    edges = []
    seen = set()
    n = m = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("c"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise GsetParseError(f"line {lineno}: expected 'N M' header")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GsetParseError(f"line {lineno}: non-integer header") from None
            if n < 1:
                raise GsetParseError(f"line {lineno}: header declares {n} nodes, need >= 1")
            header = (n, m)
            continue
        if len(parts) != 3:
            raise GsetParseError(f"line {lineno}: expected 'u v w'")
        try:
            u, v, w = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise GsetParseError(f"line {lineno}: non-integer edge") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise GsetParseError(f"line {lineno}: node index out of range 1..{n}")
        if u == v:
            raise GsetParseError(f"line {lineno}: self-loop at node {u}")
        a, b = (u - 1, v - 1) if u < v else (v - 1, u - 1)
        if (a, b) in seen:
            raise GsetParseError(f"line {lineno}: duplicate edge ({a + 1},{b + 1})")
        seen.add((a, b))
        edges.append((a, b, w))
    if header is None:
        raise GsetParseError("empty file: no 'N M' header")
    if len(edges) != m:
        raise GsetParseError(f"edge count mismatch: header says {m}, found {len(edges)}")
    return WeightedGraph(n_nodes=n, edges=tuple(edges))


def serialize_gset(graph: WeightedGraph) -> str:
    out = [f"{graph.n_nodes} {len(graph.edges)}"]
    out.extend(f"{u + 1} {v + 1} {w}" for u, v, w in graph.edges)
    return "\n".join(out) + "\n"


def bundled_instance_names() -> list:
    """Names of instances shipped with the package."""
    root = resources.files("ssqa").joinpath("data/gset")
    return sorted(p.name for p in root.iterdir())


def _decode(data: bytes) -> str:
    """The UTF-8 text of a G-set file; a byte that is not UTF-8 is a parse
    error that names its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise GsetParseError(
            f"line {line}: byte 0x{data[exc.start]:02x} is not UTF-8 text") from None


def load_instance(name_or_path: str) -> WeightedGraph:
    """Load by registry name (bundled data) or by filesystem path."""
    bundled = resources.files("ssqa").joinpath(f"data/gset/{name_or_path}")
    if name_or_path in _REGISTRY and bundled.is_file():
        return parse_gset(_decode(bundled.read_bytes()))
    with open(name_or_path, "rb") as fh:
        return parse_gset(_decode(fh.read()))
