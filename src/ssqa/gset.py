"""G-set benchmark file parsing and the instance metadata registry.

File format: first non-comment line "N M", then M lines "u v w" with
1-based node indices. Lines starting with '#' or 'c' are skipped (some
mirrors include them). Duplicate edges are a hard error, not merged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from importlib import resources

from .ising import WeightedGraph, EdgeError, _edge_array


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
    lines = ((lineno, raw.split()) for lineno, raw in enumerate(text.splitlines(), start=1))
    lines = ((lineno, parts) for lineno, parts in lines if parts and parts[0][0] not in "#c")
    header, parts = next(lines, (0, None))
    if parts is None:
        raise GsetParseError("empty file: no 'N M' header")
    if len(parts) != 2:
        raise GsetParseError(f"line {header}: expected 'N M' header")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GsetParseError(f"line {header}: non-integer header") from None
    if n < 1:
        raise GsetParseError(f"line {header}: header declares {n} nodes, need >= 1")
    rows, linenos, error = [], [], None
    for lineno, parts in lines:
        if len(parts) != 3:
            error = f"line {lineno}: expected 'u v w'"
            break
        try:
            u, v, w = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            error = f"line {lineno}: non-integer edge"
            break
        rows.append((u - 1, v - 1, w) if u < v else (v - 1, u - 1, w))
        linenos.append(lineno)
    try:  # an edge on a line before a malformed one fails first
        edges = _edge_array(n, rows, base=1)
    except EdgeError as exc:
        raise GsetParseError(f"line {linenos[exc.row]}: {exc}") from None
    except ValueError as exc:  # n too large for the pair keys
        raise GsetParseError(f"line {header}: {exc}") from None
    if error:
        raise GsetParseError(error)
    if len(edges) != m:
        raise GsetParseError(f"edge count mismatch: header says {m}, found {len(edges)}")
    try:  # rows that pass every edge rule can still sum past int64
        return WeightedGraph(n_nodes=n, edges=edges)
    except ValueError as exc:
        raise GsetParseError(str(exc)) from None


def serialize_gset(graph: WeightedGraph) -> str:
    u, v, w = (graph.edges + (1, 1, 0)).T.tolist()  # 1-based; three lists, none per edge
    out = [f"{graph.n_nodes} {len(graph.edges)}"]
    out.extend(map("{} {} {}".format, u, v, w))
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
    """Load by registry name (bundled data) or by filesystem path; a registry
    name whose edge file is not bundled loads only as a path."""
    bundled = resources.files("ssqa").joinpath(f"data/gset/{name_or_path}")
    if name_or_path in _REGISTRY and bundled.is_file():
        return parse_gset(_decode(bundled.read_bytes()))
    try:
        with open(name_or_path, "rb") as fh:
            return parse_gset(_decode(fh.read()))
    except FileNotFoundError:
        if name_or_path not in _REGISTRY:
            raise
        raise FileNotFoundError(f"{name_or_path} is a registry instance whose edge file is not "
                                f"bundled; pass a path to a {name_or_path} G-set file to load "
                                f"it") from None
