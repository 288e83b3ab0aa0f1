"""Text file formats: edge lists for graphs and ground-truth sidecars for
planted instances."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .graphs import BipartiteGraph, Graph, NodeSubset


def _data_lines(path: Path) -> list[str]:
    lines = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def write_graph(g: Graph, path: str | Path) -> None:
    """Write `N M` followed by M lines `u v` with u < v, 0-based."""
    out = [f"{g.n} {g.edge_count}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def _read_edge_list(path: str | Path, header: str, ordered: bool) -> tuple[list[int], list]:
    """The header's sizes and the edge pairs of an edge-list file whose first
    data line is `header` (its last field the edge count M), checked against M
    and for duplicates; with ordered=True every edge must satisfy u < v."""
    lines = _data_lines(Path(path))
    if not lines:
        raise ValueError(f"{path}: empty graph file")
    fields = lines[0].split()
    if len(fields) != len(header.split()):
        raise ValueError(f"{path}: expected header {header!r}, got {lines[0]!r}")
    *sizes, m = (int(t) for t in fields)
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: bad edge line {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if ordered and not u < v:
            raise ValueError(f"{path}: edge endpoints must satisfy u < v, got {line!r}")
        edges.append((u, v))
    if len(edges) != m:
        raise ValueError(f"{path}: header declares {m} edges, found {len(edges)}")
    if len(set(edges)) != len(edges):
        raise ValueError(f"{path}: duplicate edges")
    return sizes, edges


def read_graph(path: str | Path) -> Graph:
    (n,), edges = _read_edge_list(path, "N M", ordered=True)
    return Graph.from_edges(n, edges)


def write_bipartite(g: BipartiteGraph, path: str | Path) -> None:
    """Write `N1 N2 M` followed by M lines `u v` with u in [0,N1), v in [0,N2)."""
    out = [f"{g.n1} {g.n2} {g.edge_count}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def read_bipartite(path: str | Path) -> BipartiteGraph:
    (n1, n2), edges = _read_edge_list(path, "N1 N2 M", ordered=False)
    return BipartiteGraph.from_edges(n1, n2, edges)


def sniff_kind(path: str | Path) -> str:
    """Return 'graph' or 'bipartite' from the header token count."""
    lines = _data_lines(Path(path))
    if not lines:
        raise ValueError(f"{path}: empty graph file")
    ntok = len(lines[0].split())
    if ntok == 2:
        return "graph"
    if ntok == 3:
        return "bipartite"
    raise ValueError(f"{path}: unrecognized header {lines[0]!r}")


@dataclass(frozen=True)
class GroundTruth:
    """Parsed sidecar: planted sizes, planted node indices, and parameters.

    For the bipartite case `sizes` is (k1, k2) and `planted` holds the k1
    first-part indices followed by the k2 second-part indices.
    """

    sizes: tuple[int, ...]
    planted: tuple[int, ...]
    params: dict

    def subset(self, g: Graph) -> NodeSubset:
        (k,) = self.sizes
        if len(self.planted) != k:
            raise ValueError("ground truth index count does not match k")
        return NodeSubset(self.planted, g.n)

    def subsets(self, g: BipartiteGraph) -> tuple[NodeSubset, NodeSubset]:
        k1, k2 = self.sizes
        if len(self.planted) != k1 + k2:
            raise ValueError("ground truth index count does not match k1 + k2")
        return (
            NodeSubset(self.planted[:k1], g.n1),
            NodeSubset(self.planted[k1:], g.n2),
        )


def truth_path(graph_path: str | Path) -> Path:
    return Path(str(graph_path) + ".truth")


def write_ground_truth(path: str | Path, sizes, planted, params) -> None:
    """Sidecar format: line 1 `k` (or `k1 k2`), line 2 the planted node
    indices, line 3 the JSON-encoded generator parameters."""
    if dataclasses.is_dataclass(params):
        params = dataclasses.asdict(params)
    lines = [
        " ".join(str(int(s)) for s in sizes),
        " ".join(str(int(v)) for v in planted),
        json.dumps(params, sort_keys=True),
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_ground_truth(path: str | Path) -> GroundTruth:
    raw = Path(path).read_text(encoding="utf-8").splitlines()
    if len(raw) < 3:
        raise ValueError(f"{path}: sidecar needs 3 lines")
    sizes = tuple(int(t) for t in raw[0].split())
    planted = tuple(int(t) for t in raw[1].split())
    params = json.loads(raw[2])
    if len(sizes) not in (1, 2) or min(sizes) < 1:
        raise ValueError(f"{path}: first line must hold k or k1 k2, each at least 1")
    return GroundTruth(sizes=sizes, planted=planted, params=params)
