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


def _integers(path: str | Path, line: str) -> list[int]:
    """The whitespace-separated integers of a line of the file at path."""
    try:
        return [int(t) for t in line.split()]
    except ValueError:
        raise ValueError(f"{path}: non-integer token in {line!r}") from None


# each graph type's header; the header's field count tells a file's type
_HEADERS = {Graph: "N M", BipartiteGraph: "N1 N2 M"}
_KINDS = {len(header.split()): kind for kind, header in _HEADERS.items()}


def write_graph(g: Graph | BipartiteGraph, path: str | Path) -> None:
    """Write `N M` (a Graph) or `N1 N2 M` (a BipartiteGraph), then M lines
    `u v`, 0-based: u < v in a Graph, u in [0,N1) and v in [0,N2) in a
    BipartiteGraph."""
    sizes = (g.n1, g.n2) if isinstance(g, BipartiteGraph) else (g.n,)
    out = [" ".join(str(s) for s in (*sizes, g.edge_count))]
    out.extend(f"{u} {v}" for u, v in g.edges())
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def _read_edge_list(path: str | Path, kind: type | None = None) -> Graph | BipartiteGraph:
    """The graph of the kind that the header's field count names, its edges
    checked against the edge count M (the header's last field) and for
    duplicates, and a Graph's for u < v. A file that is not of a required
    `kind` is refused before any edge line is read."""
    lines = _data_lines(Path(path))
    if not lines:
        raise ValueError(f"{path}: empty graph file")
    fields = lines[0].split()
    found = _KINDS.get(len(fields))
    if kind is not None and found is not kind:
        raise ValueError(f"{path}: expected header {_HEADERS[kind]!r}, got {lines[0]!r}")
    if found is None:
        raise ValueError(f"{path}: unrecognized header {lines[0]!r}")
    *sizes, m = _integers(path, lines[0])
    edges = []
    for line in lines[1:]:
        if len(line.split()) != 2:
            raise ValueError(f"{path}: bad edge line {line!r}")
        u, v = _integers(path, line)
        if found is Graph and not u < v:
            raise ValueError(f"{path}: edge endpoints must satisfy u < v, got {line!r}")
        edges.append((u, v))
    if len(edges) != m:
        raise ValueError(f"{path}: header declares {m} edges, found {len(edges)}")
    if len(set(edges)) != len(edges):
        raise ValueError(f"{path}: duplicate edges")
    return found.from_edges(*sizes, edges)


def read_edge_list(path: str | Path) -> Graph | BipartiteGraph:
    """A Graph from an `N M` file or a BipartiteGraph from an `N1 N2 M` file."""
    return _read_edge_list(path)


def read_graph(path: str | Path) -> Graph:
    return _read_edge_list(path, Graph)


def read_bipartite(path: str | Path) -> BipartiteGraph:
    return _read_edge_list(path, BipartiteGraph)


@dataclass(frozen=True)
class GroundTruth:
    """Parsed sidecar: planted sizes, planted node indices, and parameters.

    For the bipartite case `sizes` is (k1, k2) and `planted` holds the k1
    first-part indices followed by the k2 second-part indices.
    """

    sizes: tuple[int, ...]
    planted: tuple[int, ...]
    params: dict

    def _sizes(self, count: int, kind: str) -> tuple[int, ...]:
        if len(self.sizes) != count:
            sizes = " ".join(map(str, self.sizes))
            raise ValueError(f"ground truth sizes {sizes!r} do not fit a {kind} graph")
        return self.sizes

    def subset(self, g: Graph) -> NodeSubset:
        (k,) = self._sizes(1, "unipartite")
        if len(self.planted) != k:
            raise ValueError("ground truth index count does not match k")
        return NodeSubset(self.planted, g.n)

    def subsets(self, g: BipartiteGraph) -> tuple[NodeSubset, NodeSubset]:
        k1, k2 = self._sizes(2, "bipartite")
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
    indices, line 3 the generator parameters as a JSON object."""
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
    sizes, planted = (tuple(_integers(path, line)) for line in raw[:2])
    try:
        params = json.loads(raw[2])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: third line is not JSON ({exc.msg}): {raw[2]!r}") from None
    if len(sizes) not in (1, 2) or min(sizes) < 1:
        raise ValueError(f"{path}: first line must hold k or k1 k2, each at least 1")
    if not isinstance(params, dict):
        raise ValueError(f"{path}: third line must be a JSON object")
    return GroundTruth(sizes=sizes, planted=planted, params=params)
