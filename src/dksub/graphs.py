"""Graph primitives: dense adjacency storage, densities, nonedge masks, and
the rank-one-plus-correction matrix pair used throughout the package."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np


def _adjacency(rows: int, cols: int, edges: list) -> np.ndarray:
    """Boolean matrix, True at each (u, v) of edges, which the caller has checked.
    A graph file's header sets the size, so one above half of physical memory is
    refused before allocation (where os.sysconf can tell the memory size)."""
    try:
        half = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2
    except (AttributeError, ValueError, OSError):
        half = 0
    if rows > 0 and 0 < half < rows * cols:
        raise ValueError(f"a {rows}x{cols} adjacency exceeds half of physical memory ({half} B)")
    adj = np.zeros((rows, cols), dtype=bool)
    for u, v in edges:
        adj[u, v] = True
    return adj


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on nodes 0..n-1 with dense boolean adjacency."""

    n: int
    adj: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        adj = np.array(self.adj, dtype=bool)
        if adj.shape != (self.n, self.n):
            raise ValueError(f"adjacency shape {adj.shape} does not match n={self.n}")
        if adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        adj.setflags(write=False)
        object.__setattr__(self, "adj", adj)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        edges = list(edges)
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
        return cls(n, _adjacency(n, n, edges + [(v, u) for u, v in edges]))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, ~np.eye(n, dtype=bool))

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adj)) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edge list as (u, v) pairs with u < v, sorted."""
        iu, iv = np.nonzero(np.triu(self.adj, 1))
        return list(zip(iu.tolist(), iv.tolist()))


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Bipartite graph with parts of size n1 and n2 and a dense biadjacency."""

    n1: int
    n2: int
    biadj: np.ndarray

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("both parts need at least one node")
        biadj = np.array(self.biadj, dtype=bool)
        if biadj.shape != (self.n1, self.n2):
            raise ValueError(
                f"biadjacency shape {biadj.shape} does not match ({self.n1}, {self.n2})"
            )
        biadj.setflags(write=False)
        object.__setattr__(self, "biadj", biadj)

    @classmethod
    def from_edges(cls, n1: int, n2: int, edges: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        edges = list(edges)
        for u, v in edges:
            if not (0 <= u < n1 and 0 <= v < n2):
                raise ValueError(f"bad edge ({u}, {v}) for parts ({n1}, {n2})")
        return cls(n1, n2, _adjacency(n1, n2, edges))

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.biadj))

    def edges(self) -> list[tuple[int, int]]:
        iu, iv = np.nonzero(self.biadj)
        return list(zip(iu.tolist(), iv.tolist()))


@dataclass(frozen=True)
class NodeSubset:
    """A subset of nodes of a host graph of size n, kept sorted."""

    members: tuple[int, ...]
    n: int

    def __post_init__(self):
        members = tuple(sorted(int(v) for v in self.members))
        if len(set(members)) != len(members):
            raise ValueError("duplicate node indices in subset")
        if members and not (0 <= members[0] and members[-1] < self.n):
            raise ValueError(f"subset members out of range for n={self.n}")
        object.__setattr__(self, "members", members)

    @classmethod
    def _trusted(cls, members: tuple[int, ...], n: int) -> NodeSubset:
        """A subset from members already sorted, distinct and in range(n),
        built without the checks (the oracle makes tens of thousands)."""
        subset = object.__new__(cls)
        object.__setattr__(subset, "members", members)
        object.__setattr__(subset, "n", n)
        return subset

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, v: int) -> bool:
        return v in set(self.members)

    def indicator(self) -> np.ndarray:
        """0/1 characteristic vector of the subset."""
        v = np.zeros(self.n)
        v[list(self.members)] = 1.0
        return v

    def mask(self) -> np.ndarray:
        return self.indicator().astype(bool)


def density(g: Graph) -> float:
    """Average degree |E| / |V|."""
    return g.edge_count / g.n


def subgraph_density(g: Graph, s: NodeSubset) -> float:
    """Density of the subgraph induced by s."""
    if len(s) == 0:
        raise ValueError("subset must be nonempty")
    idx = list(s.members)
    sub = g.adj[np.ix_(idx, idx)]
    return int(np.count_nonzero(sub)) / 2 / len(s)


def complement_edges(g: Graph) -> np.ndarray:
    """Boolean mask of the nonedge set: ordered pairs (i, j) with i != j that
    are not edges.  The diagonal is excluded."""
    return ~g.adj & ~np.eye(g.n, dtype=bool)


def bipartite_complement_edges(g: BipartiteGraph) -> np.ndarray:
    """Boolean mask of the bipartite nonedge set (all non-adjacent pairs)."""
    return ~g.biadj


def project_complement(g: Graph, M: np.ndarray) -> np.ndarray:
    """Zero out every entry of M that is not a nonedge of g.

    This is the orthogonal projection onto matrices supported on the nonedge
    set; it is idempotent and self-adjoint.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (g.n, g.n):
        raise ValueError(f"matrix shape {M.shape} does not match n={g.n}")
    return np.where(complement_edges(g), M, 0.0)


def proposed_solution(g: Graph, s: NodeSubset) -> tuple[np.ndarray, np.ndarray]:
    """Candidate optimal pair (X, Y) for the subset s.

    X is the rank-one 0/1 matrix v v^T built from the characteristic vector of
    s; Y = -P(X) corrects X on nonedges so that X + Y restricted to s x s is
    the adjacency-plus-identity block of the induced subgraph.
    """
    if len(s) == 0:
        raise ValueError("subset must be nonempty")
    v = s.indicator()
    X = np.outer(v, v)
    Y = -project_complement(g, X)
    return X, Y


def density_identity_check(g: Graph, s: NodeSubset) -> tuple[float, float]:
    """Both sides of the identity tying induced density to the correction size.

    Returns (lhs, rhs) where lhs is the induced subgraph density and
    rhs = (k(k-1) - nnz(Y)) / (2k) with Y from :func:`proposed_solution`.
    The two are equal for every graph and nonempty subset.
    """
    k = len(s)
    lhs = subgraph_density(g, s)
    _, Y = proposed_solution(g, s)
    rhs = (k * (k - 1) - int(np.count_nonzero(Y))) / (2 * k)
    return lhs, rhs
