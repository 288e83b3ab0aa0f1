"""Exhaustive ground truth for small instances.

Enumeration walks k-combinations in lexicographic order while maintaining
prefix bitmasks and running edge counts, so advancing to the next subset
costs one popcount per changed position.  A hard guard on the number of
candidate subsets keeps accidental large calls from hanging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graphs import BipartiteGraph, Graph, NodeSubset

GUARD_LIMIT = 10**7


class SizeGuardError(ValueError):
    """The requested enumeration is too large for the brute-force oracle."""


@dataclass(eq=False)
class OracleResult:
    best_edge_count: int
    optimal_subsets: list
    unique: bool


def _row_bits(adj) -> list[int]:
    bits = []
    for row in adj:
        b = 0
        for j in row.nonzero()[0]:
            b |= 1 << int(j)
        bits.append(b)
    return bits


def _best_k_subsets(
    nbr: list[int], n: int, k: int, sign: int = 1
) -> tuple[int, list[tuple[int, ...]]]:
    """Every k-subset maximizing sign * (its edge count in the graph of row
    bitmasks nbr), and that edge count: sign=-1 minimizes it."""
    comb = list(range(k))
    pre_bits = [0] * (k + 1)
    pre_edges = [0] * (k + 1)
    for j in range(k):
        pre_edges[j + 1] = pre_edges[j] + (nbr[comb[j]] & pre_bits[j]).bit_count()
        pre_bits[j + 1] = pre_bits[j] | (1 << comb[j])
    best = -math.inf
    out: list[tuple[int, ...]] = []
    while True:
        score = sign * pre_edges[k]
        if score > best:
            best, out = score, [tuple(comb)]
        elif score == best:
            out.append(tuple(comb))
        i = k - 1
        while i >= 0 and comb[i] == n - k + i:
            i -= 1
        if i < 0:
            return sign * best, out
        comb[i] += 1
        for j in range(i + 1, k):
            comb[j] = comb[j - 1] + 1
        for j in range(i, k):
            pre_edges[j + 1] = pre_edges[j] + (nbr[comb[j]] & pre_bits[j]).bit_count()
            pre_bits[j + 1] = pre_bits[j] | (1 << comb[j])


def brute_force_dks(g: Graph, k: int) -> OracleResult:
    """Exact maximum edge count over all k-subsets, with every maximizer."""
    if not 1 <= k <= g.n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={g.n}")
    count = math.comb(g.n, k)
    if count > GUARD_LIMIT:
        raise SizeGuardError(f"C({g.n},{k}) = {count} exceeds the guard {GUARD_LIMIT}")
    best, subsets = _best_k_subsets(_row_bits(g.adj), g.n, k)
    optimal = [NodeSubset(s, g.n) for s in subsets]
    return OracleResult(best_edge_count=best, optimal_subsets=optimal, unique=len(optimal) == 1)


def brute_force_dkb(g: BipartiteGraph, k1: int, k2: int) -> OracleResult:
    """Exact maximum edge count over all (k1, k2)-subset pairs."""
    if not (1 <= k1 <= g.n1 and 1 <= k2 <= g.n2):
        raise ValueError(f"need 1 <= k1 <= n1 and 1 <= k2 <= n2, got {k1}, {k2}")
    count = math.comb(g.n1, k1) * math.comb(g.n2, k2)
    if count > GUARD_LIMIT:
        raise SizeGuardError(
            f"C({g.n1},{k1}) * C({g.n2},{k2}) = {count} exceeds the guard {GUARD_LIMIT}"
        )
    ubits = _row_bits(g.biadj)
    best = -1
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for vsub in combinations(range(g.n2), k2):
        vmask = 0
        for v in vsub:
            vmask |= 1 << v
        score = [(ubits[u] & vmask).bit_count() for u in range(g.n1)]
        for usub in combinations(range(g.n1), k1):
            edges = sum(score[u] for u in usub)
            if edges > best:
                best, out = edges, [(usub, vsub)]
            elif edges == best:
                out.append((usub, vsub))
    optimal = [
        (NodeSubset(us, g.n1), NodeSubset(vs, g.n2)) for us, vs in out
    ]
    return OracleResult(best_edge_count=best, optimal_subsets=optimal, unique=len(optimal) == 1)


def restricted_relaxation_value(
    g: Graph, k: int, gamma: float
) -> tuple[float, list[NodeSubset]]:
    """Minimum of k + gamma * ||Y||_1 over all rank-one integral candidates,
    where Y is the nonedge correction of the candidate subset.

    Minimizes the nonedge count over the complement graph, an input
    independent of :func:`brute_force_dks`'s (the two share only the
    enumerator); they agree on their optimizer sets for every gamma > 0.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not 1 <= k <= g.n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={g.n}")
    count = math.comb(g.n, k)
    if count > GUARD_LIMIT:
        raise SizeGuardError(f"C({g.n},{k}) = {count} exceeds the guard {GUARD_LIMIT}")
    comp = ~g.adj & ~np.eye(g.n, dtype=bool)
    min_nonedges, argmin = _best_k_subsets(_row_bits(comp), g.n, k, sign=-1)
    value = k + gamma * (2 * min_nonedges)  # ||Y||_1 counts ordered pairs
    return value, [NodeSubset(s, g.n) for s in argmin]
