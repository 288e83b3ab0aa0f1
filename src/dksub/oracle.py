"""Exhaustive ground truth for small instances.

One generator yields every k-subset of range(n) in lexicographic order, from
itertools.combinations, in blocks of at most _BLOCK rows, and numpy scores a
whole block per call, so a call's working memory does not grow with C(n, k).
The bipartite search loops in Python only over its side with fewer subsets.
A hard guard on the number of candidate subsets keeps accidental large calls
from hanging.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, combinations, repeat

import numpy as np

from .graphs import BipartiteGraph, Graph, NodeSubset

GUARD_LIMIT = 10**7

_BLOCK = 1 << 14  # subsets per scored block


class SizeGuardError(ValueError):
    """The requested enumeration is too large for the brute-force oracle."""


@dataclass(eq=False)
class OracleResult:
    best_edge_count: int
    optimal_subsets: list
    unique: bool


def _check_guard(count: int, expr: str) -> None:
    """Refuse an enumeration of count candidates, written as expr, above the guard."""
    if count > GUARD_LIMIT:
        raise SizeGuardError(f"{expr} = {count} exceeds the guard {GUARD_LIMIT}")


def _subset_blocks(n: int, k: int) -> Iterator[np.ndarray]:
    """Every k-subset of range(n) in lexicographic order, as (rows, k) int
    arrays of at most _BLOCK rows."""
    flat = chain.from_iterable(combinations(range(n), k))
    total = math.comb(n, k)
    for start in range(0, total, _BLOCK):
        rows = min(_BLOCK, total - start)
        yield np.fromiter(flat, dtype=np.intp, count=rows * k).reshape(rows, k)


def _best_k_subsets(adj: np.ndarray, k: int, sign: int = 1) -> tuple[int, list]:
    """Every k-subset maximizing sign * (its edge count in adj), in
    lexicographic order, and that edge count: sign=-1 minimizes it."""
    pairs = list(combinations(range(k), 2))
    best, out = -math.inf, []
    for rows in _subset_blocks(len(adj), k):
        scores = np.zeros(len(rows), dtype=np.int64)
        for a, b in pairs:
            scores += adj[rows[:, a], rows[:, b]]
        scores *= sign
        top = int(scores.max())
        if top > best:
            best, out = top, []
        if top == best:
            out.extend(rows[scores == top].tolist())
    return sign * best, out


def brute_force_dks(g: Graph, k: int) -> OracleResult:
    """Exact maximum edge count over all k-subsets, with every maximizer."""
    if not 1 <= k <= g.n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={g.n}")
    _check_guard(math.comb(g.n, k), f"C({g.n},{k})")
    best, subsets = _best_k_subsets(g.adj, k)
    optimal = [NodeSubset._trusted(tuple(s), g.n) for s in subsets]
    return OracleResult(best_edge_count=best, optimal_subsets=optimal, unique=len(optimal) == 1)


def brute_force_dkb(g: BipartiteGraph, k1: int, k2: int) -> OracleResult:
    """Exact maximum edge count over all (k1, k2)-subset pairs, with every
    maximizer, ordered by V subset and then by U subset."""
    if not (1 <= k1 <= g.n1 and 1 <= k2 <= g.n2):
        raise ValueError(f"need 1 <= k1 <= n1 and 1 <= k2 <= n2, got {k1}, {k2}")
    c1, c2 = math.comb(g.n1, k1), math.comb(g.n2, k2)
    _check_guard(c1 * c2, f"C({g.n1},{k1}) * C({g.n2},{k2})")
    loop_u = c1 <= c2
    biadj, (nl, kl), (no, ko) = (
        (g.biadj, (g.n1, k1), (g.n2, k2)) if loop_u else (g.biadj.T, (g.n2, k2), (g.n1, k1))
    )
    # the looped side has at most sqrt(GUARD_LIMIT) subsets: one block
    (looped,) = _subset_blocks(nl, kl)
    degrees = biadj[looped].sum(axis=1)  # each looped subset's edges to every other node
    best = -1
    out: list[tuple[list[int], list[int]]] = []  # (V subset, U subset)
    for rows in _subset_blocks(no, ko):
        for sub, deg in zip(looped.tolist(), degrees):
            scores = deg[rows].sum(axis=1)
            top = int(scores.max())
            if top < best:
                continue
            if top > best:
                best, out = top, []
            hits = rows[scores == top].tolist()
            out.extend(zip(hits, repeat(sub)) if loop_u else zip(repeat(sub), hits))
    out.sort()
    # one object per distinct subset: a tie-heavy graph repeats each many times
    subset = functools.cache(NodeSubset._trusted)
    optimal = [(subset(tuple(us), g.n1), subset(tuple(vs), g.n2)) for vs, us in out]
    return OracleResult(best_edge_count=best, optimal_subsets=optimal, unique=len(optimal) == 1)


def restricted_relaxation_value(
    g: Graph, k: int, gamma: float
) -> tuple[float, list[NodeSubset]]:
    """Minimum of k + gamma * ||Y||_1 over all rank-one integral candidates,
    where Y is the nonedge correction of the candidate subset.

    Minimizes the nonedge count over the complement graph, an input
    independent of :func:`brute_force_dks`'s (the two share only the
    enumerator and its scorer); they agree on their optimizer sets for every
    gamma > 0.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not 1 <= k <= g.n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={g.n}")
    _check_guard(math.comb(g.n, k), f"C({g.n},{k})")
    comp = ~g.adj & ~np.eye(g.n, dtype=bool)
    min_nonedges, argmin = _best_k_subsets(comp, k, sign=-1)
    value = k + gamma * (2 * min_nonedges)  # ||Y||_1 counts ordered pairs
    return value, [NodeSubset._trusted(tuple(s), g.n) for s in argmin]
