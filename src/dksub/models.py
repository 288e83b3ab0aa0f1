"""Random and adversarial planted-instance generators with retained ground
truth.

All randomness flows through counter-based Philox streams keyed by tuples of
nonnegative integers, so every instance is a pure function of its parameters
and seed and independent streams can be derived for parallel trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .graphs import BipartiteGraph, Graph, NodeSubset


class BudgetError(ValueError):
    """Requested adversarial edits exceed what the degree bounds permit."""


def stream_rng(*key: int) -> np.random.Generator:
    """Counter-based generator for the stream named by a tuple of integers.

    Identical keys give identical streams regardless of process or call
    order; experiment trials use keys (master_seed, p_index, k_index, trial).
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def child_seed(*key: int) -> int:
    """Collapse a stream key to a single 64-bit seed."""
    return int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class PlantedDksParams:
    """Planted dense k-subgraph model: pairs inside the planted k-set are
    edges with probability 1-q, all other pairs with probability p."""

    n: int
    k: int
    p: float
    q: float
    seed: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise ValueError("p and q must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class PlantedDkbParams:
    """Bipartite planted model: edges between the planted (k1, k2) pair with
    probability 1-q, all other cross pairs with probability p."""

    n1: int
    n2: int
    k1: int
    k2: int
    p: float
    q: float
    seed: int

    def __post_init__(self):
        if not (1 <= self.k1 <= self.n1 and 1 <= self.k2 <= self.n2):
            raise ValueError("need 1 <= k1 <= n1 and 1 <= k2 <= n2")
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise ValueError("p and q must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class AdversarialParams:
    """Deterministic corruption budget: delete at most s edges inside the
    planted clique and add at most r edges from outside nodes into it, while
    keeping every planted node attached to at least (1-delta1)k of the
    planted set (self included) and every outside node attached to at most
    delta2*k planted nodes."""

    r: int
    s: int
    delta1: float
    delta2: float

    def __post_init__(self):
        if self.r < 0 or self.s < 0:
            raise ValueError("r and s must be nonnegative")
        if not (0.0 <= self.delta1 < 1.0 and 0.0 <= self.delta2 < 1.0):
            raise ValueError("delta1 and delta2 must lie in [0, 1)")


@dataclass(frozen=True)
class AdversarialInstanceParams:
    """Parameter record of a corrupted instance: the clean base model plus
    the corruption budget and its seed."""

    base: PlantedDksParams
    adv: AdversarialParams
    seed: int


@dataclass(frozen=True, eq=False)
class PlantedInstance:
    graph: Graph
    planted: NodeSubset
    params: Union[PlantedDksParams, AdversarialInstanceParams, None] = None

    @property
    def k(self) -> int:
        return len(self.planted)

    def pq(self) -> tuple[float, float]:
        """Generative (p, q); a corrupted instance reports its clean base.
        Raises ValueError for an instance without generative parameters."""
        params = self.params
        if isinstance(params, AdversarialInstanceParams):
            params = params.base
        if params is None:
            raise ValueError("instance has no generative parameters (p, q)")
        return params.p, params.q


@dataclass(frozen=True, eq=False)
class BipartitePlantedInstance:
    graph: BipartiteGraph
    planted_u: NodeSubset
    planted_v: NodeSubset
    params: PlantedDkbParams

    def pq(self) -> tuple[float, float]:
        return self.params.p, self.params.q


@dataclass(frozen=True, eq=False)
class DegreeProfile:
    """Per-node count of neighbors inside the planted set.  For planted nodes
    the count excludes the node itself."""

    n_vec: np.ndarray


def sample_dks(params: PlantedDksParams, permute: bool = True) -> PlantedInstance:
    """Draw a graph from the planted dense k-subgraph model.

    Stream layout: one n x n uniform block (upper triangle consumed), then
    the node permutation.  With permute=False the planted set is 0..k-1.
    """
    rng = stream_rng(params.seed)
    n, k = params.n, params.k
    u = rng.random((n, n))
    thresh = np.full((n, n), params.p)
    thresh[:k, :k] = 1.0 - params.q
    adj = np.triu(u < thresh, 1)
    adj |= adj.T
    if permute:
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        adj = adj[np.ix_(inv, inv)]
        planted = NodeSubset(tuple(perm[:k]), n)
    else:
        planted = NodeSubset(tuple(range(k)), n)
    return PlantedInstance(Graph(n, adj), planted, params)


def sample_dkb(params: PlantedDkbParams, permute: bool = True) -> BipartitePlantedInstance:
    """Bipartite analogue of :func:`sample_dks`."""
    rng = stream_rng(params.seed)
    n1, n2, k1, k2 = params.n1, params.n2, params.k1, params.k2
    u = rng.random((n1, n2))
    thresh = np.full((n1, n2), params.p)
    thresh[:k1, :k2] = 1.0 - params.q
    biadj = u < thresh
    if permute:
        perm1 = rng.permutation(n1)
        perm2 = rng.permutation(n2)
        biadj = biadj[np.ix_(np.argsort(perm1), np.argsort(perm2))]
        planted_u = NodeSubset(tuple(perm1[:k1]), n1)
        planted_v = NodeSubset(tuple(perm2[:k2]), n2)
    else:
        planted_u = NodeSubset(tuple(range(k1)), n1)
        planted_v = NodeSubset(tuple(range(k2)), n2)
    return BipartitePlantedInstance(BipartiteGraph(n1, n2, biadj), planted_u, planted_v, params)


def degree_profile(instance: PlantedInstance) -> DegreeProfile:
    """Count, for every node, its neighbors inside the planted set."""
    members = list(instance.planted.members)
    n_vec = instance.graph.adj[:, members].sum(axis=1).astype(np.int64)
    return DegreeProfile(n_vec)


def _near_regular_edges(k: int, s: int) -> list[tuple[int, int]]:
    """s distinct vertex pairs over 0..k-1 whose degrees are floor(2s/k) or
    ceil(2s/k), realized by the Havel-Hakimi construction.

    Near-regular sequences with even sum are always graphical, so this never
    gets stuck as long as s <= C(k, 2).
    """
    if s == 0:
        return []
    base, rem = divmod(2 * s, k)
    residual = [[base + 1 if i < rem else base, i] for i in range(k)]
    edges = []
    while True:
        residual.sort(key=lambda t: (-t[0], t[1]))
        d0, hub = residual[0]
        if d0 == 0:
            return edges
        if d0 > k - 1 or any(residual[j][0] <= 0 for j in range(1, d0 + 1)):
            raise BudgetError(f"cannot place {s} deletions among {k} nodes")
        for j in range(1, d0 + 1):
            residual[j][0] -= 1
            edges.append((hub, residual[j][1]))
        residual[0][0] = 0


def _is_clean_clique(inst: PlantedInstance) -> bool:
    mask = inst.planted.mask()
    block = inst.graph.adj[np.ix_(mask, mask)]
    k = len(inst.planted)
    if not np.array_equal(block, ~np.eye(k, dtype=bool)):
        return False
    return inst.graph.edge_count == k * (k - 1) // 2


def corrupt_adversarial(
    clique_instance: PlantedInstance, adv: AdversarialParams, seed: int
) -> PlantedInstance:
    """Apply a deterministic worst-case-style corruption to a clean planted
    clique.

    Deletions are spread over the planted nodes so that no node loses more
    than floor(delta1*k) incident clique edges; additions attach outside
    nodes to planted nodes round-robin so that no outside node gains more
    than floor(delta2*k) planted neighbors.  The resulting graph satisfies
    the degree hypotheses of the adversarial recovery guarantee by
    construction.
    """
    if not _is_clean_clique(clique_instance):
        raise ValueError("input must be a planted clique with no other edges (p=q=0)")
    g = clique_instance.graph
    n = g.n
    planted = list(clique_instance.planted.members)
    k = len(planted)
    outside = [v for v in range(n) if v not in set(planted)]

    cap_del = math.floor(adv.delta1 * k)
    max_s = k * cap_del // 2
    if adv.s > max_s:
        raise BudgetError(
            f"s={adv.s} deletions exceed the delta1 budget {max_s} for k={k}"
        )
    cap_add = math.floor(adv.delta2 * k)
    max_r = len(outside) * cap_add
    if adv.r > max_r:
        raise BudgetError(
            f"r={adv.r} additions exceed the delta2 attachment capacity {max_r}"
        )

    rng = stream_rng(seed)
    perm_p = [planted[i] for i in rng.permutation(k)]
    perm_o = [outside[i] for i in rng.permutation(len(outside))] if outside else []

    adj = np.array(g.adj)

    # Deletions: realize a near-regular deletion profile, so every planted
    # node loses at most cap_del incident clique edges.
    for ui, vi in _near_regular_edges(k, adv.s):
        adj[perm_p[ui], perm_p[vi]] = adj[perm_p[vi], perm_p[ui]] = False

    # Additions: rounds of one new planted neighbor per outside node.
    added = 0
    for t in range(cap_add):
        if added >= adv.r:
            break
        for a, node in enumerate(perm_o):
            if added >= adv.r:
                break
            partner = perm_p[(a + t) % k]
            adj[node, partner] = adj[partner, node] = True
            added += 1

    params = AdversarialInstanceParams(base=clique_instance.params, adv=adv, seed=seed)
    return PlantedInstance(Graph(n, adj), clique_instance.planted, params)
