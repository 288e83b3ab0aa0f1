import math

import numpy as np
import pytest

from dksub.graphs import subgraph_density
from dksub.models import (
    AdversarialParams,
    BudgetError,
    PlantedDkbParams,
    PlantedDksParams,
    PlantedInstance,
    child_seed,
    corrupt_adversarial,
    degree_profile,
    sample_dkb,
    sample_dks,
    stream_rng,
)


class TestStreams:
    def test_same_key_same_stream(self):
        a = stream_rng(5, 1, 2, 3).random(8)
        b = stream_rng(5, 1, 2, 3).random(8)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = stream_rng(5, 1, 2, 3).random(8)
        b = stream_rng(5, 1, 2, 4).random(8)
        assert not np.array_equal(a, b)

    def test_child_seed_deterministic(self):
        assert child_seed(1, 2, 3) == child_seed(1, 2, 3)
        assert child_seed(1, 2, 3) != child_seed(1, 2, 4)


class TestSampleDks:
    def test_deterministic(self):
        params = PlantedDksParams(n=40, k=10, p=0.3, q=0.2, seed=11)
        a = sample_dks(params)
        b = sample_dks(params)
        assert np.array_equal(a.graph.adj, b.graph.adj)
        assert a.planted.members == b.planted.members

    def test_clean_clique(self):
        inst = sample_dks(PlantedDksParams(n=30, k=8, p=0.0, q=0.0, seed=0))
        mask = inst.planted.mask()
        block = inst.graph.adj[np.ix_(mask, mask)]
        assert np.array_equal(block, ~np.eye(8, dtype=bool))
        assert inst.graph.edge_count == 28

    def test_pq_without_params_rejected(self):
        inst = sample_dks(PlantedDksParams(n=12, k=4, p=0.1, q=0.1, seed=0))
        with pytest.raises(ValueError, match="no generative parameters"):
            PlantedInstance(inst.graph, inst.planted).pq()

    def test_complement_extreme(self):
        # p=1, q=1: planted set independent, every other pair present
        inst = sample_dks(PlantedDksParams(n=12, k=5, p=1.0, q=1.0, seed=2))
        mask = inst.planted.mask()
        assert inst.graph.adj[np.ix_(mask, mask)].sum() == 0
        outside_pairs = 12 * 11 // 2 - 10
        assert inst.graph.edge_count == outside_pairs

    def test_no_permute_places_planted_first(self):
        inst = sample_dks(PlantedDksParams(n=20, k=6, p=0.2, q=0.1, seed=5), permute=False)
        assert inst.planted.members == tuple(range(6))

    def test_permutation_preserves_induced_subgraph(self):
        params = PlantedDksParams(n=25, k=9, p=0.3, q=0.3, seed=7)
        plain = sample_dks(params, permute=False)
        permuted = sample_dks(params, permute=True)
        assert subgraph_density(plain.graph, plain.planted) == pytest.approx(
            subgraph_density(permuted.graph, permuted.planted)
        )

    def test_inside_edge_concentration(self):
        # Monte-Carlo check of the binomial tail bound on the planted block.
        n, k, p, q = 250, 100, 0.05, 0.25
        m = math.comb(k, 2)
        bound = 6 * max(math.sqrt(q * (1 - q) * m * math.log(m)), math.log(m))
        hits = 0
        seeds = 100
        for seed in range(seeds):
            inst = sample_dks(PlantedDksParams(n=n, k=k, p=p, q=q, seed=seed))
            mask = inst.planted.mask()
            inside = int(inst.graph.adj[np.ix_(mask, mask)].sum()) // 2
            if abs(inside - (1 - q) * m) <= bound:
                hits += 1
        assert hits >= 0.99 * seeds

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PlantedDksParams(n=5, k=6, p=0.1, q=0.1, seed=0)
        with pytest.raises(ValueError):
            PlantedDksParams(n=5, k=2, p=1.5, q=0.1, seed=0)
        with pytest.raises(ValueError):
            PlantedDksParams(n=5, k=2, p=0.1, q=0.1, seed=-1)


class TestSampleDkb:
    def test_clean_biclique(self):
        inst = sample_dkb(PlantedDkbParams(n1=10, n2=12, k1=4, k2=5, p=0.0, q=0.0, seed=0))
        block = inst.graph.biadj[np.ix_(inst.planted_u.mask(), inst.planted_v.mask())]
        assert block.all()
        assert inst.graph.edge_count == 20

    def test_full_parts_q0_gives_complete(self):
        inst = sample_dkb(PlantedDkbParams(n1=6, n2=7, k1=6, k2=7, p=0.3, q=0.0, seed=1))
        assert inst.graph.biadj.all()

    def test_block_concentration(self):
        n1 = n2 = 200
        k1 = k2 = 60
        q = 0.25
        m = k1 * k2
        bound = 6 * max(math.sqrt(q * (1 - q) * m * math.log(m)), math.log(m))
        hits = 0
        seeds = 60
        for seed in range(seeds):
            inst = sample_dkb(
                PlantedDkbParams(n1=n1, n2=n2, k1=k1, k2=k2, p=0.05, q=q, seed=seed)
            )
            block = inst.graph.biadj[np.ix_(inst.planted_u.mask(), inst.planted_v.mask())]
            if abs(int(block.sum()) - 0.75 * m) <= bound:
                hits += 1
        assert hits >= 0.99 * seeds

    def test_deterministic(self):
        params = PlantedDkbParams(n1=15, n2=18, k1=5, k2=6, p=0.2, q=0.3, seed=9)
        assert np.array_equal(sample_dkb(params).graph.biadj, sample_dkb(params).graph.biadj)


class TestDegreeProfile:
    def test_clean_clique_profile(self):
        inst = sample_dks(PlantedDksParams(n=20, k=7, p=0.0, q=0.0, seed=3))
        prof = degree_profile(inst)
        mask = inst.planted.mask()
        assert np.all(prof[mask] == 6)
        assert np.all(prof[~mask] == 0)

    def test_handshake_parity(self):
        for seed in range(5):
            inst = sample_dks(PlantedDksParams(n=18, k=6, p=0.4, q=0.4, seed=seed))
            prof = degree_profile(inst)
            assert int(prof[inst.planted.mask()].sum()) % 2 == 0


class TestAdversarial:
    def clean(self, n, k, seed=0):
        return sample_dks(PlantedDksParams(n=n, k=k, p=0.0, q=0.0, seed=seed))

    def test_zero_budget_is_identity(self):
        inst = self.clean(20, 8)
        out = corrupt_adversarial(inst, AdversarialParams(r=0, s=0, delta1=0.3, delta2=0.3), seed=1)
        assert np.array_equal(out.graph.adj, inst.graph.adj)

    def test_deletions_respect_degree_floor(self):
        # k=10, delta1=0.2: nodes keep >= 8 of the planted set, self included.
        inst = self.clean(25, 10)
        out = corrupt_adversarial(inst, AdversarialParams(r=0, s=10, delta1=0.2, delta2=0.0), seed=2)
        prof = degree_profile(out)
        mask = out.planted.mask()
        assert np.all(prof[mask] + 1 >= 8)
        deleted = inst.graph.edge_count - out.graph.edge_count
        assert deleted == 10

    def test_additions_respect_attachment_cap(self):
        inst = self.clean(60, 20)
        out = corrupt_adversarial(
            inst, AdversarialParams(r=100, s=0, delta1=0.0, delta2=0.25), seed=3
        )
        prof = degree_profile(out)
        outside = ~out.planted.mask()
        assert np.all(prof[outside] <= 5)
        assert out.graph.edge_count - inst.graph.edge_count == 100

    def test_deletion_budget_error(self):
        inst = self.clean(20, 10)
        # floor(k * floor(delta1*k) / 2) = floor(10*2/2) = 10
        with pytest.raises(BudgetError):
            corrupt_adversarial(inst, AdversarialParams(r=0, s=11, delta1=0.2, delta2=0.0), seed=0)

    def test_addition_budget_error(self):
        inst = self.clean(25, 20)
        cap = 5 * math.floor(0.25 * 20)
        with pytest.raises(BudgetError):
            corrupt_adversarial(
                inst, AdversarialParams(r=cap + 1, s=0, delta1=0.0, delta2=0.25), seed=0
            )

    def test_rejects_noisy_input(self):
        noisy = sample_dks(PlantedDksParams(n=20, k=8, p=0.1, q=0.0, seed=0))
        with pytest.raises(ValueError, match="planted clique"):
            corrupt_adversarial(noisy, AdversarialParams(r=0, s=0, delta1=0.1, delta2=0.1), seed=0)

    def test_full_budget_always_placeable(self):
        for k, delta1 in [(6, 0.4), (9, 0.5), (10, 0.35), (13, 0.61)]:
            cap = math.floor(delta1 * k)
            smax = k * cap // 2
            inst = self.clean(k + 5, k, seed=k)
            out = corrupt_adversarial(
                inst, AdversarialParams(r=0, s=smax, delta1=delta1, delta2=0.0), seed=7
            )
            prof = degree_profile(out)[out.planted.mask()]
            assert np.all(k - 1 - prof <= cap)
            assert inst.graph.edge_count - out.graph.edge_count == smax

    def test_deterministic(self):
        inst = self.clean(30, 12)
        adv = AdversarialParams(r=15, s=12, delta1=0.4, delta2=0.4)
        a = corrupt_adversarial(inst, adv, seed=5)
        b = corrupt_adversarial(inst, adv, seed=5)
        assert np.array_equal(a.graph.adj, b.graph.adj)

    @pytest.mark.parametrize(
        "r,added",
        [
            (5, [(1, 9), (2, 5), (3, 6), (4, 11), (5, 10)]),
            # past the 8 outside nodes: the second round starts one planted
            # partner further on
            (11, [(0, 9), (1, 9), (1, 11), (2, 5), (3, 6), (3, 9), (4, 11), (5, 10),
                  (6, 8), (6, 10), (7, 11)]),
        ],
    )
    def test_additions_are_placed_round_robin(self, r, added):
        inst = self.clean(12, 4, seed=3)
        out = corrupt_adversarial(inst, AdversarialParams(r=r, s=0, delta1=0.0, delta2=0.5), seed=4)
        assert sorted(set(out.graph.edges()) - set(inst.graph.edges())) == added

    def test_pq_reports_base_model(self):
        inst = self.clean(20, 8)
        out = corrupt_adversarial(inst, AdversarialParams(r=3, s=3, delta1=0.5, delta2=0.5), seed=1)
        assert out.pq() == (0.0, 0.0)
