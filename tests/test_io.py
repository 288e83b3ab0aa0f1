import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dksub.graphs import BipartiteGraph, Graph
from dksub.io import (
    read_bipartite,
    read_graph,
    read_ground_truth,
    sniff_kind,
    truth_path,
    write_bipartite,
    write_graph,
    write_ground_truth,
)
from dksub.models import (
    AdversarialParams,
    PlantedDksParams,
    corrupt_adversarial,
    sample_dks,
)


def test_graph_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    upper = np.triu(rng.random((9, 9)) < 0.4, 1)
    g = Graph(9, upper | upper.T)
    path = tmp_path / "g.txt"
    write_graph(g, path)
    g2 = read_graph(path)
    assert g2.n == g.n
    assert np.array_equal(g2.adj, g.adj)
    assert sniff_kind(path) == "graph"


def test_bipartite_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    g = BipartiteGraph(4, 6, rng.random((4, 6)) < 0.5)
    path = tmp_path / "b.txt"
    write_bipartite(g, path)
    g2 = read_bipartite(path)
    assert (g2.n1, g2.n2) == (4, 6)
    assert np.array_equal(g2.biadj, g.biadj)
    assert sniff_kind(path) == "bipartite"


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a comment\n\n3 1  # inline\n\n0 2\n", encoding="utf-8")
    g = read_graph(path)
    assert g.edge_count == 1
    assert g.adj[0, 2]


@pytest.mark.parametrize(
    "content",
    [
        "3 2\n0 1\n",          # count mismatch
        "3 1\n1 0\n",          # u >= v
        "3 2\n0 1\n0 1\n",     # duplicate edge
        "3 1\n0 1 2\n",        # malformed edge line
        "",                     # empty
    ],
)
def test_bad_graph_files(tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError):
        read_graph(path)


def test_ground_truth_round_trip(tmp_path):
    params = PlantedDksParams(n=12, k=4, p=0.1, q=0.2, seed=9)
    inst = sample_dks(params)
    path = tmp_path / "g.txt.truth"
    write_ground_truth(path, [inst.k], inst.planted.members, inst.params)
    truth = read_ground_truth(path)
    assert truth.sizes == (4,)
    assert truth.planted == inst.planted.members
    assert truth.params["p"] == 0.1
    assert truth.subset(inst.graph).members == inst.planted.members


def test_ground_truth_adversarial_params(tmp_path):
    base = sample_dks(PlantedDksParams(n=10, k=5, p=0.0, q=0.0, seed=3))
    adv = AdversarialParams(r=2, s=2, delta1=0.5, delta2=0.5)
    inst = corrupt_adversarial(base, adv, seed=4)
    path = tmp_path / "adv.truth"
    write_ground_truth(path, [inst.k], inst.planted.members, inst.params)
    truth = read_ground_truth(path)
    assert truth.params["base"]["p"] == 0.0
    assert truth.params["adv"]["r"] == 2


def test_bipartite_ground_truth_split(tmp_path):
    g = BipartiteGraph(4, 5, np.zeros((4, 5), dtype=bool))
    path = tmp_path / "b.truth"
    write_ground_truth(path, [2, 3], [0, 1, 2, 3, 4], {"p": 0.0})
    truth = read_ground_truth(path)
    su, sv = truth.subsets(g)
    assert su.members == (0, 1)
    assert sv.members == (2, 3, 4)


@pytest.mark.parametrize("first_line", ["0", "-2", "2 0", "0 3"])
def test_ground_truth_size_below_one(tmp_path, first_line):
    path = tmp_path / "g.txt.truth"
    path.write_text(f"{first_line}\n\n{{}}\n", encoding="utf-8")
    with pytest.raises(ValueError, match="each at least 1"):
        read_ground_truth(path)


def test_truth_path():
    assert str(truth_path("x/g.txt")).endswith("g.txt.truth")


@st.composite
def square_graphs(draw):
    """Graphs from one node up, edgeless ones among them."""
    n = draw(st.integers(1, 12))
    iu = np.triu_indices(n, 1)
    bits = draw(st.lists(st.booleans(), min_size=len(iu[0]), max_size=len(iu[0])))
    upper = np.zeros((n, n), dtype=bool)
    upper[iu] = bits
    return Graph(n, upper | upper.T)


@st.composite
def bipartite_graphs(draw):
    n1, n2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    bits = draw(st.lists(st.booleans(), min_size=n1 * n2, max_size=n1 * n2))
    return BipartiteGraph(n1, n2, np.array(bits, dtype=bool).reshape(n1, n2))


def with_comments(text, seed):
    """text with comment and blank lines inserted and inline comments added."""
    rng = random.Random(seed)
    out = []
    for line in text.splitlines():
        out.extend(rng.choices(["", "   ", "# a comment", " #"], k=rng.randrange(3)))
        out.append(line + rng.choice(["", "  # inline", "\t", "#x"]))
    out.extend(rng.choices(["", "# trailing"], k=rng.randrange(3)))
    return "\n".join(out) + "\n"


def round_trip(g, write, read, seed):
    """read(write(g)), and the same after decorating the file with comments."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        write(g, path)
        plain = read(path)
        path.write_text(with_comments(path.read_text(encoding="utf-8"), seed), encoding="utf-8")
        return plain, read(path), sniff_kind(path)


SEEDS = st.integers(0, 2**32 - 1)


class TestRoundTrips:
    @settings(max_examples=100, deadline=None)
    @given(square_graphs(), SEEDS)
    @example(Graph(1, np.zeros((1, 1), dtype=bool)), 0)
    @example(Graph(5, np.zeros((5, 5), dtype=bool)), 1)
    def test_graph(self, g, seed):
        *graphs, kind = round_trip(g, write_graph, read_graph, seed)
        assert kind == "graph"
        for g2 in graphs:
            assert g2.n == g.n
            assert np.array_equal(g2.adj, g.adj)

    @settings(max_examples=100, deadline=None)
    @given(bipartite_graphs(), SEEDS)
    @example(BipartiteGraph(1, 1, np.zeros((1, 1), dtype=bool)), 0)
    @example(BipartiteGraph(3, 4, np.zeros((3, 4), dtype=bool)), 1)
    def test_bipartite(self, g, seed):
        *graphs, kind = round_trip(g, write_bipartite, read_bipartite, seed)
        assert kind == "bipartite"
        for g2 in graphs:
            assert (g2.n1, g2.n2) == (g.n1, g.n2)
            assert np.array_equal(g2.biadj, g.biadj)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(1, 10**6), min_size=1, max_size=2),
        st.lists(st.integers(0, 10**6), max_size=12),
        st.dictionaries(
            st.text(),
            st.one_of(st.none(), st.booleans(), st.integers(),
                      st.floats(allow_nan=False, allow_infinity=False), st.text()),
        ),
    )
    def test_ground_truth(self, sizes, planted, params):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.txt.truth"
            write_ground_truth(path, sizes, planted, params)
            truth = read_ground_truth(path)
        assert truth.sizes == tuple(sizes)
        assert truth.planted == tuple(planted)
        assert truth.params == params


def test_bad_bipartite_files(tmp_path):
    for content, message in [
        ("3 3\n", "expected header 'N1 N2 M'"),
        ("2 2 1\n0 1 1\n", "bad edge line"),
        ("2 2 2\n0 1\n", "header declares 2 edges, found 1"),
        ("2 2 2\n1 0\n1 0\n", "duplicate edges"),
    ]:
        path = tmp_path / "bad.txt"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            read_bipartite(path)
