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
    read_edge_list,
    read_graph,
    read_ground_truth,
    truth_path,
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
    for g2 in (read_graph(path), read_edge_list(path)):
        assert type(g2) is Graph
        assert g2.n == g.n
        assert np.array_equal(g2.adj, g.adj)


def test_bipartite_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    g = BipartiteGraph(4, 6, rng.random((4, 6)) < 0.5)
    path = tmp_path / "b.txt"
    write_graph(g, path)
    assert path.read_text(encoding="utf-8").startswith(f"4 6 {g.edge_count}\n")
    for g2 in (read_bipartite(path), read_edge_list(path)):
        assert type(g2) is BipartiteGraph
        assert (g2.n1, g2.n2) == (4, 6)
        assert np.array_equal(g2.biadj, g.biadj)


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
    for read in (read_graph, read_edge_list):
        with pytest.raises(ValueError):
            read(path)


@pytest.mark.parametrize(
    "content,message",
    [
        ("", "empty graph file"),
        ("# only a comment\n\n", "empty graph file"),
        ("5\n", "unrecognized header '5'"),
        ("1 2 3 4\n0 1\n", "unrecognized header '1 2 3 4'"),
    ],
)
def test_header_of_no_kind(tmp_path, content, message):
    path = tmp_path / "bad.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        read_edge_list(path)


@pytest.mark.parametrize(
    "read,content,header",
    [
        # the edge line is bad too: the kind is refused before it is read
        (read_graph, "2 2 1\n0 1 2\n", "N M"),
        (read_graph, "5\n", "N M"),
        (read_graph, "1 2 3 4\n", "N M"),
        (read_bipartite, "3 1\n0 1 2\n", "N1 N2 M"),
        (read_bipartite, "1 2 3 4\n", "N1 N2 M"),
    ],
)
def test_required_kind_is_checked_before_the_edges(tmp_path, read, content, header):
    path = tmp_path / "other.txt"
    path.write_text(content, encoding="utf-8")
    first = content.splitlines()[0]
    with pytest.raises(ValueError, match=f"expected header '{header}', got '{first}'"):
        read(path)


# each used to raise int()'s message, which names neither the file nor the line
@pytest.mark.parametrize(
    "content,line",
    [
        ("8 x\n", "8 x"),                # header token
        ("3 1\n0 x\n", "0 x"),          # edge token
        ("2 3 1\n1 2.5\n", "1 2.5"),    # edge token of a bipartite file
    ],
)
def test_non_integer_token_names_the_file_and_line(tmp_path, content, line):
    path = tmp_path / "bad.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_edge_list(path)
    assert str(info.value) == f"{path}: non-integer token in {line!r}"


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


@pytest.mark.parametrize("params", ["[1]", '"x"', "3", "null"])
def test_ground_truth_params_not_an_object(tmp_path, params):
    path = tmp_path / "g.txt.truth"
    path.write_text(f"2\n0 1\n{params}\n", encoding="utf-8")
    with pytest.raises(ValueError, match="third line must be a JSON object"):
        read_ground_truth(path)


# each used to raise int()'s or json's message, which names neither the
# file nor the line
@pytest.mark.parametrize(
    "content,message",
    [
        ("3 y\n0 1 2\n{}\n", "non-integer token in '3 y'"),
        ("3\n0 1 z\n{}\n", "non-integer token in '0 1 z'"),
        ("3\n0 1 2\n{bad\n",
         "third line is not JSON (Expecting property name enclosed in double quotes): '{bad'"),
    ],
)
def test_bad_ground_truth_token_names_the_file_and_line(tmp_path, content, message):
    path = tmp_path / "g.txt.truth"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_ground_truth(path)
    assert str(info.value) == f"{path}: {message}"


def test_ground_truth_sizes_must_fit_the_graph_kind(tmp_path):
    pair = tmp_path / "pair.truth"
    write_ground_truth(pair, [4, 3], range(7), {})
    with pytest.raises(ValueError, match="sizes '4 3' do not fit a unipartite graph"):
        read_ground_truth(pair).subset(Graph.complete(10))
    single = tmp_path / "single.truth"
    write_ground_truth(single, [4], range(4), {})
    g = BipartiteGraph(5, 5, np.zeros((5, 5), dtype=bool))
    with pytest.raises(ValueError, match="sizes '4' do not fit a bipartite graph"):
        read_ground_truth(single).subsets(g)


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
    """read(write(g)), the same after decorating the file with comments, and
    read_edge_list of the decorated file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        write(g, path)
        plain = read(path)
        path.write_text(with_comments(path.read_text(encoding="utf-8"), seed), encoding="utf-8")
        return plain, read(path), read_edge_list(path)


SEEDS = st.integers(0, 2**32 - 1)


class TestRoundTrips:
    @settings(max_examples=100, deadline=None)
    @given(square_graphs(), SEEDS)
    @example(Graph(1, np.zeros((1, 1), dtype=bool)), 0)
    @example(Graph(5, np.zeros((5, 5), dtype=bool)), 1)
    def test_graph(self, g, seed):
        for g2 in round_trip(g, write_graph, read_graph, seed):
            assert type(g2) is Graph
            assert g2.n == g.n
            assert np.array_equal(g2.adj, g.adj)

    @settings(max_examples=100, deadline=None)
    @given(bipartite_graphs(), SEEDS)
    @example(BipartiteGraph(1, 1, np.zeros((1, 1), dtype=bool)), 0)
    @example(BipartiteGraph(3, 4, np.zeros((3, 4), dtype=bool)), 1)
    def test_bipartite(self, g, seed):
        for g2 in round_trip(g, write_graph, read_bipartite, seed):
            assert type(g2) is BipartiteGraph
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
        if not message.startswith("expected header"):
            with pytest.raises(ValueError, match=message):
                read_edge_list(path)
