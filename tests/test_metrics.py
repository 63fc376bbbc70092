"""Measures against closed forms, a brute-force oracle, and networkx."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aicnet import metrics
from aicnet.errors import UnknownNode
from aicnet.graphs import WeightedGraph, build_an, build_cn_bipartite, build_in, project
from aicnet.metrics import (
    betweenness,
    closeness,
    degree_centralization,
    network_report,
    node_report,
    transitivity,
)
from aicnet.synth import generate, random_params

from oracles import (
    oracle_betweenness,
    oracle_centralization,
    oracle_closeness,
    oracle_node_report,
    oracle_transitivity,
)


def _graph(edges, nodes=()):
    g = WeightedGraph(nodes=set(nodes))
    for u, v, *w in edges:
        g.add_edge(u, v, w[0] if w else 1.0)
    return g


def _complete(n):
    names = [f"v{i}" for i in range(n)]
    return _graph([(a, b) for i, a in enumerate(names) for b in names[i + 1 :]])


def _star(leaves):
    return _graph([("hub", f"leaf{i}") for i in range(leaves)])


def _cycle(n):
    names = [f"v{i}" for i in range(n)]
    return _graph([(names[i], names[(i + 1) % n]) for i in range(n)])


def _path(n):
    names = [f"v{i}" for i in range(n)]
    return _graph([(names[i], names[i + 1]) for i in range(n - 1)])


def random_graph(seed: int, max_n: int = 8, min_n: int = 1) -> WeightedGraph:
    rng = random.Random(seed)
    n = rng.randint(min_n, max_n)
    names = [f"v{i}" for i in range(n)]
    g = WeightedGraph(nodes=set(names))
    p = rng.uniform(0.1, 0.9)
    for i, u in enumerate(names):
        for v in names[i + 1 :]:
            if rng.random() < p:
                g.add_edge(u, v, rng.uniform(0.1, 5.0))
    return g


# -- closed forms and worked examples -------------------------------------------

def test_transitivity_triangle():
    assert transitivity(_complete(3)) == 1.0


def test_transitivity_path():
    assert transitivity(_path(3)) == 0.0


def test_transitivity_k4_minus_edge():
    g = _complete(4)
    del g.edges[("v2", "v3")]
    assert transitivity(g) == pytest.approx(0.75)  # 6 closed of 8 wedges


def test_transitivity_null_without_triples():
    assert transitivity(_graph([("a", "b")])) is None
    assert transitivity(WeightedGraph(nodes={"a", "b"})) is None


def test_centralization_star():
    assert degree_centralization(_star(4)) == 1.0


def test_centralization_cycle():
    assert degree_centralization(_cycle(5)) == 0.0


def test_centralization_p4():
    assert degree_centralization(_path(4)) == pytest.approx(1 / 3)


def test_centralization_null_below_three_nodes():
    assert degree_centralization(_graph([("a", "b")])) is None


def test_closeness_complete():
    g = _complete(5)
    for v in g.nodes:
        assert closeness(g, v) == 1.0


def test_closeness_p3():
    g = _path(3)
    assert closeness(g, "v1") == 1.0
    assert closeness(g, "v0") == pytest.approx(2 / 3)
    assert closeness(g, "v2") == pytest.approx(2 / 3)


def test_closeness_isolate_and_unknown():
    g = _graph([("a", "b")], nodes={"c"})
    assert closeness(g, "c") is None
    with pytest.raises(UnknownNode):
        closeness(g, "zzz")


def test_betweenness_names_an_unknown_node():
    g = _graph([("a", "b"), ("b", "c")])
    assert betweenness(g, "b") == 1.0
    with pytest.raises(UnknownNode) as exc:
        betweenness(g, "zzz")
    assert exc.value.node == "zzz"


def test_closeness_single_edge_component():
    g = _graph([("a", "b")])
    assert closeness(g, "a") == 1.0


def test_closeness_is_component_local():
    g = _graph([("a", "b"), ("b", "c"), ("x", "y")])
    assert closeness(g, "x") == 1.0  # the two-node component, not the whole graph


def test_betweenness_tree_leaves_zero():
    g = _graph([("root", "l"), ("root", "r"), ("l", "ll"), ("l", "lr")])
    for leaf in ("r", "ll", "lr"):
        assert betweenness(g, leaf) == 0.0


def test_betweenness_star_center():
    for leaves in (2, 3, 5):
        g = _star(leaves)
        if leaves >= 2 and len(g.nodes) >= 3:
            assert betweenness(g, "hub") == 1.0


def test_betweenness_p4_interior():
    g = _path(4)
    assert betweenness(g, "v1") == pytest.approx(2 / 3)


def test_betweenness_isolate_null():
    g = _graph([("a", "b"), ("b", "c")], nodes={"z"})
    assert betweenness(g, "z") is None


def test_betweenness_two_node_network_null():
    # denominator (n-1)(n-2)/2 is zero when only one edge exists
    assert betweenness(_graph([("a", "b")]), "a") is None


# -- oracle equivalence ----------------------------------------------------------

def _dfs_betweenness(g: WeightedGraph, v: str) -> float | None:
    """Third route: enumerate every shortest path explicitly via DFS."""
    from itertools import combinations

    sub = WeightedGraph(nodes={n for key in g.edges for n in key}, edges=dict(g.edges))
    if v not in sub.nodes:
        return None
    n = len(sub.nodes)
    denom = (n - 1) * (n - 2) / 2.0
    if denom == 0:
        return None
    adj: dict[str, set[str]] = {node: set() for node in sub.nodes}
    for a, b in sub.edges:
        adj[a].add(b)
        adj[b].add(a)

    def all_paths(s, t):
        from collections import deque
        dist = {s: 0}
        q = deque([s])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        if t not in dist:
            return []
        paths = []

        def walk(node, trail):
            if node == t:
                paths.append(trail)
                return
            for nxt in adj[node]:
                if dist.get(nxt) == dist[node] + 1 and dist[nxt] <= dist[t]:
                    walk(nxt, trail + [nxt])

        walk(s, [s])
        return [p for p in paths if len(p) - 1 == dist[t]]

    raw = 0.0
    for s, t in combinations(sorted(sub.nodes), 2):
        if v in (s, t):
            continue
        paths = all_paths(s, t)
        if not paths:
            continue
        raw += sum(1 for p in paths if v in p[1:-1]) / len(paths)
    return raw / denom


@pytest.mark.parametrize("seed", range(25))
def test_betweenness_triangulated_three_ways(seed):
    """Brandes, matrix powers, and explicit path enumeration must all agree."""
    g = random_graph(seed + 5000, max_n=6)
    for v in sorted(g.nodes):
        mine = betweenness(g, v)
        matrix = oracle_betweenness(g, v)
        dfs = _dfs_betweenness(g, v)
        assert (mine is None) == (matrix is None) == (dfs is None)
        if mine is not None:
            assert mine == pytest.approx(matrix, abs=1e-9)
            assert mine == pytest.approx(dfs, abs=1e-9)


@pytest.mark.parametrize("seed", range(60))
def test_matches_brute_force_oracle(seed):
    g = random_graph(seed)
    got, want = transitivity(g), oracle_transitivity(g)
    assert (got is None) == (want is None)
    if got is not None:
        assert got == pytest.approx(want, abs=1e-9)
    got, want = degree_centralization(g), oracle_centralization(g)
    assert (got is None) == (want is None)
    if got is not None:
        assert got == pytest.approx(want, abs=1e-9)
    for v in sorted(g.nodes):
        for mine, oracle in ((closeness, oracle_closeness), (betweenness, oracle_betweenness)):
            got, want = mine(g, v), oracle(g, v)
            assert (got is None) == (want is None), (mine.__name__, v)
            if got is not None:
                assert got == pytest.approx(want, abs=1e-9), (mine.__name__, v)
                assert 0.0 <= got <= 1.0
    for value in (transitivity(g), degree_centralization(g)):
        if value is not None:
            assert 0.0 <= value <= 1.0


# 70-130 nodes, so each bitset adjacency row spans two or three 64-bit words
def wide_graph(seed: int) -> WeightedGraph:
    return random_graph(seed, max_n=130, min_n=70)


@pytest.mark.parametrize("seed", range(4))
def test_network_measures_equal_oracle_on_wide_graphs(seed):
    # both are ratios of exact integer counts, so equal with ==; the per-node
    # oracles of test_matches_brute_force_oracle recompute every distance per
    # call, too slow at this size (test_node_report_equals_oracle_* covers nodes)
    g = wide_graph(9000 + seed)
    assert transitivity(g) == oracle_transitivity(g)
    assert degree_centralization(g) == oracle_centralization(g)


def test_matches_networkx():
    nx = pytest.importorskip("networkx")
    for seed in range(20):
        g = random_graph(seed + 1000)
        h = nx.Graph()
        h.add_nodes_from(g.nodes)
        h.add_edges_from(g.edges)
        h.remove_nodes_from([v for v in g.nodes if g.degree(v) == 0])
        if h.number_of_nodes() == 0:
            continue
        got = transitivity(g)
        if got is not None:
            assert got == pytest.approx(nx.transitivity(h), abs=1e-9)
        nx_btw = nx.betweenness_centrality(h, normalized=True)
        for v in h.nodes:
            if h.number_of_nodes() >= 3:
                assert betweenness(g, v) == pytest.approx(nx_btw[v], abs=1e-9)
        nx_clo = nx.closeness_centrality(h, wf_improved=False)
        for v in h.nodes:
            if h.degree(v) > 0:
                assert closeness(g, v) == pytest.approx(nx_clo[v], abs=1e-9)


# -- invariances ------------------------------------------------------------------

def test_relabeling_invariance():
    rng = random.Random(7)
    for seed in range(10):
        g = random_graph(seed + 50)
        nodes = sorted(g.nodes)
        relabeled = nodes[:]
        rng.shuffle(relabeled)
        mapping = dict(zip(nodes, relabeled))
        h = WeightedGraph(nodes=set(mapping.values()))
        for (u, v), w in g.edges.items():
            h.add_edge(mapping[u], mapping[v], w)
        assert transitivity(g) == transitivity(h)
        assert degree_centralization(g) == degree_centralization(h)
        for v in nodes:
            assert closeness(g, v) == closeness(h, mapping[v])
            bg, bh = betweenness(g, v), betweenness(h, mapping[v])
            if bg is None:
                assert bh is None
            else:
                # accumulation order follows node labels, so allow float slack
                assert bh == pytest.approx(bg, abs=1e-12)


def test_reweighting_changes_nothing():
    rng = random.Random(13)
    for seed in range(10):
        g = random_graph(seed + 200)
        h = g.copy()
        h.edges = {pair: rng.uniform(0.01, 99.0) for pair in g.edges}
        assert transitivity(g) == transitivity(h)
        assert degree_centralization(g) == degree_centralization(h)
        for v in sorted(g.nodes):
            assert closeness(g, v) == closeness(h, v)
            assert betweenness(g, v) == betweenness(h, v)


# -- reports ----------------------------------------------------------------------

def test_node_report_rows():
    an = _graph([("s1", "s2")], nodes={"s3"})
    in_ = _graph([("s1", "s3"), ("s2", "s3")])
    cn = _graph([("s1", "s2"), ("s2", "s3"), ("s1", "s3")])
    rows = node_report(an, in_, cn, roster={"s1", "s2", "s3", "s4"})
    assert [r.author_id for r in rows] == ["s1", "s2", "s3", "s4"]
    by_id = {r.author_id: r for r in rows}
    assert by_id["s3"].an_closeness is None  # isolated in the attention network
    assert by_id["s3"].in_betweenness == 1.0  # bridges s1 and s2
    assert by_id["s4"].an_closeness is None
    assert by_id["s4"].in_betweenness is None
    assert by_id["s4"].cn_betweenness is None
    # rows agree with direct per-metric calls
    for r in rows[:3]:
        assert r.an_closeness == closeness(an, r.author_id)
        assert r.in_betweenness == betweenness(in_, r.author_id)
        assert r.cn_betweenness == betweenness(cn, r.author_id)


def test_network_report_composition():
    an = _complete(3)
    in_ = _star(3)
    cn = _path(3)
    rows = network_report({"r2": (an, in_, cn), "r1": (an, in_, cn)})
    assert [r.reading_id for r in rows] == ["r1", "r2"]
    row = rows[0]
    assert (row.an_transitivity, row.in_centralization, row.cn_transitivity) == (1.0, 1.0, 0.0)


def test_network_report_null_when_no_triples():
    an = _graph([("a", "b")])
    rows = network_report({"r1": (an, an, an)})
    assert rows[0].an_transitivity is None
    assert rows[0].cn_transitivity is None


# -- one-pass node report against the per-author oracle ----------------------------

_POOL = [f"s{i:02d}" for i in range(40)]


@st.composite
def component_graphs(draw):
    """Disjoint components over a shuffled slice of the author pool: isolates,
    2-node components, stars and random blobs."""
    names = draw(st.permutations(_POOL))[: draw(st.integers(0, len(_POOL)))]
    g = WeightedGraph(nodes=set(names))
    while names:
        kind = draw(st.sampled_from(["isolate", "pair", "star", "blob"]))
        size = {"isolate": 1, "pair": 2}.get(kind) or draw(st.integers(3, 24))
        part, names = names[:size], names[size:]
        if kind == "star":
            candidates = [(part[0], leaf) for leaf in part[1:]]
        else:
            candidates = [(u, v) for i, u in enumerate(part) for v in part[i + 1 :]]
        for u, v in candidates:
            if kind in ("pair", "star") or draw(st.booleans()):
                g.add_edge(u, v, draw(st.sampled_from([0.5, 1.0, 3.25])))
    return g


@settings(max_examples=300, deadline=None)
@given(component_graphs(), component_graphs(), component_graphs(),
       st.sets(st.sampled_from(_POOL + ["absent1", "absent2"])))
def test_node_report_equals_per_author_oracle(an, in_, cn, roster):
    assert node_report(an, in_, cn, roster) == oracle_node_report(an, in_, cn, roster)


@settings(max_examples=200, deadline=None)
@given(component_graphs(), st.integers(1, 4))
def test_isolates_change_no_network_measure(g, extra):
    bare = WeightedGraph(nodes={v for key in g.edges for v in key}, edges=dict(g.edges))
    padded = g.copy()
    padded.nodes |= {f"iso{i}" for i in range(extra)}
    assert transitivity(padded) == transitivity(bare)
    assert degree_centralization(padded) == degree_centralization(bare)


def _synth_graphs(seed):
    corpus, store, _ = generate(random_params(seed, max_authors=24))
    for reading in corpus.readings.values():
        graphs = (build_an(reading, corpus, store), build_in(reading, corpus),
                  project(build_cn_bipartite(reading, corpus)))
        yield graphs, corpus.authors


@pytest.mark.parametrize("seed", range(20))
def test_node_report_equals_oracle_on_synthetic_readings(seed):
    for graphs, roster in _synth_graphs(seed):
        assert node_report(*graphs, roster) == oracle_node_report(*graphs, roster)


@pytest.mark.parametrize("seed, min_n, max_n", [
    *(pytest.param(seed, 1, 30, id=str(seed)) for seed in range(10)),
    *(pytest.param(seed, 70, 130, id=f"wide{seed}") for seed in range(3)),
])
def test_node_report_equals_oracle_on_larger_random_graphs(seed, min_n, max_n):
    # 20-30 nodes give enough shortest paths that summing Brandes' terms in
    # another order changes low bits; 70-130 nodes span several 64-bit words
    graphs = [random_graph(7000 + 3 * seed + k, max_n, min_n) for k in range(3)]
    roster = set().union(*(g.nodes for g in graphs)) | {"absent"}
    assert node_report(*graphs, roster) == oracle_node_report(*graphs, roster)


def _counted_adjacencies(monkeypatch) -> dict[int, int]:
    """Calls of the measures' adjacency builder, by the id of the graph."""
    calls: dict[int, int] = {}
    plain = metrics._adjacency

    def counted(g):
        calls[id(g)] = calls.get(id(g), 0) + 1
        return plain(g)

    monkeypatch.setattr(metrics, "_adjacency", counted)
    return calls


def test_node_report_builds_one_adjacency_per_graph(monkeypatch):
    (graphs, roster), *_ = _synth_graphs(4)
    assert all(g.edges for g in graphs)
    calls = _counted_adjacencies(monkeypatch)
    node_report(*graphs, roster)
    assert calls == {id(g): 1 for g in graphs}


def test_network_report_builds_one_adjacency_per_graph(monkeypatch):
    (graphs, _), *_ = _synth_graphs(4)
    assert all(g.edges for g in graphs)
    calls = _counted_adjacencies(monkeypatch)
    network_report({"r1": graphs})
    assert calls == {id(g): 1 for g in graphs}
