"""Network- and node-level measures.

Every measure runs on the unweighted skeleton of the graph: weights carry
display meaning only, and distances are hop counts, so nodes of a fully
connected component score closeness 1.00.

Each measure is a kernel on one adjacency of its graph and makes one pass over
all nodes. ``metrics`` and ``compare`` measure each reading through
:func:`_reading_rows`, which builds one adjacency per network. Nodes are
numbered in sorted id order, and a node's row is an ``int`` whose bit ``j``
marks node ``j`` as a neighbour: closeness is a BFS over bitset frontiers,
transitivity and centralization count bits, and Brandes (2001) betweenness
visits sources and neighbours in id order. So closeness, transitivity and
centralization are ratios of exact integer counts, and Brandes adds its floats
in an order fixed by the ids alone.

Null conventions: a measure whose denominator is zero is ``None``, never NaN,
and isolated or absent nodes get ``None`` in node reports.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .errors import UnknownNode
from .graphs import WeightedGraph


def _adjacency(g: WeightedGraph) -> tuple[dict[str, int], list[int]]:
    """The position of each node of g, in sorted id order, and for each
    position the bitset of its neighbours' positions."""
    position = {v: i for i, v in enumerate(sorted(g.nodes))}
    rows = [0] * len(position)
    for a, b in g.edges:
        i, j = position[a], position[b]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return position, rows


def _members(bits: int) -> list[int]:
    """The positions of the set bits, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _transitivity(g: WeightedGraph, position: dict[str, int], rows: list[int]) -> float | None:
    """:func:`transitivity` of g, from its adjacency."""
    wedges = sum(d * (d - 1) // 2 for d in map(int.bit_count, rows))
    if wedges == 0:
        return None
    # the common neighbours of each edge's ends: 3 per triangle
    closed = sum((rows[position[a]] & rows[position[b]]).bit_count() for a, b in g.edges)
    return closed / wedges


def transitivity(g: WeightedGraph) -> float | None:
    """Global clustering coefficient: 3 x triangles / connected triples,
    on the skeleton. None when no triples exist; isolates add none."""
    return _transitivity(g, *_adjacency(g))


def _centralization(rows: list[int]) -> float | None:
    """:func:`degree_centralization` of the graph whose adjacency rows are ``rows``."""
    degrees = [d for d in map(int.bit_count, rows) if d]
    n = len(degrees)
    if n < 3:
        return None
    d_max = max(degrees)
    return sum(d_max - d for d in degrees) / ((n - 1) * (n - 2))


def degree_centralization(g: WeightedGraph) -> float | None:
    """Freeman degree centralization over the skeleton without isolates:
    sum(d_max - d_i) / ((n-1)(n-2)). None when fewer than 3 nodes remain."""
    return _centralization(_adjacency(g)[1])


def _closeness_from(rows: list[int], source: int) -> float | None:
    """(k-1) / sum of hop distances from source to the k-1 other nodes it
    reaches, by a level-by-level BFS over bitset frontiers. None for an
    isolate."""
    seen = frontier = 1 << source
    reached = total = depth = 0
    while frontier:
        depth += 1
        reach = 0
        for v in _members(frontier):
            reach |= rows[v]
        frontier = reach & ~seen
        seen |= frontier
        count = frontier.bit_count()
        reached += count
        total += depth * count
    return reached / total if total else None


def _closeness(position: dict[str, int], rows: list[int]) -> dict[str, float | None]:
    """:func:`closeness` of every node of a graph, from its adjacency."""
    return {v: _closeness_from(rows, i) for v, i in position.items()}


def closeness(g: WeightedGraph, v: str) -> float | None:
    """Component-normalized closeness: (k-1) / sum of distances to the k-1
    other nodes of v's component. None for isolates; a v not in g raises
    :class:`UnknownNode`."""
    if v not in g.nodes:
        raise UnknownNode(v)
    position, rows = _adjacency(g)
    return _closeness_from(rows, position[v])


def _betweenness(position: dict[str, int], rows: list[int]) -> dict[str, float | None]:
    """:func:`betweenness` of every node of a graph, from its adjacency: Brandes'
    accumulation over unordered pairs, with sources and neighbour lists in
    ascending position, so every float is summed in id order."""
    out: dict[str, float | None] = dict.fromkeys(position)
    sources = [i for i, row in enumerate(rows) if row]
    n = len(sources)
    denom = (n - 1) * (n - 2) / 2.0
    if denom == 0:
        return out
    size = len(rows)
    neighbors = [_members(row) for row in rows]
    raw = [0.0] * size
    for source in sources:
        order = [source]  # the BFS queue: the loop below reads what it appends
        preds: list[list[int] | None] = [None] * size  # set when a node is reached
        sigma = [0] * size
        sigma[source] = 1
        dist = [-1] * size
        dist[source] = 0
        for v in order:
            next_dist = dist[v] + 1
            for w in neighbors[v]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = next_dist
                    order.append(w)
                    sigma[w] = sigma[v]
                    preds[w] = [v]
                elif dw == next_dist:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * size
        for w in reversed(order[1:]):
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            raw[w] += delta[w]
    nodes = list(position)
    for i in sources:
        out[nodes[i]] = raw[i] / 2.0 / denom
    return out


def betweenness(g: WeightedGraph, v: str) -> float | None:
    """Betweenness normalized by (n-1)(n-2)/2, n counting the non-isolated
    nodes of the network. None for isolates and when n < 3; a v not in g
    raises :class:`UnknownNode`."""
    if v not in g.nodes:
        raise UnknownNode(v)
    return _betweenness(*_adjacency(g))[v]


# -- reports -------------------------------------------------------------------

class NodeMetricsRow(NamedTuple):
    """One author's measures; None marks an isolate or an absent author."""

    author_id: str
    an_closeness: float | None
    in_betweenness: float | None
    cn_betweenness: float | None


class NetworkMetricsRow(NamedTuple):
    reading_id: str
    an_transitivity: float | None
    in_centralization: float | None
    cn_transitivity: float | None


def _reading_rows(reading_id: str, an: WeightedGraph, in_: WeightedGraph, cn: WeightedGraph,
                  roster: set[str]) -> tuple[NetworkMetricsRow, list[NodeMetricsRow]]:
    """The reading's network row, and one node row per ``roster`` author,
    sorted by id, from one adjacency of each of its three networks. An empty
    roster takes no node measure."""
    an_adj, in_adj, cn_adj = _adjacency(an), _adjacency(in_), _adjacency(cn)
    network = NetworkMetricsRow(reading_id, _transitivity(an, *an_adj),
                                _centralization(in_adj[1]), _transitivity(cn, *cn_adj))
    if not roster:
        return network, []
    clo, in_btw, cn_btw = _closeness(*an_adj), _betweenness(*in_adj), _betweenness(*cn_adj)
    return network, [NodeMetricsRow(author, clo.get(author), in_btw.get(author),
                                    cn_btw.get(author)) for author in sorted(roster)]


def node_report(an: WeightedGraph, in_: WeightedGraph, cn: WeightedGraph,
                roster: set[str]) -> list[NodeMetricsRow]:
    """One row per roster author, sorted by author id: closeness in the
    attention network, betweenness in the interaction and creation networks."""
    return _reading_rows("", an, in_, cn, roster)[1]


def network_report(
    graphs_by_reading: Mapping[str, tuple[WeightedGraph, WeightedGraph, WeightedGraph]],
) -> list[NetworkMetricsRow]:
    """One row per reading (sorted by id): attention-network transitivity,
    interaction-network degree centralization, creation-network transitivity."""
    return [_reading_rows(rid, *graphs_by_reading[rid], set())[0]
            for rid in sorted(graphs_by_reading)]
