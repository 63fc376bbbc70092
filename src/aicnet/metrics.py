"""Network- and node-level measures.

Every measure runs on the unweighted skeleton of the graph: weights carry
display meaning only, and distances are hop counts, so nodes of a fully
connected component score closeness 1.00. Node measures build the graph's
adjacency once and make one pass over all nodes: one BFS per node for
closeness, Brandes (2001) for betweenness.

Null conventions: a measure whose denominator is zero is ``None``, never NaN,
and isolated or absent nodes get ``None`` in node reports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .errors import UnknownNode
from .graphs import WeightedGraph


def transitivity(g: WeightedGraph) -> float | None:
    """Global clustering coefficient: 3 x triangles / connected triples,
    on the skeleton. None when no triples exist; isolates add none."""
    adj = g.adjacency()
    wedges = sum(len(n) * (len(n) - 1) // 2 for n in adj.values())
    if wedges == 0:
        return None
    closed = sum(len(adj[u] & adj[v]) for u, v in g.edges)  # 3 per triangle
    return closed / wedges


def degree_centralization(g: WeightedGraph) -> float | None:
    """Freeman degree centralization over the skeleton without isolates:
    sum(d_max - d_i) / ((n-1)(n-2)). None when fewer than 3 nodes remain."""
    degrees = [len(neigh) for neigh in g.adjacency().values() if neigh]
    n = len(degrees)
    if n < 3:
        return None
    d_max = max(degrees)
    return sum(d_max - d for d in degrees) / ((n - 1) * (n - 2))


def _closeness_from(adj: dict[str, set[str]], source: str) -> float | None:
    """(k-1) / sum of hop distances from source to the k-1 other nodes it
    reaches, by a level-by-level BFS. The sum is an integer, so neighbour
    order does not matter. None for an isolate."""
    seen = {source}
    frontier = seen
    reached = total = depth = 0
    while frontier:
        depth += 1
        frontier = set().union(*(adj[v] for v in frontier)) - seen
        seen |= frontier
        reached += len(frontier)
        total += depth * len(frontier)
    return reached / total if total else None


def closeness_all(g: WeightedGraph) -> dict[str, float | None]:
    """Component-normalized closeness of every node of g (see :func:`closeness`)."""
    adj = g.adjacency()
    return {v: _closeness_from(adj, v) for v in adj}


def closeness(g: WeightedGraph, v: str) -> float | None:
    """Component-normalized closeness: (k-1) / sum of distances to the k-1
    other nodes of v's component. None for isolates."""
    if v not in g.nodes:
        raise UnknownNode(v)
    return _closeness_from(g.adjacency(), v)


def betweenness_all(g: WeightedGraph) -> dict[str, float | None]:
    """Betweenness of every node of g, normalized by (n-1)(n-2)/2 with n
    counting the non-isolated nodes. None for isolates and when n < 3.

    Brandes' accumulation over unordered pairs, with sources and neighbour
    lists in sorted order so every float is summed in a fixed order.
    """
    adj = g.adjacency()
    out: dict[str, float | None] = dict.fromkeys(adj)
    nodes = sorted(v for v, neigh in adj.items() if neigh)
    n = len(nodes)
    denom = (n - 1) * (n - 2) / 2.0
    if denom == 0:
        return out
    neighbors = {v: sorted(adj[v]) for v in nodes}
    raw = dict.fromkeys(nodes, 0.0)
    for source in nodes:
        order: list[str] = []
        preds: dict[str, list[str]] = {source: []}
        sigma = {source: 1}
        dist = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            order.append(v)
            next_dist = dist[v] + 1
            for w in neighbors[v]:
                dw = dist.get(w)
                if dw is None:
                    dist[w] = next_dist
                    queue.append(w)
                    sigma[w] = sigma[v]
                    preds[w] = [v]
                elif dw == next_dist:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = dict.fromkeys(order, 0.0)
        for w in reversed(order[1:]):
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            raw[w] += delta[w]
    for v in nodes:
        out[v] = raw[v] / 2.0 / denom
    return out


def betweenness(g: WeightedGraph, v: str) -> float | None:
    """Betweenness normalized by (n-1)(n-2)/2, n counting the non-isolated
    nodes of the network. None for isolates and when n < 3."""
    if v not in g.nodes:
        raise UnknownNode(v)
    return betweenness_all(g)[v]


# -- reports -------------------------------------------------------------------

@dataclass(frozen=True)
class NodeMetricsRow:
    """One author's measures; None marks an isolate or an absent author."""

    author_id: str
    an_closeness: float | None
    in_betweenness: float | None
    cn_betweenness: float | None


@dataclass(frozen=True)
class NetworkMetricsRow:
    reading_id: str
    an_transitivity: float | None
    in_centralization: float | None
    cn_transitivity: float | None


def node_report(
    an: WeightedGraph,
    in_: WeightedGraph,
    cn: WeightedGraph,
    roster: set[str],
) -> list[NodeMetricsRow]:
    """One row per roster author, sorted by author id: closeness in the
    attention network, betweenness in the interaction and creation networks."""
    an_clo = closeness_all(an)
    in_btw = betweenness_all(in_)
    cn_btw = betweenness_all(cn)
    return [
        NodeMetricsRow(
            author_id=author,
            an_closeness=an_clo.get(author),
            in_betweenness=in_btw.get(author),
            cn_betweenness=cn_btw.get(author),
        )
        for author in sorted(roster)
    ]


def network_report(
    graphs_by_reading: Mapping[str, tuple[WeightedGraph, WeightedGraph, WeightedGraph]],
) -> list[NetworkMetricsRow]:
    """One row per reading (sorted by id): attention-network transitivity,
    interaction-network degree centralization, creation-network transitivity."""
    rows = []
    for reading_id in sorted(graphs_by_reading):
        an, in_, cn = graphs_by_reading[reading_id]
        rows.append(
            NetworkMetricsRow(
                reading_id=reading_id,
                an_transitivity=transitivity(an),
                in_centralization=degree_centralization(in_),
                cn_transitivity=transitivity(cn),
            )
        )
    return rows
