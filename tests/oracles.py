"""Independent brute-force oracles the suite checks the library against.

Everything here favors obviousness over speed: plain depth-first search,
divisor scans, and direct membership checks, free of the library's own
algorithms so that agreement actually means something.
"""

from __future__ import annotations

from typing import Optional

from geodetic.graphs import Graph, build_graph
from geodetic.groups import BallBudgetError


def dfs_walks_of_length(g: Graph, u: int, v: int, n: int) -> list[tuple[int, ...]]:
    """All walks from u to v using exactly n edges, by plain DFS."""
    out: list[tuple[int, ...]] = []
    acc = [u]

    def go(x: int, left: int) -> None:
        if left == 0:
            if x == v:
                out.append(tuple(acc))
            return
        for y in g.neighbors(x):
            acc.append(y)
            go(y, left - 1)
            acc.pop()

    go(u, n)
    return out


def dfs_shortest_paths(g: Graph, u: int, v: int) -> tuple[Optional[int], list[tuple[int, ...]]]:
    """(distance, all geodesics) by iterative deepening.

    Walks of minimal length never repeat a vertex, so the first nonempty
    batch is exactly the set of geodesics.  (None, []) when unreachable.
    """
    for n in range(g.vertex_count):
        walks = dfs_walks_of_length(g, u, v, n)
        if walks:
            return n, walks
    return None, []


def brute_primitive_root(w: tuple) -> tuple[tuple, int]:
    """Smallest divisor-length prefix whose power rebuilds w."""
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w[:d] * (n // d) == w:
            return w[:d], n // d
    raise AssertionError("unreachable: w is always w^1")


def has_factor_naive(w: tuple, forbidden) -> bool:
    """Direct scan: does any member of forbidden occur inside w?"""
    return any(
        w[i : i + len(f)] == f
        for f in forbidden
        for i in range(len(w) - len(f) + 1)
    )


def sorted_pair_counts(
    g: Graph, pair_filter=None, count_cap: Optional[int] = None
) -> list[tuple[int, int, int, int]]:
    """(dist, u, v, count) for admitted pairs u < v, materialised and sorted.

    Counts come from dfs_shortest_paths and are clipped at count_cap.
    """
    rows = []
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            if pair_filter is not None and not pair_filter(u, v):
                continue
            dist, walks = dfs_shortest_paths(g, u, v)
            count = len(walks) if count_cap is None else min(len(walks), count_cap)
            rows.append((dist, u, v, count))
    rows.sort()
    return rows


def first_maximiser(rows) -> Optional[tuple[int, tuple[int, int]]]:
    """(count, (u, v)) of the first row with the largest count, or None."""
    best = None
    for _, u, v, count in rows:
        if best is None or count > best[0]:
            best = (count, (u, v))
    return best


def first_violator(rows, k: int) -> Optional[tuple[int, int]]:
    """(u, v) of the first row with more than k geodesics, or None."""
    for _, u, v, count in rows:
        if count > k:
            return (u, v)
    return None


def two_pass_ball(spec, genset, radius: int, budget: int):
    """(elements, norms, complete, graph, edge_labels) of the radius ball.

    The layer-by-layer closure first, then a second pass that multiplies
    every element by every generator again to find the edges; edge_labels
    maps a directed vertex pair (u, v) to the label of the generator s with
    elements[u]·s = elements[v].
    """
    identity = spec.identity()
    elements = [identity]
    index = {identity: 0}
    norms = [0]
    complete = False
    frontier = [0]
    for layer in range(1, radius + 1):
        new = []
        for u in frontier:
            for _, s in genset.items():
                h = spec.multiply(elements[u], s)
                if h not in index:
                    if len(elements) >= budget:
                        raise BallBudgetError(
                            f"ball exceeds the {budget}-vertex budget at radius {layer}"
                        )
                    index[h] = len(elements)
                    elements.append(h)
                    norms.append(layer)
                    new.append(index[h])
        if not new:
            complete = True
            break
        frontier = new
    if not complete and spec.order() == len(elements):
        complete = True
    edges = []
    edge_labels = {}
    for u, gu in enumerate(elements):
        for label, s in genset.items():
            v = index.get(spec.multiply(gu, s))
            if v is not None:
                edge_labels[(u, v)] = label
                if u < v:
                    edges.append((u, v))
    return elements, norms, complete, build_graph(edges, len(elements)), edge_labels
