"""Stock graphs and groups used across tests, scripts, and docs.

Graphs come back as Graph instances; groups come back as (spec, genset)
pairs ready for cayley_ball.
"""

from __future__ import annotations

import random

from .graphs import Graph, build_graph
from .groups import CyclicSpec, GenSet, PlainSpec, ProductSpec, validate_genset


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return build_graph([(i, i + 1) for i in range(n - 1)], n)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return build_graph([(i, (i + 1) % n) for i in range(n)], n)


def complete_bipartite(k: int, l: int) -> Graph:
    """K_{k,l}: parts {0..k-1} and {k..k+l-1}."""
    if k < 1 or l < 1:
        raise ValueError("both parts must be nonempty")
    edges = [(i, k + j) for i in range(k) for j in range(l)]
    return build_graph(edges, k + l)


def star_graph(leaves: int) -> Graph:
    return complete_bipartite(1, leaves)


def petersen_graph() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
        edges.append((i, i + 5))
    return build_graph(edges, 10)


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform-attachment tree: vertex i joins a uniformly chosen earlier vertex."""
    if n < 1:
        raise ValueError("tree needs at least one vertex")
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return build_graph(edges, n)


def _plain_genset(spec: PlainSpec) -> GenSet:
    pairs = []
    for i in range(spec.free_rank):
        name = spec.factor_name(i)
        pairs.append((name, ((i, 1),)))
        pairs.append((name + "'", ((i, -1),)))
    for j, order in enumerate(spec.factor_orders):
        idx = spec.free_rank + j
        name = spec.factor_name(idx)
        pairs.append((name, ((idx, 1),)))
        if order > 2:
            pairs.append((name + "'", ((idx, order - 1),)))
    return validate_genset(spec, pairs)


def free_group(rank: int) -> tuple[PlainSpec, GenSet]:
    """Free group with the rank-many a, a', b, b', ... generator pairs."""
    spec = PlainSpec(free_rank=rank)
    return spec, _plain_genset(spec)


def z2_star_z2() -> tuple[PlainSpec, GenSet]:
    """Free product of two order-2 factors; generators a, b are involutions."""
    spec = PlainSpec(free_rank=0, factor_orders=(2, 2))
    return spec, _plain_genset(spec)


def infinite_cyclic() -> tuple[CyclicSpec, GenSet]:
    spec = CyclicSpec(0)
    return spec, validate_genset(spec, [("a", 1), ("a'", -1)])


def cyclic_odd_powers(k: int) -> tuple[CyclicSpec, GenSet]:
    """Z_{2k} generated by every odd residue.

    Odd residues p and 2k - p are mutually inverse; for odd k the residue k
    is an involution.  The Cayley graph is K_{k,k}, so the radius-2 ball is
    the whole group and the graph is k-geodetic.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = 2 * k
    pairs = [(f"a{p}", p) for p in range(1, n, 2)]
    spec = CyclicSpec(n)
    return spec, validate_genset(spec, pairs)


def z_cross_z2() -> tuple[ProductSpec, GenSet]:
    """Z x Z_2 with generators (1,0), (-1,0), (0,1): geodesic counts grow."""
    spec = ProductSpec((CyclicSpec(0), CyclicSpec(2)))
    return spec, validate_genset(spec, [("a", (1, 0)), ("a'", (-1, 0)), ("f", (0, 1))])
