"""Graphs, groups and graph files that only the tests and CI build.

The stock zoo lives in geodetic.zoo; these builders have no reader there.
A CI step imports format_graph and grid_graph from here to write large
graph files, so this module imports nothing from the test suite.
"""

from __future__ import annotations

from geodetic.graphs import Graph, build_graph
from geodetic.groups import CyclicSpec, GenSet, PlainSpec, validate_genset
from geodetic.zoo import _plain_genset


def format_graph(g: Graph) -> str:
    lines = [f"graph {g.vertex_count}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def grid_graph(rows: int, cols: int) -> Graph:
    """The rows x cols grid; vertex r*cols + c sits in row r, column c."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs at least one row and one column")
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return build_graph(edges, rows * cols)


def plain_group(free_rank: int, factor_orders: tuple[int, ...] = ()) -> tuple[PlainSpec, GenSet]:
    spec = PlainSpec(free_rank=free_rank, factor_orders=factor_orders)
    return spec, _plain_genset(spec)


def cyclic_with_step(n: int, step: int = 1) -> tuple[CyclicSpec, GenSet]:
    spec = CyclicSpec(n)
    inv = spec.inverse(step)
    if inv == step:
        pairs = [("a", step)]
    else:
        pairs = [("a", step), ("a'", inv)]
    return spec, validate_genset(spec, pairs)
