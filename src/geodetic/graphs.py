"""Finite simple graphs: layered BFS DAGs, geodesic counting, k-geodeticity.

Vertices are dense integer ids 0..n-1.  Counting is exact (Python integers),
and a Graph keeps its adjacency alone: every BFS is run for the call that
asks for it and dropped with it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

UNREACHED = -1


class UnreachablePairError(ValueError):
    """No path exists between the requested vertices."""


class GraphFormatError(ValueError):
    """Malformed graph description, textual or structural."""


class Frozen:
    """Base of the records whose fields are set once: assignment raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PathSeq(Frozen):
    """A walk v_0..v_n; length counts edges, so a single vertex has length 0.

    Walks may repeat vertices; a PathSeq carries no record of whether it is
    a geodesic, so callers that need one check it against the graph.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[int, ...]):
        if not vertices:
            raise ValueError("a path needs at least one vertex")
        _set_vertices(self, vertices)

    def __eq__(self, other):
        return self.vertices == other.vertices if type(other) is PathSeq else NotImplemented

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"PathSeq(vertices={self.vertices!r})"

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def __getitem__(self, i: int) -> int:
        return self.vertices[i]


# PathSeq.__init__ stores through the slot's own setter, which Frozen.__setattr__
# does not see and which costs less than object.__setattr__.
_set_vertices = PathSeq.vertices.__set__


class GeodesicDag(NamedTuple):
    """Shortest-path data from a single BFS source.

    dist[v] is UNREACHED for vertices in other components, and counts[v] is
    the number of geodesics source -> v, clipped at bfs_dag's count_cap when
    one is given.  The geodesic predecessors of v are the neighbours u with
    dist[u] = dist[v] - 1; they are not stored.
    """

    dist: list[int]
    counts: list[int]


class Graph:
    """Immutable simple undirected graph, adjacency only.

    Adjacency lists are sorted, which fixes the order of every enumeration
    built on top of them.  No BFS is kept: a caller that reads one distance
    row more than once memoises it for the length of its own call.
    """

    def __init__(self, vertex_count: int, adjacency: Sequence[Iterable[int]]):
        if vertex_count < 0:
            raise GraphFormatError("vertex_count must be nonnegative")
        if len(adjacency) != vertex_count:
            raise GraphFormatError("adjacency length disagrees with vertex_count")
        adj = []
        for u, nbrs in enumerate(adjacency):
            s = sorted(set(nbrs))
            for v in s:
                if not 0 <= v < vertex_count:
                    raise GraphFormatError(f"vertex {v} out of range in adjacency of {u}")
                if v == u:
                    raise GraphFormatError(f"self-loop at vertex {u}")
            adj.append(tuple(s))
        nbr_sets = [set(s) for s in adj]
        for u in range(vertex_count):
            for v in adj[u]:
                if u not in nbr_sets[v]:
                    raise GraphFormatError(f"edge {u}-{v} is not symmetric")
        self.vertex_count = vertex_count
        self.adj: tuple[tuple[int, ...], ...] = tuple(adj)

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Undirected edges as pairs (u, v) with u < v, in sorted order."""
        for u in range(self.vertex_count):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def dag(self, source: int, count_cap: Optional[int] = None) -> GeodesicDag:
        """A fresh BFS DAG from source, as bfs_dag returns it."""
        return bfs_dag(self, source, count_cap)

    def dist(self, u: int, v: int) -> int:
        """BFS distance between u and v."""
        d = self.dag(u).dist[v]
        if d == UNREACHED:
            raise UnreachablePairError(f"no path between vertices {u} and {v}")
        return d

    def check_vertex(self, u: int) -> None:
        if not 0 <= u < self.vertex_count:
            raise ValueError(f"vertex {u} out of range (n={self.vertex_count})")


def build_graph(edge_list: Iterable[tuple[int, int]], vertex_count: int) -> Graph:
    """Build a Graph from an undirected edge list (duplicates collapse)."""
    adjacency: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in edge_list:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphFormatError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        adjacency[u].append(v)
        adjacency[v].append(u)
    return Graph(vertex_count, adjacency)


def bfs_dag(g: Graph, source: int, count_cap: Optional[int] = None) -> GeodesicDag:
    """Layered BFS from source: distances and geodesic counts.

    counts[v] sums counts over the geodesic predecessors of v, one addition
    per edge.  A count_cap clips each new layer once; the terms are
    nonnegative, so that equals clipping after every addition.
    """
    g.check_vertex(source)
    if count_cap is not None and count_cap < 1:
        raise ValueError("count_cap must be at least 1")
    adj, n = g.adj, g.vertex_count
    dist, counts = [UNREACHED] * n, [0] * n
    dist[source], counts[source] = 0, 1
    layer, d = [source], 0
    while layer:
        d += 1
        nxt = []
        for u in layer:
            c = counts[u]
            for v in adj[u]:
                if dist[v] == UNREACHED:
                    dist[v], counts[v] = d, c
                    nxt.append(v)
                elif dist[v] == d:
                    counts[v] += c
        if count_cap is not None:
            for v in nxt:
                counts[v] = min(counts[v], count_cap)
        layer = nxt
    return GeodesicDag(dist, counts)


def enumerate_geodesics(
    g: Graph, u: int, v: int, limit: Optional[int] = None
) -> tuple[list[PathSeq], bool]:
    """All geodesics u -> v in lexicographic vertex order.

    Returns (paths, truncated); with a limit, at most limit paths come back
    and truncated says whether more exist.  The search keeps an explicit
    stack of neighbour iterators, so path length is not bounded by the
    interpreter's recursion limit.
    """
    g.check_vertex(u)
    g.check_vertex(v)
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    dv = g.dag(v).dist
    total = dv[u]
    if total == UNREACHED:
        raise UnreachablePairError(f"vertices {u} and {v} are in different components")
    return geodesic_walks(g.adj, u, v, total, dv.__getitem__, limit)


def geodesic_walks(adj, u: int, v: int, total: int, dist_to_v, limit: Optional[int]):
    """The geodesics u -> v of length total = d(u, v), as enumerate_geodesics returns them;
    dist_to_v(x) must be d(x, v) on the geodesics u -> v and, off them, never total - i
    for a walk reaching x in i steps (None or the exact distance both do)."""
    if u == v:
        # The single-vertex geodesic counts against the limit like any other.
        return ([], True) if limit == 0 else ([PathSeq((u,))], False)
    # A walk from u is a geodesic to v exactly when every step lowers the
    # distance to v by one.  stack[i] holds the unexplored neighbours of path[i].
    out: list[PathSeq] = []
    path = [u]
    stack = [iter(adj[u])]
    while stack:
        down = total - len(path)
        for x in stack[-1]:
            if dist_to_v(x) != down:
                continue
            if x == v:
                if limit is not None and len(out) == limit:
                    return out, True
                out.append(PathSeq((*path, v)))
            else:
                path.append(x)
                stack.append(iter(adj[x]))
                break
        else:
            stack.pop()
            path.pop()
    return out, False


def _unique_geodesics(g: Graph) -> bool:
    """Whether every pair of vertices of the connected graph g has one geodesic.

    One BFS runs from every source at once, bit s of each mask standing for
    source s.  In round d, v ORs into one the frontier masks of its
    neighbours, the sources at distance d - 1 from them, and collects in two
    the sources that reach two of them; a source new to v with a bit in two
    gives v two geodesic predecessors.  seen[v] holds the sources that have
    reached v, and new is one & ~seen[v], taken as a XOR so that no mask is
    ever negative.
    """
    seen = [1 << v for v in range(g.vertex_count)]
    frontier = seen[:]
    while any(frontier):
        nxt = []
        for v, nbrs in enumerate(g.adj):
            one = two = 0
            for u in nbrs:
                f = frontier[u]
                two |= one & f
                one |= f
            old = seen[v]
            seen[v] = one = one | old
            new = one ^ old
            if two & new:
                return False
            nxt.append(new)
        frontier = nxt
    return True


def _pair_counts(
    g: Graph,
    pair_filter: Optional[Callable[[int, int], bool]],
    k: Optional[int] = None,
) -> Iterator[tuple[int, int, int, int]]:
    """One (dist, u, v, count) row per source u: its first admitted pair u < v
    in (dist, v) order with the largest count, or with k given, with a count
    above k, so min_geodetic_k and is_k_geodetic pick from these rows the
    pair they would pick from all.  For a single-vertex graph the lone pair
    (0, 0) is admitted so that the scan is never empty.

    The BFS from vertex 0 checks connectivity, gives ecc(0) and is kept as
    source 0's row.  When the guard below admits g, _unique_geodesics runs
    first: if every pair has one geodesic, no row is needed with k given,
    and without k the answer is the first admitted edge.  Otherwise, or
    when no edge is admitted, each other source with an admitted partner
    runs one bfs_dag, dropped before the next.  With no filter a source's
    row is a slice of its counts, and with k given a source whose slice
    maximum is at most k is skipped.
    """
    n = g.vertex_count
    if n == 0:
        raise ValueError("empty graph")
    dag0 = bfs_dag(g, 0)
    if UNREACHED in dag0.dist:
        raise UnreachablePairError("graph is not connected")
    if n == 1:
        if pair_filter is None or pair_filter(0, 0):
            yield (0, 0, 0, 1)
        return
    # The pass takes at most 2 ecc(0) + 1 rounds of about 2.5 single-source
    # BFS each, so it costs under a quarter of the n BFS it can save, and
    # n <= 4096 keeps its lists of n-bit masks to a few MB.
    if n <= 4096 and 10 * (2 * max(dag0.dist) + 1) <= n and _unique_geodesics(g):
        if k is not None:
            return
        for u, v in g.edges():
            if pair_filter is None or pair_filter(u, v):
                yield (1, u, v, 1)
                return
    for u in range(n):
        if pair_filter is None:
            vs = range(u + 1, n)
        else:
            vs = [v for v in range(u + 1, n) if pair_filter(u, v)]
        if not vs:
            continue
        dag = bfs_dag(g, u) if u else dag0
        counts = dag.counts
        if k is None:
            # Only the few v that reach the row's maximum are walked, each
            # found by index; with no filter the row is a slice of counts.
            row = counts[u + 1 :] if pair_filter is None else [counts[v] for v in vs]
            top, i, best = max(row), -1, []
            for _ in range(row.count(top)):
                i = row.index(top, i + 1)
                best.append(vs[i])
        elif pair_filter is None and max(counts[u + 1 :]) <= k:
            continue
        else:
            best = [v for v in vs if counts[v] > k]
        if best:
            d, v = min((dag.dist[v], v) for v in best)
            yield (d, u, v, counts[v])


def min_geodetic_k(
    g: Graph, pair_filter: Optional[Callable[[int, int], bool]] = None
) -> tuple[int, tuple[int, int]]:
    """Smallest k for which g is k-geodetic, with a witness pair.

    The witness is the first maximising pair when pairs are ordered by
    (distance, u, v).  The diagonal is skipped except on a single-vertex
    graph, where the answer is 1 with witness (0, 0).

    This is the all-pairs path of _pair_counts.  A graph with one geodesic
    per pair is settled, when the guard there admits it, by one BFS from
    all sources at once, in a few MB of bit masks; otherwise one transient
    BFS runs per source with an admitted partner, so memory stays O(n)
    beyond the graph.  On a Cayley ball, CayleyBall.min_geodetic_k gets the
    same answer from the identity's geodesic counts alone; this function,
    called with ball.is_trusted_pair as the filter, is its oracle.
    """
    best = min(_pair_counts(g, pair_filter), key=lambda r: (-r[3], r[0], r[1], r[2]), default=None)
    if best is None:
        raise ValueError("no admitted vertex pairs")
    _, u, v, k = best
    return k, (u, v)


def is_k_geodetic(
    g: Graph, k: int, pair_filter: Optional[Callable[[int, int], bool]] = None
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Whether every vertex pair has at most k geodesics.

    Counts are exact, from the all-pairs path of min_geodetic_k.  On
    failure the counterexample is the first violating pair in (distance,
    u, v) order.  On a Cayley ball, CayleyBall.is_k_geodetic is the one-BFS
    path and this function its oracle.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    violator = min((r for r in _pair_counts(g, pair_filter, k) if r[3] > k), default=None)
    if violator is None:
        return True, None
    return False, (violator[1], violator[2])


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    Header ``graph <vertex_count>``, one ``e <u> <v>`` line per edge,
    ``#`` comments and blank lines allowed anywhere.
    """
    vertex_count = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "graph":
            if vertex_count is not None:
                raise GraphFormatError(f"line {lineno}: duplicate graph header")
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected 'graph <vertex_count>'")
            try:
                vertex_count = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad vertex count {parts[1]!r}")
        elif parts[0] == "e":
            if vertex_count is None:
                raise GraphFormatError(f"line {lineno}: edge before graph header")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad edge endpoints")
            edges.append((u, v))
        else:
            raise GraphFormatError(f"line {lineno}: unknown directive {parts[0]!r}")
    if vertex_count is None:
        raise GraphFormatError("missing 'graph <vertex_count>' header")
    return build_graph(edges, vertex_count)


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(
    g: Graph,
    vertex_labels: Optional[Sequence[str]] = None,
    edge_label: Optional[Callable[[int, int], str]] = None,
) -> str:
    """DOT serialization of g, or of anything with its vertex_count and edges().

    The caller supplies the display labels, if any: vertex_labels[u] for
    each vertex, and edge_label(u, v) for each edge with u < v.
    """
    lines = ["graph G {"]
    for u in range(g.vertex_count):
        if vertex_labels is not None:
            lines.append(f"  {u} [label={_dot_quote(vertex_labels[u])}];")
        else:
            lines.append(f"  {u};")
    for u, v in g.edges():
        if edge_label is not None:
            lines.append(f"  {u} -- {v} [label={_dot_quote(edge_label(u, v))}];")
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
