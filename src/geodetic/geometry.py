"""Path-pair geometry: fellow travel and ladder-like structures.

Pair statistics follow the equal-length convention: two paths are compared
index by index, d_i = d(p1(i), p2(i)).  For width m, a_m counts indices
with d_i = m and c_m counts indices with 1 <= d_i <= m.  A pair is
asynchronously disjoint when p1(i) != p2(j) for every pair of DISTINCT
indices (same-index meetings are allowed), and a ladder-like structure of
width m and height r is an asynchronously disjoint pair with a_m = r.

The ladder and bigon scans take their vertex pairs, closest first, from BFS
rounds that grow one layer per vertex and round only as far as the pair cap
needs, and read each pair's geodesics off them; they ask Graph.dag for nothing.
The ladder pairing takes a length bucket a row at a time: a transposed index,
one bit per geodesic for each (vertex, index), gives a row's disjoint
partners and, with a BFS of depth m per vertex, their a_m in a few bit
operations per index, so find_ladders reads no distance row; it keeps one
record per row with a ladder.  pair_stats reads the distance rows of its
first walk's vertices, each row at most once per call.  iter_disjoint_pairs
reads the same rows' distances in one gather per index, and builds one
PairStats per distinct distance tuple of the call, with no Python loop per
pair.  The bigon and triangle scans classify their enumerated geodesics
without validating them again.  The triangle scan enumerates each ordered
side once per scan, off the distance row of its smaller end and the
interval between the ends, so it runs one BFS per corner x or y of its
triples.  Both scans keep one record per vertex pair or corner triple: its
geodesics and a tuple of degenerate flags, one per bigon or triangle.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cache, reduce
from itertools import chain, combinations, combinations_with_replacement, islice, repeat
from operator import eq, or_
from typing import Iterator, NamedTuple, Optional

from .graphs import (
    Frozen,
    Graph,
    PathSeq,
    UNREACHED,
    UnreachablePairError,
    geodesic_walks,
)
from .groups import CayleyBall


def validate_path(g: Graph, p: PathSeq) -> None:
    """Raise unless consecutive vertices are adjacent in g."""
    for v in p.vertices:
        g.check_vertex(v)
    for u, v in zip(p.vertices, p.vertices[1:]):
        if v not in g.adj[u]:
            raise ValueError(f"{u} and {v} are not adjacent")


class PairStats(NamedTuple):
    """Index-wise comparison of two equal-length paths at width m."""

    m: int
    distances: tuple[int, ...]
    a_m: int
    c_m: int
    asynchronously_disjoint: bool
    co_travelling: bool
    synchronously_co_travelling: bool


class _Rows(dict):
    """The distance row of each vertex of g, from one BFS at its first use.

    One _Rows lives for one call, so a row read again costs no second BFS
    and none outlives the call.
    """

    def __init__(self, g: Graph):
        self.g = g

    def __missing__(self, v: int) -> list[int]:
        row = self[v] = self.g.dag(v).dist
        return row


def _distances(rows: _Rows, v1: tuple, v2: tuple) -> tuple[int, ...]:
    """d(v1[i], v2[i]) for each index i, from the rows of v1's vertices; raises
    UnreachablePairError at the first index whose vertices share no component."""
    distances = tuple(map(list.__getitem__, map(rows.__getitem__, v1), v2))
    if UNREACHED in distances:
        i = distances.index(UNREACHED)
        raise UnreachablePairError(f"no path between vertices {v1[i]} and {v2[i]}")
    return distances


def pair_stats(g: Graph, p1: PathSeq, p2: PathSeq, m: int) -> PairStats:
    """Distances, a_m / c_m counters and the meeting flags for an equal-length pair;
    only p1's vertices have their distance rows read.

    The walks share an indexed edge exactly when two consecutive distances
    are 0, and disjoint walks can share a directed edge only at one index.
    """
    if m < 1:
        raise ValueError("width m must be at least 1")
    validate_path(g, p1)
    validate_path(g, p2)
    if p1.length != p2.length:
        raise ValueError(
            f"paths have different lengths ({p1.length} vs {p2.length}); pad first if intended"
        )
    v1, v2 = p1.vertices, p2.vertices
    at: dict[int, int] = {}  # vertex of p2 -> its index, -1 when it repeats
    for j, v in enumerate(v2):
        at[v] = -1 if v in at else j
    disjoint = all(at.get(v, i) == i for i, v in enumerate(v1))
    distances = _distances(_Rows(g), v1, v2)
    sync = 0 in distances and (0, 0) in zip(distances, distances[1:])
    co = sync if disjoint else not set(zip(v1, v1[1:])).isdisjoint(zip(v2, v2[1:]))
    c_m = sum(1 for d in distances if 1 <= d <= m)
    return PairStats(m, distances, distances.count(m), c_m, disjoint, co, sync)


def ladder_bound_A(m: int, k: int) -> int:
    """Height bound for width-m ladder-like structures in a k-geodetic graph:
    A(m, k) = m * k * prod_{i=2..2m+1} (i*k + 1)."""
    if m < 1 or k < 1:
        raise ValueError("m and k must be at least 1")
    r = k * math.prod(i * k + 1 for i in range(2, 2 * m + 2))
    return m * r


def close_bound_C(m: int, k: int) -> int:
    """Bound on c_m over asynchronously disjoint pairs: C(m, k) = m * A(m, k)."""
    return m * ladder_bound_A(m, k)


class SearchScope(Frozen):
    """Caps for the scoped searches; None disables a cap, a negative one raises ValueError.

    max_pairs caps the vertex pairs of ladders and bigons, and the triple cap
    of triangles reuses it; max_geodesics caps the geodesics enumerated per
    vertex pair or triangle side; max_geodesic_pairs bounds only the ladder
    pairing.
    """

    max_pairs: Optional[int] = 2000
    max_geodesics: Optional[int] = 50
    max_geodesic_pairs: Optional[int] = 200_000

    def __init__(
        self,
        max_pairs: Optional[int] = max_pairs,
        max_geodesics: Optional[int] = max_geodesics,
        max_geodesic_pairs: Optional[int] = max_geodesic_pairs,
    ):
        vars(self).update(
            max_pairs=max_pairs, max_geodesics=max_geodesics, max_geodesic_pairs=max_geodesic_pairs
        )
        for name, cap in vars(self).items():
            if cap is not None and cap < 0:
                raise ValueError(f"{name} must be nonnegative, got {cap}")


class Coverage:
    """What a scoped search found (the reports) and how much ground it covered.

    pairs_scanned counts the vertex pairs whose geodesics were enumerated;
    for triangles they are corner triples, under the triple cap max_pairs.
    geodesic_pairs_scanned counts the geodesic pairs the ladder pairing
    compared; max_geodesic_pairs bounds only that pairing, so it is 0 for
    bigons and triangles.  skipped counts every untrusted pair of the ball,
    from its norms, however soon the scan stops; for triangles, the
    untrusted triples passed over before the triple cap stopped the scan.
    exhausted says a cap cut the search short, a truncated geodesic list
    included.  found holds NamedTuple records: one LadderRecord per row of
    the ladder pairing with a ladder, holding each ladder's partner and
    height; for bigons, one BigonRecord per scanned pair, and for triangles,
    one TriangleRecord per scanned triple, each with one degenerate flag per
    bigon or triangle.
    """

    def __init__(
        self,
        found: Optional[list] = None,
        pairs_scanned: int = 0,
        geodesic_pairs_scanned: int = 0,
        skipped: int = 0,
        exhausted: bool = False,
    ):
        self.found = [] if found is None else found
        self.pairs_scanned = pairs_scanned
        self.geodesic_pairs_scanned = geodesic_pairs_scanned
        self.skipped = skipped
        self.exhausted = exhausted

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is Coverage else NotImplemented


def _graph_and_filter(host: Graph | CayleyBall):
    """The host's graph and its trusted-pair filter, None where every pair is trusted."""
    if isinstance(host, Graph):
        return host, None
    return host.graph, None if host.complete else host.is_trusted_pair


def _capped(rows: Iterator, cap: Optional[int], cov: Coverage) -> Iterator:
    """The first cap rows (every row when cap is None); one more row marks cov.exhausted."""
    yield from islice(rows, cap)
    if cap is not None and next(rows, None) is not None:
        cov.exhausted = True


def _vertex_pairs(host, cov: Coverage, near: list[dict[int, int]]) -> Iterator[tuple]:
    """Reachable vertex pairs u < v as (d, u, v) in (distance, u, v) order.

    Round d grows the BFS of each vertex u by one layer into near[u], its
    map vertex -> distance, and yields u's pairs at distance d right after
    u's layer, so near[v] holds exactly the vertices within d - 1 of v when
    (d, u, v) comes out.  On an incomplete ball only trusted pairs come out,
    cov.skipped counts the others from the norms, and the rounds stop at
    the radius, past which no pair is trusted.
    """
    g, pair_filter = _graph_and_filter(host)
    adj, n, last = g.adj, g.vertex_count, None
    if pair_filter is not None:
        norms, last = sorted(host.norms), host.radius
        # Ordered pairs with norm sum above the radius, less each vertex with itself.
        above = sum(n - bisect_right(norms, last - x) for x in norms)
        cov.skipped += (above - n + bisect_right(norms, last // 2)) // 2
    near.extend({u: 0} for u in range(n))
    layers = [[u] for u in range(n)]
    d = 0
    while any(layers) and d != last:
        d += 1
        for u in range(n):
            seen, layer = near[u], []
            for x in layers[u]:
                for y in adj[x]:
                    if y not in seen:
                        seen[y] = d
                        layer.append(y)
            layers[u] = layer
            for v in sorted(layer):
                if v > u and (pair_filter is None or pair_filter(u, v)):
                    yield d, u, v


def _pair_geodesics(host, scope: SearchScope, cov: Coverage):
    """(d, geodesics u -> v) of each scoped vertex pair, read off near[v] and
    counted in cov.pairs_scanned; at most scope.max_geodesics per pair, and a
    truncated list marks cov.exhausted."""
    adj = _graph_and_filter(host)[0].adj
    near: list[dict[int, int]] = []
    for d, u, v in _capped(_vertex_pairs(host, cov, near), scope.max_pairs, cov):
        cov.pairs_scanned += 1
        geos, truncated = geodesic_walks(adj, u, v, d, near[v].get, scope.max_geodesics)
        cov.exhausted |= truncated
        yield d, geos


def iter_disjoint_pairs(
    host: Graph | CayleyBall, m: int, scope: Optional[SearchScope] = None
) -> Iterator[tuple[PathSeq, PathSeq, PairStats]]:
    """Asynchronously disjoint equal-length geodesic pairs within scope,
    each with its full PairStats at width m.

    Geodesics are enumerated per vertex pair (pairs ordered by distance then
    lexicographically, each geodesic directed from the smaller endpoint),
    bucketed by length, and paired within each bucket, so the two geodesics
    of a pair may join different endpoint pairs.  The pairing of find_ladders
    picks each row's disjoint partners, and the row reads d(p1(t), p2(t))
    for all of them in one gather per index t, off the distance row of
    p1(t); each vertex's distance row is read once per call.  A disjoint
    pair's PairStats depends on its distances alone, and pairs share few
    distinct distance tuples (1,418 among the 41,692 pairs of
    scripts/ladder_survey.py), so the call builds one PairStats per distinct
    tuple and hands it to every pair that has it.  Disjoint walks meet only
    at equal indices, so they share an indexed edge exactly when two
    consecutive distances are 0, and co_travelling is
    synchronously_co_travelling.  The geodesics come from enumeration, so no
    pair is validated again.  A disjoint pair in two components raises
    UnreachablePairError after the pairs before it.  A width below 1 raises
    ValueError at the call, before any pair is produced.
    """
    if m < 1:
        raise ValueError("width m must be at least 1")
    rows = _Rows(_graph_and_filter(host)[0])
    stats: dict[tuple, PairStats] = {}  # distance tuple -> its PairStats

    def row_pairs(geos: list[PathSeq], i: int, disjoint: int, _) -> Iterator[tuple]:
        partners = list(map(geos.__getitem__, _bits(disjoint)))
        # Column t holds d(p1(t), p2(t)) for every partner p2, in pairing order.
        at = zip(*(p.vertices for p in partners))
        cols = [list(map(rows[x].__getitem__, xs)) for x, xs in zip(geos[i].vertices, at)]
        dists = list(zip(*cols))
        for d in set(dists).difference(stats):
            sync = 0 in d and (0, 0) in zip(d, d[1:])
            c_m = sum(map(d.count, range(1, m + 1)))
            stats[d] = PairStats(m, d, d.count(m), c_m, True, sync, sync)
        return zip(repeat(geos[i]), partners, map(stats.__getitem__, dists))

    pair_rows = _pair_rows(host, scope or SearchScope(), Coverage())
    return chain.from_iterable(row_pairs(*row) for row in pair_rows)


def _sphere(adj, x: int, m: int) -> set[int]:
    """The vertices at distance exactly m from x, by a BFS of depth m."""
    seen = layer = {x}
    for _ in range(m):
        layer = {v for u in layer for v in adj[u]} - seen
        seen = seen | layer
    return layer


def _component_labels(g: Graph) -> list[int]:
    """label[v] is the least vertex of v's component."""
    label = [-1] * g.vertex_count
    for s in range(g.vertex_count):
        stack = [s] if label[s] < 0 else []
        while stack:
            u = stack.pop()
            if label[u] < 0:
                label[u] = s
                stack.extend(g.adj[u])
    return label


def _bits(x: int) -> Iterator[int]:
    """The set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _bucket_rows(geos: list[PathSeq], take: int, sphere) -> Iterator[tuple]:
    """(i, disjoint, close) for each row of one length bucket, under the pair cap take.

    Row i pairs geodesic i with the columns i+1, i+2, ... until take runs
    out.  Only the columns the cap reaches are indexed, transposed: at[x][t]
    has bit j when geodesic j has vertex x at index t.  Geodesics are simple
    paths, so the bits of at[x] are disjoint and their sum holds the
    geodesics through x; j meets p_i at distinct indices exactly when it
    holds some p_i(t) at an index other than t.  disjoint has the bits of
    the row's asynchronously disjoint partners.  close[t] has the bits j
    with p_j(t) in sphere(p_i(t)), so a_m of (i, j) counts the t whose
    close[t] has bit j; close is None when sphere is None.
    """
    n, width = min(len(geos), take + 1), len(geos[0].vertices)
    at: dict[int, list[int]] = {}
    for j, p in enumerate(geos[:n]):
        for t, x in enumerate(p.vertices):
            at.setdefault(x, [0] * width)[t] |= 1 << j
    anywhere = {x: sum(row) for x, row in at.items()}

    @cache
    def near(x: int, t: int) -> int:
        """The bits j with p_j(t) in sphere(x)."""
        return sum(at[y][t] for y in sphere(x) if y in at)

    for i in range(n - 1):
        stop = min(n, i + 1 + take)
        take -= stop - i - 1
        vs = list(enumerate(geos[i].vertices))
        bad = reduce(or_, [anywhere[x] ^ at[x][t] for t, x in vs])
        close = None if sphere is None else [near(x, t) for t, x in vs]
        yield i, ((1 << stop) - (2 << i)) & ~bad, close
        if not take:
            break


def _pair_rows(host, scope: SearchScope, cov: Coverage, sphere=None):
    """(geos, i, disjoint, close) for each row of the ladder pairing (see
    _bucket_rows), the buckets' pairs capped together by max_geodesic_pairs.

    A disjoint pair in two components raises UnreachablePairError, as its
    index-0 distance would, after its row's earlier partners come out.
    """
    g = _graph_and_filter(host)[0]
    buckets: dict[int, list[PathSeq]] = {}
    for d, geos in _pair_geodesics(host, scope, cov):
        buckets.setdefault(d, []).extend(geos)
    room = scope.max_geodesic_pairs
    label = _component_labels(g)
    # The pairs arrive by distance, so the buckets are in length order.
    for geos in buckets.values():
        n = len(geos)
        take = n * (n - 1) // 2
        if room is not None:
            if take > room:  # the rest of this bucket is left over
                cov.exhausted = True
                take = room
            room -= take
        if not take:
            continue
        cov.geodesic_pairs_scanned += take
        within: dict[int, int] = {}  # component label -> the bits of its columns
        for j, p in enumerate(geos[: take + 1]):
            within[label[p.vertices[0]]] = within.get(label[p.vertices[0]], 0) | 1 << j
        for i, disjoint, close in _bucket_rows(geos, take, sphere):
            across = disjoint & ~within[label[geos[i].vertices[0]]]
            if across:
                j = (across & -across).bit_length() - 1
                yield geos, i, disjoint & ((1 << j) - 1), close
                raise UnreachablePairError(
                    f"no path between vertices {geos[i].vertices[0]} and {geos[j].vertices[0]}"
                )
            yield geos, i, disjoint, close


class LadderRecord(NamedTuple):
    """The ladders (gamma1, partner) of one row of the pairing: its partners in
    pairing order, the height a_m >= 1 of each, the width m and A(m, k); a
    ladder is within its bound when its height is at most bound."""

    gamma1: PathSeq
    partners: tuple
    heights: tuple
    m: int
    bound: int


def find_ladders(
    host: Graph | CayleyBall, m: int, k_verified: int, scope: Optional[SearchScope] = None
) -> Coverage:
    """Scoped search for width-m ladder-like structures, one LadderRecord per
    row of the pairing that has a ladder.

    k_verified is the caller-certified geodeticity constant of the host; it
    only feeds the reported bound A(m, k).  The search pairs geodesics as
    iter_disjoint_pairs does, a row at a time on bit sets: each row's
    disjoint partners and their closeness come from a transposed index of
    its length bucket and the m-spheres of its vertices, so no distance row
    is read and no PairStats is built.  For a CayleyBall only trusted pairs
    enter the scan and the skipped ones are counted.  A width below 1 raises
    ValueError before anything else.
    """
    if m < 1:
        raise ValueError("width m must be at least 1")
    if k_verified < 1:
        raise ValueError("k_verified must be at least 1")
    bound = ladder_bound_A(m, k_verified)
    cov = Coverage()
    adj = _graph_and_filter(host)[0].adj
    sphere = cache(lambda x: _sphere(adj, x, m))
    for geos, i, disjoint, close in _pair_rows(host, scope or SearchScope(), cov, sphere):
        ladders = disjoint & reduce(or_, close)
        if ladders:
            # Bit j of close[t] sits at bit t*n of stack >> j, so the popcount
            # of (stack >> j) & ones counts the t whose close[t] has bit j.
            n = len(geos)
            stack = sum(c << t * n for t, c in enumerate(close))
            ones = sum(1 << t * n for t in range(len(close)))
            js = list(_bits(ladders))
            partners = tuple(map(geos.__getitem__, js))
            heights = tuple(((stack >> j) & ones).bit_count() for j in js)
            cov.found.append(LadderRecord(geos[i], partners, heights, m, bound))
    return cov


class BigonRecord(NamedTuple):
    """The bigons of one scanned vertex pair: its geodesics, and the degenerate
    flag of each pair of them in combinations(geodesics, 2) order.

    A bigon is two distinct geodesics sharing both endpoints; it is
    degenerate when its sides meet at some interior index.
    """

    geodesics: tuple
    degenerate: tuple


def enumerate_bigons(host: Graph | CayleyBall, scope: Optional[SearchScope] = None) -> Coverage:
    """Every pair of distinct geodesics u -> v over the scoped vertex pairs,
    as one BigonRecord per pair.

    The Coverage counts pairs as find_ladders does, skipped being every
    untrusted pair of the ball; max_geodesic_pairs bounds only the ladder
    pairing, so geodesic_pairs_scanned stays 0.  The sides come from one
    enumeration, so they are classified without being validated again.
    """
    cov = Coverage()
    for _, geos in _pair_geodesics(host, scope or SearchScope(), cov):
        inner = [p.vertices[1:-1] for p in geos]
        flags = tuple(any(map(eq, a, b)) for a, b in combinations(inner, 2))
        cov.found.append(BigonRecord(tuple(geos), flags))
    return cov


def _corner_triples(
    g: Graph, rows: _Rows, pair_filter, cov: Coverage
) -> Iterator[tuple[int, int, int]]:
    """Corner triples x <= y <= z of one component in (x, y, z) order;
    triples with a side the filter rejects count in cov.skipped."""
    for x in range(g.vertex_count):
        dx = rows[x]
        reach = [v for v in range(x, g.vertex_count) if dx[v] != UNREACHED]
        for y, z in combinations_with_replacement(reach, 2):
            if pair_filter is None or (
                pair_filter(x, y) and pair_filter(y, z) and pair_filter(x, z)
            ):
                yield x, y, z
            else:
                cov.skipped += 1


def _interval(adj, row: list[int], b: int) -> dict[int, int]:
    """The vertices on the geodesics a -> b, each mapped to its distance to b,
    where row is the distance row of a: from a vertex x of theirs, they go
    on, one step further from b, to the neighbours of x one step closer to a."""
    near, found = {b: 0}, [b]
    for x in found:  # found grows while it is read
        for y in adj[x]:
            if row[y] == row[x] - 1 and y not in near:
                near[y] = near[x] + 1
                found.append(y)
    return near


class TriangleRecord(NamedTuple):
    """The geodesic triangles of one scanned corner triple x <= y <= z: the
    geodesics of its sides x -> y, y -> z and z -> x, and the degenerate flag
    of each triangle in product(alphas, betas, gammas) order.

    A triangle is non-degenerate when the index-1.. tails of its three sides
    are pairwise disjoint vertex sets; a zero-length side collapses two
    corners and makes the triangle degenerate outright.
    """

    alphas: tuple
    betas: tuple
    gammas: tuple
    degenerate: tuple


def enumerate_triangles(host: Graph | CayleyBall, scope: Optional[SearchScope] = None) -> Coverage:
    """Geodesic triangles over corner triples x <= y <= z within scope, as one
    TriangleRecord per triple.

    The triple cap reuses scope.max_pairs, and pairs_scanned counts triples;
    skipped counts the untrusted triples passed over before the scan stopped.
    max_geodesic_pairs bounds only the ladder pairing, so
    geodesic_pairs_scanned stays 0.  Each ordered side (a, b) is enumerated
    once per scan, and its geodesics are kept with their index-1.. tail
    sets.  It is read off the distance row of b when b <= a or that row is
    already held, else off the interval of a and b in the row of a.  So rows
    are read only for the corners x and y, one BFS per vertex per scan.
    """
    scope = scope or SearchScope()
    g, pair_filter = _graph_and_filter(host)
    cov = Coverage()
    rows, limit = _Rows(g), scope.max_geodesics
    sides: dict[tuple[int, int], tuple] = {}

    def side(a: int, b: int) -> tuple[tuple, list[frozenset]]:
        """The geodesics a -> b and their index-1.. tails, enumerated at the first call."""
        got = sides.get((a, b))
        if got is None:
            if b <= a or b in rows:
                d, to_b = rows[b][a], rows[b].__getitem__
            else:
                d, to_b = rows[a][b], _interval(g.adj, rows[a], b).get
            geos, truncated = geodesic_walks(g.adj, a, b, d, to_b, limit)
            # exhausted only ever turns on, so a side met again need not mark it.
            cov.exhausted |= truncated
            # A zero-length side keeps its one vertex as its tail; the side that
            # ends at that corner holds it too, so its triangles are degenerate.
            got = sides[a, b] = tuple(geos), [frozenset(p.vertices[1:] or p.vertices) for p in geos]
        return got

    for x, y, z in _capped(_corner_triples(g, rows, pair_filter, cov), scope.max_pairs, cov):
        cov.pairs_scanned += 1
        (alphas, tas), (betas, tbs), (gammas, tcs) = side(x, y), side(y, z), side(z, x)
        flags = tuple(
            ab or not (ta.isdisjoint(tc) and tb.isdisjoint(tc))
            for ta in tas
            for tb in tbs
            for ab in (not ta.isdisjoint(tb),)
            for tc in tcs
        )
        cov.found.append(TriangleRecord(alphas, betas, gammas, flags))
    return cov
