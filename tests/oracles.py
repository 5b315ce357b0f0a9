"""Independent brute-force oracles the suite checks the library against.

Everything here favors obviousness over speed: plain depth-first search,
divisor scans, and direct membership checks, free of the library's own
algorithms so that agreement actually means something.  The scoped-search
oracles (ladders, bigons, triangles) choose and cap their vertex pairs and
corner triples from a full scan of plain BFS rows, classify by hand, and
reuse only the library's geodesic enumeration.  They list one LadderReport,
BigonReport or TriangleReport per ladder, bigon or triangle, and expanded()
turns a library scan's records into the same list.  The report-line oracles
format each ladder, bigon or triangle report as one line of its own.  The language oracles are
the earlier, longer forms of the stabilisation fit and the factor automaton,
with every pruning step spelled out, the centraliser scan by multiply,
the power languages read off the ball graph's geodesic enumeration, each
path's labels found by multiplying in the group, and the forbidden-factor
and local-exclusion walks over whole words rather than the vertices of
their suffixes and parents.
naive_forbidden_factors and naive_locally_excluding sit between those and
the library's state walks: they carry every geodesic word through each
layer, with its vertex and that of its suffix, or with its vertex,
automaton state and path.
The last section holds what no command runs, read only by the tests: the
shortening step of the paper's k-geodetic argument (k+1 equal-length walks
yield a shorter one), fellow travel after padding, single-pair geodesic
counts, the complete-bipartite test, word geodesicity, the pumped languages
of a Stabilization, the factor automaton's transition function,
generator lookup by label and integer powers of a group element.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, product
from typing import NamedTuple, Optional, Sequence

from geodetic.geometry import (
    BigonRecord,
    Coverage,
    LadderRecord,
    PairStats,
    _distances,
    _Rows,
    ladder_bound_A,
    validate_path,
)
from geodetic.graphs import (
    UNREACHED,
    Graph,
    PathSeq,
    UnreachablePairError,
    build_graph,
    enumerate_geodesics,
)
from geodetic.groups import BallBudgetError, CayleyBall, GenSet, GenSetError, word_to_element
from geodetic.lang import (
    BallRangeError,
    FactorAutomaton,
    ForbiddenSet,
    Stabilization,
    _path_word,
    build_factor_automaton,
    check_factor_length,
)
from geodetic.words import EMPTY_WORD, Word


def dfs_walks_of_length(g: Graph, u: int, v: int, n: int) -> list[tuple[int, ...]]:
    """All walks from u to v using exactly n edges, by plain DFS."""
    out: list[tuple[int, ...]] = []
    acc = [u]

    def go(x: int, left: int) -> None:
        if left == 0:
            if x == v:
                out.append(tuple(acc))
            return
        for y in g.adj[x]:
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


def brute_complete_bipartite(g: Graph) -> Optional[tuple[int, int]]:
    """Part sizes (small, large) of the first vertex set S, over all subsets,
    whose edges are exactly the vertex pairs with one end in S."""
    n, edges = g.vertex_count, set(g.edges())
    for mask in range(1 << n):
        side = [mask >> v & 1 for v in range(n)]
        if edges == {(u, v) for u, v in combinations(range(n), 2) if side[u] != side[v]}:
            k = sum(side)
            return (min(k, n - k), max(k, n - k))
    return None


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


def naive_pair_stats(g: Graph, p1, p2, m: int) -> PairStats:
    """pair_stats the slow way: validate, then compare index by index.

    Every distance goes through Graph.dist, and the meeting flags come from
    position lists of the second walk.
    """
    if m < 1:
        raise ValueError("width m must be at least 1")
    validate_path(g, p1)
    validate_path(g, p2)
    if p1.length != p2.length:
        raise ValueError(
            f"paths have different lengths ({p1.length} vs {p2.length}); pad first if intended"
        )
    distances = [g.dist(a, b) for a, b in zip(p1.vertices, p2.vertices)]
    a_m = sum(1 for d in distances if d == m)
    c_m = sum(1 for d in distances if 1 <= d <= m)

    positions: dict[int, list[int]] = {}
    for j, v in enumerate(p2.vertices):
        positions.setdefault(v, []).append(j)
    disjoint = True
    for i, v in enumerate(p1.vertices):
        for j in positions.get(v, ()):
            if j != i:
                disjoint = False
                break
        if not disjoint:
            break

    edges2 = {}
    for j in range(p2.length):
        edges2.setdefault((p2[j], p2[j + 1]), []).append(j)
    co = False
    sync = False
    for i in range(p1.length):
        for j in edges2.get((p1[i], p1[i + 1]), ()):
            co = True
            if j == i:
                sync = True
    return PairStats(m, tuple(distances), a_m, c_m, disjoint, co, sync)


class LadderReport(NamedTuple):
    gamma1: PathSeq
    gamma2: PathSeq
    m: int
    height: int
    bound: int
    within_bound: bool


class BigonReport(NamedTuple):
    alpha: PathSeq
    beta: PathSeq
    degenerate: bool


class TriangleReport(NamedTuple):
    alpha: PathSeq
    beta: PathSeq
    gamma: PathSeq
    degenerate: bool


def bfs_distances(g: Graph, u: int) -> list[Optional[int]]:
    """Distances from u by a plain queue BFS; None marks an unreachable vertex."""
    dist: list[Optional[int]] = [None] * g.vertex_count
    dist[u] = 0
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in g.adj[x]:
            if dist[y] is None:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def _graph_and_trust(host):
    """The host's graph and its trusted-pair test (every pair of a plain graph)."""
    if isinstance(host, CayleyBall):
        return host.graph, host.is_trusted_pair
    return host, lambda u, v: True


def naive_scoped_pairs(host, scope, cov: Coverage) -> list[tuple[int, int, int]]:
    """Every reachable pair u < v as (d, u, v), filtered, sorted and sliced.

    Untrusted pairs count in cov.skipped; a slice that drops rows sets
    cov.exhausted.
    """
    g, trusted = _graph_and_trust(host)
    rows = []
    for u in range(g.vertex_count):
        dist = bfs_distances(g, u)
        for v in range(u + 1, g.vertex_count):
            if dist[v] is None:
                continue
            if trusted(u, v):
                rows.append((dist[v], u, v))
            else:
                cov.skipped += 1
    rows.sort()
    if scope.max_pairs is not None and len(rows) > scope.max_pairs:
        cov.exhausted = True
        rows = rows[: scope.max_pairs]
    return rows


def _naive_geodesics(g: Graph, u: int, v: int, scope, cov: Coverage):
    geos, truncated = enumerate_geodesics(g, u, v, limit=scope.max_geodesics)
    cov.exhausted = cov.exhausted or truncated
    return geos


def naive_disjoint_pairs(host, m: int, scope, cov: Coverage):
    """The ladder scan with naive_pair_stats run on every geodesic pair."""
    g, _ = _graph_and_trust(host)
    buckets: dict[int, list] = {}
    for d, u, v in naive_scoped_pairs(host, scope, cov):
        cov.pairs_scanned += 1
        buckets.setdefault(d, []).extend(_naive_geodesics(g, u, v, scope, cov))
    for d in sorted(buckets):
        flat = buckets[d]
        for i in range(len(flat)):
            for j in range(i + 1, len(flat)):
                cap = scope.max_geodesic_pairs
                if cap is not None and cov.geodesic_pairs_scanned >= cap:
                    cov.exhausted = True
                    return
                cov.geodesic_pairs_scanned += 1
                stats = naive_pair_stats(g, flat[i], flat[j], m)
                if stats.asynchronously_disjoint:
                    yield flat[i], flat[j], stats


def naive_find_ladders(host, m: int, k_verified: int, scope) -> Coverage:
    """find_ladders over naive_disjoint_pairs."""
    bound = ladder_bound_A(m, k_verified)
    cov = Coverage()
    for p1, p2, stats in naive_disjoint_pairs(host, m, scope, cov):
        if stats.a_m >= 1:
            cov.found.append(LadderReport(p1, p2, m, stats.a_m, bound, stats.a_m <= bound))
    return cov


def naive_bigons(host, scope) -> Coverage:
    """enumerate_bigons over naive_scoped_pairs, each side pair classified by hand."""
    g, _ = _graph_and_trust(host)
    cov = Coverage()
    for _, u, v in naive_scoped_pairs(host, scope, cov):
        cov.pairs_scanned += 1
        geos = _naive_geodesics(g, u, v, scope, cov)
        for i in range(len(geos)):
            for j in range(i + 1, len(geos)):
                a, b = geos[i], geos[j]
                degenerate = any(a[t] == b[t] for t in range(1, a.length))
                cov.found.append(BigonReport(a, b, degenerate))
    return cov


def naive_triangles(host, scope) -> Coverage:
    """enumerate_triangles over the corner triples x <= y <= z, walked in order.

    The walk passes over triples with a corner the others cannot reach and
    stops at the first admitted triple past the cap max_pairs, so skipped
    counts the untrusted triples before that point.  Each corner's BFS row
    is computed on first use.
    """
    g, trusted = _graph_and_trust(host)
    n = g.vertex_count
    dist: dict[int, list[Optional[int]]] = {}

    def row(x: int) -> list[Optional[int]]:
        if x not in dist:
            dist[x] = bfs_distances(g, x)
        return dist[x]

    cov = Coverage()
    admitted = []
    triples = ((x, y, z) for x in range(n) for y in range(x, n) for z in range(y, n))
    for x, y, z in triples:
        if None in (row(x)[y], row(y)[z], row(x)[z]):
            continue
        if not (trusted(x, y) and trusted(y, z) and trusted(x, z)):
            cov.skipped += 1
        elif scope.max_pairs is not None and len(admitted) == scope.max_pairs:
            cov.exhausted = True
            break
        else:
            admitted.append((x, y, z))
    for x, y, z in admitted:
        cov.pairs_scanned += 1
        alphas = _naive_geodesics(g, x, y, scope, cov)
        betas = _naive_geodesics(g, y, z, scope, cov)
        gammas = _naive_geodesics(g, z, x, scope, cov)
        for a in alphas:
            for b in betas:
                for c in gammas:
                    if 0 in (a.length, b.length, c.length):
                        degenerate = True
                    else:
                        ta, tb, tc = (set(p.vertices[1:]) for p in (a, b, c))
                        degenerate = bool(ta & tb or ta & tc or tb & tc)
                    cov.found.append(TriangleReport(a, b, c, degenerate))
    return cov


def expanded(cov: Coverage) -> Coverage:
    """A scan's Coverage with each record replaced by its reports, one
    LadderReport per partner or one BigonReport or TriangleReport per
    degenerate flag, as the naive scans list them."""
    found = []
    for r in cov.found:
        if isinstance(r, LadderRecord):
            found.extend(LadderReport(r.gamma1, p2, r.m, h, r.bound, h <= r.bound)
                         for p2, h in zip(r.partners, r.heights))
            continue
        if isinstance(r, BigonRecord):
            sides, report = combinations(r.geodesics, 2), BigonReport
        else:
            sides, report = product(r.alphas, r.betas, r.gammas), TriangleReport
        found.extend(report(*abc, flag) for abc, flag in zip(sides, r.degenerate))
    return Coverage(found, cov.pairs_scanned, cov.geodesic_pairs_scanned, cov.skipped, cov.exhausted)


def ladder_report_line(r: LadderReport) -> str:
    v1, v2 = r.gamma1.vertices, r.gamma2.vertices
    return (
        f"ladder: p1={v1[0]}->{v1[-1]} p2={v2[0]}->{v2[-1]} "
        f"len={len(v1) - 1} m={r.m} height={r.height} bound={r.bound} "
        f"within={'true' if r.within_bound else 'false'}"
    )


def bigon_report_line(b: BigonReport) -> str:
    vs = b.alpha.vertices
    return (
        f"bigon: u={vs[0]} v={vs[-1]} len={len(vs) - 1} "
        f"degenerate={'true' if b.degenerate else 'false'}"
    )


def triangle_report_line(t: TriangleReport) -> str:
    va, vb, vc = t.alpha.vertices, t.beta.vertices, t.gamma.vertices
    return (
        f"triangle: corners={va[0]},{vb[0]},{vc[0]} "
        f"sides={len(va) - 1},{len(vb) - 1},{len(vc) - 1} "
        f"degenerate={'true' if t.degenerate else 'false'}"
    )


def word_of_path(ball: CayleyBall, vertices) -> tuple:
    """Generator labels read along a path of ball vertices.

    Each step u -> v takes the first generator s, in genset order, with
    elements[u] * s == elements[v], found by multiplying in the group rather
    than by reading ball.steps.
    """
    n = ball.vertex_count
    if vertices and not (0 <= min(vertices) and max(vertices) < n):
        raise ValueError(f"path leaves the ball's vertices 0..{n - 1}")
    word = []
    for u, v in zip(vertices, vertices[1:]):
        labels = [label for label, s in ball.genset.items()
                  if ball.spec.multiply(ball.elements[u], s) == ball.elements[v]]
        if not labels:
            raise ValueError(f"no edge between ball vertices {u} and {v}")
        word.append(labels[0])
    return tuple(word)


def naive_power_languages(ball: CayleyBall, g_word, n_max: int) -> tuple:
    """The geodesic-word sets of g^0..g^n_max, by enumerating geodesics.

    The earlier power_language loop: every geodesic from g^n to 1 is
    enumerated vertex by vertex on ball.graph, then read backwards as
    generator labels.  All powers must lie inside the ball.
    """
    spec = ball.spec
    g = word_to_element(spec, ball.genset, g_word)
    languages = []
    e = spec.identity()
    for n in range(n_max + 1):
        v = ball.vertex_of(e)
        # A geodesic from g^n to 1, read backwards, is one from 1 to g^n.
        paths, _ = enumerate_geodesics(ball.graph, v, 0)
        words = sorted(word_of_path(ball, p.vertices[::-1]) for p in paths)
        languages.append(tuple(words))
        e = spec.multiply(e, g)
    return tuple(languages)


def naive_centraliser(ball: CayleyBall, g) -> list:
    """Ball members h with g·h == h·g, in vertex order, by two multiply calls each.

    The earlier centraliser_in_ball loop, before it multiplied through the
    left and right actions of g.
    """
    spec = ball.spec
    return [h for h in ball.elements if spec.multiply(g, h) == spec.multiply(h, g)]


def naive_fit_tail(tail):
    """Fit alpha (ts)^(q+c) t gamma to consecutive languages, step by step.

    Tries (a_len, g_len) in the library's order and checks the shared
    prefix and suffix sets, the single middle of each language and its
    recurrence before rebuilding every language.  Returns the library's
    (alpha, t, s, q, gamma) or None.
    """
    total = len(tail[0])
    if total == 0 or any(len(lang) != total for lang in tail):
        return None
    lens = [len(lang[0]) for lang in tail]
    period = lens[1] - lens[0]
    if period < 1 or any(b - a != period for a, b in zip(lens, lens[1:])):
        return None
    l0 = lens[0]
    for a_len in range(l0 + 1):
        prefixes = {w[:a_len] for w in tail[0]}
        if any({w[:a_len] for w in lang} != prefixes for lang in tail[1:]):
            continue
        if total % len(prefixes):
            continue
        for g_len in range(l0 - a_len + 1):
            suffixes = {w[len(w) - g_len :] if g_len else () for w in tail[0]}
            if any(
                {w[len(w) - g_len :] if g_len else () for w in lang} != suffixes
                for lang in tail[1:]
            ):
                continue
            if len(prefixes) * len(suffixes) != total:
                continue
            mids = []
            ok = True
            for lang in tail:
                cut = {w[a_len : len(w) - g_len] for w in lang}
                if len(cut) != 1:
                    ok = False
                    break
                mids.append(next(iter(cut)))
            if not ok:
                continue
            block = mids[1][:period]
            if any(mids[c + 1] != block + mids[c] for c in range(len(mids) - 1)):
                continue
            q, r = divmod(len(mids[0]), period)
            t = mids[0][q * period :]
            if block[:r] != t:
                continue
            s = block[r:]
            if any(mids[c] != block * (q + c) + t for c in range(len(mids))):
                continue
            alpha = tuple(sorted(prefixes))
            gamma = tuple(sorted(suffixes))
            fits = True
            for c, lang in enumerate(tail):
                rebuilt = {a + block * (q + c) + t + g for a in alpha for g in gamma}
                if rebuilt != set(lang):
                    fits = False
                    break
            if fits:
                return alpha, t, s, q, gamma
    return None


def naive_factor_automaton(forbidden, letters):
    """(transitions, start, dead) of the factor-excluding DFA over letters.

    Builds the Aho-Corasick trie and its transition table side by side,
    then drops every state that has a forbidden word as a suffix into one
    absorbing dead state, numbering the live states in trie order.
    """
    letters = sorted(set(letters))
    fwords = sorted(set(map(tuple, forbidden)), key=lambda w: (len(w), w))
    children = [{}]
    terminal = [False]
    for w in fwords:
        cur = 0
        for letter in w:
            if letter not in children[cur]:
                children.append({})
                terminal.append(False)
                children[cur][letter] = len(children) - 1
            cur = children[cur][letter]
        terminal[cur] = True
    fail = [0] * len(children)
    goto = [{} for _ in children]
    order = deque()
    for letter in letters:
        child = children[0].get(letter)
        goto[0][letter] = 0 if child is None else child
        if child is not None:
            order.append(child)
    while order:
        u = order.popleft()
        if terminal[fail[u]]:
            terminal[u] = True
        for letter in letters:
            child = children[u].get(letter)
            if child is None:
                goto[u][letter] = goto[fail[u]][letter]
            else:
                fail[child] = goto[fail[u]][letter]
                goto[u][letter] = child
                order.append(child)
    live = [q for q in range(len(children)) if not terminal[q]]
    remap = {q: i for i, q in enumerate(live)}
    dead = len(live)
    table = [
        {letter: dead if terminal[goto[q][letter]] else remap[goto[q][letter]] for letter in letters}
        for q in live
    ]
    table.append({letter: dead for letter in letters})
    return table, remap.get(0, dead), dead


def push_product(spec, a, b) -> tuple:
    """PlainSpec product the earlier way: push b's syllables onto a one at a time.

    A pushed syllable whose factor matches the top of the stack pops it and
    pushes the merged syllable back unless its exponent reduces to 0; any
    other syllable is reduced on its own and pushed unless that gives 0.
    """

    def canonical(factor, e):
        o = spec.factor_order(factor)
        return e % o if o else e

    out = list(a)
    for factor, e in b:
        if out and out[-1][0] == factor:
            merged = canonical(factor, out[-1][1] + e)
            out.pop()
            if merged:
                out.append((factor, merged))
        else:
            e = canonical(factor, e)
            if e:
                out.append((factor, e))
    return tuple(out)


def naive_minimal_forbidden_factors(ball: CayleyBall, e: int) -> frozenset:
    """The minimal forbidden factors of length <= e, from sets of words.

    The earlier minimal_forbidden_factors loop: each layer keeps its
    geodesic words, and an extension w·s that is not geodesic is minimal
    when its suffix (w·s)[1:] is among the geodesic words one shorter.
    """
    moves = sorted(zip(ball.genset.labels, ball.steps))
    forbidden = []
    layer = [((), 0)]
    for length in range(1, e + 1):
        prev_words = {w for w, _ in layer}
        new_layer = []
        for w, u in layer:
            for letter, row in moves:
                x = w + (letter,)
                v = row[u]
                if ball.norms[v] == length:
                    new_layer.append((x, v))
                elif x[1:] in prev_words:
                    forbidden.append(x)
        layer = new_layer
    return frozenset(forbidden)


def naive_check_locally_excluding(ball: CayleyBall, forbidden, test_len: int):
    """check_locally_excluding as a deque BFS over (word, vertex, state).

    Every geodesic word up to test_len is extended by each letter in label
    order; the first extension whose geodesicity disagrees with the factor
    automaton of forbidden is the counterexample.
    """
    moves = sorted(zip(ball.genset.labels, ball.steps))
    automaton = build_factor_automaton(forbidden, ball.genset.labels)
    if automaton.start == automaton.dead:
        return False, ()
    queue = deque([((), 0, automaton.start)])
    while queue:
        w, u, state = queue.popleft()
        if len(w) == test_len:
            continue
        for letter, row in moves:
            x = w + (letter,)
            v = row[u]
            st = step(automaton, state, letter)
            geodesic = ball.norms[v] == len(x)
            excluded = st == automaton.dead
            if geodesic == excluded:
                return False, x
            if geodesic:
                queue.append((x, v, st))
    return True, None


def naive_forbidden_factors(ball: CayleyBall, e: int) -> ForbiddenSet:
    """minimal_forbidden_factors as a walk over every geodesic word.

    Each layer carries every geodesic word w with its vertex and the vertex
    of its suffix w[1:]; an extension w·s that is not geodesic is minimal
    when the suffix vertex's step under s has norm |w|.
    """
    check_factor_length(e, ball.radius)
    norms = ball.norms
    moves = sorted(zip(ball.genset.labels, ball.steps))
    forbidden: list[Word] = []
    # (w, vertex of w, vertex of w[1:]); every generator has norm 1.
    layer = [((letter,), row[0], 0) for letter, row in moves]
    for length in range(2, e + 1):
        new_layer = []
        for w, u, t in layer:
            for letter, row in moves:
                v = row[u]
                if norms[v] == length:
                    new_layer.append((w + (letter,), v, row[t]))
                elif norms[row[t]] == length - 1:
                    forbidden.append(w + (letter,))
        layer = new_layer
    return ForbiddenSet(e, frozenset(forbidden))


def naive_locally_excluding(ball: CayleyBall, forbidden, test_len: int):
    """check_locally_excluding as a walk over every geodesic word.

    Each layer carries every geodesic word, in shortlex order, as its
    vertex, automaton state and (parent path, letter) chain.
    """
    if test_len < 0:
        raise ValueError("test_len must be nonnegative")
    if test_len > ball.radius:
        raise BallRangeError(f"test_len={test_len} exceeds the ball radius {ball.radius}")
    moves = sorted(zip(ball.genset.labels, ball.steps))
    automaton = build_factor_automaton(forbidden, ball.genset.labels)
    if automaton.start == automaton.dead:
        # λ is forbidden yet geodesic.
        return False, EMPTY_WORD
    norms, transitions, dead = ball.norms, automaton.transitions, automaton.dead
    # (vertex, automaton state, path) for each geodesic word of one length,
    # in breadth-first order; path is (path of the word minus its last
    # letter, that letter), and None for λ.
    layer: list[tuple[int, int, Optional[tuple]]] = [(0, automaton.start, None)]
    for length in range(1, test_len + 1):
        new_layer = []
        for u, state, path in layer:
            goto = transitions[state]
            for letter, row in moves:
                v = row[u]
                st = goto[letter]
                geodesic = norms[v] == length
                if geodesic == (st == dead):
                    return False, _path_word((path, letter))
                if geodesic:
                    new_layer.append((v, st, (path, letter)))
        layer = new_layer
    return True, None


def pad(p: PathSeq, n: int) -> PathSeq:
    """Extend p to length n by repeating its endpoint."""
    if n < p.length:
        raise ValueError(f"cannot pad a length-{p.length} path down to {n}")
    return PathSeq(p.vertices + (p[-1],) * (n - p.length))


def fellow_travel_bound(g: Graph, p1: PathSeq, p2: PathSeq) -> int:
    """Largest index-wise distance after padding the shorter path.

    This is the least m for which the two paths m-fellow-travel.
    """
    validate_path(g, p1)
    validate_path(g, p2)
    n = max(p1.length, p2.length)
    return max(_distances(_Rows(g), pad(p1, n).vertices, pad(p2, n).vertices))


def shorten_paths(g: Graph, paths: Sequence[PathSeq], k: int) -> PathSeq:
    """Given k+1 distinct equal-length walks u -> v, build one of length n-1 or n-2.

    In a k-geodetic graph k+1 distinct equal-length walks cannot all be
    geodesics.  Take the first non-geodesic walk a, let i0 be the least i
    whose prefix a[0..i] is not geodesic, take the lexicographically first
    geodesic b0 from u to a(i0) (its length j is i0-1 or i0-2), and splice:
    the result follows b0 and then the tail a(i0+1), ..., a(n).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(paths) < k + 1:
        raise ValueError(f"need at least {k + 1} walks, got {len(paths)}")
    first = paths[0]
    u, v, n = first[0], first[-1], first.length
    seen = set()
    for p in paths:
        validate_path(g, p)
        if p[0] != u or p[-1] != v:
            raise ValueError("walks must share both endpoints")
        if p.length != n:
            raise ValueError("walks must share their length")
        if p.vertices in seen:
            raise ValueError("walks must be pairwise distinct")
        seen.add(p.vertices)
    dist_u = g.dag(u).dist
    alpha = None
    for p in paths:
        if any(dist_u[p[i]] != i for i in range(n + 1)):
            alpha = p
            break
    if alpha is None:
        raise ValueError("all inputs are geodesic; nothing to shorten")
    i0 = next(i for i in range(n + 1) if dist_u[alpha[i]] != i)
    beta0 = enumerate_geodesics(g, u, alpha[i0], limit=1)[0][0]
    j = beta0.length
    # A geodesic prefix one step earlier forces j to be i0-1 or i0-2.
    assert j in (i0 - 1, i0 - 2)
    result = PathSeq(beta0.vertices + alpha.vertices[i0 + 1 :])
    assert result.length in (n - 1, n - 2)
    return result


def count_geodesics(g: Graph, u: int, v: int) -> int:
    """Number of geodesics u -> v; 1 when u = v (the empty path)."""
    g.check_vertex(u)
    g.check_vertex(v)
    dag = g.dag(u)
    if dag.dist[v] == UNREACHED:
        raise UnreachablePairError(f"vertices {u} and {v} are in different components")
    return dag.counts[v]


def is_complete_bipartite(g: Graph) -> Optional[tuple[int, int]]:
    """Part sizes (small, large) when g is a complete bipartite graph K_{k,l},
    whose parts are the parities of the distances from vertex 0."""
    if g.vertex_count == 0:
        return None
    dist = g.dag(0).dist
    if UNREACHED in dist:
        raise UnreachablePairError("graph is not connected")
    color = [d % 2 for d in dist]
    if any(color[u] == color[v] for u, v in g.edges()):
        return None
    part = [color.count(0), color.count(1)]
    if any(len(nbrs) != part[1 - c] for nbrs, c in zip(g.adj, color)):
        return None
    return (min(part), max(part))


def is_geodesic_word(ball: CayleyBall, w: Word) -> bool:
    """Whether |w| equals the norm of the element w spells out.

    Only decided for |w| <= ball.radius; longer words are a hard error
    rather than a guess.
    """
    if len(w) > ball.radius:
        raise BallRangeError(
            f"word of length {len(w)} exceeds the ball radius {ball.radius}"
        )
    rows = dict(zip(ball.genset.labels, ball.steps))
    v = 0
    for letter in w:
        row = rows.get(letter)
        if row is None:
            raise ValueError(f"letter {letter!r} is not a generator label")
        v = row[v]
    return ball.norms[v] == len(w)


def words_at(stab: Stabilization, c: int) -> frozenset[Word]:
    """L_{n_star + c} as stab pumps it."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    mid = (stab.t + stab.s) * (stab.q + c) + stab.t
    return frozenset(a + mid + g for a in stab.alpha_set for g in stab.gamma_set)


def step(automaton: FactorAutomaton, state: int, letter: str) -> int:
    row = automaton.transitions[state]
    if letter not in row:
        raise ValueError(f"letter {letter!r} is outside the automaton alphabet")
    return row[letter]


def accepts(automaton: FactorAutomaton, w: Word) -> bool:
    state = automaton.start
    for letter in w:
        state = step(automaton, state, letter)
        if state == automaton.dead:
            return False
    return state != automaton.dead


def element(genset: GenSet, label: str):
    """The element of the generator labelled label."""
    try:
        return genset.elements[genset.labels.index(label)]
    except ValueError:
        raise GenSetError(f"unknown generator label {label!r}")


def power(spec, a, n: int):
    """a^n in spec by repeated multiplication; a negative n powers the inverse."""
    if n < 0:
        return power(spec, spec.inverse(a), -n)
    out = spec.identity()
    for _ in range(n):
        out = spec.multiply(out, a)
    return out
