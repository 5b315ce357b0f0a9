import gc
import os
import random
import subprocess
import sys
from functools import reduce
from itertools import combinations, islice
from operator import or_
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from geodetic import (
    CayleyBall,
    PathSeq,
    SearchScope,
    build_graph,
    cayley_ball,
    close_bound_C,
    enumerate_bigons,
    enumerate_geodesics,
    enumerate_triangles,
    find_ladders,
    ladder_bound_A,
    min_geodetic_k,
    pair_stats,
    parse_group_file,
)
from geodetic import cli, geometry, zoo
from geodetic.geometry import (
    BigonRecord,
    Coverage,
    LadderRecord,
    TriangleRecord,
    iter_disjoint_pairs,
    validate_path,
)
from geodetic.graphs import Graph, UnreachablePairError
from geodetic.zoo import (
    complete_bipartite,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_tree,
    star_graph,
)

from fixtures import cyclic_with_step, grid_graph, plain_group
from oracles import (
    bigon_report_line,
    dfs_walks_of_length,
    expanded,
    fellow_travel_bound,
    ladder_report_line,
    naive_bigons,
    naive_disjoint_pairs,
    naive_find_ladders,
    naive_pair_stats,
    naive_scoped_pairs,
    naive_triangles,
    pad,
    shorten_paths,
    triangle_report_line,
)


def test_bound_values():
    assert ladder_bound_A(1, 1) == 12
    assert ladder_bound_A(1, 2) == 70
    assert ladder_bound_A(2, 1) == 720
    assert ladder_bound_A(2, 2) == 13860
    assert close_bound_C(1, 1) == 12
    assert close_bound_C(1, 2) == 70
    assert close_bound_C(2, 1) == 1440
    with pytest.raises(ValueError):
        ladder_bound_A(0, 1)
    with pytest.raises(ValueError):
        ladder_bound_A(1, 0)


def test_validate_and_geodesic_path():
    g = cycle_graph(5)
    validate_path(g, PathSeq((0, 1, 2)))
    with pytest.raises(ValueError):
        validate_path(g, PathSeq((0, 2)))


def test_pad():
    p = PathSeq((0, 1))
    assert pad(p, 3).vertices == (0, 1, 1, 1)
    assert pad(p, 1).vertices == (0, 1)
    with pytest.raises(ValueError):
        pad(p, 0)


def test_fellow_travel_bound():
    g = path_graph(5)
    p1 = PathSeq((0, 1, 2, 3, 4))
    p2 = PathSeq((0, 1))
    assert fellow_travel_bound(g, p1, p2) == 3
    assert fellow_travel_bound(g, p1, p1) == 0


def test_fellow_travel_bound_reads_each_row_once(monkeypatch):
    """One call requests the distance row of each distinct vertex of the
    padded first path once, so the padded endpoint runs one BFS, not one per
    padded index."""
    requests = []
    original = Graph.dag

    def recording(self, source, count_cap=None):
        requests.append(source)
        return original(self, source, count_cap)

    monkeypatch.setattr(Graph, "dag", recording)
    g = grid_graph(4, 5)
    short, long = PathSeq((0, 1)), PathSeq((10, 11, 12, 13, 14, 9))
    for p1, p2 in ((short, long), (long, short)):
        requests.clear()
        assert fellow_travel_bound(g, p1, p2) == 5  # d(1, 14)
        assert requests == list(dict.fromkeys(pad(p1, 5).vertices))


def test_pair_stats_basics():
    g = cycle_graph(4)
    arc1 = PathSeq((0, 1, 2))
    arc2 = PathSeq((0, 3, 2))
    s1 = pair_stats(g, arc1, arc2, 1)
    assert s1.distances == (0, 2, 0)
    assert s1.a_m == 0 and s1.c_m == 0
    assert s1.asynchronously_disjoint
    s2 = pair_stats(g, arc1, arc2, 2)
    assert s2.a_m == 1 and s2.c_m == 1
    edge1 = PathSeq((0, 3))
    edge2 = PathSeq((1, 2))
    s3 = pair_stats(g, edge1, edge2, 1)
    assert s3.a_m == 2 and s3.asynchronously_disjoint
    with pytest.raises(ValueError):
        pair_stats(g, arc1, edge1, 1)
    with pytest.raises(ValueError):
        pair_stats(g, arc1, arc2, 0)


def test_pair_stats_disjointness_and_cotravel():
    g = path_graph(4)
    p1 = PathSeq((0, 1, 2))
    p2 = PathSeq((1, 2, 3))
    s = pair_stats(g, p1, p2, 1)
    # vertex 1 appears at index 1 of p1 and index 0 of p2
    assert not s.asynchronously_disjoint
    assert s.co_travelling and not s.synchronously_co_travelling
    p3 = PathSeq((0, 1, 2))
    p4 = PathSeq((0, 1, 0))
    s2 = pair_stats(g, p3, p4, 1)
    assert s2.synchronously_co_travelling


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_pair_stats_partition_invariant(seed):
    """a_1 + ... + a_m accounts for exactly the indices counted by c_m."""
    rng = random.Random(seed)
    g = cycle_graph(rng.choice([4, 5, 6, 7]))
    pairs = []
    for u in range(g.vertex_count):
        for v in range(u, g.vertex_count):
            geos, _ = enumerate_geodesics(g, u, v)
            pairs.extend((a, b) for a in geos for b in geos if a.length == b.length)
    for p1, p2 in pairs[:60]:
        for m in (1, 2, 3):
            total = sum(pair_stats(g, p1, p2, mm).a_m for mm in range(1, m + 1))
            assert total == pair_stats(g, p1, p2, m).c_m


def test_find_ladders_c4():
    g = cycle_graph(4)
    scan = find_ladders(g, 1, 2)
    assert len(scan.found) == 1 and scan.found[0].heights == (2,)
    (report,) = expanded(scan).found
    assert report.height == 2
    assert report.bound == 70
    assert report.within_bound
    # the one width-1 ladder is the pair of opposite edges
    ends = {report.gamma1.vertices, report.gamma2.vertices}
    assert ends == {(0, 3), (1, 2)}


def test_find_ladders_bound_property_small_hosts():
    hosts = [
        (path_graph(6), 1),
        (cycle_graph(5), 1),
        (cycle_graph(6), 2),
        (complete_bipartite(2, 2), 2),
        (complete_bipartite(3, 3), 3),
        (petersen_graph(), 1),
    ]
    for g, k in hosts:
        for m in (1, 2):
            scan = find_ladders(g, m, k)
            for report in expanded(scan).found:
                assert report.within_bound
                assert report.height <= ladder_bound_A(m, k)


def test_disjoint_pairs_c_bound_small_hosts():
    for g, k in [(cycle_graph(6), 2), (complete_bipartite(3, 3), 3)]:
        for m in (1, 2):
            for p1, p2, stats in iter_disjoint_pairs(g, m):
                assert stats.c_m <= close_bound_C(m, k)


def test_find_ladders_scope_exhaustion():
    g = complete_bipartite(3, 3)
    scan = find_ladders(g, 1, 3, SearchScope(max_pairs=2))
    assert scan.exhausted
    assert scan.pairs_scanned <= 2


@pytest.mark.parametrize("cap", ["max_pairs", "max_geodesics", "max_geodesic_pairs"])
def test_scope_cap_none_disables_it(cap):
    # C4 fits every default cap, so lifting one changes nothing.
    g = cycle_graph(4)
    scope = SearchScope(**{cap: None})
    assert find_ladders(g, 1, 2, scope) == find_ladders(g, 1, 2)
    assert list(iter_disjoint_pairs(g, 2, scope)) == list(iter_disjoint_pairs(g, 2))
    assert enumerate_bigons(g, scope) == enumerate_bigons(g)
    assert enumerate_triangles(g, scope) == enumerate_triangles(g)


def test_find_ladders_ball_skips_untrusted(free2_r4):
    scan = find_ladders(free2_r4, 1, 1, SearchScope(max_pairs=300))
    assert scan.skipped > 0
    for report in expanded(scan).found:
        assert report.within_bound


def test_find_ladders_rejects_bad_k():
    with pytest.raises(ValueError):
        find_ladders(cycle_graph(4), 1, 0)


def test_shorten_paths_k23_example():
    g = complete_bipartite(2, 3)
    walks = sorted(dfs_walks_of_length(g, 0, 1, 4))
    paths = [PathSeq(w) for w in walks[:4]]
    result = shorten_paths(g, paths, 3)
    assert result[0] == 0 and result[-1] == 1
    assert result.length == 2
    validate_path(g, result)


def test_shorten_paths_c5():
    g = cycle_graph(5)
    walks = sorted(dfs_walks_of_length(g, 0, 2, 4))
    paths = [PathSeq(w) for w in walks[:2]]
    result = shorten_paths(g, paths, 1)
    assert result.length in (2, 3)
    assert result[0] == 0 and result[-1] == 2
    validate_path(g, result)


def test_shorten_paths_validation():
    g = cycle_graph(4)
    arc1, arc2 = PathSeq((0, 1, 2)), PathSeq((0, 3, 2))
    with pytest.raises(ValueError, match="nothing to shorten"):
        shorten_paths(g, [arc1, arc2], 1)
    with pytest.raises(ValueError, match="distinct"):
        shorten_paths(g, [arc1, arc1], 1)
    with pytest.raises(ValueError, match="length"):
        shorten_paths(g, [arc1, PathSeq((0, 1, 0, 1, 2))], 1)
    with pytest.raises(ValueError, match="endpoints"):
        shorten_paths(g, [arc1, PathSeq((0, 3))], 1)
    with pytest.raises(ValueError, match="at least"):
        shorten_paths(g, [arc1], 1)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_shorten_paths_random_trees(seed):
    rng = random.Random(seed)
    g = random_tree(rng.randrange(4, 12), rng)
    u = rng.randrange(g.vertex_count)
    choices = [v for v in range(g.vertex_count) if v != u]
    v = rng.choice(choices)
    n = g.dist(u, v) + 2
    walks = sorted(dfs_walks_of_length(g, u, v, n))
    if len(walks) < 2:
        return
    result = shorten_paths(g, [PathSeq(w) for w in walks[:2]], 1)
    validate_path(g, result)
    assert result.length in (n - 1, n - 2)
    assert result[0] == u and result[-1] == v


def test_bigons_c4():
    bigons = expanded(enumerate_bigons(cycle_graph(4))).found
    assert len(bigons) == 2
    assert all(not b.degenerate for b in bigons)
    assert max(b.alpha.length for b in bigons if not b.degenerate) == 2


def _bigon_record(g, u, v):
    """The record enumerate_bigons(g) keeps for the vertex pair u < v."""
    return next(r for r in enumerate_bigons(g).found
                if (r.geodesics[0][0], r.geodesics[0][-1]) == (u, v))


def _triangle_record(g, x, y, z):
    """The record enumerate_triangles(g) keeps for the corner triple x <= y <= z."""
    return next(r for r in enumerate_triangles(g).found
                if (r.alphas[0][0], r.betas[0][0], r.gammas[0][0]) == (x, y, z))


def test_bigons_k33_pair_count():
    record = _bigon_record(complete_bipartite(3, 3), 0, 1)
    assert len(record.geodesics) == 3
    assert record.degenerate == (False, False, False)


def test_bigons_unique_geodesics_yield_none():
    assert expanded(enumerate_bigons(path_graph(5))).found == []


def test_degenerate_bigon():
    # two geodesics 0 -> 4 both through vertex 2 at the middle index
    g_edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 2), (2, 6), (6, 4)]
    from geodetic import build_graph

    record = _bigon_record(build_graph(g_edges, 7), 0, 4)
    assert len(record.geodesics) == 4
    assert record.degenerate == (True,) * 6


def test_triangles_c3_and_point():
    g = cycle_graph(3)
    t = _triangle_record(g, 0, 1, 2)
    sides = (t.alphas, t.betas, t.gammas)
    assert sides == ((PathSeq((0, 1)),), (PathSeq((1, 2)),), (PathSeq((2, 0)),))
    assert t.degenerate == (False,)
    point = _triangle_record(g, 0, 0, 0)
    assert (point.alphas, point.betas, point.gammas) == ((PathSeq((0,)),),) * 3
    assert point.degenerate == (True,)


def test_triangles_c6():
    t = _triangle_record(cycle_graph(6), 0, 2, 4)
    assert (len(t.alphas), len(t.betas), len(t.gammas)) == (1, 1, 1)
    assert t.degenerate == (False,)


def test_enumerate_triangles_classification_is_consistent():
    g = petersen_graph()
    triangles = expanded(enumerate_triangles(g, SearchScope(max_pairs=60))).found
    assert triangles
    for t in triangles[:200]:
        tails = [set(s.vertices[1:]) for s in (t.alpha, t.beta, t.gamma)]
        if min(s.length for s in (t.alpha, t.beta, t.gamma)) == 0:
            assert t.degenerate
        else:
            overlap = (
                tails[0] & tails[1] or tails[1] & tails[2] or tails[0] & tails[2]
            )
            assert t.degenerate == bool(overlap)


def _outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _drain(pairs):
    """Everything a pair generator yields, then the error that stopped it, if any."""
    out = []
    try:
        for item in pairs:
            out.append(item)
    except ValueError as exc:
        return out, (type(exc), str(exc))
    return out, None


def _two_components():
    return build_graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)], 7)


WALK_HOSTS = [
    cycle_graph(4),
    cycle_graph(5),
    path_graph(4),
    star_graph(3),
    complete_bipartite(2, 3),
    petersen_graph(),
    _two_components(),
]


def _random_walk(g, rng, n):
    vs = [rng.randrange(g.vertex_count)]
    for _ in range(n):
        vs.append(rng.choice(g.adj[vs[-1]]))
    return PathSeq(tuple(vs))


@given(st.integers(0, len(WALK_HOSTS) - 1), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_pair_stats_matches_oracle_on_random_walks(host, seed):
    """Walks with repeats, unequal lengths, non-walks and cross-component pairs."""
    g = WALK_HOSTS[host]
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randrange(6)
        p1 = _random_walk(g, rng, n)
        p2 = _random_walk(g, rng, n if rng.random() < 0.9 else rng.randrange(6))
        if rng.random() < 0.05:
            p2 = PathSeq(p2.vertices[:-1] + (rng.randrange(g.vertex_count),))
        for m in (0, 1, 2, 3):
            assert _outcome(pair_stats, g, p1, p2, m) == _outcome(naive_pair_stats, g, p1, p2, m)


def _scan_hosts():
    rng = random.Random(7)
    hosts = [
        (cycle_graph(6), 2),
        (cycle_graph(7), 1),
        (complete_bipartite(3, 3), 3),
        (petersen_graph(), 1),
        (random_tree(12, rng), 1),
    ]
    for spec_gens, radius in [
        (zoo.free_group(2), 3),
        (zoo.z_cross_z2(), 4),
        (zoo.cyclic_odd_powers(3), 2),
        (plain_group(0, (2, 2)), 5),
    ]:
        spec, gens = spec_gens
        ball = cayley_ball(spec, gens, radius)
        hosts.append((ball, min_geodetic_k(ball.graph, ball.is_trusted_pair)[0]))
    return hosts


SCAN_SCOPES = [
    SearchScope(),
    SearchScope(max_pairs=25),
    SearchScope(max_geodesic_pairs=30),
    SearchScope(max_geodesics=2, max_geodesic_pairs=7),
]


def test_ladder_scan_matches_oracle():
    capped = {"max_pairs": False, "max_geodesic_pairs": False}
    for host, k in _scan_hosts():
        for scope in SCAN_SCOPES:
            for m in (1, 2):
                got = list(iter_disjoint_pairs(host, m, scope))
                want = list(naive_disjoint_pairs(host, m, scope, Coverage()))
                assert got == want
                scan = find_ladders(host, m, k, scope)
                assert expanded(scan) == naive_find_ladders(host, m, k, scope)
                capped["max_pairs"] |= scan.exhausted and scan.pairs_scanned == scope.max_pairs
                capped["max_geodesic_pairs"] |= (
                    scan.geodesic_pairs_scanned == scope.max_geodesic_pairs
                )
    assert all(capped.values())


def test_bigon_and_triangle_coverage_match_oracle():
    seen = dict.fromkeys(
        ["bigons max_pairs", "bigons max_geodesics", "triangles max_pairs",
         "triangles max_geodesics", "triangles skipped"],
        False,
    )
    for host, _ in _scan_hosts():
        for scope in SCAN_SCOPES:
            bigons = enumerate_bigons(host, scope)
            assert expanded(bigons) == naive_bigons(host, scope)
            triangles = enumerate_triangles(host, scope)
            assert expanded(triangles) == naive_triangles(host, scope)
            for name, cov in (("bigons", bigons), ("triangles", triangles)):
                at_cap = cov.pairs_scanned == scope.max_pairs
                seen[f"{name} max_pairs"] |= cov.exhausted and at_cap
                seen[f"{name} max_geodesics"] |= cov.exhausted and not at_cap
            seen["triangles skipped"] |= triangles.skipped > 0
    assert all(seen.values()), seen


def _scan_text(command, cov, reports, k):
    """What the CLI prints for a scan with --verbose (and --m 1), from one line per report."""
    if command == "ladders":
        head = f"ladders: m=1 k={k} bound={ladder_bound_A(1, k)} found={len(reports)}"
        line = ladder_report_line
    else:
        sides = [r.alpha.length for r in reports if not r.degenerate]
        head = f"{command}: found={len(reports)} non_degenerate={len(sides)}"
        if command == "bigons":
            head += f" max_non_degenerate_side={max(sides, default='none')}"
        line = bigon_report_line if command == "bigons" else triangle_report_line
    scanned = (f"scanned: pairs={cov.pairs_scanned} geodesic_pairs={cov.geodesic_pairs_scanned} "
               f"skipped={cov.skipped} exhausted={'true' if cov.exhausted else 'false'}")
    return "".join(f"{text}\n" for text in [head, *map(line, reports), scanned])


@pytest.mark.parametrize("command", ["ladders", "bigons", "triangles"])
def test_cli_scan_text_matches_report_line_oracle(monkeypatch, capsys, command):
    """The CLI's scan text, made once per record (bigons, triangles) or with
    shared pieces (ladders), equals a header and one oracle line per report,
    including --scope-geodesics 0, whose records carry no flag."""
    scan = {"bigons": enumerate_bigons, "triangles": enumerate_triangles}
    caps = dict.fromkeys((s.max_pairs, s.max_geodesics) for s in SCAN_SCOPES)
    for host, k in _scan_hosts():
        monkeypatch.setattr(cli, "_load_host", lambda args, host=host: host)
        for max_pairs, max_geodesics in [*caps, (SearchScope.max_pairs, 0)]:
            scope = SearchScope(max_pairs=max_pairs, max_geodesics=max_geodesics)
            argv = [command, "--graph", "host", "--scope-pairs", str(max_pairs),
                    "--scope-geodesics", str(max_geodesics), "--verbose"]
            if command == "ladders":
                argv += ["--k", str(k)]
                cov = find_ladders(host, 1, k, scope)
            else:
                cov = scan[command](host, scope)
                if max_geodesics == 0:
                    assert cov.found and not any(r.degenerate for r in cov.found)
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == _scan_text(command, cov, expanded(cov).found, k)


def test_scan_results_are_named_tuple_records():
    """Every entry of a scan's found is a tuple of that scan's record type."""
    fields = {
        LadderRecord: ("gamma1", "partners", "heights", "m", "bound"),
        BigonRecord: ("geodesics", "degenerate"),
        TriangleRecord: ("alphas", "betas", "gammas", "degenerate"),
    }
    assert {record: record._fields for record in fields} == fields
    seen = dict.fromkeys(fields, 0)
    for host, k in _scan_hosts():
        scans = {
            LadderRecord: find_ladders(host, 1, k),
            BigonRecord: enumerate_bigons(host),
            TriangleRecord: enumerate_triangles(host),
        }
        for record, cov in scans.items():
            assert all(type(r) is record and isinstance(r, tuple) for r in cov.found)
            seen[record] += len(cov.found)
    assert all(seen.values()), seen


def test_coverages_never_share_found_and_compare_by_fields():
    a, b = Coverage(), Coverage()
    a.found.append("x")
    assert b.found == [] and a.found is not b.found
    assert Coverage(["x"], 1, 2, 3, True) == Coverage(
        found=["x"], pairs_scanned=1, geodesic_pairs_scanned=2, skipped=3, exhausted=True)
    assert Coverage() != Coverage(exhausted=True) and Coverage() == b


@pytest.mark.parametrize("cap", ["max_pairs", "max_geodesics", "max_geodesic_pairs"])
def test_scope_rejects_negative_cap_and_is_frozen(cap):
    with pytest.raises(ValueError, match=f"^{cap} must be nonnegative, got -1$"):
        SearchScope(**{cap: -1})
    scope = SearchScope(**{cap: 0})
    with pytest.raises(AttributeError):
        setattr(scope, cap, -1)


def test_ladder_scan_error_matches_oracle_on_two_components():
    g = _two_components()
    for m in (1, 2):
        got = _drain(iter_disjoint_pairs(g, m))
        assert got[1] == (UnreachablePairError, "no path between vertices 0 and 3")
        assert got == _drain(naive_disjoint_pairs(g, m, SearchScope(), Coverage()))


def test_ladder_scan_does_not_validate_pairs(monkeypatch):
    hosts = _scan_hosts()
    want = [naive_find_ladders(host, 1, k, SearchScope()) for host, k in hosts]

    def refuse(g, p):
        raise AssertionError("validate_path called")

    monkeypatch.setattr(geometry, "validate_path", refuse)
    assert [expanded(find_ladders(host, 1, k)) for host, k in hosts] == want


@pytest.mark.parametrize("m", [0, -3])
def test_iter_disjoint_pairs_rejects_bad_width_at_the_call(m):
    with pytest.raises(ValueError, match="^width m must be at least 1$"):
        iter_disjoint_pairs(cycle_graph(6), m)


def test_find_ladders_error_matches_oracle_on_two_components():
    g = _two_components()
    for m in (1, 2):
        for scan in (find_ladders, naive_find_ladders):
            with pytest.raises(UnreachablePairError, match="^no path between vertices 0 and 3$"):
                scan(g, m, 1, SearchScope())


def _relabel(g, rng):
    """g with its vertices renumbered at random, so bucket-local ids change."""
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return build_graph([(perm[u], perm[v]) for u, v in g.edges()], g.vertex_count)


MASK_BALLS = [
    (zoo.free_group(2), 2),
    (zoo.z_cross_z2(), 3),
    (plain_group(0, (2, 2)), 4),
    (zoo.cyclic_odd_powers(3), 2),
    (plain_group(0, (2, 3)), 4),
]


def _mask_host(family, size, seed):
    rng = random.Random(seed)
    if family == "tree":
        return _relabel(random_tree(2 + size % 11, rng), rng)
    if family == "grid":
        return _relabel(grid_graph(1 + size % 3, 2 + size % 4), rng)
    if family == "cycle":
        return _relabel(cycle_graph(3 + size % 8), rng)
    if family == "bipartite":
        return _relabel(complete_bipartite(1 + size % 4, 1 + size // 4 % 4), rng)
    (spec, gens), radius = MASK_BALLS[size % len(MASK_BALLS)]
    return cayley_ball(spec, gens, radius)


def _pair_totals(host, scope):
    """The geodesic pairs of the length buckets, cumulated in length order, and
    whether the pair source itself was cut short."""
    cov = Coverage()
    g = host.graph if isinstance(host, CayleyBall) else host
    sizes: dict[int, int] = {}
    for d, u, v in naive_scoped_pairs(host, scope, cov):
        geos, truncated = enumerate_geodesics(g, u, v, limit=scope.max_geodesics)
        cov.exhausted |= truncated
        sizes[d] = sizes.get(d, 0) + len(geos)
    totals, running = [], 0
    for n in sizes.values():
        running += n * (n - 1) // 2
        totals.append(running)
    return totals or [0], cov.exhausted


@given(
    st.sampled_from(["tree", "grid", "cycle", "bipartite", "ball"]),
    st.integers(0, 47),
    st.integers(0, 10**6),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([(None, None), (20, None), (None, 2)]),
    st.integers(0, 9),
    st.sampled_from(["zero", "one", "total-1", "total", "total+1", "none"]),
)
@settings(max_examples=150, deadline=None)
def test_mask_pairing_matches_oracle(family, size, seed, m, caps, bucket, cap_kind):
    """Both mask scans against the oracles, caps at and around each bucket's pair total."""
    host = _mask_host(family, size, seed)
    max_pairs, max_geodesics = caps
    totals, source_cut = _pair_totals(host, SearchScope(max_pairs, max_geodesics))
    total = totals[bucket % len(totals)]
    cap = {"zero": 0, "one": 1, "total-1": max(total - 1, 0), "total": total,
           "total+1": total + 1, "none": None}[cap_kind]
    scope = SearchScope(max_pairs=max_pairs, max_geodesics=max_geodesics, max_geodesic_pairs=cap)
    k = 1 + seed % 3
    got = find_ladders(host, m, k, scope)
    assert expanded(got) == naive_find_ladders(host, m, k, scope)
    # The pair cap cuts the scan exactly when a pair is left over.
    assert got.geodesic_pairs_scanned == (totals[-1] if cap is None else min(cap, totals[-1]))
    if not source_cut:
        assert got.exhausted == (cap is not None and totals[-1] > cap)
    assert list(iter_disjoint_pairs(host, m, scope)) == list(
        naive_disjoint_pairs(host, m, scope, Coverage()))


def _disjoint_union(g1, g2):
    n = g1.vertex_count
    edges = list(g1.edges()) + [(u + n, v + n) for u, v in g2.edges()]
    return build_graph(edges, n + g2.vertex_count)


GRAPH_FAMILIES = ["tree", "grid", "cycle", "bipartite"]


@given(
    st.sampled_from(GRAPH_FAMILIES),
    st.sampled_from(GRAPH_FAMILIES),
    st.integers(0, 47),
    st.integers(0, 47),
    st.integers(0, 10**6),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([None, 1, 20, 60]),
    st.sampled_from([None, 2]),
    st.one_of(st.none(), st.integers(0, 300)),
)
@settings(max_examples=120, deadline=None)
def test_two_component_pairing_matches_oracle(
    family1, family2, size1, size2, seed, m, max_pairs, max_geodesics, cap
):
    """On two relabelled zoo graphs side by side, the pairs before the first
    pair across the components come out, then the error, wherever it falls."""
    rng = random.Random(seed)
    g = _disjoint_union(_mask_host(family1, size1, seed), _mask_host(family2, size2, seed + 1))
    host = _relabel(g, rng)
    scope = SearchScope(max_pairs=max_pairs, max_geodesics=max_geodesics, max_geodesic_pairs=cap)
    want = _drain(naive_disjoint_pairs(host, m, scope, Coverage()))
    assert _drain(iter_disjoint_pairs(host, m, scope)) == want


@st.composite
def _row_bucket(draw):
    """A length bucket of simple paths over a few vertices, an m-sphere map
    and a pair cap: any cap, one that cuts a row short, or the bucket's total."""
    nv = draw(st.integers(2, 7))
    width = draw(st.integers(1, min(nv, 4)))
    path = st.permutations(range(nv)).map(lambda vs: PathSeq(tuple(vs[:width])))
    geos = draw(st.lists(path, min_size=2, max_size=14))
    spheres = {x: draw(st.frozensets(st.integers(0, nv - 1), max_size=nv)) for x in range(nv)}
    n = len(geos)
    total = n * (n - 1) // 2
    kind = draw(st.sampled_from(["any", "mid-row", "total"]))
    if kind == "total":
        return geos, spheres, total
    if kind == "mid-row" and n > 2:
        i = draw(st.integers(0, n - 3))  # a row with at least two partners
        before = sum(n - 1 - r for r in range(i))
        return geos, spheres, before + draw(st.integers(1, n - 2 - i))
    return geos, spheres, draw(st.integers(1, total))


@given(_row_bucket())
@settings(max_examples=200, deadline=None)
def test_bucket_rows_match_brute_force_partner_sets(bucket):
    """Each row's disjoint and close partners, and their heights, read off the
    transposed index equal the pairwise definitions over the capped pairs."""
    geos, spheres, take = bucket
    want: dict[int, list[int]] = {}
    for i, j in islice(combinations(range(len(geos)), 2), take):
        want.setdefault(i, []).append(j)
    got = list(geometry._bucket_rows(geos, take, spheres.__getitem__))
    assert [i for i, _, _ in got] == list(want)
    for i, disjoint, close in got:
        p1 = geos[i].vertices
        meet = [j for j in want[i] if any(
            x == y for s, x in enumerate(p1) for t, y in enumerate(geos[j].vertices) if s != t)]
        assert list(geometry._bits(disjoint)) == [j for j in want[i] if j not in meet]
        heights = {j: sum(y in spheres[x] for x, y in zip(p1, geos[j].vertices))
                   for j in geometry._bits(disjoint)}
        assert {j: sum(c >> j & 1 for c in close) for j in heights} == heights
        assert list(geometry._bits(disjoint & reduce(or_, close))) == [
            j for j, h in heights.items() if h]


def test_find_ladders_builds_no_pair_stats(monkeypatch):
    hosts = _scan_hosts()
    want = [naive_find_ladders(host, m, k, scope)
            for host, k in hosts for scope in SCAN_SCOPES for m in (1, 2)]

    def refuse(*args):
        raise AssertionError("distance rows or PairStats built")

    monkeypatch.setattr(geometry, "_Rows", refuse)
    monkeypatch.setattr(geometry, "PairStats", refuse)
    got = [expanded(find_ladders(host, m, k, scope))
           for host, k in hosts for scope in SCAN_SCOPES for m in (1, 2)]
    assert got == want


@pytest.mark.parametrize("chunk", [7, 4096])
def test_iter_disjoint_pairs_builds_no_pair_stats_one_by_one(monkeypatch, chunk):
    """The PairStats of the pairing come from each row's per-index gathers,
    not from the per-pair distance reads of pair_stats.  Two calls on one
    host, read alternately chunk pairs at a time, keep their per-call state
    apart and each give the oracle's pairs."""
    hosts = _scan_hosts()
    want = [list(naive_disjoint_pairs(host, m, scope, Coverage()))
            for host, _ in hosts for scope in SCAN_SCOPES for m in (1, 2, 3)]

    def refuse(*args):
        raise AssertionError("a pair's distances read one by one")

    def interleaved(host, m, scope):
        calls = [iter_disjoint_pairs(host, m, scope) for _ in range(2)]
        got = [[], []]
        while True:
            chunks = [list(islice(call, chunk)) for call in calls]
            for pairs, part in zip(got, chunks):
                pairs += part
            if not any(chunks):
                return got

    monkeypatch.setattr(geometry, "_distances", refuse)
    got = [interleaved(host, m, scope)
           for host, _ in hosts for scope in SCAN_SCOPES for m in (1, 2, 3)]
    assert got == [[pairs, pairs] for pairs in want]


def test_ladder_pairing_reads_no_distance_row(monkeypatch):
    """find_ladders requests exactly the BFS DAGs of its pair source, which the
    bigon scan shares; the pairing adds none."""
    requests = []
    original = Graph.dag

    def recording(self, source, count_cap=None):
        requests.append(source)
        return original(self, source, count_cap)

    monkeypatch.setattr(Graph, "dag", recording)
    for make in (lambda: grid_graph(4, 5), petersen_graph, lambda: _zxz_ball(3)):
        for m in (1, 2, 3):
            requests.clear()
            enumerate_bigons(make())
            source_only = list(requests)
            requests.clear()
            find_ladders(make(), m, 1)
            assert requests == source_only


def test_iter_disjoint_pairs_reads_each_row_once_per_call(monkeypatch):
    """Beyond the pair source's one BFS DAG per vertex, the PairStats of a call
    request each vertex's distance row at most once."""
    requests = []
    original = Graph.dag

    def recording(self, source, count_cap=None):
        requests.append(source)
        return original(self, source, count_cap)

    monkeypatch.setattr(Graph, "dag", recording)
    for make in (lambda: grid_graph(4, 5), petersen_graph, lambda: _zxz_ball(3)):
        for m in (1, 2):
            requests.clear()
            enumerate_bigons(make())
            source_only = len(requests)
            requests.clear()
            assert list(iter_disjoint_pairs(make(), m))
            rows = requests[source_only:]
            assert rows and len(rows) == len(set(rows))


def test_iter_disjoint_pairs_leaves_the_collector_on():
    """No library call pauses the collector, so a ball build and the
    consumer of iter_disjoint_pairs both run with it on as the caller left it."""
    gc.enable()
    ball = cayley_ball(*zoo.z_cross_z2(), 3)
    assert gc.isenabled()
    states = [gc.isenabled() for _ in iter_disjoint_pairs(ball, 1)]
    assert states and all(states) and gc.isenabled()


def test_iter_disjoint_pairs_shares_pair_stats_across_the_call():
    """Pairs with equal distances share one PairStats across the whole call:
    the 131,452 pairs of the Z x Z ball of radius 6 at width 1 have 467
    distinct distance tuples, so exactly 467 PairStats objects."""
    stats = [s for _, _, s in iter_disjoint_pairs(_zxz_ball(6), 1)]
    assert len(stats) == 131_452
    assert len({s.distances for s in stats}) == 467
    assert len(set(map(id, stats))) == 467


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("m", [0, -2])
def test_find_ladders_rejects_bad_width_first(monkeypatch, m, k):
    def no_bfs(self, source, count_cap=None):
        raise AssertionError(f"BFS from vertex {source}")

    monkeypatch.setattr(Graph, "dag", no_bfs)
    with pytest.raises(ValueError, match="^width m must be at least 1$"):
        find_ladders(cycle_graph(6), m, k)


def _zxz_ball(radius):
    gf = parse_group_file(
        "group product cyclic 0 cyclic 0\n"
        "gen a pow 1, pow 0\ngen a' pow -1, pow 0\ngen b pow 0, pow 1\ngen b' pow 0, pow -1\n"
    )
    return cayley_ball(gf.spec, gf.genset, radius)


@pytest.mark.parametrize("host", [_zxz_ball(3), cycle_graph(6)], ids=["zxz-r3", "c6"])
def test_triangle_scan_enumerates_each_side_once(monkeypatch, host):
    want = [naive_triangles(host, scope) for scope in SCAN_SCOPES]
    calls = []
    original = geometry.geodesic_walks

    def counting(adj, u, v, total, dist_to_v, limit):
        calls.append((u, v))
        return original(adj, u, v, total, dist_to_v, limit)

    monkeypatch.setattr(geometry, "geodesic_walks", counting)
    for scope, cov in zip(SCAN_SCOPES, want):
        calls.clear()
        assert expanded(enumerate_triangles(host, scope)) == cov
        assert calls and len(calls) == len(set(calls))


def test_triangle_scan_reads_rows_only_for_the_first_two_corners(monkeypatch):
    """Each side a -> b is read off the row of a or b, and off the row of b
    only when b <= a or that row is held, so with x <= y <= z no BFS is run
    from a vertex that is only ever a z.  The scan matches the oracle."""
    ball = cayley_ball(*zoo.free_group(2), 6)
    sources = []
    original = Graph.dag

    def recording(self, source, count_cap=None):
        sources.append(source)
        return original(self, source, count_cap)

    monkeypatch.setattr(Graph, "dag", recording)
    cov = enumerate_triangles(ball)
    assert cov.pairs_scanned == len(cov.found) == SearchScope().max_pairs
    corners = {v for r in cov.found for v in (r.alphas[0][0], r.alphas[0][-1])}
    assert sources and set(sources) <= corners
    assert len(sources) == len(set(sources))
    assert expanded(cov) == naive_triangles(ball, SearchScope())


def test_bigon_and_triangle_scans_do_not_validate_sides(monkeypatch):
    hosts = [host for host, _ in _scan_hosts()]
    want = [(naive_bigons(host, SearchScope()), naive_triangles(host, SearchScope()))
            for host in hosts]

    def refuse(*args):
        raise AssertionError("side validated again")

    monkeypatch.setattr(geometry, "validate_path", refuse)
    got = [(enumerate_bigons(host), enumerate_triangles(host)) for host in hosts]
    assert [(expanded(b), expanded(t)) for b, t in got] == want


SKIP_BALLS = [
    lambda r: cayley_ball(*zoo.free_group(2), r),
    lambda r: cayley_ball(*zoo.z_cross_z2(), r),
    _zxz_ball,
    lambda r: cayley_ball(*plain_group(0, (2, 3)), r),
    lambda r: cayley_ball(*zoo.cyclic_odd_powers(3), r),
    lambda r: cayley_ball(*cyclic_with_step(7), r),
    lambda r: cayley_ball(*cyclic_with_step(12, 5), r),
]


@given(
    st.integers(0, len(SKIP_BALLS) - 1),
    st.integers(0, 6),
    st.sampled_from([0, 1, 5, None]),
)
@settings(max_examples=60, deadline=None)
def test_skipped_matches_full_scan_oracle(group, radius, max_pairs):
    """skipped is every untrusted pair of the ball, however soon the scan stops,
    on complete balls (0) and incomplete ones alike."""
    ball = SKIP_BALLS[group](radius)
    scope = SearchScope(max_pairs=max_pairs)
    cov = Coverage()
    naive_scoped_pairs(ball, scope, cov)
    assert enumerate_bigons(ball, scope).skipped == cov.skipped
    assert find_ladders(ball, 1, 1, scope).skipped == cov.skipped
    if ball.complete:
        assert cov.skipped == 0


def test_reimports_leave_one_live_copy_of_each_class():
    """Module-level typing subscripts of package classes would pin every
    re-imported copy of the package through typing's cache."""
    code = (
        "import gc, importlib, sys\n"
        "for _ in range(5):\n"
        "    for name in [m for m in sys.modules if m.split('.')[0] == 'geodetic']:\n"
        "        del sys.modules[name]\n"
        "    for name in ('cli', 'graphs', 'groups', 'geometry', 'lang', 'words', 'zoo'):\n"
        "        importlib.import_module('geodetic.' + name)\n"
        "gc.collect()\n"
        "print(sum(isinstance(o, type) and o.__name__ == 'CayleyBall' for o in gc.get_objects()))\n"
    )
    src = str(Path(geometry.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (0, "1\n", "")
