import pytest
from hypothesis import example, given, settings, strategies as st

from geodetic import (
    GraphFormatError,
    PathSeq,
    SearchScope,
    UnreachablePairError,
    build_graph,
    cayley_ball,
    enumerate_bigons,
    enumerate_geodesics,
    enumerate_triangles,
    find_ladders,
    graph_to_dot,
    is_k_geodetic,
    iter_disjoint_pairs,
    min_geodetic_k,
    pair_stats,
    parse_graph,
    parse_group_file,
)
from geodetic import graphs
from geodetic.graphs import UNREACHED, bfs_dag
from geodetic.zoo import (
    complete_bipartite,
    cycle_graph,
    free_group,
    infinite_cyclic,
    path_graph,
    petersen_graph,
    random_tree,
    star_graph,
    z_cross_z2,
)
import random
import re
from unittest import mock

from fixtures import format_graph, grid_graph
from oracles import (
    bfs_distances, brute_complete_bipartite, count_geodesics, dfs_shortest_paths, expanded,
    fellow_travel_bound, first_maximiser, first_violator, is_complete_bipartite, shorten_paths,
    sorted_pair_counts,
)


@st.composite
def connected_graphs(draw, max_n=8):
    """A random tree plus random extra edges: always connected."""
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for u, v in draw(st.sets(pair, max_size=12)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(sorted(edges), n)


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_count_and_enumerate_match_dfs_oracle(g):
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            dist, walks = dfs_shortest_paths(g, u, v)
            assert g.dist(u, v) == dist
            assert count_geodesics(g, u, v) == len(walks)
            paths, truncated = enumerate_geodesics(g, u, v)
            assert not truncated
            assert {p.vertices for p in paths} == set(walks)


@st.composite
def any_graphs(draw, max_n=7):
    """A small graph with random edges, connected or not."""
    n = draw(st.integers(1, max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = {(min(u, v), max(u, v)) for u, v in draw(st.sets(pair, max_size=14)) if u != v}
    return build_graph(sorted(edges), n)


@settings(max_examples=60, deadline=None)
@given(any_graphs(), st.sampled_from([None, 1, 2, 3]))
def test_layered_bfs_matches_dfs_oracle(g, count_cap):
    for s in range(g.vertex_count):
        dag = bfs_dag(g, s, count_cap)
        for v in range(g.vertex_count):
            dist, walks = dfs_shortest_paths(g, s, v)
            count = len(walks) if count_cap is None else min(len(walks), count_cap)
            assert (dag.dist[v], dag.counts[v]) == (UNREACHED if dist is None else dist, count)


def test_graph_keeps_no_state():
    """Counts, distances, pair statistics and scans leave the graph as they
    found it: adjacency only, every BFS dropped with its call."""
    g = parse_graph(format_graph(grid_graph(4, 5)))
    assert min_geodetic_k(g) == (35, (0, 19))
    assert is_k_geodetic(g, 34) == (False, (0, 19))
    assert count_geodesics(g, 0, 7) == 3
    assert len(enumerate_geodesics(g, 0, 7)[0]) == 3
    assert g.dist(0, 19) == 7
    assert pair_stats(g, PathSeq((0, 1, 2)), PathSeq((5, 6, 7)), 1).a_m == 3
    assert fellow_travel_bound(g, PathSeq((0, 1, 2)), PathSeq((5, 6))) == 2
    assert list(iter_disjoint_pairs(g, 1, SearchScope(max_pairs=20)))
    walks = [PathSeq((0, 1, 0, 1, 2)), PathSeq((0, 5, 0, 1, 2))]
    assert shorten_paths(g, walks, 1) == PathSeq((0, 1, 2))
    assert is_complete_bipartite(g) is None
    assert find_ladders(g, 1, 35).found
    assert expanded(enumerate_bigons(g)).found
    assert expanded(enumerate_triangles(g)).found
    assert vars(g).keys() == {"vertex_count", "adj"}


def test_all_pairs_counts_cache_no_dag():
    g = parse_graph(format_graph(grid_graph(4, 5)))
    assert min_geodetic_k(g) == (35, (0, 19))
    assert is_k_geodetic(g, 34) == (False, (0, 19))
    assert vars(g).keys() == {"vertex_count", "adj"}


def test_all_pairs_counts_run_bfs_only_from_sources_with_a_trusted_partner(monkeypatch):
    sources = []
    original = graphs.bfs_dag

    def recording(g, source, count_cap=None):
        sources.append(source)
        return original(g, source, count_cap)

    monkeypatch.setattr(graphs, "bfs_dag", recording)
    # Z x Z has two geodesics across every square: the all-sources pass, which
    # the guard admits at this radius, fails, and every trusted source runs.
    ball = _zxz_ball(10)
    n, trusted = ball.vertex_count, ball.is_trusted_pair
    want = {u for u in range(n) if any(trusted(u, v) for v in range(u + 1, n))}
    assert min_geodetic_k(ball.graph, trusted) == ball.min_geodetic_k()
    assert is_k_geodetic(ball.graph, 1, trusted) == ball.is_k_geodetic(1)
    # Vertex 0's BFS, run first for the connectivity check, is also its row.
    assert set(sources) == want and len(sources) == 2 * len(want)
    assert len(want) == 60
    # The F2 ball is a tree: the BFS from vertex 0 is the only one per call.
    sources.clear()
    ball = cayley_ball(*free_group(2), 5)
    assert min_geodetic_k(ball.graph, ball.is_trusted_pair) == (1, (0, 1))
    assert is_k_geodetic(ball.graph, 1, ball.is_trusted_pair) == (True, None)
    assert sources == [0, 0]


def _zxz_ball(radius):
    gf = parse_group_file(
        "group product cyclic 0 cyclic 0\n"
        "gen a pow 1, pow 0\ngen a' pow -1, pow 0\ngen b pow 0, pow 1\ngen b' pow 0, pow -1\n"
    )
    return cayley_ball(gf.spec, gf.genset, radius)


def _oracle(fn, *args):
    """fn(*args) with the all-sources pass of _pair_counts turned off."""
    with mock.patch.object(graphs, "_unique_geodesics", lambda g: False):
        return fn(*args)


def _with_pass(fn, *args):
    """fn(*args), and the answers of the all-sources pass it ran."""
    ran, real = [], graphs._unique_geodesics

    def recording(g):
        ran.append(real(g))
        return ran[-1]

    with mock.patch.object(graphs, "_unique_geodesics", recording):
        return fn(*args), ran


def assert_pass_matches_oracle(g, pair_filter=None):
    """min_geodetic_k and is_k_geodetic at k = 1, 2, 3 run the pass on g and
    answer as they do without it."""
    calls = [(min_geodetic_k, g, pair_filter)] + [(is_k_geodetic, g, k, pair_filter) for k in (1, 2, 3)]
    for fn, *args in calls:
        got, ran = _with_pass(fn, *args)
        assert len(ran) == 1
        assert got == _oracle(fn, *args)


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_unique_geodesics_matches_per_source_counts(g):
    assert graphs._unique_geodesics(g) == (_oracle(min_geodetic_k, g)[0] == 1)


@st.composite
def wide_hosts(draw):
    """A random tree on 40-300 vertices with pendant odd cycles hung on it,
    every vertex within (n // 10 - 1) // 2 of vertex 0 for the n tree
    vertices, so the guard of _pair_counts admits it."""
    n = draw(st.integers(40, 300))
    reach = (n // 10 - 1) // 2
    rng = random.Random(draw(st.integers(0, 10**6)))
    depth = [0]
    edges = []
    for i in range(1, n):
        parent = rng.choice([v for v in range(i) if depth[v] < reach])
        edges.append((parent, i))
        depth.append(depth[parent] + 1)
    for length in draw(st.lists(st.sampled_from([3, 5, 7]), max_size=4)):
        roots = [v for v in range(n) if depth[v] + length // 2 <= reach]
        if roots:
            cycle = [rng.choice(roots)] + list(range(len(depth), len(depth) + length - 1))
            depth += [reach] * (length - 1)
            edges += [(cycle[i - 1], cycle[i]) for i in range(1, length)] + [(cycle[0], cycle[-1])]
    return build_graph(edges, len(depth))


@settings(max_examples=15, deadline=None)
@given(wide_hosts())
def test_pass_matches_oracle_on_trees_with_pendant_odd_cycles(g):
    assert_pass_matches_oracle(g)


def _cycle_with_leaves(length, leaves):
    """A cycle 0..length-1 with leaf length + j hung on vertex j % length."""
    edges = [(i, (i + 1) % length) for i in range(length)]
    edges += [(j % length, length + j) for j in range(leaves)]
    return build_graph(edges, length + leaves)


def _complete_graph(n):
    return build_graph([(u, v) for u in range(n) for v in range(u + 1, n)], n)


@pytest.mark.parametrize("g", [
    random_tree(300, random.Random(3)), _complete_graph(31), _complete_graph(40),
    _cycle_with_leaves(40, 500), _cycle_with_leaves(41, 500),
], ids=["tree300", "k31", "k40", "c40-500-leaves", "c41-500-leaves"])
def test_pass_matches_oracle(g):
    assert_pass_matches_oracle(g)


@pytest.mark.parametrize("radius", [4, 5, 6])
def test_pass_matches_oracle_on_free_balls(radius):
    ball = cayley_ball(*free_group(2), radius)
    assert_pass_matches_oracle(ball.graph, ball.is_trusted_pair)
    assert min_geodetic_k(ball.graph, ball.is_trusted_pair) == ball.min_geodetic_k()


def test_pass_on_a_geodetic_host_with_filters_that_admit_no_edge_or_no_pair():
    g = random_tree(300, random.Random(3))
    # No edge admitted: the per-source loop answers, with the pair at distance 2.
    non_adjacent = lambda u, v: v not in g.adj[u]
    assert_pass_matches_oracle(g, non_adjacent)
    assert g.dist(*min_geodetic_k(g, non_adjacent)[1]) == 2
    nothing = lambda u, v: False
    with pytest.raises(ValueError, match="^no admitted vertex pairs$"):
        _with_pass(min_geodetic_k, g, nothing)
    with pytest.raises(ValueError, match="^no admitted vertex pairs$"):
        _oracle(min_geodetic_k, g, nothing)
    for k in (1, 2, 3):
        assert _with_pass(is_k_geodetic, g, k, nothing) == ((True, None), [True])


def _broom(reach, n):
    """A path 0..reach with leaves on vertex 0 up to n vertices: ecc(0) = reach."""
    return build_graph([(i, i + 1) for i in range(reach)] + [(0, v) for v in range(reach + 1, n)], n)


@pytest.mark.parametrize("g, admitted", [
    (cycle_graph(64), False), (_broom(2, 49), False), (_broom(2, 50), True),
], ids=["c64", "broom-49", "broom-50"])
def test_pass_runs_only_when_its_rounds_cost_under_a_tenth_of_the_vertices(g, admitted):
    for fn, *args in [(min_geodetic_k, g), (is_k_geodetic, g, 1)]:
        got, ran = _with_pass(fn, *args)
        assert got == _oracle(fn, *args)
        assert len(ran) == admitted


def test_enumerate_respects_limit():
    g = complete_bipartite(3, 3)
    paths, truncated = enumerate_geodesics(g, 0, 1, limit=2)
    assert truncated and len(paths) == 2
    paths, truncated = enumerate_geodesics(g, 0, 1, limit=3)
    assert not truncated and len(paths) == 3
    assert enumerate_geodesics(g, 2, 2, limit=0) == ([], True)
    assert enumerate_geodesics(g, 2, 2, limit=1) == ([PathSeq((2,))], False)
    assert enumerate_geodesics(g, 2, 2) == ([PathSeq((2,))], False)


def test_enumerate_long_geodesic_without_recursion():
    ball = cayley_ball(*infinite_cyclic(), 1200)
    u, v = ball.vertex_of(0), ball.vertex_of(1100)
    paths, truncated = enumerate_geodesics(ball.graph, u, v)
    assert not truncated and len(paths) == 1
    assert len(paths[0].vertices) == 1101
    assert paths[0][0] == u and paths[0][-1] == v


def test_dag_cache_keeps_one_entry_per_source():
    """No per-source entry is kept at all: each Graph.dag call is a fresh BFS."""
    g = cayley_ball(*z_cross_z2(), 4).graph
    min_geodetic_k(g)
    is_k_geodetic(g, 1)
    assert vars(g).keys() == {"vertex_count", "adj"}
    first, again = g.dag(0), g.dag(0)
    assert first is not again and first == again == bfs_dag(g, 0)


def test_is_k_geodetic_reuses_exact_dags():
    """is_k_geodetic agrees with min_geodetic_k from exact counts alone."""
    ball = cayley_ball(*z_cross_z2(), 4)
    g = ball.graph
    k, _ = min_geodetic_k(g, ball.is_trusted_pair)
    assert is_k_geodetic(g, k, ball.is_trusted_pair) == (True, None)
    assert is_k_geodetic(g, k - 1, ball.is_trusted_pair)[0] is False
    assert min_geodetic_k(g, ball.is_trusted_pair)[0] == k
    assert vars(g).keys() == {"vertex_count", "adj"}


@given(st.integers(2, 50), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_trees_are_1_geodetic(n, seed):
    g = random_tree(n, random.Random(seed))
    k, _ = min_geodetic_k(g)
    assert k == 1


def test_known_min_k_values():
    assert min_geodetic_k(path_graph(6))[0] == 1
    assert min_geodetic_k(star_graph(5))[0] == 1
    assert min_geodetic_k(petersen_graph())[0] == 1
    for n in (3, 5, 7, 9):
        assert min_geodetic_k(cycle_graph(n))[0] == 1
    for n in (4, 6, 8):
        k, (u, v) = min_geodetic_k(cycle_graph(n))
        assert k == 2
        assert cycle_graph(n).dist(u, v) == n // 2
    for a in range(1, 5):
        for b in range(a, 5):
            # K_{1,l} is a star, hence a tree; otherwise same-part pairs
            # route through every vertex of the other part.
            expected = max(a, b) if a >= 2 else 1
            assert min_geodetic_k(complete_bipartite(a, b))[0] == expected


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.sampled_from([None, 2, 3]))
# A pendant 0 on a 4-cycle: the first violator in (u, v) order, (0, 3), is
# farther apart than the first in (distance, u, v) order, (1, 3).
@example(build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)], 5), None)
# Source 0's row reaches its top count 2 at v = 1 (distance 3) and v = 4
# (distance 2): the least (distance, v) is (2, 4), the least v is 1.
@example(build_graph([(0, 2), (0, 3), (2, 4), (3, 4), (4, 1)], 5), None)
def test_witness_and_violator_match_sorted_scan_oracle(g, modulus):
    pair_filter = None if modulus is None else (lambda u, v: (u + 2 * v) % modulus != 0)
    best = first_maximiser(sorted_pair_counts(g, pair_filter))
    if best is None:
        with pytest.raises(ValueError):
            min_geodetic_k(g, pair_filter)
    else:
        assert min_geodetic_k(g, pair_filter) == best
    for k in (1, 2, 3):
        violator = first_violator(sorted_pair_counts(g, pair_filter, k + 1), k)
        assert is_k_geodetic(g, k, pair_filter) == (violator is None, violator)


def test_min_k_single_vertex():
    g = build_graph([], 1)
    assert min_geodetic_k(g) == (1, (0, 0))


def test_is_k_geodetic():
    g = cycle_graph(4)
    ok, witness = is_k_geodetic(g, 2)
    assert ok and witness is None
    ok, witness = is_k_geodetic(g, 1)
    assert not ok
    u, v = witness
    assert g.dist(u, v) == 2
    with pytest.raises(ValueError):
        is_k_geodetic(g, 0)


def test_disconnected_rejected():
    g = build_graph([(0, 1)], 4)
    with pytest.raises(UnreachablePairError):
        min_geodetic_k(g)
    with pytest.raises(UnreachablePairError):
        g.dist(0, 3)


def test_is_complete_bipartite():
    assert is_complete_bipartite(complete_bipartite(3, 3)) == (3, 3)
    assert is_complete_bipartite(complete_bipartite(2, 4)) == (2, 4)
    assert is_complete_bipartite(star_graph(5)) == (1, 5)
    assert is_complete_bipartite(path_graph(2)) == (1, 1)
    assert is_complete_bipartite(path_graph(4)) is None
    assert is_complete_bipartite(cycle_graph(5)) is None
    assert is_complete_bipartite(cycle_graph(4)) == (2, 2)
    assert is_complete_bipartite(petersen_graph()) is None


@st.composite
def near_complete_bipartite(draw, max_part=4):
    """K_{k,l} on shuffled vertices, with the edge of one drawn vertex pair toggled or not."""
    k, l = draw(st.integers(1, max_part)), draw(st.integers(1, max_part))
    order = draw(st.permutations(range(k + l)))
    edges = {tuple(sorted((order[i], order[k + j]))) for i in range(k) for j in range(l)}
    pair = draw(st.none() | st.tuples(st.integers(0, k + l - 1), st.integers(0, k + l - 1)))
    if pair and pair[0] != pair[1]:
        edges ^= {tuple(sorted(pair))}
    return build_graph(sorted(edges), k + l)


@settings(max_examples=100, deadline=None)
@given(st.one_of(any_graphs(), near_complete_bipartite()))
def test_is_complete_bipartite_matches_brute_force(g):
    if None in bfs_distances(g, 0):
        with pytest.raises(UnreachablePairError, match="^graph is not connected$"):
            is_complete_bipartite(g)
    else:
        assert is_complete_bipartite(g) == brute_complete_bipartite(g)


def test_build_graph_validation():
    with pytest.raises(GraphFormatError):
        build_graph([(0, 0)], 2)
    with pytest.raises(GraphFormatError):
        build_graph([(0, 5)], 3)
    # duplicate mentions of one edge collapse
    assert build_graph([(0, 1), (1, 0)], 2).edge_count == 1


@pytest.mark.parametrize(
    "vertex_count, adjacency, message",
    [
        (2, [[1]], "adjacency length disagrees with vertex_count"),
        (2, [[2], []], "vertex 2 out of range in adjacency of 0"),
        (2, [[0], []], "self-loop at vertex 0"),
        (2, [[1], []], "edge 0-1 is not symmetric"),
    ],
    ids=["length", "range", "self-loop", "asymmetric"],
)
def test_graph_constructor_errors(vertex_count, adjacency, message):
    # No graph file reaches these: build_graph makes a symmetric adjacency
    # of the right length and rejects bad endpoints itself.
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        graphs.Graph(vertex_count, adjacency)


def test_parse_format_roundtrip():
    g = petersen_graph()
    again = parse_graph(format_graph(g))
    assert again.vertex_count == 10
    assert list(again.edges()) == list(g.edges())


def test_parse_graph_errors():
    with pytest.raises(GraphFormatError):
        parse_graph("e 0 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph("graph 2\ne 0 2\n")
    with pytest.raises(GraphFormatError):
        parse_graph("graph x\n")


def test_parse_graph_comments_and_blanks():
    g = parse_graph("# a square\ngraph 4\n\ne 0 1\ne 1 2\ne 2 3 # wrap\ne 0 3\n")
    assert g.edge_count == 4


def test_dot_export():
    text = graph_to_dot(cycle_graph(3))
    assert text.startswith("graph G {")
    assert "0 -- 1" in text
    assert text.endswith("}\n")
    assert graph_to_dot(build_graph([], 0)).startswith("graph G {")


def test_pathseq_behavior():
    p = PathSeq((0, 1, 2))
    assert p.length == 2 and p[0] == 0 and p[-1] == 2
    assert p[1] == 1
    with pytest.raises(ValueError, match="^a path needs at least one vertex$"):
        PathSeq(())


def test_pathseq_equality_and_hash_follow_the_vertices():
    p, same, other = PathSeq((0, 1, 2)), PathSeq(vertices=(0, 1, 2)), PathSeq((0, 1))
    assert p == same and p != other and p != (0, 1, 2)
    assert hash(p) == hash(same)
    assert len({p, same, other}) == 2
