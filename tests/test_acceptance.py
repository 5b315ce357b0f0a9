"""End-to-end checks over the library's named examples and bound claims.

Each test prints one "[acceptance NN] <name>: PASS" line (FAIL on the way
out of a raising block) so a -s run doubles as a checklist.
"""

import random
import time
from contextlib import contextmanager

from geodetic import (
    PathSeq,
    SearchScope,
    build_factor_automaton,
    cayley_ball,
    centraliser_in_ball,
    check_locally_excluding,
    close_bound_C,
    find_ladders,
    is_k_geodetic,
    iter_disjoint_pairs,
    ladder_bound_A,
    min_geodetic_k,
    minimal_forbidden_factors,
    power_language,
    solve_zx_eq_yz,
    validate_path,
)
from geodetic.words import commuting_common_root, primitive_root
from geodetic.zoo import (
    complete_bipartite,
    cycle_graph,
    cyclic_odd_powers,
    free_group,
    path_graph,
    petersen_graph,
    random_tree,
    star_graph,
)

from oracles import (
    accepts,
    brute_primitive_root,
    count_geodesics,
    dfs_shortest_paths,
    dfs_walks_of_length,
    has_factor_naive,
    is_complete_bipartite,
    shorten_paths,
    step,
    words_at,
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance {num:02d}] {name}: FAIL")
        raise
    print(f"[acceptance {num:02d}] {name}: PASS")


def ball_min_k(ball):
    return min_geodetic_k(ball.graph, ball.is_trusted_pair)


def test_01_even_cyclic_balls_are_complete_bipartite():
    with criterion(1, "odd-generator cyclic balls"):
        start = time.monotonic()
        for k in range(2, 6):
            ball = cayley_ball(*cyclic_odd_powers(k), 2)
            assert ball.complete
            assert is_complete_bipartite(ball.graph) == (k, k)
            min_k, (u, v) = ball_min_k(ball)
            assert min_k == k
            ok, _ = is_k_geodetic(ball.graph, k, ball.is_trusted_pair)
            assert ok
            ok, witness = is_k_geodetic(ball.graph, k - 1, ball.is_trusted_pair)
            assert not ok and witness is not None
            # the witnessing pair differs by a nonzero even residue
            wu, wv = witness
            diff = (ball.elements[wu] - ball.elements[wv]) % (2 * k)
            assert diff != 0 and diff % 2 == 0
        assert time.monotonic() - start < 1.0


def connected_sample(rng, n):
    g = random_tree(n, rng)
    extra = rng.randrange(0, n)
    edges = list(g.edges())
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    from geodetic.graphs import build_graph

    return build_graph(edges, n)


def test_02_geodesic_counts_match_exhaustive_search():
    with criterion(2, "geodesic counts vs DFS enumeration"):
        start = time.monotonic()
        rng = random.Random(20260816)
        for _ in range(200):
            g = connected_sample(rng, rng.randrange(2, 11))
            for u in range(g.vertex_count):
                for v in range(u, g.vertex_count):
                    _, paths = dfs_shortest_paths(g, u, v)
                    assert count_geodesics(g, u, v) == len(paths)
        assert time.monotonic() - start < 30.0


def test_03_trees_and_free_balls_have_unique_geodesics():
    with criterion(3, "unique geodesics in trees and free balls"):
        rng = random.Random(7)
        for _ in range(10):
            tree = random_tree(rng.randrange(2, 51), rng)
            assert min_geodetic_k(tree)[0] == 1
        ball5 = cayley_ball(*free_group(2), 5)
        assert ball5.vertex_count == 485
        assert ball5.vertex_count == 1 + 4 + 12 + 36 + 108 + 324
        assert ball_min_k(ball5)[0] == 1
        ball6 = cayley_ball(*free_group(2), 6)
        assert ball6.vertex_count == 1457
        assert ball_min_k(ball6)[0] == 1


def test_04_direct_product_counts_grow_linearly(zxz2_r7):
    with criterion(4, "Z x Z2 geodesic count growth"):
        origin = zxz2_r7.vertex_of((0, 0))
        for n in range(1, 7):
            target = zxz2_r7.vertex_of((n, 1))
            assert count_geodesics(zxz2_r7.graph, origin, target) == n + 1
        # brute-force cross-check on the small end
        for n in range(1, 4):
            target = zxz2_r7.vertex_of((n, 1))
            _, paths = dfs_shortest_paths(zxz2_r7.graph, origin, target)
            assert len(paths) == n + 1


def ladder_hosts():
    """(host, verified k) pairs; k re-derived so every claim is checked."""
    rng = random.Random(99)
    hosts = [path_graph(8), star_graph(6)]
    hosts += [random_tree(n, rng) for n in (15, 30, 45)]
    hosts += [cycle_graph(n) for n in range(3, 10)]
    hosts += [
        complete_bipartite(a, b) for a in range(1, 5) for b in range(a, 5)
    ]
    hosts.append(petersen_graph())
    out = []
    for g in hosts:
        out.append((g, min_geodetic_k(g)[0]))
    for k in range(2, 6):
        ball = cayley_ball(*cyclic_odd_powers(k), 2)
        got, _ = ball_min_k(ball)
        assert got == k
        out.append((ball, k))
    return out


def test_05_ladder_heights_and_close_counts_respect_bounds():
    with criterion(5, "ladder height and closeness bounds"):
        start = time.monotonic()
        scope = SearchScope(max_pairs=2000, max_geodesics=50)
        ladders_seen = 0
        pairs_seen = 0
        for host, k in ladder_hosts():
            for m in (1, 2):
                scan = find_ladders(host, m, k, scope)
                bound = ladder_bound_A(m, k)
                for record in scan.found:
                    assert record.bound == bound
                    for height in record.heights:
                        ladders_seen += 1
                        assert 1 <= height <= bound
                c_bound = close_bound_C(m, k)
                for _, _, stats in iter_disjoint_pairs(host, m, scope):
                    pairs_seen += 1
                    assert stats.c_m <= c_bound
        assert ladders_seen > 0 and pairs_seen > 0
        assert time.monotonic() - start < 60.0


def test_06_walk_families_shorten_to_paths():
    with criterion(6, "surplus walk families shorten"):
        rng = random.Random(424242)
        pool = []
        pool += [cycle_graph(n) for n in (4, 5, 6, 7)]
        pool += [complete_bipartite(2, 2), complete_bipartite(2, 3), complete_bipartite(3, 3)]
        pool.append(petersen_graph())
        pool += [random_tree(n, rng) for n in (10, 20)]
        hosts = [(g, min_geodetic_k(g)[0]) for g in pool]
        done = 0
        guard = 0
        while done < 50:
            guard += 1
            assert guard < 5000, "instance discovery stalled"
            g, k = hosts[rng.randrange(len(hosts))]
            u = rng.randrange(g.vertex_count)
            v = rng.randrange(g.vertex_count)
            if u == v:
                continue
            d = g.dist(u, v)
            n = d + 2
            walks = dfs_walks_of_length(g, u, v, n)
            if len(walks) < k + 1:
                continue
            family = [PathSeq(w) for w in walks[: k + 1]]
            result = shorten_paths(g, family, k)
            validate_path(g, result)
            assert result.vertices[0] == u and result.vertices[-1] == v
            assert result.length in (n - 1, n - 2)
            done += 1


def all_words(letters, max_len):
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (a,) for w in frontier for a in letters]
        yield from frontier


def test_07_word_equation_helpers_match_brute_force():
    with criterion(7, "word-equation helpers vs brute force"):
        start = time.monotonic()
        for w in all_words(("a", "b"), 12):
            assert primitive_root(w) == brute_primitive_root(w)

        rng = random.Random(55)
        letters = ("a", "b")
        for _ in range(500):
            s = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 5)))
            t = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 5)))
            if not s and not t:
                s = ("a",)
            q = rng.randrange(0, 6)
            x, y = s + t, t + s
            z = (t + s) * q + t
            got = solve_zx_eq_yz(x, y, z)
            assert got.s + got.t == x
            assert got.t + got.s == y
            assert (got.t + got.s) * got.q + got.t == z
            assert z + x == y + z

        words = list(all_words(("a", "b"), 8))
        commuting = 0
        for x in words:
            for y in words:
                if x + y != y + x:
                    continue
                commuting += 1
                root = commuting_common_root(x, y)
                assert root == brute_primitive_root(x)[0]
                assert root == brute_primitive_root(y)[0]
        assert commuting > 0
        assert time.monotonic() - start < 30.0


def test_08_reduction_factor_sets_and_local_exclusion(z2z2_r8, z4_r4):
    with criterion(8, "forbidden factor sets exclude locally"):
        free_ball = cayley_ball(*free_group(2), 8)
        f = minimal_forbidden_factors(free_ball, 2)
        assert f.words == {("a", "a'"), ("a'", "a"), ("b", "b'"), ("b'", "b")}
        ok, ce = check_locally_excluding(free_ball, f.words, 7)
        assert ok and ce is None

        f = minimal_forbidden_factors(z2z2_r8, 2)
        assert f.words == {("a", "a"), ("b", "b")}
        ok, ce = check_locally_excluding(z2z2_r8, f.words, 7)
        assert ok and ce is None

        f = minimal_forbidden_factors(z4_r4, 3)
        assert f.words == {
            ("a", "a'"),
            ("a'", "a"),
            ("a", "a", "a"),
            ("a'", "a'", "a'"),
        }
        ok, ce = check_locally_excluding(z4_r4, f.words, 3)
        assert ok and ce is None


def random_forbidden_set(rng, letters):
    count = rng.randrange(1, 6)
    words = set()
    for _ in range(count):
        length = rng.randrange(1, 4)
        words.add(tuple(rng.choice(letters) for _ in range(length)))
    return words


def test_09_automaton_agrees_with_direct_factor_scan():
    with criterion(9, "automaton vs direct factor scan"):
        rng = random.Random(777)
        alphabets = [("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d")]
        for trial in range(20):
            letters = alphabets[trial % len(alphabets)]
            forbidden = random_forbidden_set(rng, letters)
            auto = build_factor_automaton(forbidden, letters)
            fmax = max(len(w) for w in forbidden)

            # breadth-first sweep of every word of length <= 8, carrying the
            # automaton state and a has-forbidden-factor flag incrementally
            frontier = [((), auto.start, () in forbidden)]
            assert accepts(auto, ()) == (() not in forbidden)
            for _ in range(8):
                nxt = []
                for word, state, dirty in frontier:
                    for a in letters:
                        w2 = word + (a,)
                        d2 = dirty or any(
                            w2[-i:] in forbidden for i in range(1, min(len(w2), fmax) + 1)
                        )
                        s2 = step(auto, state, a)
                        assert (s2 != auto.dead) == (not d2), (forbidden, w2)
                        nxt.append((w2, s2, d2))
                frontier = nxt

            for _ in range(100):
                w = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 9)))
                assert accepts(auto, w) == (not has_factor_naive(w, forbidden))


def test_10_power_languages_stabilize_in_geodetic_groups(z_r8, z2z2_r16):
    with criterion(10, "power-language stabilization"):
        for ball, base in ((z_r8, ("a",)), (z2z2_r16, ("a", "b"))):
            report = power_language(ball, base, 8)
            assert report.counts == (1,) * 9
            assert max(report.counts) <= 1
            stab = report.stabilization
            assert stab is not None
            for c, lang in enumerate(report.languages):
                assert words_at(stab, c) == set(lang)


def test_11_centralisers_match_expected_sets(free2_r4, zxz2_r7):
    with criterion(11, "ball centralisers"):
        spec = free2_r4.spec
        a = ((0, 1),)
        members = set(centraliser_in_ball(free2_r4, a))
        assert members == {spec.power(a, i) for i in range(-4, 5)}

        members = centraliser_in_ball(zxz2_r7, (1, 0))
        assert len(members) == zxz2_r7.vertex_count
        assert set(members) == set(zxz2_r7.elements)
