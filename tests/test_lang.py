import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from geodetic import (
    BallRangeError,
    CyclicSpec,
    FiniteOrderError,
    ForbiddenSet,
    ProductSpec,
    TableSpec,
    build_factor_automaton,
    cayley_ball,
    centraliser_in_ball,
    check_locally_excluding,
    minimal_forbidden_factors,
    power_language,
    validate_genset,
)
from geodetic.graphs import Graph
from geodetic.lang import (
    _fit_tail,
    _geodesic_words,
    forbidden_set_lines,
    parse_forbidden_file,
    power_report_lines,
)
from geodetic.groups import word_to_element
from geodetic.words import parse_word
from geodetic.zoo import (
    cyclic_odd_powers,
    free_group,
    infinite_cyclic,
    z2_star_z2,
    z_cross_z2,
)

from fixtures import cyclic_with_step, plain_group
from oracles import (
    accepts,
    has_factor_naive,
    is_geodesic_word,
    naive_centraliser,
    naive_check_locally_excluding,
    naive_factor_automaton,
    naive_fit_tail,
    naive_forbidden_factors,
    naive_locally_excluding,
    naive_minimal_forbidden_factors,
    naive_power_languages,
    power,
    step,
    words_at,
)


def words_up_to(letters, max_len):
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (a,) for w in frontier for a in letters]
        yield from frontier


def test_is_geodesic_word(z4_r4):
    assert is_geodesic_word(z4_r4, ())
    assert is_geodesic_word(z4_r4, ("a", "a"))
    assert not is_geodesic_word(z4_r4, ("a", "a", "a"))
    assert is_geodesic_word(z4_r4, ("a'",))
    with pytest.raises(BallRangeError):
        is_geodesic_word(z4_r4, ("a",) * 5)
    with pytest.raises(ValueError):
        is_geodesic_word(z4_r4, ("q",))


def test_is_geodesic_word_free_reduction(free2_r4):
    assert not is_geodesic_word(free2_r4, ("a", "a'"))
    assert is_geodesic_word(free2_r4, ("a", "b", "a"))


@pytest.mark.parametrize("group, radius", [(free_group(2), 4), (z_cross_z2(), 5)])
def test_language_walks_read_the_ball_steps(group, radius, monkeypatch):
    spec, gens = group
    ball = cayley_ball(spec, gens, radius)
    letters = sorted(gens.labels)
    words = list(words_up_to(letters, radius))
    want = [ball.norms[ball.vertex_of(word_to_element(spec, gens, w))] == len(w) for w in words]
    forbidden = minimal_forbidden_factors(ball, radius)

    def boom(*args):
        raise AssertionError("language walks must read ball.steps")

    monkeypatch.setattr(spec, "multiply", boom)
    monkeypatch.setattr(ball, "vertex_of", boom)
    assert [is_geodesic_word(ball, w) for w in words] == want
    assert minimal_forbidden_factors(ball, radius) == forbidden
    assert check_locally_excluding(ball, forbidden, radius) == (True, None)


def test_minimal_forbidden_factors_free2(free2_r4):
    f = minimal_forbidden_factors(free2_r4, 2)
    assert f.e == 2
    assert f.words == {("a", "a'"), ("a'", "a"), ("b", "b'"), ("b'", "b")}


def test_minimal_forbidden_factors_z2z2(z2z2_r8):
    f = minimal_forbidden_factors(z2z2_r8, 2)
    assert f.words == {("a", "a"), ("b", "b")}


def test_minimal_forbidden_factors_z4(z4_r4):
    f = minimal_forbidden_factors(z4_r4, 3)
    assert f.words == {
        ("a", "a'"),
        ("a'", "a"),
        ("a", "a", "a"),
        ("a'", "a'", "a'"),
    }


def test_minimal_forbidden_members_are_minimal(z4_r4, z2z2_r8):
    for ball, e in ((z4_r4, 3), (z2z2_r8, 4)):
        f = minimal_forbidden_factors(ball, e)
        for w in f.words:
            assert not is_geodesic_word(ball, w)
            assert is_geodesic_word(ball, w[1:])
            assert is_geodesic_word(ball, w[:-1])


def test_minimal_forbidden_factors_bounds(z4_r4):
    with pytest.raises(BallRangeError):
        minimal_forbidden_factors(z4_r4, 5)
    with pytest.raises(ValueError):
        minimal_forbidden_factors(z4_r4, 0)


def z_cross_z():
    spec = ProductSpec((CyclicSpec(0), CyclicSpec(0)))
    pairs = [("a", (1, 0)), ("a'", (-1, 0)), ("b", (0, 1)), ("b'", (0, -1))]
    return spec, validate_genset(spec, pairs)


# (name, group, largest e); each e is checked on balls of radius e .. e + 3.
RADIUS_E_GROUPS = [
    ("F2", lambda: free_group(2), 3),
    ("Z2*Z3", lambda: plain_group(0, (2, 3)), 6),
    ("Z2*Z2", z2_star_z2, 6),
    ("ZxZ", z_cross_z, 4),
    ("ZxZ2", z_cross_z2, 5),
    ("Z", infinite_cyclic, 6),
]


@pytest.mark.parametrize(
    "group, e",
    [(group, e) for _, group, top in RADIUS_E_GROUPS for e in range(1, top + 1)],
    ids=[f"{name}-e{e}" for name, _, top in RADIUS_E_GROUPS for e in range(1, top + 1)],
)
def test_language_of_the_radius_e_ball_is_that_of_any_larger_ball(group, e):
    spec, gens = group()
    want = minimal_forbidden_factors(cayley_ball(spec, gens, e), e)
    table = build_factor_automaton(want, gens.labels).table_lines()
    for radius in range(e + 1, e + 4):
        got = minimal_forbidden_factors(cayley_ball(spec, gens, radius), e)
        assert got == want
        assert build_factor_automaton(got, gens.labels).table_lines() == table


@pytest.mark.parametrize("group", [group for _, group, _ in RADIUS_E_GROUPS],
                         ids=[name for name, _, _ in RADIUS_E_GROUPS])
@pytest.mark.parametrize("radius", range(1, 7))
def test_language_walks_match_the_word_set_oracles(group, radius):
    spec, gens = group()
    ball = cayley_ball(spec, gens, radius)
    for e in range(1, radius + 1):
        forbidden = minimal_forbidden_factors(ball, e)
        assert forbidden.words == naive_minimal_forbidden_factors(ball, e)
    assert check_locally_excluding(ball, forbidden, radius) == (True, None)
    # Without one of its words the set fails, at the first counterexample.
    trials = [forbidden.words] + [forbidden.words - {w} for w in forbidden.sorted_words()]
    for i, words in enumerate(trials):
        for test_len in range(radius + 1):
            got = check_locally_excluding(ball, words, test_len)
            assert got == naive_check_locally_excluding(ball, words, test_len)
        assert got[0] == (i == 0)


def z_cubed():
    spec = ProductSpec((CyclicSpec(0),) * 3)
    units = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    pairs = [(f"{c}{mark}", u if not mark else spec.inverse(u))
             for c, u in zip("abc", units) for mark in ("", "'")]
    return spec, validate_genset(spec, pairs)


# (name, group, largest radius) for the state walks against the word walks:
# radii up to 8, but F3 stops at 6, where its ball holds 23,437 vertices.
STATE_WALK_GROUPS = [
    ("F2", lambda: free_group(2), 8),
    ("F3", lambda: free_group(3), 6),
    ("Z2*Z2", z2_star_z2, 8),
    ("Z2*Z3", lambda: plain_group(0, (2, 3)), 8),
    ("Z*Z3", lambda: plain_group(1, (3,)), 8),
    ("Z2*Z2*Z2", lambda: plain_group(0, (2, 2, 2)), 8),
    ("Z4*Z4", lambda: plain_group(0, (4, 4)), 8),
    ("Z", infinite_cyclic, 8),
    ("ZxZ", z_cross_z, 8),
    ("ZxZ2", z_cross_z2, 8),
    ("Z^3", z_cubed, 8),
    ("K_3,3", lambda: cyclic_odd_powers(3), 8),
    ("K_4,4", lambda: cyclic_odd_powers(4), 8),
    ("C8 step 3", lambda: cyclic_with_step(8, 3), 8),
]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_state_walks_match_the_word_walks(data):
    """The state walks return the ForbiddenSet and the (verdict,
    counterexample) of the walks over every geodesic word, for every e, and
    for the full set, the set with one word dropped and a few drawn words
    added, which may be geodesic or reach one vertex in several states."""
    _, group, top = data.draw(st.sampled_from(STATE_WALK_GROUPS), label="group")
    radius = data.draw(st.integers(1, top), label="radius")
    ball = cayley_ball(*group(), radius)
    for e in range(1, radius + 1):
        assert minimal_forbidden_factors(ball, e) == naive_forbidden_factors(ball, e)
    forbidden = minimal_forbidden_factors(ball, data.draw(st.integers(1, radius), label="e"))
    test_len = data.draw(st.integers(0, radius), label="test_len")
    trials = [forbidden.words]
    if forbidden.words:
        dropped = data.draw(st.sampled_from(forbidden.sorted_words()), label="dropped")
        trials.append(forbidden.words - {dropped})
    letters = sorted(ball.genset.labels)
    word = st.lists(st.sampled_from(letters), min_size=1, max_size=radius).map(tuple)
    trials.append(trials[-1] | set(data.draw(st.lists(word, max_size=3), label="added")))
    for words in trials:
        got = check_locally_excluding(ball, words, test_len)
        assert got == naive_locally_excluding(ball, words, test_len)


def test_automaton_knowns():
    auto = build_factor_automaton([("a", "a"), ("b", "b")], ["a", "b"])
    assert auto.state_count == 4
    accepted = [w for w in words_up_to(["a", "b"], 5) if len(w) == 5 and accepts(auto, w)]
    assert accepted == [tuple("ababa"), tuple("babab")]

    everything = build_factor_automaton([], ["a", "b"])
    assert all(accepts(everything, w) for w in words_up_to(["a", "b"], 4))

    no_a = build_factor_automaton([("a",)], ["a", "b"])
    for w in words_up_to(["a", "b"], 4):
        assert accepts(no_a, w) == ("a" not in w)

    nothing = build_factor_automaton([()], ["a", "b"])
    assert not accepts(nothing, ())
    assert not accepts(nothing, ("a",))


def test_automaton_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_factor_automaton([("c",)], ["a", "b"])
    with pytest.raises(ValueError):
        build_factor_automaton([], [])
    auto = build_factor_automaton([("a", "a")], ["a", "b"])
    with pytest.raises(ValueError):
        step(auto, 0, "z")


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_automaton_matches_direct_scan(data):
    letters = data.draw(st.sampled_from([["a", "b"], ["a", "b", "c"]]))
    fwords = data.draw(
        st.sets(
            st.lists(st.sampled_from(letters), min_size=1, max_size=3).map(tuple),
            max_size=4,
        )
    )
    auto = build_factor_automaton(fwords, letters)
    for w in words_up_to(letters, 5):
        assert accepts(auto, w) == (not has_factor_naive(w, fwords))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_automaton_matches_the_trie_and_table_oracle(data):
    letters = data.draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    fwords = data.draw(st.sets(st.lists(st.sampled_from(letters), max_size=4).map(tuple), max_size=6))
    auto = build_factor_automaton(fwords, letters)
    assert (auto.transitions, auto.start, auto.dead) == naive_factor_automaton(fwords, letters)
    assert auto.state_count == len(auto.transitions)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fit_tail_matches_the_pruning_oracle(data):
    # Languages alpha (ts)^(q+c) t gamma for c = 0 .. count-1, where the
    # alpha words share one length and the gamma words another.
    def words():
        length = data.draw(st.integers(0, 2))
        word = st.lists(st.sampled_from("abc"), min_size=length, max_size=length).map(tuple)
        return data.draw(st.sets(word, min_size=1, max_size=3))

    alpha, gamma = words(), words()
    t = data.draw(st.lists(st.sampled_from("ab"), max_size=2).map(tuple))
    s = data.draw(st.lists(st.sampled_from("ab"), max_size=3).map(tuple))
    q = data.draw(st.integers(0, 2))
    tail = [
        tuple(sorted({a + (t + s) * (q + c) + t + g for a in alpha for g in gamma}))
        for c in range(data.draw(st.integers(3, 5)))
    ]
    variant = data.draw(st.sampled_from(["as built", "one letter changed", "reversed"]))
    if variant == "reversed":
        tail = tail[::-1]
    elif variant == "one letter changed":
        c = data.draw(st.integers(0, len(tail) - 1))
        lang = list(tail[c])
        i = data.draw(st.integers(0, len(lang) - 1))
        if lang[i]:
            j = data.draw(st.integers(0, len(lang[i]) - 1))
            w = list(lang[i])
            w[j] = data.draw(st.sampled_from([x for x in "abcd" if x != w[j]]))
            lang[i] = tuple(w)
        tail[c] = tuple(sorted(set(lang)))
    assert _fit_tail(tail) == naive_fit_tail(tail)


@pytest.mark.parametrize(
    "group, radius, base",
    [
        (free_group(2), 9, ("a", "b")),
        (free_group(2), 9, ("a", "b", "a'")),
        (z2_star_z2(), 12, ("a", "b")),
        (plain_group(0, (2, 3)), 12, ("b", "a", "b")),
        (plain_group(0, (2, 3)), 12, ("a", "b", "a", "b'")),
        (z_cross_z2(), 8, ("a", "f")),
        (z_cross_z2(), 8, ("a", "a", "f")),
        (infinite_cyclic(), 12, ("a",)),
    ],
)
def test_fit_tail_matches_the_oracle_on_power_languages(group, radius, base):
    spec, gens = group
    ball = cayley_ball(spec, gens, radius)
    n_max = radius // len(base)
    languages = power_language(ball, base, n_max).languages
    for n in range(len(languages) - 2):
        assert _fit_tail(languages[n:]) == naive_fit_tail(languages[n:])


@pytest.mark.parametrize("group, base", [(infinite_cyclic(), ("a",)), (z_cross_z2(), ("a", "f"))])
def test_power_language_reads_only_the_identity_bfs(group, base, monkeypatch):
    # Tightened: power_language reads norms and steps alone, so no DAG at all.
    spec, gens = group
    ball = cayley_ball(spec, gens, 8)
    want = power_language(cayley_ball(spec, gens, 8), base, 4)

    def no_dag(self, source, count_cap=None):
        raise AssertionError(f"BFS from vertex {source}")

    monkeypatch.setattr(Graph, "dag", no_dag)
    assert power_language(ball, base, 4) == want
    assert ball._graph is None


# (name, group, largest radius) for the power-language property test.
POWER_GROUPS = [
    ("F2", lambda: free_group(2), 6),
    ("Z2*Z2", z2_star_z2, 10),
    ("Z2*Z3", lambda: plain_group(0, (2, 3)), 9),
    ("ZxZ", z_cross_z, 8),
    ("ZxZ2", z_cross_z2, 7),
    ("Z", infinite_cyclic, 12),
]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_power_language_matches_the_enumeration_oracle(data):
    _, group, max_radius = data.draw(st.sampled_from(POWER_GROUPS), label="group")
    radius = data.draw(st.integers(0, max_radius), label="radius")
    ball = cayley_ball(*group(), radius)
    # power_language reads each list as it is: sorted when filled.
    words_of = _geodesic_words(ball)
    for v in range(ball.vertex_count):
        words = words_of(v)
        assert words == sorted(words)
    labels = sorted(ball.genset.labels)
    base = tuple(data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3), label="base"))
    g = word_to_element(ball.spec, ball.genset, base)
    assume(ball.spec.element_order(g) is None)
    # |g^n| <= n|base| <= radius keeps every power inside the ball.
    n_max = data.draw(st.integers(0, radius // len(base)), label="n_max")
    got = power_language(ball, base, n_max).languages
    assert got == naive_power_languages(ball, base, n_max)


def test_check_locally_excluding(z2z2_r8, free2_r4):
    ok, ce = check_locally_excluding(z2z2_r8, [("a", "a"), ("b", "b")], 7)
    assert ok and ce is None
    ok, ce = check_locally_excluding(z2z2_r8, [("a", "a")], 2)
    assert not ok and ce == ("b", "b")
    pairs = minimal_forbidden_factors(free2_r4, 2)
    ok, ce = check_locally_excluding(free2_r4, pairs, 3)
    assert ok
    # an empty forbidden set misses every non-geodesic word
    ok, ce = check_locally_excluding(free2_r4, [], 2)
    assert not ok and ce == ("a", "a'")
    # a forbidden empty word wrongly excludes the geodesic empty word
    ok, ce = check_locally_excluding(free2_r4, [()], 2)
    assert not ok and ce == ()
    with pytest.raises(BallRangeError):
        check_locally_excluding(z2z2_r8, [("a", "a")], 99)


def test_power_language_z(z_r8):
    report = power_language(z_r8, ("a",), 8)
    assert report.counts == (1,) * 9
    stab = report.stabilization
    assert stab is not None
    assert stab.n_star == 0 and stab.q == 0
    assert stab.t == () and stab.s == ("a",)
    assert stab.alpha_set == ((),) and stab.gamma_set == ((),)
    for c in range(9):
        assert words_at(stab, c) == set(report.languages[c])


def test_power_language_z2z2(z2z2_r16):
    report = power_language(z2z2_r16, ("a", "b"), 8)
    assert report.counts == (1,) * 9
    stab = report.stabilization
    assert stab is not None
    assert stab.s == ("a", "b") and stab.t == ()
    for c in range(9):
        assert words_at(stab, c) == set(report.languages[c])


def test_power_language_growing_multiplicity(zxz2_r7):
    report = power_language(zxz2_r7, ("a", "f"), 6)
    assert report.counts == (1, 2, 1, 4, 1, 6, 1)
    assert report.stabilization is None
    assert report.multiplicity_growing


def test_power_language_errors(z2z2_r16, z_r8):
    with pytest.raises(FiniteOrderError):
        power_language(z2z2_r16, ("a",), 4)
    with pytest.raises(BallRangeError):
        power_language(z_r8, ("a",), 9)
    with pytest.raises(ValueError):
        power_language(z_r8, ("a",), -1)


def test_power_language_zero_nmax(z_r8):
    report = power_language(z_r8, ("a",), 0)
    assert report.languages == (((),),)
    assert report.stabilization is None


def test_centraliser_free_group(free2_r4):
    spec = free2_r4.spec
    a = ((0, 1),)
    members = centraliser_in_ball(free2_r4, a)
    expected = set()
    for i in range(-4, 5):
        expected.add(power(spec, a, i))
    assert set(members) == expected
    assert len(members) == 9
    # closed under inverse inside the ball
    for h in members:
        assert spec.inverse(h) in set(members)


def test_centraliser_identity_is_whole_ball(z4_r4):
    members = centraliser_in_ball(z4_r4, 0)
    assert len(members) == z4_r4.vertex_count


def test_centraliser_abelian(zxz2_r7):
    members = centraliser_in_ball(zxz2_r7, (1, 0))
    assert len(members) == zxz2_r7.vertex_count


def _unit_product(*orders):
    spec = ProductSpec(tuple(CyclicSpec(n) for n in orders))
    units = [tuple(int(j == i) for j in range(len(orders))) for i in range(len(orders))]
    return spec, validate_genset(spec, [(f"x{i}{sign}", spec.inverse(u) if sign else u)
                                        for i, u in enumerate(units) for sign in ("", "'")])


def _z5_table():
    spec = TableSpec([[(i + j) % 5 for j in range(5)] for i in range(5)])
    return spec, validate_genset(spec, [("g", 1), ("g'", 4)])


CENTRALISER_GROUPS = {
    "F2": lambda: free_group(2),
    "F3": lambda: free_group(3),
    "Z2*Z3": lambda: plain_group(0, (2, 3)),
    "Z*Z3": lambda: plain_group(1, (3,)),
    "Z2*Z2*Z2": lambda: plain_group(0, (2, 2, 2)),
    "Z4*Z4": lambda: plain_group(0, (4, 4)),
    "ZxZ2": z_cross_z2,
    "ZxZ": lambda: _unit_product(0, 0),
    "C7": lambda: cyclic_with_step(7),
    "K33": lambda: cyclic_odd_powers(3),  # Z6 with its odd residues
    "Z5 table": _z5_table,
}
_CENTRALISER_BALLS = {}  # (group name, radius) -> ball, shared by the examples


@pytest.mark.parametrize("name", CENTRALISER_GROUPS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_centraliser_matches_multiply_oracle(name, data):
    radius = data.draw(st.integers(0, 6))
    if (name, radius) not in _CENTRALISER_BALLS:
        _CENTRALISER_BALLS[name, radius] = cayley_ball(*CENTRALISER_GROUPS[name](), radius)
    ball = _CENTRALISER_BALLS[name, radius]
    g = ball.elements[data.draw(st.integers(0, ball.vertex_count - 1))]
    assert centraliser_in_ball(ball, g) == naive_centraliser(ball, g)


def test_centraliser_outside_ball(z_r8):
    with pytest.raises(ValueError):
        centraliser_in_ball(z_r8, 99)


def test_forbidden_serialization_round_trip(z4_r4):
    f = minimal_forbidden_factors(z4_r4, 3)
    lines = forbidden_set_lines(f)
    assert lines[0] == "forbidden e=3"
    again = parse_forbidden_file("\n".join(lines))
    assert again == f
    with pytest.raises(ValueError):
        parse_forbidden_file("aa\nbb\n")


def test_power_report_lines(z2z2_r16):
    report = power_language(z2z2_r16, ("a", "b"), 2)
    lines = power_report_lines(report)
    assert lines[0] == "powers of ab: n_max=2"
    assert lines[1] == "L_0: size=1 {λ}"
    assert any(line.startswith("stabilization:") for line in lines)


def test_automaton_dot_and_table():
    auto = build_factor_automaton([("a", "a"), ("b", "b")], ["a", "b"])
    table = auto.table_lines()
    assert table[0] == "automaton states=4 start=0 dead=3"
    assert len(table) == 1 + 4 * 2
    dot = auto.to_dot()
    assert dot.startswith("digraph")
    assert "shape=box" in dot
