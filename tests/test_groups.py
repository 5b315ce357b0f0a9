import gc
import math
import random

import pytest
from hypothesis import assume, example, find, given, settings, strategies as st

from geodetic import (
    BallBudgetError,
    CyclicSpec,
    GenSetError,
    GroupSpecError,
    PlainSpec,
    ProductSpec,
    TableSpec,
    cayley_ball,
    parse_group_file,
    validate_genset,
    word_to_element,
)
from geodetic.graphs import is_k_geodetic, min_geodetic_k
from geodetic.groups import BALL_BUDGET_ENV
from geodetic.zoo import (
    cyclic_odd_powers,
    free_group,
    infinite_cyclic,
    z2_star_z2,
    z_cross_z2,
)

from fixtures import cyclic_with_step, plain_group
from oracles import element, is_complete_bipartite, push_product, two_pass_ball, word_of_path


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def table_group(n):
    spec = TableSpec(cyclic_table(n))
    return spec, validate_genset(spec, [("g", 1), ("g'", n - 1)])


SPECS = [
    CyclicSpec(1),
    CyclicSpec(6),
    CyclicSpec(0),
    TableSpec(cyclic_table(5)),
    ProductSpec((CyclicSpec(0), CyclicSpec(2))),
    PlainSpec(free_rank=2),
    PlainSpec(free_rank=1, factor_orders=(3,)),
    PlainSpec(free_rank=0, factor_orders=(2, 2)),
]


def sample_elements(spec, rng, count=12):
    """Random elements built by multiplying random short generator strings."""
    if isinstance(spec, CyclicSpec):
        base = [1, spec.inverse(1)] if spec.n != 1 else [0]
    elif isinstance(spec, TableSpec):
        base = list(range(spec.size))
    elif isinstance(spec, ProductSpec):
        base = [(1, 0), (-1, 0), (0, 1)]
    else:
        base = []
        for f in range(spec.factor_count):
            base.append(((f, 1),))
            o = spec.factor_order(f)
            if o is None:
                base.append(((f, -1),))
    out = [spec.identity()]
    for _ in range(count):
        g = spec.identity()
        for _ in range(rng.randrange(0, 6)):
            g = spec.multiply(g, rng.choice(base))
        out.append(g)
    return out


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_group_axioms_on_samples(spec):
    rng = random.Random(7)
    elems = sample_elements(spec, rng)
    e = spec.identity()
    for a in elems:
        spec.check_element(a)
        assert spec.multiply(a, e) == a == spec.multiply(e, a)
        assert spec.multiply(a, spec.inverse(a)) == e
        assert spec.multiply(spec.inverse(a), a) == e
    for a in elems:
        for b in elems:
            # Z and Z_n have their own right actions, the table and product
            # groups the default ones; see also the plain-group oracle tests.
            assert spec.right_action(b)(a) == spec.multiply(a, b)
            assert spec.left_action(b)(a) == spec.multiply(b, a)
            for c in elems[:5]:
                assert spec.multiply(spec.multiply(a, b), c) == spec.multiply(
                    a, spec.multiply(b, c)
                )


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_format_is_injective_on_samples(spec):
    rng = random.Random(11)
    elems = set(sample_elements(spec, rng))
    texts = {spec.format_element(a) for a in elems}
    assert len(texts) == len(elems)
    assert all(isinstance(t, str) and t for t in texts)


def test_cyclic_basics():
    z6 = CyclicSpec(6)
    assert z6.order() == 6
    assert z6.element_order(2) == 3
    assert z6.element_order(0) == 1
    assert z6.inverse(5) == 1
    z = CyclicSpec(0)
    assert z.order() is None
    assert z.element_order(4) is None
    assert z.element_order(0) == 1
    assert z.parse_element("pow -3") == -3
    with pytest.raises(GroupSpecError):
        z6.check_element(7)
    with pytest.raises(GroupSpecError):
        CyclicSpec(-1)


def test_table_spec():
    t = TableSpec(cyclic_table(4))
    assert t.order() == 4
    assert t.element_order(1) == 4
    assert t.element_order(2) == 2
    assert t.inverse(3) == 1
    assert t.parse_element("idx 2") == 2
    with pytest.raises(GroupSpecError):
        TableSpec([[0, 1], [1, 1]])  # 1 has no inverse
    with pytest.raises(GroupSpecError):
        TableSpec([[1, 0], [0, 0]])  # no identity row/column pair
    with pytest.raises(GroupSpecError):
        TableSpec([[0, 1, 2], [1, 2, 0], [2, 1, 0]])  # not associative
    with pytest.raises(GroupSpecError):
        TableSpec([[0, 1]])


def dihedral_table(n):
    """D_n of order 2n; index i + n·j stands for r^i s^j."""
    def mul(x, y):
        i, a = x % n, x // n
        k, b = y % n, y // n
        return (i + (-k if a else k)) % n + n * ((a + b) % 2)

    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]


def twisted_table(n):
    """Z_n x Z_2 (index i + n·j), except that two elements with j = 1 whose
    residues sum to 1 multiply to one residue further.  Identity and
    inverses survive, and Light's test passes for the generator 1; only the
    second generator, n, exposes the failure."""
    def mul(x, y):
        i, a = x % n, x // n
        k, b = y % n, y // n
        twist = 1 if a and b and (i + k) % n == 1 else 0
        return (i + k + twist) % n + n * ((a + b) % 2)

    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]


def test_table_spec_associativity_is_exhaustive():
    assert TableSpec(cyclic_table(101)).order() == 101
    assert TableSpec(dihedral_table(35)).order() == 70
    broken = cyclic_table(101)
    broken[3][1], broken[3][2] = broken[3][2], broken[3][1]
    with pytest.raises(GroupSpecError, match="associativity fails"):
        TableSpec(broken)
    with pytest.raises(GroupSpecError, match=r"associativity fails at \(1, 35, 35\)"):
        TableSpec(twisted_table(35))


def test_product_spec():
    p = ProductSpec((CyclicSpec(0), CyclicSpec(2)))
    assert p.identity() == (0, 0)
    assert p.order() is None
    assert p.element_order((0, 1)) == 2
    assert p.element_order((3, 0)) is None
    assert p.element_order((0, 0)) == 1
    assert ProductSpec((CyclicSpec(2), CyclicSpec(3))).order() == 6
    assert p.parse_element("pow 2, pow 1") == (2, 1)
    with pytest.raises(GroupSpecError):
        p.check_element((1,))


def test_plain_spec_normal_forms():
    f2 = PlainSpec(free_rank=2)
    a, b = ((0, 1),), ((1, 1),)
    ai = f2.inverse(a)
    assert f2.multiply(a, ai) == ()
    assert f2.multiply(a, a) == ((0, 2),)
    ab = f2.multiply(a, b)
    assert ab == ((0, 1), (1, 1))
    assert f2.inverse(ab) == ((1, -1), (0, -1))
    zz = PlainSpec(free_rank=0, factor_orders=(2, 2))
    x, y = ((0, 1),), ((1, 1),)
    xy = zz.multiply(x, y)
    assert zz.multiply(x, x) == ()
    # ab.ba telescopes to nothing; ab.ab alternates without cancelling
    assert zz.multiply(xy, zz.multiply(y, x)) == ()
    assert zz.multiply(xy, xy) == ((0, 1), (1, 1), (0, 1), (1, 1))


def test_plain_element_order():
    zz = PlainSpec(free_rank=0, factor_orders=(2, 2))
    assert zz.element_order(((0, 1),)) == 2
    assert zz.element_order(((0, 1), (1, 1))) is None
    assert zz.element_order(()) == 1
    f1z3 = PlainSpec(free_rank=1, factor_orders=(3,))
    # conjugate of a finite-factor element keeps its order
    w = f1z3.parse_element("word a b a^-1")
    assert f1z3.element_order(w) == 3
    assert f1z3.element_order(f1z3.parse_element("word a b")) is None
    assert f1z3.element_order(((0, 5),)) is None


def test_plain_check_element_rejects_junk():
    f2 = PlainSpec(free_rank=2)
    for bad in [((0, 0),), ((0, 1), (0, 2)), ((5, 1),), "ab", ((0, 1, 2),)]:
        with pytest.raises(GroupSpecError):
            f2.check_element(bad)
    z4 = PlainSpec(free_rank=0, factor_orders=(4,))
    with pytest.raises(GroupSpecError):
        z4.check_element(((0, 4),))


def test_plain_format_and_parse():
    f1z3 = PlainSpec(free_rank=1, factor_orders=(3,))
    w = f1z3.parse_element("word a^2 b a^-1")
    assert f1z3.format_element(w) == "a^2 b a^-1"
    assert f1z3.format_element(()) == "1"
    assert f1z3.parse_element("word a a^-1") == ()
    with pytest.raises(GroupSpecError):
        f1z3.parse_element("word q")
    with pytest.raises(GroupSpecError):
        f1z3.parse_element("a b")


def test_power():
    z = CyclicSpec(0)
    assert z.power(1, 5) == 5
    assert z.power(1, -3) == -3
    assert z.power(1, 0) == 0


def test_validate_genset_errors():
    z6 = CyclicSpec(6)
    with pytest.raises(GenSetError):
        validate_genset(z6, [])
    with pytest.raises(GenSetError):
        validate_genset(z6, [("a", 1), ("a", 5)])
    with pytest.raises(GenSetError):
        validate_genset(z6, [("a", 0), ("b", 3)])
    with pytest.raises(GenSetError):
        validate_genset(z6, [("a", 1)])  # missing the inverse 5
    with pytest.raises(GenSetError):
        validate_genset(z6, [("a", 1), ("b", 1)])
    gens = validate_genset(z6, [("a", 1), ("a'", 5)])
    assert gens.inverse_label == {"a": "a'", "a'": "a"}
    assert element(gens, "a'") == 5


def test_cayley_ball_example_structure():
    spec, gens = cyclic_odd_powers(3)
    ball = cayley_ball(spec, gens, 2)
    assert ball.complete
    assert ball.vertex_count == 6
    assert is_complete_bipartite(ball.graph) == (3, 3)
    assert ball.norms == [0, 1, 1, 1, 2, 2]
    assert ball.norms[ball.vertex_of(4)] == 2


def test_ball_norms_match_graph_distances():
    spec, gens = free_group(2)
    ball = cayley_ball(spec, gens, 4)
    assert ball.vertex_count == 161
    for v in range(ball.vertex_count):
        assert ball.norms[v] == ball.graph.dist(0, v)
    assert not ball.complete


def test_trusted_pairs():
    spec, gens = free_group(2)
    ball = cayley_ball(spec, gens, 4)
    near = [v for v in range(ball.vertex_count) if ball.norms[v] <= 2]
    far = [v for v in range(ball.vertex_count) if ball.norms[v] == 4]
    assert ball.is_trusted_pair(near[0], near[-1])
    assert not ball.is_trusted_pair(far[0], far[1])
    spec6, gens6 = cyclic_odd_powers(2)
    complete = cayley_ball(spec6, gens6, 2)
    assert complete.is_trusted_pair(1, 3)


def product_group(*orders):
    """Direct product of cyclic factors with a unit generator (and its inverse) per factor."""
    spec = ProductSpec(tuple(CyclicSpec(n) for n in orders))
    pairs = []
    for i, n in enumerate(orders):
        unit = tuple(1 if j == i else 0 for j in range(len(orders)))
        pairs.append((f"x{i}", unit))
        if n != 2:
            pairs.append((f"x{i}'", spec.inverse(unit)))
    return spec, validate_genset(spec, pairs)


# (group, largest radius) for the identity-BFS path: radii run to 6.  Z*Z2*Z3
# is left out: at radius 6 its 4,398 vertices are past the n <= 4,096 guard
# of the bit-parallel pass, and the all-pairs oracle would take seconds.
# The finite groups become complete balls (the whole, vertex-transitive
# Cayley graph) at small radii.
K_GROUPS = [
    (infinite_cyclic, 6),
    (lambda: free_group(2), 6),
    (z2_star_z2, 6),
    (lambda: plain_group(0, (2, 2, 2)), 6),
    (lambda: plain_group(1, (2, 3)), 4),
    (z_cross_z2, 6),
    (lambda: product_group(0, 0), 6),
    (lambda: product_group(0, 3), 6),
    (lambda: product_group(3, 4), 6),
    (lambda: product_group(2, 2, 2), 6),
    (lambda: table_group(5), 6),
    (lambda: cyclic_odd_powers(1), 6),
    (lambda: cyclic_odd_powers(3), 6),
    (lambda: cyclic_odd_powers(4), 6),
    (lambda: cyclic_with_step(7), 6),
    (lambda: cyclic_with_step(8, 3), 6),
    (lambda: cyclic_with_step(12, 5), 6),
]
K_BALLS = st.sampled_from(K_GROUPS).flatmap(
    lambda entry: st.integers(0, entry[1]).map(lambda radius: (*entry[0](), radius))
)


def test_ball_min_k_known_values():
    assert cayley_ball(*free_group(2), 0).min_geodetic_k() == (1, (0, 0))
    assert cayley_ball(*free_group(2), 0).is_k_geodetic(1) == (True, None)
    # K_{4,4}: 4 geodesics between the identity and the first even residue.
    ball = cayley_ball(*cyclic_odd_powers(4), 2)
    k, (u, v) = ball.min_geodetic_k()
    assert (k, u, ball.elements[v]) == (4, 0, 2)
    assert ball.is_k_geodetic(3) == (False, (u, v))
    # The 3-cube Z2^3: 3! geodesics to the antipode.
    ball = cayley_ball(*product_group(2, 2, 2), 3)
    assert ball.complete
    k, (u, v) = ball.min_geodetic_k()
    assert (k, u, ball.elements[v]) == (6, 0, (1, 1, 1))
    assert ball.is_k_geodetic(1)[1] == (0, ball.vertex_of((1, 1, 0)))


def test_ball_budget():
    spec, gens = free_group(2)
    with pytest.raises(BallBudgetError):
        cayley_ball(spec, gens, 6, budget=100)


def test_ball_budget_env(monkeypatch):
    spec, gens = free_group(2)
    monkeypatch.setenv(BALL_BUDGET_ENV, "50")
    with pytest.raises(BallBudgetError):
        cayley_ball(spec, gens, 4)
    monkeypatch.setenv(BALL_BUDGET_ENV, "100000")
    assert cayley_ball(spec, gens, 4).vertex_count == 161


def test_completeness_via_empty_layer():
    spec, gens = z2_star_z2()
    ball = cayley_ball(spec, gens, 3)
    assert not ball.complete
    z2 = cyclic_with_step(2)
    ball2 = cayley_ball(z2[0], z2[1], 5)
    assert ball2.complete and ball2.vertex_count == 2


def file_group(text):
    gf = parse_group_file(text)
    return gf.spec, gf.genset


# Two-syllable generators x = ab and X = x^-1 take the general multiply path.
TWO_SYLLABLES = file_group(
    "group plain Z=2\ngen x word a b\ngen X word b^-1 a^-1\ngen b word b\ngen B word b^-1\n"
)
BALL_CASES = [
    (free_group(2), 0, None),
    (free_group(2), 1, None),
    (free_group(2), 4, None),
    (free_group(2), 4, 100),
    (z2_star_z2(), 7, None),
    (plain_group(0, (2, 3)), 9, None),
    (plain_group(1, (3,)), 4, None),
    (infinite_cyclic(), 0, None),
    (infinite_cyclic(), 30, None),
    (z_cross_z2(), 5, None),
    (cyclic_odd_powers(3), 5, None),
    (cyclic_odd_powers(3), 5, 5),
    (cyclic_with_step(7), 0, None),
    (cyclic_with_step(7), 2, None),
    (cyclic_with_step(7), 3, None),
    (cyclic_with_step(2), 4, None),
    (table_group(5), 3, None),
    (TWO_SYLLABLES, 4, None),
    # C5 at radius 2: the elements 2 and 3 of the last layer are adjacent.
    (cyclic_with_step(5), 2, None),
    # Z x Z at radius 3 has 25 vertices: the budget fits exactly, or the last
    # vertex raises.
    (product_group(0, 0), 3, 25),
    (product_group(0, 0), 3, 24),
    # The budget runs out in an inner sphere or in the last one, with the
    # last sphere filled from known steps (F2: 17, 53 and 161 vertices at
    # radii 2 to 4, so 20 fails at radius 3 and 100 at radius 4) or looked
    # up (Z2*Z3: 34, 50, 106 and 154 at radii 5, 6, 8 and 9, so 40 fails at
    # radius 6 and 120 at radius 9).
    (free_group(2), 4, 20),
    (plain_group(0, (2, 3)), 9, 40),
    (plain_group(0, (2, 3)), 9, 120),
]


def recorded_ball(spec, gens, radius, budget=10**6):
    """cayley_ball, and the element of every right action it ran, in order."""
    acted = []
    right_action = spec.right_action

    def recording(s):
        act = right_action(s)
        return lambda a: acted.append(a) or act(a)

    spec.right_action = recording
    try:
        return cayley_ball(spec, gens, radius, budget=budget), acted
    finally:
        del spec.right_action


def expected_right_actions(ball):
    """The exact right-action count of the closure; u·s = v also fills v·s^-1 = u.

    On an all-odd genset it is one per edge with an end below the last
    sphere: |S| per vertex below it, less the edges among those vertices.
    Elsewhere every vertex acts, so n·|S| less one per edge.
    """
    n, radius, size = ball.vertex_count, ball.radius, len(ball.genset)
    if not all(ball.spec.parity(s) for s in ball.genset.elements):
        return n * size - ball.edge_count
    inner = sum(1 for x in ball.norms if x < radius)
    inner_edges = sum(1 for _, v in ball.edges() if ball.norms[v] < radius)
    return size * inner - inner_edges


@pytest.mark.parametrize("group, radius, budget", BALL_CASES)
def test_cayley_ball_matches_two_pass_oracle(group, radius, budget):
    spec, gens = group
    budget = 10**6 if budget is None else budget
    try:
        want = two_pass_ball(spec, gens, radius, budget)
    except BallBudgetError as exc:
        with pytest.raises(BallBudgetError) as got:
            cayley_ball(spec, gens, radius, budget=budget)
        assert str(got.value) == str(exc)
        return
    elements, norms, complete, graph, edge_labels = want
    ball, acted = recorded_ball(spec, gens, radius, budget)
    assert len(acted) == expected_right_actions(ball)
    if all(spec.parity(s) for s in gens.elements):
        # The oracle's graph is bipartite by norm: no edge within a sphere.
        assert all(norms[u] != norms[v] for u, v in graph.edges())
    assert ball.elements == elements
    assert ball.norms == norms
    assert ball.complete == complete
    assert ball.edge_count == graph.edge_count  # from steps, before the graph is built
    assert ball.graph.adj == graph.adj
    assert ball.edge_count == ball.graph.edge_count
    for (u, v), label in edge_labels.items():
        assert word_of_path(ball, (u, v)) == (label,)


def test_cayley_ball_runs_under_the_callers_collector_setting():
    """The library closure never touches the collector: its right actions run
    with it on or off as the caller set it, and a return or a budget error
    leaves it that way."""
    spec, gens = free_group(2)
    seen = []
    right_action = spec.right_action

    def recording(s):
        act = right_action(s)
        return lambda a: seen.append(gc.isenabled()) or act(a)

    spec.right_action = recording
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            seen.clear()
            assert cayley_ball(spec, gens, 3).vertex_count == 53
            assert seen and set(seen) == {enabled} and gc.isenabled() == enabled
            seen.clear()
            with pytest.raises(BallBudgetError):
                cayley_ball(spec, gens, 4, budget=100)
            assert seen and set(seen) == {enabled} and gc.isenabled() == enabled
    finally:
        gc.enable()
        del spec.right_action


def test_word_of_path_and_word_to_element():
    spec, gens = free_group(2)
    ball = cayley_ball(spec, gens, 3)
    target = spec.parse_element("word a b^-1")
    v = ball.vertex_of(target)
    from geodetic import enumerate_geodesics

    paths, _ = enumerate_geodesics(ball.graph, 0, v)
    for p in paths:
        w = word_of_path(ball, p.vertices)
        assert word_to_element(spec, gens, w) == target
    with pytest.raises(ValueError):
        word_of_path(ball, (0, ball.vertex_count - 1))


def test_vertex_of_outside_ball():
    spec, gens = infinite_cyclic()
    ball = cayley_ball(spec, gens, 3)
    with pytest.raises(ValueError):
        ball.vertex_of(9)


def test_parse_group_file_variants():
    gf = parse_group_file(
        "# sample\ngroup cyclic 6\ngen a pow 1\ngen a' pow 5\nball R=3\n"
    )
    assert isinstance(gf.spec, CyclicSpec) and gf.spec.n == 6
    assert gf.default_radius == 3
    assert gf.genset.labels == ("a", "a'")

    gf = parse_group_file(
        "group table 3\n0 1 2\n1 2 0\n2 0 1\ngen g idx 1\ngen g' idx 2\n"
    )
    assert isinstance(gf.spec, TableSpec)
    assert element(gf.genset, "g") == 1

    gf = parse_group_file(
        "group product cyclic 0 cyclic 2\ngen a pow 1, pow 0\ngen a' pow -1, pow 0\ngen f pow 0, pow 1\n"
    )
    assert element(gf.genset, "f") == (0, 1)

    gf = parse_group_file(
        "group plain Z=1 factors=3\ngen a word a\ngen a' word a^-1\ngen b word b\ngen b' word b^2\n"
    )
    assert isinstance(gf.spec, PlainSpec)
    assert gf.spec.factor_orders == (3,)


def test_parse_group_file_errors():
    with pytest.raises(GroupSpecError):
        parse_group_file("gen a pow 1\n")
    with pytest.raises(GroupSpecError):
        parse_group_file("group cyclic 6\ngroup cyclic 4\n")
    with pytest.raises(GroupSpecError):
        parse_group_file("group sporadic 1\ngen a pow 1\n")
    with pytest.raises(GenSetError):
        parse_group_file("group cyclic 6\nball R=2\n")  # no generators
    with pytest.raises(GroupSpecError):
        parse_group_file("group product plain Z=1 cyclic 2\ngen a word a\n")
    with pytest.raises(GroupSpecError):
        parse_group_file("group cyclic 6\nnonsense line\n")


def test_zoo_group_constructors():
    for spec, gens in [
        free_group(2),
        z2_star_z2(),
        plain_group(1, (4,)),
        infinite_cyclic(),
        z_cross_z2(),
        cyclic_odd_powers(5),
    ]:
        labels = set(gens.labels)
        for label in labels:
            assert gens.inverse_label[label] in labels
            inv = spec.inverse(element(gens, label))
            assert element(gens, gens.inverse_label[label]) == inv


# Free and finite factors side by side; names a, b, c, ... by factor index.
PLAIN_SPECS = [
    PlainSpec(free_rank=2),
    PlainSpec(free_rank=0, factor_orders=(2, 2)),
    PlainSpec(free_rank=0, factor_orders=(2, 3)),
    PlainSpec(free_rank=1, factor_orders=(2, 4, 5)),
]


@st.composite
def plain_products(draw):
    """(spec, a, b): a reduced, b raw syllables that may cancel a away entirely."""
    spec = draw(st.sampled_from(PLAIN_SPECS))
    syllables = st.lists(
        st.tuples(st.integers(0, spec.factor_count - 1), st.integers(-7, 7)), max_size=8
    )
    a = push_product(spec, (), draw(syllables))
    tail = draw(syllables)
    # One syllable, as a generator: the closure of right_action.
    factor = a[-1][0] if a and draw(st.booleans()) else draw(st.integers(0, spec.factor_count - 1))
    b = draw(st.sampled_from([
        ((factor, draw(st.integers(-7, 7))),),
        tail,
        spec.inverse(a),
        tuple(spec.inverse(a)) + tuple(tail),
        tuple(spec.inverse(a[len(a) // 2 :])) + tuple(tail),
    ]))
    return spec, a, tuple(b)


@given(plain_products())
@settings(max_examples=300, deadline=None)
def test_plain_multiply_matches_push_oracle(case):
    spec, a, b = case
    got = spec.multiply(a, b)
    assert got == push_product(spec, a, b)
    spec.check_element(got)
    if b == spec.inverse(a):
        assert got == ()
    if len(b) == 1:
        assert spec.right_action(b)(a) == got


@st.composite
def plain_junctions(draw):
    """(spec, a, s, raw): a and s reduced, raw one unreduced syllable.

    s is drawn apart from a, is a's inverse, cancels the tail a[cut:] of a
    from the right or its head a[:cut] from the left, or is one syllable
    from the factor at an end of a, which merges with it."""
    spec = draw(st.sampled_from(PLAIN_SPECS))
    syllables = st.lists(
        st.tuples(st.integers(0, spec.factor_count - 1), st.integers(-7, 7)), max_size=8
    )
    a = push_product(spec, (), draw(syllables))
    tail = push_product(spec, (), draw(syllables))
    cut = draw(st.integers(0, len(a)))
    end = draw(st.sampled_from([a[0], a[-1]])) if a else (0, 1)
    s = draw(st.sampled_from([
        tail,
        spec.inverse(a),
        push_product(spec, spec.inverse(a[cut:]), tail),
        push_product(spec, tail, spec.inverse(a[:cut])),
        push_product(spec, (), ((end[0], draw(st.integers(-7, 7))),)),
    ]))
    factor = end[0] if draw(st.booleans()) else draw(st.integers(0, spec.factor_count - 1))
    return spec, a, s, ((factor, draw(st.integers(-9, 9))),)


@given(plain_junctions())
@settings(max_examples=300, deadline=None)
def test_plain_junction_actions_match_push_oracle(case):
    spec, a, s, raw = case
    assert spec.left_action(s)(a) == push_product(spec, s, a)
    assert spec.right_action(s)(a) == push_product(spec, a, s)
    assert spec.right_action(raw)(a) == push_product(spec, a, raw)
    if s == spec.inverse(a):
        assert spec.left_action(s)(a) == () == spec.right_action(s)(a)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_plain_parse_element_matches_push_oracle(data):
    spec = data.draw(st.sampled_from(PLAIN_SPECS))
    raw = data.draw(st.lists(
        st.tuples(st.integers(0, spec.factor_count - 1), st.integers(-7, 7)), max_size=10
    ))
    tokens = [spec.factor_name(f) + ("" if e == 1 else f"^{e}") for f, e in raw]
    assert spec.parse_element(" ".join(["word", *tokens])) == push_product(spec, (), raw)


# Groups and the radius R of the larger ball; the finite cyclic groups are
# complete from radius 3 (Z_7) and 2 (K_{3,3}) on.
PREFIX_GROUPS = [
    (lambda: free_group(2), 5),
    (z2_star_z2, 7),
    (lambda: plain_group(0, (2, 3)), 8),
    (lambda: plain_group(1, (2, 3)), 4),
    (z_cross_z2, 6),
    (lambda: product_group(0, 0), 6),
    (infinite_cyclic, 6),
    (lambda: cyclic_with_step(7), 6),
    (lambda: cyclic_odd_powers(3), 4),
    (lambda: table_group(5), 5),
]


@pytest.mark.parametrize("group, big_radius", PREFIX_GROUPS)
def test_smaller_ball_is_a_prefix_of_the_larger(group, big_radius):
    spec, gens = group()
    big = cayley_ball(spec, gens, big_radius)
    for r in range(big_radius):
        small = cayley_ball(spec, gens, r)
        n = small.vertex_count
        assert n == sum(1 for x in big.norms if x <= r)
        assert small.elements == big.elements[:n]
        assert small.norms == big.norms[:n]
        assert small.index == {g: v for g, v in big.index.items() if v < n}
        inner = [u for u in range(n) if small.norms[u] < r]
        for small_row, big_row in zip(small.steps, big.steps):
            assert [small_row[u] for u in inner] == [big_row[u] for u in inner]
        if small.complete and spec.order() == n:
            assert small.steps == big.steps


def elements_of(spec, syllables=6):
    """Strategy for elements of spec; plain ones have up to `syllables` raw syllables."""
    if isinstance(spec, CyclicSpec):
        return st.integers(-9, 9).map(lambda k: k % spec.n if spec.n else k)
    if isinstance(spec, TableSpec):
        return st.integers(0, spec.size - 1)
    if isinstance(spec, ProductSpec):
        return st.tuples(*(elements_of(f, syllables) for f in spec.factors))
    raw = st.lists(
        st.tuples(st.integers(0, spec.factor_count - 1), st.integers(-3, 3)), max_size=syllables
    )
    return raw.map(lambda r: push_product(spec, (), r))


# Plain, cyclic (infinite, odd and even order), product and table groups.
PARITY_SPECS = [
    *PLAIN_SPECS,
    CyclicSpec(0),
    CyclicSpec(7),
    CyclicSpec(8),
    ProductSpec((CyclicSpec(0), CyclicSpec(2))),
    ProductSpec((CyclicSpec(4), CyclicSpec(3), CyclicSpec(0))),
    TableSpec(dihedral_table(4)),
]


@given(st.sampled_from(PARITY_SPECS).flatmap(
    lambda spec: st.tuples(st.just(spec), elements_of(spec), elements_of(spec))
))
@settings(max_examples=300, deadline=None)
def test_parity_is_a_homomorphism_onto_z2(case):
    spec, a, b = case
    assert spec.parity(spec.identity()) == 0
    assert spec.parity(a) in (0, 1)
    assert spec.parity(spec.multiply(a, b)) == (spec.parity(a) + spec.parity(b)) % 2
    assert spec.parity(spec.inverse(a)) == spec.parity(a)


def test_parity_known_values():
    assert [CyclicSpec(0).parity(k) for k in (-3, 0, 4)] == [1, 0, 0]
    assert CyclicSpec(8).parity(5) == 1 and CyclicSpec(7).parity(5) == 0
    # a^-1 b c^2 d^3 a^2 over Z * Z2 * Z3 * Z4: the exponents of a, b and d
    # sum to 5, and c, of odd order, does not count.
    spec = PlainSpec(free_rank=1, factor_orders=(2, 3, 4))
    assert spec.parity(((0, -1), (1, 1), (2, 2), (3, 3), (0, 2))) == 1
    assert ProductSpec((CyclicSpec(0), CyclicSpec(2))).parity((3, 1)) == 0
    assert TableSpec(cyclic_table(4)).parity(1) == 0


BALL_SPECS = [
    *PLAIN_SPECS,
    PlainSpec(free_rank=1),
    CyclicSpec(0),
    CyclicSpec(2),
    CyclicSpec(7),
    CyclicSpec(8),
    ProductSpec((CyclicSpec(0), CyclicSpec(2))),
    ProductSpec((CyclicSpec(0), CyclicSpec(0))),
    ProductSpec((CyclicSpec(4), CyclicSpec(3))),
    TableSpec(cyclic_table(6)),
]
RANDOM_BALL_BUDGET = 2000


@st.composite
def random_balls(draw):
    """(spec, genset, radius): an inverse-closed genset of 1 to 3 random
    elements and their inverses, in a random order; plain generators have
    up to two syllables."""
    spec = draw(st.sampled_from(BALL_SPECS))
    picked = draw(st.lists(elements_of(spec, syllables=2), min_size=1, max_size=3))
    gens = {g for g in picked if g != spec.identity()}
    gens |= {spec.inverse(g) for g in gens}
    assume(gens)
    order = draw(st.permutations(sorted(gens, key=repr)))
    genset = validate_genset(spec, [(f"s{i}", g) for i, g in enumerate(order)])
    return spec, genset, draw(st.integers(0, 7))


def rim_path(case):
    """None when the ball has no last sphere (or is over budget), else
    whether the closure fills that sphere from known steps."""
    spec, gens, radius = case
    try:
        ball = cayley_ball(spec, gens, radius, budget=RANDOM_BALL_BUDGET)
    except BallBudgetError:
        return None
    if max(ball.norms) < radius:
        return None
    return all(spec.parity(s) for s in gens.elements)


@given(random_balls())
@example((*TWO_SYLLABLES, 5))
@example((*free_group(2), 5))
@settings(max_examples=150, deadline=None)
def test_cayley_ball_matches_two_pass_oracle_on_random_gensets(case):
    spec, gens, radius = case
    try:
        want = two_pass_ball(spec, gens, radius, RANDOM_BALL_BUDGET)
    except BallBudgetError as exc:
        with pytest.raises(BallBudgetError) as got:
            cayley_ball(spec, gens, radius, budget=RANDOM_BALL_BUDGET)
        assert str(got.value) == str(exc)
        return
    elements, norms, complete, _, edge_labels = want
    ball, acted = recorded_ball(spec, gens, radius, RANDOM_BALL_BUDGET)
    assert ball.elements == elements
    assert ball.index == {g: v for v, g in enumerate(elements)}
    assert ball.norms == norms
    assert ball.complete == complete
    steps = [[-1] * len(elements) for _ in gens.labels]
    for (u, v), label in edge_labels.items():
        steps[gens.labels.index(label)][u] = v
    assert ball.steps == steps
    assert len(acted) == expected_right_actions(ball)


# The witness and the violator are the first pairs in (dist, u, v) order, so
# they depend on the vertex numbering: random gensets, two-syllable
# generators and shuffled labels renumber the ball.
@given(st.one_of(K_BALLS, random_balls()))
@example((*TWO_SYLLABLES, 5))
@settings(max_examples=150, deadline=None)
def test_ball_min_k_matches_all_pairs_oracle(case):
    spec, gens, radius = case
    try:
        ball = cayley_ball(spec, gens, radius, budget=RANDOM_BALL_BUDGET)
    except BallBudgetError:
        return
    fast = ball.min_geodetic_k()
    assert ball._graph is None  # counted over steps, with no graph built
    k = fast[0]
    assert fast == min_geodetic_k(ball.graph, ball.is_trusted_pair)
    for j in sorted({1, k - 1, k} - {0}):
        assert ball.is_k_geodetic(j) == is_k_geodetic(ball.graph, j, ball.is_trusted_pair)
    with pytest.raises(ValueError):
        ball.is_k_geodetic(0)


@pytest.mark.parametrize("filled", [True, False])
def test_random_gensets_take_both_rim_paths(filled):
    """random_balls draws balls whose last sphere is filled from known steps,
    and balls whose last sphere runs right actions."""
    found = find(
        random_balls(),
        lambda case: rim_path(case) is filled,
        settings=settings(database=None, max_examples=500),
    )
    assert rim_path(found) is filled


@pytest.mark.parametrize("group, radius, rim_acts", [
    (lambda: free_group(2), 4, False),
    (lambda: cyclic_with_step(5), 2, True),
    (lambda: plain_group(0, (2, 3)), 6, True),
])
def test_last_sphere_runs_right_actions_only_off_all_odd_gensets(group, radius, rim_acts):
    spec, gens = group()
    ball, acted = recorded_ball(spec, gens, radius)
    assert max(ball.norms) == radius
    assert any(ball.norms[ball.index[a]] == radius for a in acted) == rim_acts
