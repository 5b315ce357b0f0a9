import pytest
from hypothesis import given, strategies as st

from geodetic import (
    WordEquationError,
    commuting_common_root,
    format_word,
    parse_word,
    primitive_root,
    solve_zx_eq_yz,
)

from oracles import brute_primitive_root

ab_words = st.lists(st.sampled_from("ab"), min_size=0, max_size=12).map(tuple)


def test_parse_and_format():
    assert parse_word("") == ()
    assert parse_word("λ") == ()
    assert parse_word("ab'a") == ("a", "b'", "a")
    assert format_word(()) == "λ"
    assert format_word(("a", "b'", "a")) == "ab'a"


def test_parse_rejects_whitespace_inside_a_word():
    assert parse_word(" ab\n") == ("a", "b")
    for text, position in (("a a", 1), ("ab'\tb", 3)):
        with pytest.raises(ValueError, match=f"whitespace at position {position} in"):
            parse_word(text)


def test_parse_with_alphabet_longest_match():
    letters = {"a1", "a3", "a13"}
    assert parse_word("a13a1", letters) == ("a13", "a1")
    with pytest.raises(ValueError):
        parse_word("a2", letters)


@given(st.lists(st.sampled_from("ab"), min_size=1, max_size=12).map(tuple))
def test_primitive_root_matches_divisor_scan(w):
    assert primitive_root(w) == brute_primitive_root(w)


def test_primitive_root_knowns():
    assert primitive_root(("a", "b", "a", "b")) == (("a", "b"), 2)
    assert primitive_root(("a",) * 5) == (("a",), 5)
    assert primitive_root(("a", "b", "a")) == (("a", "b", "a"), 1)
    with pytest.raises(ValueError):
        primitive_root(())


@given(ab_words, ab_words, st.integers(0, 4))
def test_solve_round_trip(s, t, q):
    x = s + t
    if not x:
        return
    y = t + s
    z = (t + s) * q + t
    sol = solve_zx_eq_yz(x, y, z)
    assert sol.x == x and sol.y == y and sol.z == z
    assert z + x == y + z


def test_solve_canonical_witness():
    sol = solve_zx_eq_yz(("a", "b"), ("b", "a"), ("b", "a", "b", "a", "b"))
    assert sol.q == 2 and sol.t == ("b",) and sol.s == ("a",)


def test_solve_rejects_non_solutions():
    with pytest.raises(WordEquationError):
        solve_zx_eq_yz(("a", "b"), ("a", "b"), ("a",))
    with pytest.raises(ValueError):
        solve_zx_eq_yz((), ("a",), ("a",))


def test_commuting_common_root():
    assert commuting_common_root(("a", "b", "a", "b"), ("a", "b")) == ("a", "b")
    assert commuting_common_root(("a", "a"), ("a", "a", "a")) == ("a",)
    with pytest.raises(WordEquationError):
        commuting_common_root(("a", "b"), ("b", "a"))
    with pytest.raises(ValueError):
        commuting_common_root((), ("a",))


@given(ab_words, st.integers(1, 3), st.integers(1, 3))
def test_common_root_on_generated_powers(u, i, j):
    if not u:
        return
    x, y = u * i, u * j
    root = commuting_common_root(x, y)
    assert x == root * (len(x) // len(root))
    assert y == root * (len(y) // len(root))

