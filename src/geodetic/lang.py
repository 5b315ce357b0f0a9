"""Geodesic languages of Cayley balls.

A word over the generator labels is geodesic when its length equals the
norm of the element it evaluates to.  This module extracts the minimal
forbidden factors of that language up to a length bound, compiles them into
a factor-excluding automaton, tracks how the geodesic sets of powers g^n
stabilize, and scans ball centralisers.

Everything here only trusts the ball as far as it is exact: any word of
length <= R evaluates inside the radius-R ball, and all geodesics from the
identity to a ball member stay inside, so no query silently leaves the
trusted region.  Words are read by walking CayleyBall.steps from vertex
to vertex; every step starts at a vertex of norm < R, so no walk meets a
-1.  The forbidden-factor and local-exclusion walks visit states (a vertex
with its first letter or automaton state), not words.  Only power_language
and centraliser_in_ball multiply elements: power_language once per power,
centraliser_in_ball through the left and right actions of g
(GroupSpec.left_action and right_action), which on a plain group are
junction products that touch only the syllables of g and h that meet.
Nothing here reads CayleyBall.graph, so the language commands build no
graph and run no BFS.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from operator import eq
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .groups import CayleyBall, Element, word_to_element
from .words import EMPTY_WORD, Word, format_word, parse_word


class BallRangeError(ValueError):
    """The query needs more of the group than the ball holds."""


class FiniteOrderError(ValueError):
    """Power-language analysis needs an infinite-order base element."""


class ForbiddenSet(NamedTuple):
    """Minimal non-geodesic factors up to length e.

    Every member is non-geodesic while all its proper factors are geodesic;
    any non-geodesic word of length <= the check bound contains one of them.
    """

    e: int
    words: frozenset[Word]

    def sorted_words(self) -> list[Word]:
        return sorted(self.words, key=lambda w: (len(w), w))


def check_factor_length(e: int, radius: int) -> None:
    """Reject a factor-length bound e that the radius-R ball cannot decide."""
    if e < 1:
        raise ValueError("e must be at least 1")
    if e > radius:
        raise BallRangeError(f"e={e} exceeds the ball radius {radius}")


def minimal_forbidden_factors(ball: CayleyBall, e: int) -> ForbiddenSet:
    """All minimal non-geodesic words of length <= e.

    A word is minimal when it is non-geodesic and both maximal proper
    factors are geodesic (factors of geodesics are geodesic, so this covers
    every proper factor).  The walk visits states, not words: a geodesic
    word w with first letter a is the vertex u of w and the vertex t of
    w[1:] = a⁻¹u, since whether w·s is geodesic or minimal forbidden depends
    only on (u, t, s), and the words of the state are the a·w' over the
    geodesic words w' of t.  Only forbidden triples (a, t, s) become words.
    The walk steps only from vertices of norm < e and compares norms <= e,
    so the answer depends only on the radius-e ball, as on any larger one.
    """
    check_factor_length(e, ball.radius)
    norms = ball.norms
    moves = sorted(zip(ball.genset.labels, ball.steps))
    words_of = _geodesic_words(ball)
    words: list[Word] = []  # grouped by first letter, then by length
    for first, row in moves:
        # {vertex u of w: vertex of w[1:]}; every generator has norm 1.
        layer = {row[0]: 0}
        for length in range(2, e + 1):
            new_layer = {}
            for u, t in layer.items():
                ends = []
                for letter, step in moves:
                    v = step[u]
                    if norms[v] == length:
                        new_layer[v] = step[t]
                    elif norms[step[t]] == length - 1:
                        ends.append(letter)
                if ends:  # this state's forbidden triples (first, t, s): words first·w'·s
                    heads = [(first,) + w for w in words_of(t)]
                    words.extend([head + (s,) for head in heads for s in ends])
            layer = new_layer
    return ForbiddenSet(e, frozenset(words))


class FactorAutomaton:
    """Complete DFA accepting exactly the words with no factor in F.

    States are the proper prefixes of F-members (the live states, Aho
    Corasick trie nodes with failure links folded in) plus one absorbing
    dead state; accepting = every live state.
    """

    def __init__(self, forbidden: Iterable[Word], alphabet: Sequence[str]):
        letters = sorted(set(alphabet))
        if not letters:
            raise ValueError("alphabet must be nonempty")
        fwords = sorted(set(tuple(w) for w in forbidden), key=lambda w: (len(w), w))
        for w in fwords:
            for letter in w:
                if letter not in letters:
                    raise ValueError(f"forbidden word uses unknown letter {letter!r}")
        self.letters = tuple(letters)
        # goto[q] holds the trie edges of q until the breadth-first pass
        # fills in its remaining letters through the failure link.
        goto: list[dict[str, int]] = [{}]
        terminal = [False]
        for w in fwords:
            cur = 0
            for letter in w:
                if letter not in goto[cur]:
                    goto[cur][letter] = len(goto)
                    goto.append({})
                    terminal.append(False)
                cur = goto[cur][letter]
            terminal[cur] = True
        fail = [0] * len(goto)
        order = deque(goto[0].values())
        for letter in letters:
            goto[0].setdefault(letter, 0)
        while order:
            u = order.popleft()
            terminal[u] = terminal[u] or terminal[fail[u]]
            for letter in letters:
                child = goto[u].get(letter)
                if child is None:
                    goto[u][letter] = goto[fail[u]][letter]
                else:
                    fail[child] = goto[fail[u]][letter]
                    order.append(child)
        live = [q for q in range(len(goto)) if not terminal[q]]
        remap = {q: i for i, q in enumerate(live)}
        self.dead = len(live)
        self.state_count = len(live) + 1
        self.transitions = [
            {letter: remap.get(goto[q][letter], self.dead) for letter in letters} for q in live
        ]
        self.transitions.append(dict.fromkeys(letters, self.dead))
        # When λ itself is forbidden the root is terminal and nothing is live.
        self.start = remap.get(0, self.dead)

    def table_lines(self) -> list[str]:
        lines = [f"automaton states={self.state_count} start={self.start} dead={self.dead}"]
        for q, row in enumerate(self.transitions):
            for letter in self.letters:
                lines.append(f"{q} {letter} -> {row[letter]}")
        return lines

    def to_dot(self) -> str:
        lines = ["digraph automaton {", "  rankdir=LR;"]
        for q in range(self.state_count):
            shape = "box" if q == self.dead else "doublecircle"
            lines.append(f'  {q} [shape={shape}];')
        for q, row in enumerate(self.transitions):
            for letter in self.letters:
                lines.append(f'  {q} -> {row[letter]} [label="{letter}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_factor_automaton(
    forbidden: Union[ForbiddenSet, Iterable[Word]], alphabet: Sequence[str]
) -> FactorAutomaton:
    words = forbidden.words if isinstance(forbidden, ForbiddenSet) else forbidden
    return FactorAutomaton(words, alphabet)


def check_locally_excluding(
    ball: CayleyBall, forbidden: Union[ForbiddenSet, Iterable[Word]], test_len: int
) -> tuple[bool, Optional[Word]]:
    """Exhaustively verify F characterizes geodesics up to test_len.

    Passes when every word w with |w| <= test_len satisfies: w geodesic iff
    w has no factor in F.  The walk extends geodesic prefixes only, covering
    every geodesic and every minimal non-geodesic word, which any longer
    non-geodesic word contains.  All that follows a word depends only on its
    vertex and automaton state, so a layer keeps the first word to reach each
    pair; the first (shortlex) counterexample, returned on failure, stays.
    """
    if test_len < 0:
        raise ValueError("test_len must be nonnegative")
    if test_len > ball.radius:
        raise BallRangeError(f"test_len={test_len} exceeds the ball radius {ball.radius}")
    moves = sorted(zip(ball.genset.labels, ball.steps))
    automaton = build_factor_automaton(forbidden, ball.genset.labels)
    if automaton.start == automaton.dead:  # λ is forbidden yet geodesic
        return False, EMPTY_WORD
    norms, transitions, dead = ball.norms, automaton.transitions, automaton.dead
    # (vertex, automaton state, (parent path, last letter) or None for λ) of
    # the first geodesic word of one length to reach each (vertex, state).  v
    # is met in layer norms[v] only: first[v] is its first state, others the later pairs.
    layer: list[tuple[int, int, Optional[tuple]]] = [(0, automaton.start, None)]
    first: list[Optional[int]] = [None] * len(norms)
    others: set[tuple[int, int]] = set()
    for length in range(1, test_len + 1):
        new_layer = []
        for u, state, path in layer:
            goto = transitions[state]
            for letter, row in moves:
                v = row[u]
                st = goto[letter]
                if norms[v] != length:
                    if st != dead:
                        return False, _path_word((path, letter))
                elif st == dead:
                    return False, _path_word((path, letter))
                elif first[v] is None:
                    first[v] = st
                    new_layer.append((v, st, (path, letter)))
                elif first[v] != st and (v, st) not in others:
                    others.add((v, st))
                    new_layer.append((v, st, (path, letter)))
        layer = new_layer
    return True, None


def _path_word(path: tuple) -> Word:
    """The word spelled by a (parent, letter) chain of check_locally_excluding."""
    letters = []
    while path is not None:
        path, letter = path
        letters.append(letter)
    return tuple(reversed(letters))


class Stabilization(NamedTuple):
    """Eventually the geodesic sets of g^n pump one periodic block:
    L_{n_star + c} = { alpha · (ts)^(q+c) · t · gamma } over the two sets."""

    n_star: int
    alpha_set: tuple[Word, ...]
    t: Word
    s: Word
    q: int
    gamma_set: tuple[Word, ...]


class PowerLanguageReport(NamedTuple):
    """Geodesic-word sets L_n for g^0 .. g^n_max and the detected pumping shape."""

    base_word: Word
    languages: tuple[tuple[Word, ...], ...]
    stabilization: Optional[Stabilization]

    @property
    def n_max(self) -> int:
        return len(self.languages) - 1

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(lang) for lang in self.languages)

    @property
    def multiplicity_growing(self) -> bool:
        """New geodesic-count records keep appearing late in the observed range."""
        c = self.counts
        if len(c) < 3:
            return False
        half = len(c) // 2
        return max(c[half:]) > max(c[:half])


def _fit_tail(tail: Sequence[tuple[Word, ...]]):
    """Fit alpha (ts)^(q+c) t gamma against consecutive languages.

    The alpha words all represent one group element, hence share a length;
    likewise gamma, so the split points are plain prefix/suffix cuts.  The
    canonical fit takes the shortest alpha/gamma spans (maximal pumped
    middle, maximal q), and only a fit that reconstructs every observed
    language exactly is reported; that rebuild implies every shared prefix,
    suffix and middle, so nothing else is checked.
    """
    total = len(tail[0])
    if total == 0 or any(len(lang) != total for lang in tail):
        return None
    lens = [len(lang[0]) for lang in tail]
    period = lens[1] - lens[0]
    if period < 1 or any(b - a != period for a, b in zip(lens, lens[1:])):
        return None
    first, l0 = tail[0][0], lens[0]
    for a_len in range(l0 + 1):
        alpha = {w[:a_len] for w in tail[0]}
        block = tail[1][0][a_len : a_len + period]
        for g_len in range(l0 - a_len + 1):
            gamma = {w[len(w) - g_len :] for w in tail[0]}
            if len(alpha) * len(gamma) != total:
                continue
            q, r = divmod(l0 - a_len - g_len, period)
            t = first[a_len + q * period : l0 - g_len]
            if block[:r] != t:
                continue
            if all(
                set(lang) == {a + block * (q + c) + t + g for a in alpha for g in gamma}
                for c, lang in enumerate(tail)
            ):
                return tuple(sorted(alpha)), t, block[r:], q, tuple(sorted(gamma))
    return None


def _detect_stabilization(languages: Sequence[tuple[Word, ...]]) -> Optional[Stabilization]:
    # Two consecutive confirmations: a fit must cover at least three
    # languages, so nothing is reported near the end of the observed range.
    for n_star in range(0, len(languages) - 2):
        fit = _fit_tail(languages[n_star:])
        if fit is not None:
            alpha, t, s, q, gamma = fit
            return Stabilization(n_star, alpha, t, s, q, gamma)
    return None


def _geodesic_words(ball: CayleyBall) -> Callable[[int], list[Word]]:
    """A function from a vertex v to its geodesic words from 1, sorted and memoised across calls.

    A geodesic word ending in s reaches v from u = v·s⁻¹ with norms[u] =
    norms[v] - 1, so the words of v are those of each such u extended by s;
    u is read off the row of s⁻¹ in steps.  The vertices still missing are
    gathered with an explicit stack and filled in increasing vertex order,
    which is BFS order, so each one's predecessors come first and no
    recursion depth grows with norms[v].  Each list is sorted when it is
    filled: the words of u all have the same length, so extending them by s
    keeps their order, and list.sort only merges one sorted run per
    generator.
    """
    norms = ball.norms
    rows = dict(zip(ball.genset.labels, ball.steps))
    back = [(label, rows[ball.genset.inverse_label[label]]) for label in ball.genset.labels]
    memo: dict[int, list[Word]] = {0: [EMPTY_WORD]}

    def words_of(v: int) -> list[Word]:
        todo = []
        stack = [v]
        while stack:
            x = stack.pop()
            if x in memo:
                continue
            memo[x] = []  # scheduled; filled below
            todo.append(x)
            down = norms[x] - 1
            for _, row in back:
                u = row[x]
                if u >= 0 and norms[u] == down and u not in memo:
                    stack.append(u)
        for x in sorted(todo):
            down = norms[x] - 1
            words = memo[x]
            for label, row in back:
                u = row[x]
                if u >= 0 and norms[u] == down:
                    words.extend(w + (label,) for w in memo[u])
            words.sort()
        return memo[v]
    return words_of


def power_language(ball: CayleyBall, g_word: Word, n_max: int) -> PowerLanguageReport:
    """Geodesic-word sets of g^n for n = 0..n_max, with stabilization fit.

    The base element must have infinite order (the specs carry exact order
    oracles) and every analyzed power must lie inside the ball.  The words
    of every power come from ball.norms and ball.steps alone, memoised per
    vertex across the powers and already sorted; no graph is built and no
    BFS runs.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    spec = ball.spec
    g = word_to_element(spec, ball.genset, g_word)
    order = spec.element_order(g)
    if order is not None:
        raise FiniteOrderError(f"base element has finite order {order}")
    words_of = _geodesic_words(ball)
    languages = []
    e = spec.identity()
    for n in range(n_max + 1):
        try:
            v = ball.vertex_of(e)
        except ValueError:
            raise BallRangeError(
                f"power {n} of the base element leaves the radius-{ball.radius} ball"
            )
        languages.append(tuple(words_of(v)))
        e = spec.multiply(e, g)
    stab = _detect_stabilization(languages)
    return PowerLanguageReport(tuple(g_word), tuple(languages), stab)


def centraliser_in_ball(ball: CayleyBall, g: Element) -> list[Element]:
    """Ball members commuting with g, in vertex order; g must be in the ball.

    Each member h is kept when g·h == h·g, both from actions of g made
    once, with no Python loop over the members.
    """
    ball.vertex_of(g)
    elements = ball.elements
    left, right = ball.spec.left_action(g), ball.spec.right_action(g)
    return list(compress(elements, map(eq, map(left, elements), map(right, elements))))


def forbidden_set_lines(forbidden: ForbiddenSet) -> list[str]:
    lines = [f"forbidden e={forbidden.e}"]
    lines.extend(format_word(w) for w in forbidden.sorted_words())
    return lines


def parse_forbidden_file(text: str) -> ForbiddenSet:
    """Inverse of forbidden_set_lines; words use the apostrophe convention.

    The header's e must be at least 1, and no word may be longer than e.
    """
    e = None
    words = []  # (line number, word)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("forbidden"):
            if e is not None:
                raise ValueError(f"line {lineno}: duplicate 'forbidden' header")
            parts = line.split()
            value = parts[1][2:] if len(parts) == 2 and parts[1].startswith("e=") else ""
            try:
                e = int(value)
            except ValueError:
                raise ValueError(f"line {lineno}: expected 'forbidden e=<e>'") from None
            if e < 1:
                raise ValueError(f"line {lineno}: e must be at least 1")
        else:
            try:
                words.append((lineno, parse_word(line)))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    if e is None:
        raise ValueError("missing 'forbidden e=<e>' header")
    for lineno, w in words:
        if len(w) > e:
            raise ValueError(f"line {lineno}: word of length {len(w)} exceeds e={e}")
    return ForbiddenSet(e, frozenset(w for _, w in words))


def power_report_lines(report: PowerLanguageReport) -> list[str]:
    lines = [f"powers of {format_word(report.base_word)}: n_max={report.n_max}"]
    for n, lang in enumerate(report.languages):
        shown = ",".join(format_word(w) for w in lang)
        lines.append(f"L_{n}: size={len(lang)} {{{shown}}}")
    stab = report.stabilization
    if stab is None:
        note = " (multiplicity growing)" if report.multiplicity_growing else ""
        lines.append(f"stabilization: none{note}")
    else:
        alpha = ",".join(format_word(w) for w in stab.alpha_set)
        gamma = ",".join(format_word(w) for w in stab.gamma_set)
        lines.append(
            f"stabilization: n*={stab.n_star} q={stab.q} t={format_word(stab.t)} "
            f"s={format_word(stab.s)} alpha={{{alpha}}} gamma={{{gamma}}}"
        )
    return lines
