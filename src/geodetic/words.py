"""Words over letter strings: parsing, primitive roots, commutation equations.

Words are tuples of letter strings, such as a generating set's labels.
Without a letter set, a trailing apostrophe marks a formal inverse.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

Word = tuple[str, ...]

EMPTY_WORD: Word = ()

LAMBDA = "λ"  # how the empty word renders


class WordEquationError(ValueError):
    """The input words do not satisfy the required equation."""


def parse_word(text: str, letters: Optional[Iterable[str]] = None) -> Word:
    """Parse a whitespace-free word.

    With letters the text is matched greedily, longest letter first (at most
    one letter of a length matches at a position).  Without them, each
    character but whitespace is a letter and a trailing apostrophe marks its
    formal inverse.  Whitespace around the word is dropped; inside it, it
    raises ValueError.
    """
    text = text.strip()
    if text in ("", LAMBDA):
        return EMPTY_WORD
    out: list[str] = []
    if letters is None:
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                raise ValueError(f"whitespace at position {i} in {text!r}")
            if ch == "'":
                raise ValueError(f"dangling apostrophe at position {i} in {text!r}")
            if i + 1 < len(text) and text[i + 1] == "'":
                out.append(ch + "'")
                i += 2
            else:
                out.append(ch)
                i += 1
        return tuple(out)
    by_length = sorted(letters, key=len, reverse=True)
    i = 0
    while i < len(text):
        for letter in by_length:
            if text.startswith(letter, i):
                out.append(letter)
                i += len(letter)
                break
        else:
            raise ValueError(f"cannot read a letter at position {i} in {text!r}")
    return tuple(out)


def format_word(w: Word) -> str:
    return "".join(w) if w else LAMBDA


def primitive_root(w: Word) -> tuple[Word, int]:
    """The primitive u and maximal m with w = u^m, via the failure function."""
    n = len(w)
    if n == 0:
        raise ValueError("the empty word has no primitive root")
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k and w[i] != w[k]:
            k = fail[k - 1]
        if w[i] == w[k]:
            k += 1
        fail[i] = k
    period = n - fail[-1]
    if n % period == 0:
        return w[:period], n // period
    return w, 1


class LSDecomposition(NamedTuple):
    """Witness for zx = yz: x = st, y = ts, z = (ts)^q t."""

    s: Word
    t: Word
    q: int

    @property
    def x(self) -> Word:
        return self.s + self.t

    @property
    def y(self) -> Word:
        return self.t + self.s

    @property
    def z(self) -> Word:
        return (self.t + self.s) * self.q + self.t


def solve_zx_eq_yz(x: Word, y: Word, z: Word) -> LSDecomposition:
    """Solve zx = yz for nonempty x, returning the canonical witness.

    Canonical means maximal q (equivalently minimal |t|): q = |z| div |x|
    and t is the length-(|z| mod |x|) prefix of z.  The returned identities
    are re-verified before the witness is handed back.
    """
    if not x:
        raise ValueError("x must be nonempty")
    if z + x != y + z:
        raise WordEquationError("zx = yz does not hold for these words")
    q, r = divmod(len(z), len(x))
    t = z[:r]
    s = x[: len(x) - r]
    witness = LSDecomposition(s, t, q)
    if witness.x != x or witness.y != y or witness.z != z:
        raise WordEquationError("no canonical decomposition reproduces the inputs")
    return witness


def commuting_common_root(x: Word, y: Word) -> Word:
    """The primitive word u with x, y both powers of u, given xy = yx."""
    if not x or not y:
        raise ValueError("both words must be nonempty")
    if x + y != y + x:
        raise WordEquationError("the words do not commute")
    shorter = x if len(x) <= len(y) else y
    root, _ = primitive_root(shorter)
    for w in (x, y):
        m, rem = divmod(len(w), len(root))
        if rem or root * m != w:
            raise WordEquationError("commuting words with no common root")
    return root

