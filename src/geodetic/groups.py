"""Concrete group oracles and Cayley-ball construction.

A GroupSpec supplies identity/multiply/inverse over hashable canonical
element forms: residues for cyclic groups, indices for multiplication
tables, component tuples for direct products, and reduced alternating
syllable tuples for plain groups (free products of Z copies and finite
cyclic factors).  Every spec multiplies canonical elements only; raw
input is reduced where it is parsed.  right_action fixes the right factor
of a product, for the many products by one generator that ball closure
makes.  Balls are built by breadth-first closure of the identity under an
inverse-closed generating set.
"""

from __future__ import annotations

import math
import os
from itertools import repeat
from typing import Callable, Iterator, Optional, Sequence, Union

from .graphs import Frozen, Graph
from .words import Word

Element = Union[int, tuple]

DEFAULT_BALL_BUDGET = 1_000_000
BALL_BUDGET_ENV = "GEODETIC_BALL_BUDGET"


class GroupSpecError(ValueError):
    """The group description is inconsistent or an element does not fit it."""


class GenSetError(ValueError):
    """The generating set violates a required property."""


class BallBudgetError(RuntimeError):
    """Ball construction would exceed the vertex budget."""


class GroupSpec:
    """Base interface; subclasses implement the variant-specific pieces."""

    def identity(self) -> Element:
        raise NotImplementedError

    def multiply(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def right_action(self, s: Element) -> Callable[[Element], Element]:
        """The map a ↦ a·s for the fixed element s, by default through
        multiply; CyclicSpec adds s, and PlainSpec gives a one-syllable s a
        closure that touches only the last syllable of a."""
        multiply = self.multiply
        return lambda a: multiply(a, s)

    def inverse(self, a: Element) -> Element:
        raise NotImplementedError

    def parity(self, a: Element) -> int:
        """The image of a, 0 or 1, under a fixed homomorphism onto Z/2; the
        default is the trivial one.  When every generator has parity 1, every
        word for g has length ≡ parity(g) (mod 2), so each step changes the
        norm by exactly one and no edge joins two vertices of one sphere."""
        return 0

    def check_element(self, a: Element) -> None:
        """Raise GroupSpecError unless a is a canonical element of this group."""
        raise NotImplementedError

    def order(self) -> Optional[int]:
        """Group order; None when infinite."""
        raise NotImplementedError

    def element_order(self, a: Element) -> Optional[int]:
        """Order of a; None when infinite."""
        raise NotImplementedError

    def format_element(self, a: Element) -> str:
        raise NotImplementedError

    def parse_element(self, text: str) -> Element:
        """Parse the variant's element expression (see the file format)."""
        raise NotImplementedError


class CyclicSpec(GroupSpec):
    """Cyclic group of order n; n = 0 denotes the infinite cyclic group Z."""

    def __init__(self, n: int):
        if n < 0:
            raise GroupSpecError("cyclic order must be nonnegative (0 means Z)")
        self.n = n

    def __repr__(self):
        return f"CyclicSpec({self.n})"

    def identity(self):
        return 0

    def multiply(self, a, b):
        return (a + b) % self.n if self.n else a + b

    def right_action(self, s):
        n = self.n
        return (lambda a: (a + s) % n) if n else s.__add__

    def inverse(self, a):
        return (-a) % self.n if self.n else -a

    def parity(self, a):
        """a mod 2 when the order is even or infinite; Z_n for odd n has
        only the trivial homomorphism onto Z/2."""
        return 0 if self.n % 2 else a % 2

    def check_element(self, a):
        if not isinstance(a, int) or isinstance(a, bool):
            raise GroupSpecError(f"cyclic element must be an integer, got {a!r}")
        if self.n and not 0 <= a < self.n:
            raise GroupSpecError(f"residue {a} out of range for order {self.n}")

    def order(self):
        return self.n if self.n else None

    def element_order(self, a):
        self.check_element(a)
        if self.n == 0:
            return 1 if a == 0 else None
        return self.n // math.gcd(self.n, a)

    def format_element(self, a):
        if a == 0:
            return "1"
        return "a" if a == 1 else f"a^{a}"

    def parse_element(self, text):
        parts = text.split()
        if len(parts) != 2 or parts[0] != "pow":
            raise GroupSpecError(f"cyclic element expression must be 'pow <k>', got {text!r}")
        k = int(parts[1])
        return k % self.n if self.n else k


class TableSpec(GroupSpec):
    """Finite group given by its multiplication table.

    Identity and inverses are verified exhaustively, and associativity by
    Light's test over a generating set, which is exhaustive too.
    """

    def __init__(self, table: Sequence[Sequence[int]]):
        n = len(table)
        if n == 0:
            raise GroupSpecError("empty multiplication table")
        rows = []
        for i, row in enumerate(table):
            row = tuple(row)
            if len(row) != n:
                raise GroupSpecError(f"table row {i} has length {len(row)}, expected {n}")
            for x in row:
                if not 0 <= x < n:
                    raise GroupSpecError(f"table entry {x} out of range")
            rows.append(row)
        self.size = n
        self.table = tuple(rows)
        self.identity_idx = self._find_identity()
        self.inv = self._find_inverses()
        self._check_associativity()

    def _find_identity(self):
        for e in range(self.size):
            if all(self.table[e][j] == j and self.table[j][e] == j for j in range(self.size)):
                return e
        raise GroupSpecError("table has no identity element")

    def _find_inverses(self):
        e = self.identity_idx
        inv = []
        for i in range(self.size):
            for j in range(self.size):
                if self.table[i][j] == e and self.table[j][i] == e:
                    inv.append(j)
                    break
            else:
                raise GroupSpecError(f"element {i} has no inverse")
        return tuple(inv)

    def _check_associativity(self):
        """Light's test: (x·a)·y == x·(a·y) for all x, y and each generator a.

        Generators are picked greedily until the right-multiplication closure
        of the identity covers the table; the elements that pass are closed
        under products, so passing generators make the table associative.
        """
        t = self.table
        gens: list[int] = []
        reached = {self.identity_idx}
        for g in range(self.size):
            if g in reached:
                continue
            gens.append(g)
            stack = list(reached)
            while stack:
                row = t[stack.pop()]
                for a in gens:
                    if row[a] not in reached:
                        reached.add(row[a])
                        stack.append(row[a])
        for a in gens:
            ta = t[a]
            for x, row in enumerate(t):
                xa = t[row[a]]
                for y in range(self.size):
                    if xa[y] != row[ta[y]]:
                        raise GroupSpecError(f"associativity fails at ({x}, {a}, {y})")

    def __repr__(self):
        return f"TableSpec(size={self.size})"

    def identity(self):
        return self.identity_idx

    def multiply(self, a, b):
        return self.table[a][b]

    def inverse(self, a):
        return self.inv[a]

    def check_element(self, a):
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.size:
            raise GroupSpecError(f"table element must be an index in [0, {self.size}), got {a!r}")

    def order(self):
        return self.size

    def element_order(self, a):
        self.check_element(a)
        x = a
        k = 1
        while x != self.identity_idx:
            x = self.table[x][a]
            k += 1
        return k

    def format_element(self, a):
        return f"g{a}"

    def parse_element(self, text):
        parts = text.split()
        if len(parts) != 2 or parts[0] != "idx":
            raise GroupSpecError(f"table element expression must be 'idx <k>', got {text!r}")
        k = int(parts[1])
        self.check_element(k)
        return k


class ProductSpec(GroupSpec):
    """Direct product; elements are tuples with one component per factor."""

    def __init__(self, factors: Sequence[GroupSpec]):
        if not factors:
            raise GroupSpecError("direct product needs at least one factor")
        self.factors = tuple(factors)

    def __repr__(self):
        return f"ProductSpec({list(self.factors)!r})"

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def multiply(self, a, b):
        return tuple(f.multiply(x, y) for f, x, y in zip(self.factors, a, b))

    def inverse(self, a):
        return tuple(f.inverse(x) for f, x in zip(self.factors, a))

    def parity(self, a):
        """The sum of the factor parities, mod 2."""
        return sum(f.parity(x) for f, x in zip(self.factors, a)) % 2

    def check_element(self, a):
        if not isinstance(a, tuple) or len(a) != len(self.factors):
            raise GroupSpecError(f"product element must be a {len(self.factors)}-tuple, got {a!r}")
        for f, x in zip(self.factors, a):
            f.check_element(x)

    def order(self):
        total = 1
        for f in self.factors:
            o = f.order()
            if o is None:
                return None
            total *= o
        return total

    def element_order(self, a):
        self.check_element(a)
        total = 1
        for f, x in zip(self.factors, a):
            o = f.element_order(x)
            if o is None:
                return None
            total = math.lcm(total, o)
        return total

    def format_element(self, a):
        return "(" + ", ".join(f.format_element(x) for f, x in zip(self.factors, a)) + ")"

    def parse_element(self, text):
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != len(self.factors):
            raise GroupSpecError(
                f"product element expression needs {len(self.factors)} comma-separated parts"
            )
        return tuple(f.parse_element(p) for f, p in zip(self.factors, parts))


_FACTOR_NAMES = "abcdefghijklmnopqrstuvwxyz"


class PlainSpec(GroupSpec):
    """Free product of free_rank copies of Z and finite cyclic factors.

    Elements are reduced alternating syllable tuples ((factor, exponent), ...)
    where consecutive syllables come from different factors, free exponents
    are nonzero integers, and an exponent for a finite factor of order o
    lies in [1, o - 1].
    """

    def __init__(self, free_rank: int, factor_orders: Sequence[int] = ()):
        if free_rank < 0:
            raise GroupSpecError("free rank must be nonnegative")
        orders = tuple(factor_orders)
        for o in orders:
            if o < 2:
                raise GroupSpecError("finite cyclic factors need order at least 2")
        self.free_rank = free_rank
        self.factor_orders = orders
        self.factor_count = free_rank + len(orders)
        if self.factor_count == 0:
            raise GroupSpecError("plain group needs at least one factor")
        # Order of each factor by index, 0 for a Z factor.
        self._orders = (0,) * free_rank + orders

    def __repr__(self):
        return f"PlainSpec(free_rank={self.free_rank}, factor_orders={list(self.factor_orders)})"

    def factor_order(self, i: int) -> Optional[int]:
        """Order of the i-th free-product factor; None for a Z factor."""
        if not 0 <= i < self.factor_count:
            raise GroupSpecError(f"no factor {i}")
        return self._orders[i] or None

    def factor_name(self, i: int) -> str:
        if i < len(_FACTOR_NAMES):
            return _FACTOR_NAMES[i]
        return f"x{i}"

    def _canonical_exp(self, factor: int, e: int) -> int:
        o = self.factor_order(factor)
        return e % o if o else e

    def identity(self):
        return ()

    def multiply(self, a, b):
        """Reduced form of a·b for reduced a and b.

        Only the syllables that meet at the junction change: pairs from
        one factor cancel inwards while their exponents sum to 0, and the
        first pair that does not cancel merges into one syllable.  Past
        that, both sides are reduced already, so the result is two tuple
        slices around at most one new syllable.
        """
        if not (a and b and a[-1][0] == b[0][0]):
            return a + b
        orders = self._orders
        i, j = len(a) - 1, 0
        while True:
            factor = b[j][0]
            e = a[i][1] + b[j][1]
            o = orders[factor]
            if o:
                e %= o
            if e:
                return a[:i] + ((factor, e),) + b[j + 1 :]
            i, j = i - 1, j + 1
            if i < 0 or j == len(b) or a[i][0] != b[j][0]:
                return a[: i + 1] + b[j:]

    def right_action(self, s):
        """a ↦ a·s for reduced a.  A one-syllable s, as every generator of
        a plain group file, gets a closure with its factor, exponent, order
        and syllable bound in, which touches only the last syllable of a;
        its exponent need not be reduced, so parse_element reduces raw
        syllables through it.  Any other s acts through multiply."""
        if len(s) != 1:
            return super().right_action(s)
        ((factor, e),) = s
        o = self._orders[factor]
        if o:
            e %= o
        syllable = ((factor, e),) if e else ()

        def act(a):
            if a and a[-1][0] == factor:
                x = a[-1][1] + e
                if o:
                    x %= o
                return a[:-1] + ((factor, x),) if x else a[:-1]
            return a + syllable

        return act

    def inverse(self, a):
        return tuple((f, self._canonical_exp(f, -e)) for f, e in reversed(a))

    def parity(self, a):
        """The sum of the exponents over factors of even or infinite order, mod 2."""
        return sum(e for f, e in a if self._orders[f] % 2 == 0) % 2

    def check_element(self, a):
        if not isinstance(a, tuple):
            raise GroupSpecError(f"plain element must be a syllable tuple, got {a!r}")
        prev = None
        for syl in a:
            if not (isinstance(syl, tuple) and len(syl) == 2):
                raise GroupSpecError(f"bad syllable {syl!r}")
            f, e = syl
            if not 0 <= f < self.factor_count:
                raise GroupSpecError(f"syllable names unknown factor {f}")
            if f == prev:
                raise GroupSpecError("adjacent syllables from the same factor")
            o = self.factor_order(f)
            if o is None:
                if e == 0:
                    raise GroupSpecError("zero exponent in a free syllable")
            elif not 1 <= e < o:
                raise GroupSpecError(f"exponent {e} out of range for factor of order {o}")
            prev = f

    def order(self):
        if self.free_rank == 0 and len(self.factor_orders) == 0:
            return 1
        if self.free_rank == 0 and len(self.factor_orders) == 1:
            return self.factor_orders[0]
        return None

    def element_order(self, a):
        self.check_element(a)
        # Cyclically reduce; an element is conjugate into a single factor
        # exactly when the reduction ends with at most one syllable.
        syls = list(a)
        while len(syls) >= 2 and syls[0][0] == syls[-1][0]:
            f = syls[0][0]
            merged = self._canonical_exp(f, syls[-1][1] + syls[0][1])
            syls = syls[1:-1]
            if merged:
                syls.insert(0, (f, merged))
        if not syls:
            return 1
        if len(syls) > 1:
            return None
        f, e = syls[0]
        o = self.factor_order(f)
        if o is None:
            return None
        return o // math.gcd(o, e)

    def format_element(self, a):
        if not a:
            return "1"
        parts = []
        for f, e in a:
            name = self.factor_name(f)
            parts.append(name if e == 1 else f"{name}^{e}")
        return " ".join(parts)

    def parse_element(self, text):
        parts = text.split()
        if not parts or parts[0] != "word":
            raise GroupSpecError(
                f"plain element expression must be 'word <syllable>...', got {text!r}"
            )
        name_to_factor = {self.factor_name(i): i for i in range(self.factor_count)}
        out = ()
        for token in parts[1:]:
            name, _, exp = token.partition("^")
            if name not in name_to_factor:
                raise GroupSpecError(f"unknown factor letter {name!r}")
            out = self.right_action(((name_to_factor[name], int(exp) if exp else 1),))(out)
        return out


class GenSet(Frozen):
    """Labelled inverse-closed generating set without the identity.

    inverse_label pairs each label with the label of its inverse element
    (a label maps to itself for an involution).
    """

    __slots__ = ("labels", "elements", "inverse_label")

    def __init__(
        self, labels: tuple[str, ...], elements: tuple[Element, ...], inverse_label: dict[str, str]
    ):
        for name, value in zip(self.__slots__, (labels, elements, inverse_label)):
            object.__setattr__(self, name, value)

    def __len__(self):
        return len(self.labels)

    def items(self):
        return zip(self.labels, self.elements)


def validate_genset(spec: GroupSpec, pairs: Sequence[tuple[str, Element]]) -> GenSet:
    """Check labels unique, elements distinct and non-identity, set inverse-closed."""
    if not pairs:
        raise GenSetError("generating set is empty")
    labels = [label for label, _ in pairs]
    if len(set(labels)) != len(labels):
        raise GenSetError("duplicate generator labels")
    elements = []
    for label, elem in pairs:
        spec.check_element(elem)
        if elem == spec.identity():
            raise GenSetError(f"generator {label!r} is the identity")
        elements.append(elem)
    if len(set(elements)) != len(elements):
        raise GenSetError("two labels name the same element")
    by_element = {elem: label for label, elem in pairs}
    inverse_label = {}
    for label, elem in pairs:
        inv = spec.inverse(elem)
        partner = by_element.get(inv)
        if partner is None:
            raise GenSetError(f"generating set is not inverse-closed at {label!r}")
        inverse_label[label] = partner
    return GenSet(tuple(labels), tuple(elements), inverse_label)


class CayleyBall:
    """The radius-R ball around the identity in a Cayley graph.

    Vertex 0 is the identity; elements[v] is the group element at vertex v
    and norms[v] its distance from the identity.  steps records the
    generator action: steps[i][u] is the vertex of elements[u]·s_i for the
    i-th generator s_i of genset, or -1 when that product lies outside the
    ball, which happens only when norms[u] == radius.  steps[i][u] = v
    goes with steps[j][v] = u for the inverse s_j of s_i, and cayley_ball
    fills both from one right action of s_i.  When every generator has
    parity 1 (GroupSpec.parity), no edge joins two vertices of one sphere,
    and a step from the last sphere that leaves the ball takes no right
    action.  The graph is the subgraph induced on the ball, so distances
    between two vertices u, v are exact whenever norms[u] + norms[v] <=
    radius (every group geodesic between such a pair stays inside the
    ball); complete balls, where the whole group was reached, are exact
    everywhere.  The graph is built from steps on its first read, so code
    that reads only elements, norms and steps (the language commands,
    edges, edge_count, min_geodetic_k and is_k_geodetic) never builds it.

    min_geodetic_k and is_k_geodetic are the fast path for geodesic counts
    over trusted pairs: they count the geodesics from the identity alone,
    over steps.  The all-pairs functions of the same names in graphs,
    called on ball.graph with ball.is_trusted_pair as the filter, give the
    same answers and are their oracle.
    """

    def __init__(
        self,
        spec: GroupSpec,
        genset: GenSet,
        radius: int,
        elements: list[Element],
        index: dict[Element, int],
        norms: list[int],
        complete: bool,
        steps: list[list[int]],
    ):
        self.spec = spec
        self.genset = genset
        self.radius = radius
        self.elements = elements
        self.index = index
        self.norms = norms
        self.complete = complete
        self.steps = steps
        # Set here, not a cached_property: a key that appears late in the
        # instance dict slows every attribute read of the ball,
        # is_trusted_pair's included.
        self._graph: Optional[Graph] = None

    @property
    def graph(self) -> Graph:
        """The subgraph induced on the ball, built from steps on first read."""
        if self._graph is None:
            adjacency = [[v for v in nbrs if v >= 0] for nbrs in zip(*self.steps)]
            self._graph = Graph(len(self.elements), adjacency)
        return self._graph

    @property
    def vertex_count(self) -> int:
        return len(self.elements)

    @property
    def edge_count(self) -> int:
        """Edges of the ball graph, counted from steps without building it.

        steps records each edge u–u·s twice: at u under s, and at u·s under
        s⁻¹ (under s again when s is an involution).
        """
        return sum(len(row) - row.count(-1) for row in self.steps) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges (u, v) with u < v in sorted order, as Graph.edges lists them."""
        for u, column in enumerate(zip(*self.steps)):
            yield from ((u, v) for v in sorted(column) if v > u)

    def vertex_of(self, g: Element) -> int:
        v = self.index.get(g)
        if v is None:
            raise ValueError(f"element {self.spec.format_element(g)} is outside the ball")
        return v

    def is_trusted_pair(self, u: int, v: int) -> bool:
        """Whether ball distances and geodesics between u and v match the group's."""
        return self.complete or self.norms[u] + self.norms[v] <= self.radius

    def _identity_counts(self) -> list[int]:
        """counts[w]: the number of geodesics from 1 to w, standing for every trusted pair.

        Left translation by u^-1 maps the geodesics from u to v onto those
        from 1 to w = u^-1 v, and |w| = d(u, v) <= |u| + |v|, so for a
        trusted pair w lies in the ball and count(u, v) = counts[w]; every
        geodesic from 1 to w stays within norm |w|, so the identity BFS
        counts it exactly.  On a complete ball the graph is the whole,
        vertex-transitive Cayley graph.  Vertex ids grow with the norm, and
        u = 0 is the least u, so the first w with a given count gives the
        first such pair (0, w) in (dist, u, v) order.

        The identity BFS is read off norms and steps, with no Graph: the
        vertices come in BFS order, and counts[u] passes to each u·s one
        norm further out (the generators are distinct, so each edge once).
        """
        norms = self.norms
        counts = [1] + [0] * (self.vertex_count - 1)
        for u, column in enumerate(zip(*self.steps)):
            c, up = counts[u], norms[u] + 1
            for v in column:
                if v >= 0 and norms[v] == up:
                    counts[v] += c
        return counts

    def min_geodetic_k(self) -> tuple[int, tuple[int, int]]:
        """Smallest k with at most k geodesics per trusted pair, with a witness.

        The same value and witness as graphs.min_geodetic_k(ball.graph,
        ball.is_trusted_pair), from the geodesic counts at the identity;
        the one-vertex ball gives 1 with witness (0, 0).
        """
        counts = self._identity_counts()
        w = max(range(1, len(counts)), key=counts.__getitem__, default=0)
        return counts[w], (0, w)

    def is_k_geodetic(self, k: int) -> tuple[bool, Optional[tuple[int, int]]]:
        """Whether every trusted pair has at most k geodesics, else the first violator.

        The same verdict and pair as graphs.is_k_geodetic(ball.graph, k,
        ball.is_trusted_pair), from the geodesic counts at the identity.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        for w, c in enumerate(self._identity_counts()):
            if c > k:
                return False, (0, w)
        return True, None


def cayley_ball(
    spec: GroupSpec, genset: GenSet, radius: int, budget: Optional[int] = None
) -> CayleyBall:
    """Breadth-first closure of the identity under the generating set, one sphere at a time.

    Each edge costs one right action, from spec.right_action of its
    generator: u·s = v also gives the step v·s⁻¹ = u, which waits in a
    per-generator dict until v's turn, and a step known that way is never
    computed.  Each product is hashed once: index.setdefault adds it below
    the radius, and index.get only looks it up in the last sphere's own
    pass.  When every generator has parity 1 (GroupSpec.parity), a step
    from the last sphere stays in the ball only by going back to the sphere
    below, so it already waits in known: that pass fills each row from
    known alone, with no right action for a step that leaves the ball.  The
    step rows grow one entry per vertex in processing order, and norms one
    run per sphere.  budget caps the number of vertices (default 10^6, or
    the GEODETIC_BALL_BUDGET environment variable, which raises ValueError
    unless it is an integer of at least 1); exceeding it raises
    BallBudgetError before memory runs away.  The cyclic garbage collector
    is left as the caller set it; only cli.main pauses it, for a command.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if budget is None:
        text = os.environ.get(BALL_BUDGET_ENV, str(DEFAULT_BALL_BUDGET))
        try:
            budget = int(text)
        except ValueError:
            budget = 0
        if budget < 1:
            raise ValueError(f"{BALL_BUDGET_ENV} must be an integer of at least 1, got {text!r}")
    identity = spec.identity()
    elements: list[Element] = [identity]
    index: dict[Element, int] = {identity: 0}
    norms = [0]
    steps: list[list[int]] = [[] for _ in genset.elements]
    # known[i][v] = u when u·s_i⁻¹ = v was found before v's turn; popped at
    # v's turn, so it holds only the edges still open at one end.
    known: list[dict[int, int]] = [{} for _ in genset.elements]
    known_of = dict(zip(genset.labels, known))
    moves = [(row.append, spec.right_action(s), here.pop, known_of[genset.inverse_label[label]])
             for (label, s), row, here in zip(genset.items(), steps, known)]
    start, count = 0, 1  # elements[start:count] is the outermost sphere found so far
    for layer in range(1, radius + 1):
        end = count
        for u, gu in enumerate(elements[start:end], start):
            for append, act, pop, back in moves:
                v = pop(u, None)
                if v is None:
                    h = act(gu)
                    v = index.setdefault(h, count)
                    if v == count:
                        if count >= budget:
                            raise BallBudgetError(
                                f"ball exceeds the {budget}-vertex budget at radius {layer}"
                            )
                        elements.append(h)
                        count += 1
                    back[v] = u
                append(v)
        start = end
        if start == count:  # no new sphere: the ball is the whole group
            break
        norms.extend(repeat(layer, count - start))
    # The last sphere, norm radius, when the closure reached it.
    if all(map(spec.parity, genset.elements)):
        for row, here in zip(steps, known):
            row.extend(map(here.get, range(start, count), repeat(-1)))
    else:
        get = index.get
        for u, gu in enumerate(elements[start:count], start):
            for append, act, pop, back in moves:
                v = pop(u, None)
                if v is None:
                    v = get(act(gu), -1)
                    if v >= 0:
                        back[v] = u
                append(v)
    complete = norms[-1] < radius or spec.order() == count
    return CayleyBall(spec, genset, radius, elements, index, norms, complete, steps)


def word_to_element(spec: GroupSpec, genset: GenSet, w: Word) -> Element:
    """Left-to-right product of the generators named by the word."""
    lookup = dict(genset.items())
    out = spec.identity()
    for letter in w:
        s = lookup.get(letter)
        if s is None:
            raise GenSetError(f"letter {letter!r} is not a generator label")
        out = spec.multiply(out, s)
    return out


class GroupFile:
    """Parsed group description file."""

    __slots__ = ("spec", "genset", "default_radius")

    def __init__(self, spec: GroupSpec, genset: GenSet, default_radius: Optional[int]):
        self.spec = spec
        self.genset = genset
        self.default_radius = default_radius


def _group_spec(parts: list[str]) -> GroupSpec:
    """The spec named by a ``group`` line of any kind but ``table``."""
    kind = parts[1]
    if kind == "cyclic":
        if len(parts) != 3:
            raise GroupSpecError("expected 'group cyclic <n>'")
        return CyclicSpec(int(parts[2]))
    if kind == "product":
        rest = parts[2:]
        if len(rest) % 2 != 0 or not rest:
            raise GroupSpecError("product factors come as 'cyclic <n>' pairs")
        factors = []
        for j in range(0, len(rest), 2):
            if rest[j] != "cyclic":
                raise GroupSpecError("only cyclic factors are supported in files")
            factors.append(CyclicSpec(int(rest[j + 1])))
        return ProductSpec(factors)
    if kind == "plain":
        rank = 0
        orders: list[int] = []
        seen: set[str] = set()
        for token in parts[2:]:
            key, eq, value = token.partition("=")
            if key not in ("Z", "factors") or not eq:
                raise GroupSpecError(f"unknown plain option {token!r}")
            if key in seen:
                raise GroupSpecError(f"duplicate plain option '{key}='")
            seen.add(key)
            if key == "Z":
                rank = int(value)
            else:
                orders = [int(x) for x in value.split(",") if x]
        return PlainSpec(rank, orders)
    raise GroupSpecError(f"unknown group kind {kind!r}")


def parse_group_file(text: str) -> GroupFile:
    """Parse the line-oriented group format.

    ``group cyclic <n>`` (0 means Z), ``group table <n>`` followed by n rows,
    ``group product cyclic <n> cyclic <m> ...``, or
    ``group plain Z=<rank> factors=<o1>,<o2>``.  Generators come one per
    ``gen <label> <element expression>`` line, and an optional
    ``ball R=<r>`` line records a default radius.  An error found on one
    line, a table row included, names that line.  TableSpec checks the
    table as a whole once its last row is read.
    """
    spec: Optional[GroupSpec] = None
    gen_pairs: list[tuple[str, Element]] = []
    default_radius: Optional[int] = None
    rows: Optional[list[list[int]]] = None  # a 'group table' still reading its rows
    table_size = table_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if rows is not None:
                rows.append([int(x) for x in parts])
            elif parts[0] == "group":
                if spec is not None:
                    raise GroupSpecError("duplicate group line")
                if len(parts) < 2:
                    raise GroupSpecError("missing group kind")
                if parts[1] != "table":
                    spec = _group_spec(parts)
                elif len(parts) != 3:
                    raise GroupSpecError("expected 'group table <n>'")
                else:
                    table_size, table_line = int(parts[2]), lineno
                    if table_size < 0:
                        raise GroupSpecError("table size must be nonnegative")
                    rows = []
            elif parts[0] == "gen":
                if spec is None:
                    raise GroupSpecError("gen before group line")
                if len(parts) < 3:
                    raise GroupSpecError("expected 'gen <label> <expression>'")
                gen_pairs.append((parts[1], spec.parse_element(line.split(None, 2)[2])))
            elif parts[0] == "ball":
                if default_radius is not None:
                    raise GroupSpecError("duplicate ball line")
                if len(parts) != 2 or not parts[1].startswith("R="):
                    raise GroupSpecError("expected 'ball R=<r>'")
                default_radius = int(parts[1][2:])
            else:
                raise GroupSpecError(f"unknown directive {parts[0]!r}")
        except ValueError as exc:
            raise GroupSpecError(f"line {lineno}: {exc}") from exc
        if rows is not None and len(rows) == table_size:
            spec, rows = TableSpec(rows), None
    if rows is not None:
        raise GroupSpecError(f"line {table_line}: table needs {table_size} rows")
    if spec is None:
        raise GroupSpecError("missing 'group' line")
    genset = validate_genset(spec, gen_pairs)
    return GroupFile(spec, genset, default_radius)
