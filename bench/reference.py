"""Reference computations made apart from the program.

Closed forms from the theory (ball sizes, geodeticity constants, minimal
forbidden factors, power-language sizes, the ladder bounds), plus small
independent algorithms: Cayley-ball closure over the benchmark's own group
arithmetic, breadth-first geodesic counting, and a naive factor scan for
automaton tables.  Nothing here imports the program or reads its outputs
back as expectations.

Vertex ids of a ball follow the documented numbering: vertex 0 is the
identity and vertices are numbered in breadth-first closure order, frontier
by frontier, generators in file order.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

from inputs import FACTOR_NAMES, GraphInput, GroupInput


# ---- closed forms -------------------------------------------------------

def free_ball_size(rank: int, radius: int) -> int:
    """|B(R)| in F_r: 1 + 2r((2r-1)^R - 1)/(2r - 2)."""
    r = rank
    return 1 + 2 * r * ((2 * r - 1) ** radius - 1) // (2 * r - 2)


def free_sphere_size(rank: int, d: int) -> int:
    return 1 if d == 0 else 2 * rank * (2 * rank - 1) ** (d - 1)


def zz_ball_size(radius: int) -> int:
    return 2 * radius * radius + 2 * radius + 1


def zz_sphere_size(d: int) -> int:
    return 1 if d == 0 else 4 * d


def zz_ball_edges(radius: int) -> int:
    """2(R - |y|) horizontal edges in each row y, as many vertical ones: 4R^2."""
    return 4 * radius * radius


def z2_star_z3_sphere_size(d: int) -> int:
    """Alternating normal forms a B a B ... with B in {b, b'}."""
    return 1 if d == 0 else 2 ** (d // 2) + 2 ** ((d + 1) // 2)


def min_k_zz(radius: int) -> int:
    return math.comb(radius, radius // 2)


def min_k_grid(a: int, b: int) -> int:
    return math.comb(a + b - 2, a - 1)


def min_k_complete_bipartite(a: int, b: int) -> int:
    return max(a, b) if min(a, b) >= 2 else 1


def min_k_cycle(n: int) -> int:
    return 2 if n % 2 == 0 else 1


def ladder_bound_A(m: int, k: int) -> int:
    """A(m, k) = m * k * prod_{i=2..2m+1} (i*k + 1)."""
    out = m * k
    for i in range(2, 2 * m + 2):
        out *= i * k + 1
    return out


def close_bound_C(m: int, k: int) -> int:
    return m * ladder_bound_A(m, k)


def forbidden_free(gi: GroupInput) -> set:
    """F_r: the 2r words x x^-1."""
    out = set()
    rank = gi.orders[0]
    for i in range(rank):
        x, xi = gi.letter[f"x{i}"], gi.letter[f"x{i}'"]
        out |= {(x, xi), (xi, x)}
    return out


def forbidden_z2_star_z3(gi: GroupInput) -> set:
    a, b, bi = gi.letter["a"], gi.letter["b"], gi.letter["b'"]
    return {(a, a), (b, b), (b, bi), (bi, b), (bi, bi)}


def forbidden_zz(gi: GroupInput, e: int) -> set:
    """Z x Z: x x^-1 (4 words) and x y^j x^-1 for j = 1..e-2 (8 per length)."""
    L = gi.letter
    inv = {L["a"]: L["a'"], L["a'"]: L["a"], L["b"]: L["b'"], L["b'"]: L["b"]}
    other = {L["a"]: (L["b"], L["b'"]), L["a'"]: (L["b"], L["b'"]),
             L["b"]: (L["a"], L["a'"]), L["b'"]: (L["a"], L["a'"])}
    out = {(x, inv[x]) for x in inv}
    for x in inv:
        for y in other[x]:
            for j in range(1, e - 1):
                out.add((x,) + (y,) * j + (inv[x],))
    return out


def interleavings(x: str, y: str, n: int) -> set:
    """All words with n letters x and n letters y: binom(2n, n) of them."""
    out = set()
    for pos in itertools.combinations(range(2 * n), n):
        w = [y] * (2 * n)
        for p in pos:
            w[p] = x
        out.add("".join(w))
    return out


# ---- group arithmetic and balls ----------------------------------------

def _factor_order(gi: GroupInput, f: int):
    rank = gi.orders[0]
    return None if f < rank else gi.orders[1 + f - rank]


def right_multiply(gi: GroupInput, x, s):
    """x * s for a generator s, in the reference element forms."""
    if gi.kind == "plain":
        ((f, e),) = s
        if x and x[-1][0] == f:
            o = _factor_order(gi, f)
            merged = x[-1][1] + e
            if o:
                merged %= o
            return x[:-1] + (((f, merged),) if merged else ())
        o = _factor_order(gi, f)
        return x + ((f, e % o if o else e),)
    if gi.kind == "product":
        return tuple((a + b) % o if o else a + b for a, b, o in zip(x, s, gi.orders))
    n = gi.orders[0]
    return (x + s) % n if n else x + s


def identity(gi: GroupInput):
    if gi.kind == "plain":
        return ()
    if gi.kind == "product":
        return tuple(0 for _ in gi.orders)
    return 0


def group_order(gi: GroupInput):
    if gi.kind == "cyclic" or gi.kind == "product":
        return math.prod(gi.orders) if all(gi.orders) else None
    return None


def format_element(gi: GroupInput, x) -> str:
    """The program's documented element rendering."""
    if gi.kind == "plain":
        if not x:
            return "1"
        return " ".join(FACTOR_NAMES[f] if e == 1 else f"{FACTOR_NAMES[f]}^{e}" for f, e in x)

    def cyc(v):
        return "1" if v == 0 else ("a" if v == 1 else f"a^{v}")

    if gi.kind == "product":
        return "(" + ", ".join(cyc(v) for v in x) + ")"
    return cyc(x)


class RefHost:
    """A graph or ball with its own BFS: distances, geodesic counts, trust."""

    def __init__(self, adj, norms=None, radius=None, complete=True):
        self.adj = adj
        self.n = len(adj)
        self.norms = norms
        self.radius = radius
        self.complete = complete
        self._bfs = {}

    @classmethod
    def from_graph(cls, g: GraphInput) -> "RefHost":
        adj = [set() for _ in range(g.n)]
        for u, v in g.edges:
            adj[u].add(v)
            adj[v].add(u)
        return cls([sorted(s) for s in adj])

    @classmethod
    def from_group(cls, gi: GroupInput, radius: int) -> "RefHost":
        one = identity(gi)
        elements, index, norms = [one], {one: 0}, [0]
        frontier = [0]
        complete = False
        for layer in range(1, radius + 1):
            new = []
            for u in frontier:
                for _, s in gi.gens:
                    h = right_multiply(gi, elements[u], s)
                    if h not in index:
                        index[h] = len(elements)
                        elements.append(h)
                        norms.append(layer)
                        new.append(index[h])
            if not new:
                complete = True
                break
            frontier = new
        if group_order(gi) == len(elements):
            complete = True
        adj = []
        for x in elements:
            nb = {index.get(right_multiply(gi, x, s)) for _, s in gi.gens}
            nb.discard(None)
            adj.append(sorted(nb))
        return cls(adj, norms, radius, complete)

    def trusted(self, u: int, v: int) -> bool:
        return self.norms is None or self.complete or self.norms[u] + self.norms[v] <= self.radius

    def bfs(self, s: int):
        """(dist, counts) from s; counts[v] is the exact number of geodesics s -> v."""
        got = self._bfs.get(s)
        if got is None:
            dist = [-1] * self.n
            counts = [0] * self.n
            dist[s], counts[s] = 0, 1
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for v in self.adj[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        queue.append(v)
                    if dist[v] == dist[u] + 1:
                        counts[v] += counts[u]
            got = self._bfs[s] = (dist, counts)
        return got

    def dist(self, u: int, v: int) -> int:
        return self.bfs(u)[0][v]

    def count(self, u: int, v: int) -> int:
        return self.bfs(u)[1][v]

    def geodesics(self, u: int, v: int) -> list:
        """Every geodesic u -> v as a vertex tuple (call only when there are few)."""
        to_v = self.bfs(v)[0]
        total = to_v[u]
        out = []

        def extend(path):
            x = path[-1]
            if x == v:
                out.append(tuple(path))
                return
            for y in self.adj[x]:
                if to_v[y] == total - len(path):
                    path.append(y)
                    extend(path)
                    path.pop()

        extend([u])
        return out

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def scoped_pairs(self, max_pairs):
        """Trusted connected pairs u < v in (distance, u, v) order, capped; plus skipped count."""
        rows, skipped = [], 0
        for u in range(self.n):
            dist = self.bfs(u)[0]
            for v in range(u + 1, self.n):
                if dist[v] < 0:
                    continue
                if not self.trusted(u, v):
                    skipped += 1
                    continue
                rows.append((dist[v], u, v))
        rows.sort()
        return rows[:max_pairs], len(rows), skipped


# ---- languages and automata --------------------------------------------

def has_factor(word: tuple, forbidden: set, lengths) -> bool:
    """Naive scan: whether some factor of word lies in the forbidden set."""
    for i in range(len(word)):
        for n in lengths:
            if word[i:i + n] in forbidden:
                return True
    return False


def automaton_live_states(forbidden: set) -> int:
    """Proper prefixes of forbidden words that contain no forbidden factor."""
    lengths = sorted({len(w) for w in forbidden})
    prefixes = {w[:i] for w in forbidden for i in range(len(w))}
    return sum(1 for p in prefixes if not has_factor(p, forbidden, lengths))


def sample_words(rng, letters, forbidden, count, max_len):
    """Seeded test words: all words up to length 3, then random words.

    Half the random words are grown to avoid forbidden factors and end on a
    random letter, so long accepted words are exercised as well.
    """
    lengths = sorted({len(w) for w in forbidden})
    words = [w for n in range(4) for w in itertools.product(letters, repeat=n)]
    for i in range(count):
        n = rng.randint(4, max_len)
        if i % 2:
            words.append(tuple(rng.choice(letters) for _ in range(n)))
            continue
        w = ()
        while len(w) < n - 1:
            options = [c for c in letters if not has_factor(w[-max(lengths):] + (c,), forbidden, lengths)]
            w += (rng.choice(options),)
        words.append(w + (rng.choice(letters),))
    return words


def run_table(lines, word):
    """Simulate a printed automaton table; None when the table is malformed."""
    state = lines["start"]
    for c in word:
        state = lines["delta"].get((state, c))
        if state is None:
            return None
        if state == lines["dead"]:
            return False
    return state != lines["dead"]
