"""Seeded input generation: graph and group files for the benchmark workloads.

Every input is made from the workload seed alone.  The seed changes labels,
generator order, vertex numbering and tree shapes, never the sizes, so the
work per operation stays the same from seed to seed while the inputs (and the
witness pairs, ladder endpoints and word orders in the outputs) differ.

Each input is written to a file for the program and also kept here in the
plain form the reference module reads (edge lists, generator elements), so
the checks never go through the program's parsers.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

LETTERS = "abcdefghkmnpqrstuvwxyz"   # generator labels are drawn from these


@dataclass
class GroupInput:
    """A group file: kind is 'plain', 'product' or 'cyclic'.

    Elements use the reference forms: reduced syllable tuples
    ((factor, exponent), ...) for plain groups, component tuples for
    products, residues for cyclic groups.
    """

    name: str
    kind: str
    orders: tuple          # plain: (free_rank, finite orders...); product/cyclic: factor orders
    gens: list             # [(label, element)] in file order
    radius: int
    path: str = ""
    letter: dict = field(default_factory=dict)   # role -> label, e.g. "x0" -> "q", "x0'" -> "q'"

    @property
    def labels(self) -> list[str]:
        return [label for label, _ in self.gens]


@dataclass
class GraphInput:
    name: str
    n: int
    edges: list            # [(u, v)] in file order
    path: str = ""


FACTOR_NAMES = "abcdefghijklmnopqrstuvwxyz"   # how plain-group files name factor i


def _plain_syllable_text(factor: int, e: int) -> str:
    name = FACTOR_NAMES[factor]
    return name if e == 1 else f"{name}^{e}"


def group_text(gi: GroupInput) -> str:
    lines = []
    if gi.kind == "plain":
        rank, finite = gi.orders[0], gi.orders[1:]
        opts = f"Z={rank}" + (f" factors={','.join(str(o) for o in finite)}" if finite else "")
        lines.append(f"group plain {opts}")
        for label, elem in gi.gens:
            ((f, e),) = elem
            lines.append(f"gen {label} word {_plain_syllable_text(f, e)}")
    elif gi.kind == "product":
        lines.append("group product " + " ".join(f"cyclic {o}" for o in gi.orders))
        for label, elem in gi.gens:
            lines.append(f"gen {label} " + ", ".join(f"pow {x}" for x in elem))
    else:
        lines.append(f"group cyclic {gi.orders[0]}")
        for label, elem in gi.gens:
            lines.append(f"gen {label} pow {elem}")
    lines.append(f"ball R={gi.radius}")
    return "\n".join(lines) + "\n"


def graph_text(g: GraphInput) -> str:
    return f"graph {g.n}\n" + "".join(f"e {u} {v}\n" for u, v in g.edges)


def _relabel(rng: random.Random, n: int, edges) -> list:
    """Edges under a random vertex permutation, each edge randomly oriented, shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = []
    for u, v in edges:
        a, b = perm[u], perm[v]
        out.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(out)
    return out


def random_tree(rng, name, n) -> GraphInput:
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return GraphInput(name, n, _relabel(rng, n, edges))


def grid(rng, name, a, b) -> GraphInput:
    edges = []
    for i in range(a):
        for j in range(b):
            if i + 1 < a:
                edges.append((i * b + j, (i + 1) * b + j))
            if j + 1 < b:
                edges.append((i * b + j, i * b + j + 1))
    return GraphInput(name, a * b, _relabel(rng, a * b, edges))


def complete_bipartite(rng, name, a, b) -> GraphInput:
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return GraphInput(name, a + b, _relabel(rng, a + b, edges))


def cycle(rng, name, n) -> GraphInput:
    return GraphInput(name, n, _relabel(rng, n, [(i, (i + 1) % n) for i in range(n)]))


def petersen(rng, name) -> GraphInput:
    edges = []
    for i in range(5):
        edges += [(i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, i + 5)]
    return GraphInput(name, 10, _relabel(rng, 10, edges))


def _letters(rng, count) -> list[str]:
    return rng.sample(LETTERS, count)


def _shuffled(rng, gens):
    gens = list(gens)
    rng.shuffle(gens)
    return gens


def free_group(rng, name, rank, radius) -> GroupInput:
    """F_rank; roles x0, x0', x1, x1', ... name the generator labels."""
    letter, gens = {}, []
    for i, c in enumerate(_letters(rng, rank)):
        letter[f"x{i}"], letter[f"x{i}'"] = c, c + "'"
        gens += [(c, ((i, 1),)), (c + "'", ((i, -1),))]
    return GroupInput(name, "plain", (rank,), _shuffled(rng, gens), radius, letter=letter)


def z2_star_z3(rng, name, radius) -> GroupInput:
    """Z2 * Z3 = <a | a^2> * <b | b^3> with generators a, b, b^2 = b'."""
    c_a, c_b = _letters(rng, 2)
    letter = {"a": c_a, "b": c_b, "b'": c_b + "'"}
    gens = [(c_a, ((0, 1),)), (c_b, ((1, 1),)), (c_b + "'", ((1, 2),))]
    return GroupInput(name, "plain", (0, 2, 3), _shuffled(rng, gens), radius, letter=letter)


def z2_free_cube(rng, name, radius) -> GroupInput:
    """Z2 * Z2 * Z2 with its three involutions."""
    cs = _letters(rng, 3)
    letter = {f"x{i}": c for i, c in enumerate(cs)}
    gens = [(c, ((i, 1),)) for i, c in enumerate(cs)]
    return GroupInput(name, "plain", (0, 2, 2, 2), _shuffled(rng, gens), radius, letter=letter)


def z_cross_z(rng, name, radius) -> GroupInput:
    c_a, c_b = _letters(rng, 2)
    letter = {"a": c_a, "a'": c_a + "'", "b": c_b, "b'": c_b + "'"}
    gens = [(c_a, (1, 0)), (c_a + "'", (-1, 0)), (c_b, (0, 1)), (c_b + "'", (0, -1))]
    return GroupInput(name, "product", (0, 0), _shuffled(rng, gens), radius, letter=letter)


def z_cross_z2(rng, name, radius) -> GroupInput:
    c_a, c_f = _letters(rng, 2)
    letter = {"a": c_a, "a'": c_a + "'", "f": c_f}
    gens = [(c_a, (1, 0)), (c_a + "'", (-1, 0)), (c_f, (0, 1))]
    return GroupInput(name, "product", (0, 2), _shuffled(rng, gens), radius, letter=letter)


def integers(rng, name, radius) -> GroupInput:
    (c,) = _letters(rng, 1)
    letter = {"a": c, "a'": c + "'"}
    gens = _shuffled(rng, [(c, 1), (c + "'", -1)])
    return GroupInput(name, "cyclic", (0,), gens, radius, letter=letter)


def odd_powers(rng, name, k) -> GroupInput:
    """Z_{2k} generated by every odd residue: its Cayley graph is K_{k,k}."""
    (c,) = _letters(rng, 1)
    gens = [(f"{c}{p}", p) for p in range(1, 2 * k, 2)]
    return GroupInput(name, "cyclic", (2 * k,), _shuffled(rng, gens), 2)


def write_all(directory: str, inputs) -> None:
    for item in inputs:
        if isinstance(item, GroupInput):
            item.path = os.path.join(directory, item.name + ".grp")
            text = group_text(item)
        else:
            item.path = os.path.join(directory, item.name + ".g")
            text = graph_text(item)
        with open(item.path, "w", encoding="utf-8") as fh:
            fh.write(text)
