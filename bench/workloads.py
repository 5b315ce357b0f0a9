"""The three benchmark workloads: their inputs, operations and output checks.

An operation is either a CLI invocation through ``geodetic.cli.main(argv)``
with stdout captured, or a library call where the CLI has no subcommand.
Each operation carries a check that compares its output with the reference
module (closed forms, the benchmark's own BFS, a naive factor scan) or with
an invariant the method must satisfy.  Nothing is compared with a stored
copy of earlier output.

Library calls look functions up on the module objects at call time, so the
traced run sees them through its wrappers.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import inputs as gen
import reference as ref

MAX_PAIRS = 2000          # SearchScope defaults the CLI runs with
MAX_GEODESICS = 50
MAX_GEODESIC_PAIRS = 200_000


class CheckError(Exception):
    """An operation's output disagrees with the reference."""


def expect(cond, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


@dataclass
class Op:
    label: str
    call: Callable      # call(mods) -> result; CLI results are (rc, stdout, stderr)
    check: Callable     # check(result) -> None, raises CheckError
    cli: bool = True
    rc: int = 0


class Memo:
    """Reference values computed on first use and kept for later rounds."""

    def __init__(self):
        self._values = {}

    def get(self, key, make):
        if key not in self._values:
            self._values[key] = make()
        return self._values[key]


# ---- shared helpers -----------------------------------------------------

def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def cli_op(label, argv, check, rc=0) -> Op:
    return Op(label, lambda mods: mods.run_cli(argv), check, True, rc)


def _fields(line: str) -> dict:
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def _word(labels) -> str:
    return "".join(labels)


def check_witness(out: str, host: ref.RefHost, k: int) -> None:
    m = re.search(r"^witness: (\d+) geodesics between vertices (\d+) and (\d+)$", out, re.M)
    expect(m, "no witness line")
    count, u, v = map(int, m.groups())
    expect(count == k, f"witness claims {count} geodesics, expected {k}")
    expect(u != v and host.trusted(u, v), f"witness pair {u},{v} is not a trusted pair")
    expect(host.count(u, v) == k, f"reference BFS counts {host.count(u, v)} geodesics {u}->{v}, not {k}")


def check_min_k(host_of, k_expected):
    def check(result):
        _, out, _ = result
        first = out.splitlines()[0]
        expect(first == f"min k = {k_expected}", f"got {first!r}, expected min k = {k_expected}")
        check_witness(out, host_of(), k_expected)
    return check


def check_check_k(host_of, k_expected, k_arg, verbose=True):
    def check(result):
        _, out, _ = result
        verdict = "true" if k_expected <= k_arg else "false"
        first = out.splitlines()[0]
        expect(first == f"k-geodetic: {verdict} (min k = {k_expected})", f"got {first!r}")
        if verbose:
            check_witness(out, host_of(), k_expected)
    return check


def scoped_expectation(host: ref.RefHost, max_pairs=MAX_PAIRS):
    """What a scoped pair scan must cover: rows, per-distance geodesic totals, flags."""
    rows, admitted, skipped = host.scoped_pairs(max_pairs)
    per_d = Counter()
    truncated = False
    for d, u, v in rows:
        c = host.count(u, v)
        per_d[d] += min(c, MAX_GEODESICS)
        truncated |= c > MAX_GEODESICS
    total = sum(n * (n - 1) // 2 for n in per_d.values())
    return rows, admitted, skipped, truncated, total


def check_ladders(host_of, memo, m, k, max_pairs=MAX_PAIRS):
    """Header constants, per-ladder invariants and the coverage record."""
    def check(result):
        _, out, _ = result
        host = host_of()
        lines = out.splitlines()
        head = re.fullmatch(r"ladders: m=(\d+) k=(\d+) bound=(\d+) found=(\d+)", lines[0])
        expect(head, f"bad header {lines[0]!r}")
        hm, hk, bound, found = map(int, head.groups())
        expect((hm, hk) == (m, k), f"header m={hm} k={hk}, expected m={m} k={k}")
        expect(bound == ref.ladder_bound_A(m, k), f"bound {bound} != A({m},{k})")
        body = lines[1:-1]
        expect(len(body) == found, f"found={found} but {len(body)} ladder lines")
        pat = re.compile(r"ladder: p1=(\d+)->(\d+) p2=(\d+)->(\d+) len=(\d+) m=(\d+) "
                         r"height=(\d+) bound=(\d+) within=(true|false)")
        for line in body:
            lm = pat.fullmatch(line)
            expect(lm, f"bad ladder line {line!r}")
            a, b, c, d, length, lm_m, height, lb = map(int, lm.groups()[:8])
            expect(lm_m == m and lb == bound and lm.group(9) == "true", f"bad ladder {line!r}")
            expect(1 <= height <= min(bound, length + 1), f"height out of range in {line!r}")
            expect(host.trusted(a, b) and host.trusted(c, d), f"untrusted endpoints in {line!r}")
            expect(host.dist(a, b) == length == host.dist(c, d), f"not geodesic lengths in {line!r}")
        scanned = _fields(lines[-1])
        expect(lines[-1].startswith("scanned: "), f"bad coverage line {lines[-1]!r}")
        rows, admitted, skipped, truncated, total = memo.get(
            ("scope", id(host), max_pairs), lambda: scoped_expectation(host, max_pairs))
        expect(int(scanned["skipped"]) == skipped,
               f"skipped={scanned['skipped']}, reference counts {skipped} untrusted pairs")
        expect(int(scanned["pairs"]) == len(rows), f"pairs={scanned['pairs']}, expected {len(rows)}")
        expect(int(scanned["geodesic_pairs"]) == min(total, MAX_GEODESIC_PAIRS),
               f"geodesic_pairs={scanned['geodesic_pairs']}, expected {min(total, MAX_GEODESIC_PAIRS)}")
        exhausted = admitted > max_pairs or truncated or total > MAX_GEODESIC_PAIRS
        expect(scanned["exhausted"] == ("true" if exhausted else "false"), "wrong exhausted flag")
    return check


def check_bigons(host_of, memo):
    def check(result):
        _, out, _ = result
        host = host_of()
        lines = out.splitlines()
        head = _fields(lines[0])
        body = lines[1:]
        expect(int(head["found"]) == len(body), "found disagrees with the bigon lines")
        per_pair, per_pair_nondeg = Counter(), Counter()
        nondeg, best = 0, None
        pat = re.compile(r"bigon: u=(\d+) v=(\d+) len=(\d+) degenerate=(true|false)")
        for line in body:
            bm = pat.fullmatch(line)
            expect(bm, f"bad bigon line {line!r}")
            u, v, length = map(int, bm.groups()[:3])
            expect(host.dist(u, v) == length, f"bigon side is no geodesic: {line!r}")
            if bm.group(4) == "false":
                nondeg += 1
                best = max(best or 0, length)
                per_pair_nondeg[(u, v)] += 1
            elif length == 2:
                raise CheckError(f"a length-2 bigon cannot be degenerate: {line!r}")
            per_pair[(u, v)] += 1
        expect(int(head["non_degenerate"]) == nondeg, "non_degenerate count disagrees")
        expect(head["max_non_degenerate_side"] == ("none" if best is None else str(best)),
               "max_non_degenerate_side disagrees")
        want, want_nondeg = memo.get(("bigons", id(host)), lambda: expected_bigons(host))
        expect(per_pair == want, "bigons per pair disagree with the reference BFS counts")
        expect(per_pair_nondeg == want_nondeg, "non-degenerate bigons per pair disagree")
    return check


def expected_bigons(host: ref.RefHost):
    """Bigons per scoped pair, and the non-degenerate ones where all geodesics are listed."""
    rows = scoped_expectation(host)[0]
    want, nondeg = Counter(), Counter()
    for _, u, v in rows:
        c = host.count(u, v)
        if c > 1:
            cc = min(c, MAX_GEODESICS)
            want[(u, v)] = cc * (cc - 1) // 2
        if 1 < c <= MAX_GEODESICS:
            geos = host.geodesics(u, v)
            n = sum(1 for i in range(c) for j in range(i + 1, c)
                    if all(geos[i][t] != geos[j][t] for t in range(1, len(geos[i]) - 1)))
            if n:
                nondeg[(u, v)] = n
    return want, nondeg


def expected_triangles(host: ref.RefHost, max_triples=MAX_PAIRS):
    """Triangles per admitted corner triple x <= y <= z, in scan order, and the
    non-degenerate ones where all geodesics of the three sides are listed."""
    want, nondeg = Counter(), Counter()
    for x in range(host.n):
        for y in range(x, host.n):
            for z in range(y, host.n):
                if not (host.trusted(x, y) and host.trusted(y, z) and host.trusted(x, z)):
                    continue
                if len(want) == max_triples:
                    return want, nondeg
                sides = ((x, y), (y, z), (z, x))
                c = [host.count(p, q) for p, q in sides]
                want[(x, y, z)] = math.prod(min(n, MAX_GEODESICS) for n in c)
                if max(c) <= MAX_GEODESICS and min(host.dist(p, q) for p, q in sides) > 0:
                    tails = [[set(g[1:]) for g in host.geodesics(p, q)] for p, q in sides]
                    n = sum(1 for a in tails[0] for b in tails[1] for t in tails[2]
                            if not (a & b or a & t or b & t))
                    if n:
                        nondeg[(x, y, z)] = n
    return want, nondeg


def check_triangles(host_of, memo, tree=False):
    def check(result):
        _, out, _ = result
        host = host_of()
        lines = out.splitlines()
        head = _fields(lines[0])
        body = lines[1:]
        expect(int(head["found"]) == len(body), "found disagrees with the triangle lines")
        got, got_nondeg = Counter(), Counter()
        nondeg = 0
        pat = re.compile(r"triangle: corners=(\d+),(\d+),(\d+) sides=(\d+),(\d+),(\d+) "
                         r"degenerate=(true|false)")
        for line in body:
            tm = pat.fullmatch(line)
            expect(tm, f"bad triangle line {line!r}")
            x, y, z, a, b, c = map(int, tm.groups()[:6])
            expect((a, b, c) == (host.dist(x, y), host.dist(y, z), host.dist(x, z)),
                   f"sides are not the corner distances: {line!r}")
            if tm.group(7) == "false":
                nondeg += 1
                got_nondeg[(x, y, z)] += 1
            got[(x, y, z)] += 1
        expect(int(head["non_degenerate"]) == nondeg, "non_degenerate count disagrees")
        if tree:
            expect(nondeg == 0, "a tree has no non-degenerate geodesic triangle")
        want, want_nondeg = memo.get(("triangles", id(host)), lambda: expected_triangles(host))
        expect(got == want, "triangles per corner triple disagree with the reference counts")
        expect(got_nondeg == want_nondeg, "non-degenerate triangles per corner triple disagree")
    return check


def check_forbidden(want: set, e: int):
    def check(result):
        _, out, _ = result
        lines = out.splitlines()
        expect(lines[0] == f"forbidden e={e}", f"bad header {lines[0]!r}")
        order = [_word(w) for w in sorted(want, key=lambda w: (len(w), w))]
        expect(lines[1:] == order, f"forbidden set differs: {len(lines) - 1} words, expected {len(order)}")
    return check


def parse_table(lines, letters):
    head = re.fullmatch(r"automaton states=(\d+) start=(\d+) dead=(\d+)", lines[0])
    expect(head, f"bad header {lines[0]!r}")
    states, start, dead = map(int, head.groups())
    delta = {}
    for line in lines[1:]:
        tm = re.fullmatch(r"(\d+) (\S+) -> (\d+)", line)
        expect(tm, f"bad transition {line!r}")
        key = (int(tm.group(1)), tm.group(2))
        expect(key not in delta, f"duplicate transition {line!r}")
        delta[key] = int(tm.group(3))
    expect(set(delta) == {(q, c) for q in range(states) for c in letters},
           "transition table is not complete over the generator labels")
    expect(all(delta[(dead, c)] == dead for c in letters), "dead state is not absorbing")
    return {"states": states, "start": start, "dead": dead, "delta": delta}


def check_automaton(want: set, letters, words_of):
    """Table accepts exactly the words with no forbidden factor, on seeded test words."""
    def check(result):
        _, out, _ = result
        table = parse_table(out.splitlines(), letters)
        expect(table["states"] == ref.automaton_live_states(want) + 1,
               f"{table['states']} states, expected one per live trie node plus dead")
        lengths = sorted({len(w) for w in want})
        for w in words_of():
            accepted = ref.run_table(table, w)
            expect(accepted == (not ref.has_factor(w, want, lengths)),
                   f"table and factor scan disagree on {_word(w)!r}")
    return check


def parse_powers(out: str):
    lines = out.splitlines()
    langs = []
    for line in lines[1:-1]:
        pm = re.fullmatch(r"L_(\d+): size=(\d+) \{(.*)\}", line)
        expect(pm and int(pm.group(1)) == len(langs), f"bad language line {line[:80]!r}")
        words = pm.group(3).split(",")
        expect(int(pm.group(2)) == len(words), f"size disagrees with the words of L_{len(langs)}")
        langs.append(["" if w == "λ" else w for w in words])
    return lines, langs


def check_stabilization(line: str, langs) -> None:
    """The reported pumping shape must rebuild every observed L_n, n >= n*."""
    sm = re.fullmatch(r"stabilization: n\*=(\d+) q=(\d+) t=(\S+) s=(\S+) alpha=\{(.*)\} gamma=\{(.*)\}",
                      line)
    expect(sm, f"no stabilization in {line!r}")
    n_star, q = int(sm.group(1)), int(sm.group(2))
    t, s = ("" if x == "λ" else x for x in (sm.group(3), sm.group(4)))
    alpha = ["" if w == "λ" else w for w in sm.group(5).split(",")]
    gamma = ["" if w == "λ" else w for w in sm.group(6).split(",")]
    for n in range(n_star, len(langs)):
        mid = (t + s) * (q + n - n_star) + t
        expect({a + mid + g for a in alpha for g in gamma} == set(langs[n]),
               f"stabilization shape does not rebuild L_{n}")


def check_powers(word: str, n_max: int, want_of_n, growing: bool):
    def check(result):
        _, out, _ = result
        lines, langs = parse_powers(out)
        expect(lines[0] == f"powers of {word}: n_max={n_max}", f"bad header {lines[0]!r}")
        expect(len(langs) == n_max + 1, f"{len(langs)} languages, expected {n_max + 1}")
        for n, lang in enumerate(langs):
            want = want_of_n(n)
            expect(len(lang) == len(want) and set(lang) == want, f"L_{n} differs from the reference")
        if growing:
            expect(lines[-1] == "stabilization: none (multiplicity growing)", f"got {lines[-1]!r}")
        else:
            check_stabilization(lines[-1], langs)
    return check


def check_centraliser(shown_word: str, members: set):
    def check(result):
        _, out, _ = result
        lines = out.splitlines()
        expect(lines[0] == f"centraliser of {shown_word} in ball: size={len(members)}",
               f"got {lines[0]!r}, expected size={len(members)}")
        expect(len(lines) - 1 == len(members) and set(lines[1:]) == members,
               "centraliser members differ from the reference")
    return check


def _apply(gi, x, word):
    elems = dict(gi.gens)
    for label in word:
        x = ref.right_multiply(gi, x, elems[label])
    return x


def _inverse_label(gi, label):
    elem = dict(gi.gens)[label]
    for other, e in gi.gens:
        if ref.right_multiply(gi, elem, e) == ref.identity(gi):
            return other
    raise ValueError(f"{label!r} has no inverse generator")


def powers_in_ball(gi: gen.GroupInput, word, k_max: int) -> set:
    """Formatted w^k for |k| <= k_max."""
    inverse_word = [_inverse_label(gi, label) for label in reversed(word)]
    one = ref.identity(gi)
    out = {ref.format_element(gi, one)}
    for seq in (word, inverse_word):
        x = one
        for _ in range(k_max):
            x = _apply(gi, x, seq)
            out.add(ref.format_element(gi, x))
    return out


# ---- workloads ----------------------------------------------------------

def geodeticity(rng, tmpdir):
    """All-pairs BFS and the DAG cache: min-k / check-k on balls and plain graphs."""
    f2 = gen.free_group(rng, "f2", 2, 6)
    kk = gen.odd_powers(rng, "kk150", 150)
    zz = gen.z_cross_z(rng, "zz", 14)
    cube = gen.z2_free_cube(rng, "z2cube", 7)
    zxz2 = gen.z_cross_z2(rng, "zxz2", 10)
    tree = gen.random_tree(rng, "tree", 600)
    grid = gen.grid(rng, "grid", 20, 25)
    items = [f2, kk, zz, cube, zxz2, tree, grid]
    gen.write_all(tmpdir, items)

    def make_ops():
        memo = Memo()
        ball = lambda gi, r: lambda: memo.get((gi.name, r), lambda: ref.RefHost.from_group(gi, r))
        graph = lambda g: lambda: memo.get(g.name, lambda: ref.RefHost.from_graph(g))
        k_grid = ref.min_k_grid(20, 25)

        def lib_f2(mods):
            gf = mods.groups.parse_group_file(_read(f2.path))
            b = mods.groups.cayley_ball(gf.spec, gf.genset, 5)
            k, witness = mods.graphs.min_geodetic_k(b.graph, b.is_trusted_pair)
            verdict = mods.graphs.is_k_geodetic(b.graph, k, b.is_trusted_pair)
            return k, witness, verdict

        def check_lib_f2(result):
            k, (u, v), verdict = result
            expect(k == 1, f"min_geodetic_k on F2 gave {k}")
            host = ball(f2, 5)()
            expect(host.trusted(u, v) and host.count(u, v) == 1, "bad F2 witness")
            expect(verdict == (True, None), f"is_k_geodetic(F2, 1) gave {verdict}")

        def lib_zz(mods):
            gf = mods.groups.parse_group_file(_read(zz.path))
            b = mods.groups.cayley_ball(gf.spec, gf.genset, gf.default_radius)
            k = ref.min_k_zz(14)
            return (mods.graphs.is_k_geodetic(b.graph, k, b.is_trusted_pair),
                    mods.graphs.is_k_geodetic(b.graph, k - 1, b.is_trusted_pair))

        def check_lib_zz(result):
            at_k, below = result
            expect(at_k == (True, None), f"is_k_geodetic(ZxZ, {ref.min_k_zz(14)}) gave {at_k}")
            ok, pair = below
            host = ball(zz, 14)()
            expect(not ok and host.trusted(*pair) and host.count(*pair) == ref.min_k_zz(14),
                   f"is_k_geodetic(ZxZ, {ref.min_k_zz(14) - 1}) gave {below}")

        return [
            cli_op("check-k F2 R=6", ["check-k", "--group", f2.path, "--k", "1", "--expect", "true",
                                      "--verbose"], check_check_k(ball(f2, 6), 1, 1)),
            Op("library min_geodetic_k + is_k_geodetic F2 R=5", lib_f2, check_lib_f2, cli=False),
            cli_op("min-k K_150,150", ["min-k", "--group", kk.path, "--verbose"],
                   check_min_k(ball(kk, 2), 150)),
            cli_op("min-k ZxZ R=14", ["min-k", "--group", zz.path, "--verbose"],
                   check_min_k(ball(zz, 14), ref.min_k_zz(14))),
            Op("library is_k_geodetic ZxZ R=14 at k and k-1", lib_zz, check_lib_zz, cli=False),
            cli_op("check-k ZxZ R=12 k=924", ["check-k", "--group", zz.path, "--radius", "12",
                                              "--k", "924", "--expect", "true", "--verbose"],
                   check_check_k(ball(zz, 12), ref.min_k_zz(12), 924)),
            cli_op("check-k ZxZ R=12 k=923", ["check-k", "--group", zz.path, "--radius", "12",
                                              "--k", "923", "--expect", "true"],
                   check_check_k(ball(zz, 12), ref.min_k_zz(12), 923, verbose=False), rc=1),
            cli_op("min-k Z2*Z2*Z2 R=7", ["min-k", "--group", cube.path, "--verbose"],
                   check_min_k(ball(cube, 7), 1)),
            cli_op("check-k ZxZ2 R=10", ["check-k", "--group", zxz2.path, "--k", "10", "--verbose"],
                   check_check_k(ball(zxz2, 10), 10, 10)),
            cli_op("min-k tree n=600", ["min-k", "--graph", tree.path, "--verbose"],
                   check_min_k(graph(tree), 1)),
            cli_op("check-k grid 20x25", ["check-k", "--graph", grid.path, "--k", str(k_grid),
                                          "--expect", "true", "--verbose"],
                   check_check_k(graph(grid), k_grid, k_grid)),
        ]

    return make_ops


def ladders(rng, tmpdir):
    """Geodesic enumeration, pair_stats and large reports: the scoped pair scans."""
    zz = gen.z_cross_z(rng, "zz", 6)
    f2 = gen.free_group(rng, "f2", 2, 4)
    zxz2 = gen.z_cross_z2(rng, "zxz2", 6)
    k35 = gen.complete_bipartite(rng, "k35", 3, 5)
    c8 = gen.cycle(rng, "c8", 8)
    c9 = gen.cycle(rng, "c9", 9)
    pet = gen.petersen(rng, "petersen")
    tree = gen.random_tree(rng, "tree", 300)
    tree60 = gen.random_tree(rng, "tree60", 60)
    grid = gen.grid(rng, "grid", 15, 15)
    survey_graphs = [gen.cycle(rng, f"s_c{n}", n) for n in (5, 6, 7)]
    survey_graphs += [gen.complete_bipartite(rng, "s_k23", 2, 3), gen.complete_bipartite(rng, "s_k34", 3, 4),
                      gen.petersen(rng, "s_petersen"), gen.random_tree(rng, "s_tree20", 20),
                      gen.random_tree(rng, "s_tree30", 30)]
    survey_k = {"s_c5": 1, "s_c6": 2, "s_c7": 1, "s_k23": 3, "s_k34": 4, "s_petersen": 1,
                "s_tree20": 1, "s_tree30": 1}
    survey_groups = [gen.odd_powers(rng, f"s_z{2 * k}", k) for k in (3, 4, 5)]
    items = [zz, f2, zxz2, k35, c8, c9, pet, tree, tree60, grid] + survey_graphs + survey_groups
    gen.write_all(tmpdir, items)

    def make_ops():
        memo = Memo()
        ball = lambda gi, r: lambda: memo.get((gi.name, r), lambda: ref.RefHost.from_group(gi, r))
        graph = lambda g: lambda: memo.get(g.name, lambda: ref.RefHost.from_graph(g))
        k_zz, k_grid = ref.min_k_zz(6), ref.min_k_grid(15, 15)

        def survey(mods):
            """The close-count half of scripts/ladder_survey.py over its host families."""
            out = []
            hosts = [(g.name, mods.graphs.parse_graph(_read(g.path))) for g in survey_graphs]
            for gi in survey_groups:
                gf = mods.groups.parse_group_file(_read(gi.path))
                hosts.append((gi.name, mods.groups.cayley_ball(gf.spec, gf.genset, gf.default_radius)))
            for name, host in hosts:
                if hasattr(host, "graph"):
                    k, _ = mods.graphs.min_geodetic_k(host.graph, host.is_trusted_pair)
                else:
                    k, _ = mods.graphs.min_geodetic_k(host)
                for m in (1, 2):
                    pairs = list(mods.geometry.iter_disjoint_pairs(host, m, mods.geometry.SearchScope()))
                    out.append((name, k, m, pairs))
            return out

        def check_survey(result):
            want_k = dict(survey_k, **{gi.name: gi.orders[0] // 2 for gi in survey_groups})
            hosts = {g.name: graph(g) for g in survey_graphs}
            hosts.update({gi.name: ball(gi, 2) for gi in survey_groups})
            expect(len(result) == 2 * len(want_k), "survey skipped a host")
            for name, k, m, pairs in result:
                expect(k == want_k[name], f"{name}: k={k}, expected {want_k[name]}")
                host = hosts[name]()
                for p1, p2, stats in pairs:
                    a, b = p1.vertices, p2.vertices
                    n = len(a) - 1
                    expect(len(b) == len(a) and n >= 1, f"{name}: pair of unequal or empty paths")
                    for p in (a, b):
                        expect(all(y in host.adj[x] for x, y in zip(p, p[1:])), f"{name}: not a path")
                        expect(host.dist(p[0], p[-1]) == n, f"{name}: path is no geodesic")
                    expect(all(a[i] != b[j] for i in range(n + 1) for j in range(n + 1) if i != j),
                           f"{name}: pair is not asynchronously disjoint")
                    d = [host.dist(x, y) for x, y in zip(a, b)]
                    c_m = sum(1 for x in d if 1 <= x <= m)
                    expect(stats.asynchronously_disjoint and stats.c_m == c_m
                           and stats.a_m == d.count(m), f"{name}: wrong pair statistics")
                    expect(c_m <= ref.close_bound_C(m, k), f"{name}: c_m={c_m} beyond C({m},{k})")

        ops = [
            cli_op("ladders ZxZ R=6 m=1", ["ladders", "--group", zz.path, "--m", "1"],
                   check_ladders(ball(zz, 6), memo, 1, k_zz)),
            cli_op("ladders ZxZ R=6 m=2", ["ladders", "--group", zz.path, "--m", "2",
                                          "--scope-pairs", "200"],
                   check_ladders(ball(zz, 6), memo, 2, k_zz, max_pairs=200)),
            cli_op("bigons ZxZ R=6", ["bigons", "--group", zz.path], check_bigons(ball(zz, 6), memo)),
            cli_op("triangles ZxZ R=6", ["triangles", "--group", zz.path],
                   check_triangles(ball(zz, 6), memo)),
            cli_op("ladders F2 R=4", ["ladders", "--group", f2.path, "--m", "1"],
                   check_ladders(ball(f2, 4), memo, 1, 1)),
            cli_op("ladders ZxZ2 R=6", ["ladders", "--group", zxz2.path, "--m", "1"],
                   check_ladders(ball(zxz2, 6), memo, 1, 6)),
            cli_op("bigons ZxZ2 R=6", ["bigons", "--group", zxz2.path], check_bigons(ball(zxz2, 6), memo)),
            cli_op("ladders K_3,5", ["ladders", "--graph", k35.path, "--m", "1"],
                   check_ladders(graph(k35), memo, 1, ref.min_k_complete_bipartite(3, 5))),
            cli_op("bigons K_3,5", ["bigons", "--graph", k35.path], check_bigons(graph(k35), memo)),
            cli_op("ladders C8 m=2", ["ladders", "--graph", c8.path, "--m", "2"],
                   check_ladders(graph(c8), memo, 2, ref.min_k_cycle(8))),
            cli_op("ladders C9", ["ladders", "--graph", c9.path, "--m", "1"],
                   check_ladders(graph(c9), memo, 1, ref.min_k_cycle(9))),
            cli_op("ladders Petersen", ["ladders", "--graph", pet.path, "--m", "1"],
                   check_ladders(graph(pet), memo, 1, 1)),
            cli_op("ladders tree n=300", ["ladders", "--graph", tree.path, "--m", "1", "--k", "1",
                                          "--scope-pairs", "200"],
                   check_ladders(graph(tree), memo, 1, 1, max_pairs=200)),
            cli_op("ladders grid 15x15", ["ladders", "--graph", grid.path, "--m", "1",
                                          "--scope-pairs", "200"],
                   check_ladders(graph(grid), memo, 1, k_grid, max_pairs=200)),
            cli_op("triangles tree n=60", ["triangles", "--graph", tree60.path],
                   check_triangles(graph(tree60), memo, tree=True)),
            Op("library close-count survey", survey, check_survey, cli=False),
        ]
        return ops

    return make_ops


def languages(rng, tmpdir):
    """Ball construction, group multiplication and the language code; no all-pairs work."""
    f2 = gen.free_group(rng, "f2", 2, 9)
    z23 = gen.z2_star_z3(rng, "z2z3", 24)
    zz = gen.z_cross_z(rng, "zz", 16)
    z = gen.integers(rng, "z", 860)
    gen.write_all(tmpdir, [f2, z23, zz, z])

    L2, L23, Lzz, Lz = f2.letter, z23.letter, zz.letter, z.letter
    # Seeded word arguments.
    x = rng.choice([L2["x0"], L2["x0'"]])
    y = rng.choice([L2["x1"], L2["x1'"]])
    f2_base = [x, y] if rng.random() < 0.5 else [y, x]
    inv = {L2["x0"]: L2["x0'"], L2["x0'"]: L2["x0"], L2["x1"]: L2["x1'"], L2["x1'"]: L2["x1"]}
    while True:   # a cyclically reduced word of length 3 that is no cube
        w = [rng.choice(f2.labels) for _ in range(3)]
        if all(inv[w[i]] != w[(i + 1) % 3] for i in range(3)) and len(set(w)) > 1:
            f2_cent = w
            break
    bs = [L23["b"], L23["b'"]]
    rng.shuffle(bs)
    z23_cent = [L23["a"], bs[0], L23["a"], bs[1]]
    if rng.random() < 0.5:
        z23_cent = z23_cent[1:] + z23_cent[:1]
    zz_x, zz_y = rng.choice([Lzz["a"], Lzz["a'"]]), rng.choice([Lzz["b"], Lzz["b'"]])
    zz_base = [zz_x, zz_y] if rng.random() < 0.5 else [zz_y, zz_x]
    zz_cent = [rng.choice(zz.labels) for _ in range(2)]
    z_base = rng.choice([Lz["a"], Lz["a'"]])
    word_seed = rng.randrange(2 ** 32)
    drops = {name: rng.randrange(10 ** 6) for name in ("f2", "zz")}

    def make_ops():
        memo = Memo()
        F_f2, F_z23, F_zz = ref.forbidden_free(f2), ref.forbidden_z2_star_z3(z23), ref.forbidden_zz(zz, 12)

        def test_words(gi, forbidden, max_len):
            """Seeded words for the automaton checks, made once per run."""
            return lambda: memo.get(("words", gi.name), lambda: ref.sample_words(
                random.Random(f"{word_seed}-{gi.name}"), sorted(gi.labels), forbidden, 400, max_len))

        def check_ball(radius, size, sphere, edges_of):
            def check(result):
                _, out, _ = result
                lines = out.splitlines()
                expect(lines[0] == f"ball: radius={radius} vertices={size} edges={edges_of()} "
                                   f"complete=false", f"got {lines[0]!r}")
                want = [f"norm {d}: {sphere(d)} elements" for d in range(radius + 1)]
                expect(lines[1:] == want, "norm layer sizes differ from the closed form")
            return check

        def z23_edges():
            return memo.get("z23 edges", lambda: ref.RefHost.from_group(z23, 24).edge_count())

        def excluding(gi, forbidden, test_len, key):
            # Only the longest words are dropped: the walk stops at the first
            # counterexample, so dropping a shorter one would cut its cost by
            # a share that changes from seed to seed.
            longest = max(map(len, forbidden))
            words = sorted(w for w in forbidden if len(w) == longest)
            dropped = words[drops[key] % len(words)]

            def call(mods):
                gf = mods.groups.parse_group_file(_read(gi.path))
                b = mods.groups.cayley_ball(gf.spec, gf.genset, test_len)
                full = mods.lang.check_locally_excluding(b, forbidden, test_len)
                short = mods.lang.check_locally_excluding(b, forbidden - {dropped}, test_len)
                return full, short

            def check(result):
                full, short = result
                expect(full == (True, None), f"complete forbidden set rejected: {full}")
                expect(short == (False, dropped), f"dropping {_word(dropped)!r} gave {short}")
            return Op(f"library check_locally_excluding {gi.name}", call, check, cli=False)

        return [
            cli_op("ball F2 R=9", ["ball", "--group", f2.path, "--verbose"],
                   check_ball(9, ref.free_ball_size(2, 9), lambda d: ref.free_sphere_size(2, d),
                              lambda: ref.free_ball_size(2, 9) - 1)),
            cli_op("forbidden F2 e=6", ["forbidden", "--group", f2.path, "--e", "6"], check_forbidden(F_f2, 6)),
            cli_op("automaton F2 R=8 e=6", ["automaton", "--group", f2.path, "--radius", "8", "--e", "6"],
                   check_automaton(F_f2, f2.labels, test_words(f2, F_f2, 14))),
            cli_op("powers F2 R=8", ["powers", _word(f2_base), "--group", f2.path, "--radius", "8",
                                     "--nmax", "4"],
                   check_powers(_word(f2_base), 4, lambda n: {_word(f2_base) * n}, growing=False)),
            cli_op("centraliser F2 R=8", ["centraliser", _word(f2_cent), "--group", f2.path,
                                          "--radius", "8"],
                   check_centraliser(
                       ref.format_element(f2, _apply(f2, ref.identity(f2), f2_cent)),
                       powers_in_ball(f2, f2_cent, 8 // 3))),
            excluding(f2, F_f2, 8, "f2"),
            cli_op("ball Z2*Z3 R=24", ["ball", "--group", z23.path, "--verbose"],
                   check_ball(24, sum(ref.z2_star_z3_sphere_size(d) for d in range(25)),
                              ref.z2_star_z3_sphere_size, z23_edges)),
            cli_op("forbidden Z2*Z3 e=10", ["forbidden", "--group", z23.path, "--e", "10"],
                   check_forbidden(F_z23, 10)),
            cli_op("automaton Z2*Z3 R=20 e=10", ["automaton", "--group", z23.path, "--radius", "20",
                                                 "--e", "10"],
                   check_automaton(F_z23, z23.labels, test_words(z23, F_z23, 14))),
            cli_op("centraliser Z2*Z3 R=20", ["centraliser", _word(z23_cent), "--group", z23.path,
                                              "--radius", "20"],
                   check_centraliser(
                       ref.format_element(z23, _apply(z23, ref.identity(z23), z23_cent)),
                       powers_in_ball(z23, z23_cent, 20 // 4))),
            cli_op("ball ZxZ R=14", ["ball", "--group", zz.path, "--radius", "14", "--verbose"],
                   check_ball(14, ref.zz_ball_size(14), ref.zz_sphere_size,
                              lambda: ref.zz_ball_edges(14))),
            cli_op("forbidden ZxZ e=12", ["forbidden", "--group", zz.path, "--radius", "14", "--e", "12"],
                   check_forbidden(F_zz, 12)),
            cli_op("automaton ZxZ e=12", ["automaton", "--group", zz.path, "--radius", "14", "--e", "12"],
                   check_automaton(F_zz, zz.labels, test_words(zz, F_zz, 16))),
            cli_op("powers ZxZ", ["powers", _word(zz_base), "--group", zz.path, "--nmax", "8"],
                   check_powers(_word(zz_base), 8, lambda n: ref.interleavings(zz_x, zz_y, n),
                                growing=True)),
            cli_op("centraliser ZxZ R=14", ["centraliser", _word(zz_cent), "--group", zz.path,
                                            "--radius", "14"],
                   check_centraliser(
                       ref.format_element(zz, _apply(zz, ref.identity(zz), zz_cent)),
                       {ref.format_element(zz, (p, q)) for p in range(-14, 15) for q in range(-14, 15)
                        if abs(p) + abs(q) <= 14})),
            excluding(zz, F_zz, 12, "zz"),
            cli_op("powers Z n=850", ["powers", z_base, "--group", z.path, "--nmax", "850"],
                   check_powers(z_base, 850, lambda n: {z_base * n}, growing=False)),
        ]

    return make_ops


WORKLOADS = {"geodeticity": geodeticity, "ladders": ladders, "languages": languages}
