"""Command-line front end.

Thin adapter over the library: every subcommand parses inputs, calls one
or two module functions, and prints stable line-oriented text.  Identical
invocations produce byte-identical output.  Exit codes: 0 success, 1 for
a flagged negative analysis result (check-k --expect mismatch), 2 for
input errors.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import Counter
from typing import Iterator

from .geometry import (
    Coverage,
    SearchScope,
    enumerate_bigons,
    enumerate_triangles,
    find_ladders,
    ladder_bound_A,
)
from .graphs import graph_to_dot, min_geodetic_k, parse_graph
from .groups import (
    BallBudgetError,
    CayleyBall,
    GroupFile,
    cayley_ball,
    parse_group_file,
    word_to_element,
)
from .lang import (
    build_factor_automaton,
    centraliser_in_ball,
    check_factor_length,
    forbidden_set_lines,
    minimal_forbidden_factors,
    parse_forbidden_file,
    power_language,
    power_report_lines,
)
from .words import (
    commuting_common_root,
    format_word,
    parse_word,
    primitive_root,
    solve_zx_eq_yz,
)


def _bool_flag(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _group_and_radius(args) -> tuple[GroupFile, int]:
    """The parsed --group file and the requested radius R."""
    if not args.group:
        raise ValueError("pass --group FILE")
    gf = parse_group_file(_read(args.group))
    radius = args.radius if args.radius is not None else gf.default_radius
    if radius is None:
        raise ValueError("no radius: pass --radius or a 'ball R=<r>' line in the group file")
    if radius < 0:  # before --e is checked against it
        raise ValueError("radius must be nonnegative")
    return gf, radius


def _load_ball(args) -> CayleyBall:
    gf, radius = _group_and_radius(args)
    return cayley_ball(gf.spec, gf.genset, radius)


def _load_factor_ball(args) -> CayleyBall:
    """The radius-e ball that forbidden and automaton read, --e checked first.

    They read only words of length <= e, which the radius-e ball, a prefix
    of the radius-R one, already holds.  --e is checked against R before
    any vertex is built.
    """
    gf, radius = _group_and_radius(args)
    if args.e is None:
        raise ValueError("pass --e for the forbidden-factor length bound")
    check_factor_length(args.e, radius)
    return cayley_ball(gf.spec, gf.genset, args.e)


def _load_host(args):
    """Graph file or group ball; analyses on balls stay on trusted pairs."""
    if getattr(args, "graph", None):
        if getattr(args, "group", None):
            raise ValueError("pass --graph or --group, not both")
        return parse_graph(_read(args.graph))
    if getattr(args, "group", None):
        return _load_ball(args)
    raise ValueError("pass --graph FILE or --group FILE")


def _dot(host) -> str:
    """DOT text of a graph, or of a ball with element and generator labels."""
    if isinstance(host, CayleyBall):
        labels = [host.spec.format_element(x) for x in host.elements]
        # The edges and their labels are read off steps, with no graph: edge
        # u - v gets the generator that takes u to v.
        moves = list(zip(host.genset.labels, host.steps))
        return graph_to_dot(host, vertex_labels=labels,
                            edge_label=lambda u, v: next(s for s, row in moves if row[u] == v))
    return graph_to_dot(host)


def _min_k(host) -> tuple[int, tuple[int, int]]:
    """Minimal k and witness: one identity BFS on a ball, all pairs on a graph."""
    if isinstance(host, CayleyBall):
        return host.min_geodetic_k()
    return min_geodetic_k(host)


def _scope(args) -> SearchScope:
    return SearchScope(max_pairs=args.scope_pairs, max_geodesics=args.scope_geodesics)


def _print_found(cov: Coverage, chunks, scanned: bool) -> None:
    """Write the report text chunk by chunk, then the coverage line when scanned is set."""
    for chunk in chunks:
        sys.stdout.write(chunk)
    if scanned:
        print(
            f"scanned: pairs={cov.pairs_scanned} geodesic_pairs={cov.geodesic_pairs_scanned} "
            f"skipped={cov.skipped} exhausted={'true' if cov.exhausted else 'false'}"
        )


def _ladder_lines(cov: Coverage) -> Iterator[str]:
    """One chunk per ladder record, one line per ladder; the endpoint text of
    each geodesic and the tail of each (length, height) are made once."""
    ends, tails = {}, {}
    for r in cov.found:
        lines, v1 = [], r.gamma1.vertices
        head = f"ladder: p1={v1[0]}->{v1[-1]} p2="
        for p2, height in zip(r.partners, r.heights):
            v2, key = p2.vertices, (len(v1), height)
            end = ends.get(v2) or ends.setdefault(v2, f"{v2[0]}->{v2[-1]}")
            tail = tails.get(key) or tails.setdefault(key, (
                f" len={key[0] - 1} m={r.m} height={height} bound={r.bound} "
                f"within={'true' if height <= r.bound else 'false'}\n"))
            lines.append(f"{head}{end}{tail}")
        yield "".join(lines)


def _flag_counts(cov: Coverage) -> str:
    """found= and non_degenerate= of a bigon or triangle scan, read off its records' flags."""
    flags = [r.degenerate for r in cov.found]
    return f"found={sum(map(len, flags))} non_degenerate={sum(f.count(False) for f in flags)}"


def _flag_lines(cov: Coverage, prefix) -> Iterator[str]:
    """One chunk per bigon or triangle record: prefix(record), which ends in
    'degenerate=', with true or false once per flag."""
    for r in cov.found:
        if r.degenerate:
            text = prefix(r)
            yield "".join(map((text + "false\n", text + "true\n").__getitem__, r.degenerate))


def cmd_ball(args) -> int:
    ball = _load_ball(args)
    print(
        f"ball: radius={ball.radius} vertices={ball.vertex_count} "
        f"edges={ball.edge_count} complete={'true' if ball.complete else 'false'}"
    )
    if args.verbose:
        for d, n in sorted(Counter(ball.norms).items()):
            print(f"norm {d}: {n} elements")
        order = ball.spec.order()
        if order is not None:
            print(f"reached {len(ball.elements)} of {order} group elements")
    if args.dot:
        _write(args.dot, _dot(ball))
    return 0


def cmd_check_k(args) -> int:
    if args.k < 1:
        raise ValueError("k must be at least 1")
    min_k, witness = _min_k(_load_host(args))
    ok = min_k <= args.k
    print(f"k-geodetic: {'true' if ok else 'false'} (min k = {min_k})")
    if args.verbose:
        u, v = witness
        print(f"witness: {min_k} geodesics between vertices {u} and {v}")
    if args.expect is not None and args.expect != ok:
        return 1
    return 0


def cmd_min_k(args) -> int:
    min_k, witness = _min_k(_load_host(args))
    print(f"min k = {min_k}")
    if args.verbose:
        u, v = witness
        print(f"witness: {min_k} geodesics between vertices {u} and {v}")
    return 0


def cmd_ladders(args) -> int:
    scope = _scope(args)
    if args.m < 1:
        raise ValueError("width m must be at least 1")
    if args.k is not None and args.k < 1:
        raise ValueError("k must be at least 1")
    host = _load_host(args)
    k = args.k if args.k is not None else _min_k(host)[0]
    try:
        bound = str(ladder_bound_A(args.m, k))
    except ValueError:  # past the interpreter's limit on digits printed
        raise ValueError(f"bound A(m, k) at width m={args.m}, k={k} has too many digits to print")
    cov = find_ladders(host, args.m, k, scope)
    found = sum(len(r.heights) for r in cov.found)
    print(f"ladders: m={args.m} k={k} bound={bound} found={found}")
    _print_found(cov, _ladder_lines(cov), True)
    return 0


def _bigon_prefix(r) -> str:
    vs = r.geodesics[0].vertices
    return f"bigon: u={vs[0]} v={vs[-1]} len={len(vs) - 1} degenerate="


def cmd_bigons(args) -> int:
    scope = _scope(args)
    cov = enumerate_bigons(_load_host(args), scope)
    sides = [len(r.geodesics[0].vertices) - 1 for r in cov.found if False in r.degenerate]
    print(f"bigons: {_flag_counts(cov)} max_non_degenerate_side={max(sides, default='none')}")
    _print_found(cov, _flag_lines(cov, _bigon_prefix), args.verbose)
    return 0


def _triangle_prefix(r) -> str:
    va, vb, vc = r.alphas[0].vertices, r.betas[0].vertices, r.gammas[0].vertices
    return (f"triangle: corners={va[0]},{vb[0]},{vc[0]} "
            f"sides={len(va) - 1},{len(vb) - 1},{len(vc) - 1} degenerate=")


def cmd_triangles(args) -> int:
    scope = _scope(args)
    cov = enumerate_triangles(_load_host(args), scope)
    print(f"triangles: {_flag_counts(cov)}")
    _print_found(cov, _flag_lines(cov, _triangle_prefix), args.verbose)
    return 0


def cmd_forbidden(args) -> int:
    ball = _load_factor_ball(args)
    forbidden = minimal_forbidden_factors(ball, args.e)
    for line in forbidden_set_lines(forbidden):
        print(line)
    return 0


def cmd_automaton(args) -> int:
    if args.file:
        for flag, value in (("--group", args.group), ("--e", args.e), ("--radius", args.radius)):
            if value is not None:
                raise ValueError(f"pass FILE or {flag}, not both")
        forbidden = parse_forbidden_file(_read(args.file))
        letters = sorted({letter for w in forbidden.words for letter in w})
        if not letters:
            raise ValueError("forbidden file carries no letters to build an alphabet from")
    else:
        ball = _load_factor_ball(args)
        forbidden = minimal_forbidden_factors(ball, args.e)
        letters = sorted(ball.genset.labels)
    automaton = build_factor_automaton(forbidden, letters)
    for line in automaton.table_lines():
        print(line)
    if args.dot:
        _write(args.dot, automaton.to_dot())
    return 0


def cmd_powers(args) -> int:
    ball = _load_ball(args)
    w = parse_word(args.word, ball.genset.labels)
    report = power_language(ball, w, args.nmax)
    for line in power_report_lines(report):
        print(line)
    return 0


def cmd_centraliser(args) -> int:
    ball = _load_ball(args)
    w = parse_word(args.word, ball.genset.labels)
    g = word_to_element(ball.spec, ball.genset, w)
    members = centraliser_in_ball(ball, g)
    print(f"centraliser of {ball.spec.format_element(g)} in ball: size={len(members)}")
    for h in members:
        print(ball.spec.format_element(h))
    return 0


def cmd_word_tool(args) -> int:
    if args.action == "primitive-root":
        if len(args.words) != 1:
            raise ValueError("primitive-root takes one word")
        root, power = primitive_root(parse_word(args.words[0]))
        print(f"{format_word(root)} ^ {power}")
        return 0
    if args.action == "solve-zx-yz":
        if len(args.words) != 3:
            raise ValueError("solve-zx-yz takes three words: x y z")
        x, y, z = (parse_word(t) for t in args.words)
        sol = solve_zx_eq_yz(x, y, z)
        print(f"s = {format_word(sol.s)}")
        print(f"t = {format_word(sol.t)}")
        print(f"q = {sol.q}")
        return 0
    if args.action == "common-root":
        if len(args.words) != 2:
            raise ValueError("common-root takes two words")
        root = commuting_common_root(parse_word(args.words[0]), parse_word(args.words[1]))
        print(format_word(root))
        return 0
    raise ValueError(f"unknown word-tool action {args.action!r}")


def cmd_export_dot(args) -> int:
    text = _dot(_load_host(args))
    if args.dot:
        _write(args.dot, text)
    else:
        print(text, end="")
    return 0


# name: (handler, help, shared options, the subcommand's own arguments).
# Shared options come first, in the order graph, group, radius, scope, then
# --verbose; the own arguments follow in the order given.
COMMANDS = {
    "ball": (cmd_ball, "build a Cayley ball and summarize it", ("group", "radius"), [
        ("--dot", dict(metavar="FILE", help="also write the ball graph as DOT")),
    ]),
    "check-k": (cmd_check_k, "test k-geodeticity", ("graph", "group", "radius"), [
        ("--k", dict(type=int, required=True, help="geodeticity constant to test")),
        ("--expect", dict(type=_bool_flag, help="exit 1 unless the verdict matches")),
    ]),
    "min-k": (cmd_min_k, "smallest k with at most k geodesics per pair",
              ("graph", "group", "radius"), []),
    "ladders": (cmd_ladders, "search for ladder-like geodesic pairs",
                ("graph", "group", "radius", "scope"), [
        ("--m", dict(type=int, default=1, help="width (synchronized distance)")),
        ("--k", dict(type=int, help="verified geodeticity constant (computed when absent)")),
    ]),
    "bigons": (cmd_bigons, "enumerate geodesic bigons", ("graph", "group", "radius", "scope"), []),
    "triangles": (cmd_triangles, "enumerate geodesic triangles",
                  ("graph", "group", "radius", "scope"), []),
    "forbidden": (cmd_forbidden, "minimal non-geodesic factors of the ball language",
                  ("group", "radius"), [
        ("--e", dict(type=int, required=True, help="max factor length")),
    ]),
    "automaton": (cmd_automaton, "factor-excluding automaton as a transition table",
                  ("group", "radius"), [
        ("file", dict(nargs="?", help="forbidden-set file (instead of --group)")),
        ("--e", dict(type=int, help="max factor length when deriving from a group")),
        ("--dot", dict(metavar="FILE", help="also write the automaton as DOT")),
    ]),
    "powers": (cmd_powers, "geodesic languages of powers of a base word", ("group", "radius"), [
        ("word", dict(help="base word in generator labels")),
        ("--nmax", dict(type=int, default=6, help="largest power analyzed")),
    ]),
    "centraliser": (cmd_centraliser, "ball elements commuting with a given one",
                    ("group", "radius"), [
        ("word", dict(help="word in generator labels naming the element")),
    ]),
    "word-tool": (cmd_word_tool, "standalone word utilities", (), [
        ("action", dict(choices=["primitive-root", "solve-zx-yz", "common-root"])),
        ("words", dict(nargs="+", help="word arguments (apostrophe marks an inverse)")),
    ]),
    "export-dot": (cmd_export_dot, "write a graph or ball as DOT", ("graph", "group", "radius"), [
        ("--dot", dict(metavar="FILE", help="output file (stdout when absent)")),
    ]),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The argument parser, with every subcommand or, given its name, just one.

    A one-subcommand parser spells out every name in the top-level usage,
    as the full one does, so it prints the same help and errors for its
    subcommand; the full one keeps the default metavar, which also names
    the subcommand argument in its own errors.
    """
    parser = argparse.ArgumentParser(
        prog="geodetic",
        description="Geodesic counting, Cayley balls, ladder bounds, and geodesic languages.",
    )
    metavar = "{" + ",".join(COMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (func, help_text, shared, own) in COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        if "graph" in shared:
            p.add_argument("--graph", metavar="FILE", help="graph file")
        if "group" in shared:
            p.add_argument("--group", metavar="FILE", help="group file")
        if "radius" in shared:
            p.add_argument("--radius", type=int, help="ball radius (overrides the file default)")
        if "scope" in shared:
            p.add_argument("--scope-pairs", type=int, default=SearchScope.max_pairs,
                           help="max vertex pairs scanned")
            p.add_argument("--scope-geodesics", type=int, default=SearchScope.max_geodesics,
                           help="max geodesics per pair")
        p.add_argument("--verbose", action="store_true", help="add human-oriented detail")
        p.set_defaults(func=func)
        for flag, options in own:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; only its parser is built when argv starts with its name.

    The subcommand runs after parsing with the cyclic garbage collector paused
    (its data hold no cycles); the collector is re-enabled unless it was off.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ValueError, OSError, BallBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
