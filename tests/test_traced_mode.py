"""The benchmark's traced mode still fits the package.

bench/tracing.py wraps functions by name and Graph.dag and the specs'
multiply by signature; a refactor that renames or reshapes one of them
breaks the traced benchmark, and this test catches it first.
"""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import geodetic
from geodetic import cli, geometry, graphs, groups, lang, words

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_traced_cli_matches_untraced(tmp_path):
    group = tmp_path / "zxz2.grp"
    group.write_text(
        "group product cyclic 0 cyclic 2\n"
        "gen a pow 1, pow 0\ngen a' pow -1, pow 0\ngen f pow 0, pow 1\nball R=3\n"
    )
    graph = tmp_path / "c5.g"
    graph.write_text("graph 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 0\n")
    commands = [
        ["ball", "--group", str(group), "--dot", str(tmp_path / "ball.dot")],
        ["min-k", "--group", str(group), "--verbose"],
        ["min-k", "--graph", str(graph), "--verbose"],
        ["ladders", "--group", str(group), "--m", "1"],
        ["ladders", "--graph", str(graph), "--m", "1"],
        ["powers", "a", "--group", str(group), "--nmax", "3"],
        ["automaton", "--group", str(group), "--e", "2"],
    ]
    plain = [run_cli(argv) for argv in commands]
    plain_dot = (tmp_path / "ball.dot").read_text()

    originals = (graphs.Graph.dag, groups.CyclicSpec.multiply, cli.cayley_ball,
                 graphs.enumerate_geodesics)
    tracer = load_tracing().Tracer([geodetic, cli, graphs, groups, geometry, lang, words])
    tracer.install()
    try:
        traced = [run_cli(argv) for argv in commands]
        c5 = graphs.parse_graph(graph.read_text())
        geometry.pair_stats(c5, graphs.PathSeq((0, 1)), graphs.PathSeq((2, 3)), 1)
    finally:
        tracer.remove()

    assert traced == plain
    assert (tmp_path / "ball.dot").read_text() == plain_dot
    metrics = tracer.round_metrics(0, 1.0)
    assert metrics["groups.ball_vertices"] > 0
    assert metrics["groups.multiply_calls"] > 0
    assert metrics["graphs.bfs_runs"] > 0
    assert metrics["graphs.dag_requests"] > 0
    assert metrics["geometry.pair_stats_calls"] > 0
    assert metrics["geometry.geodesic_pairs_scanned"] > 0
    assert metrics["lang.power_words"] > 0
    assert metrics["lang.automaton_states"] > 0
    spanned = {tracer.names[i] for i in tracer.span_name}
    assert {"cli.main", "groups.cayley_ball", "graphs.min_geodetic_k",
            "geometry.find_ladders"} <= spanned
    assert (graphs.Graph.dag, groups.CyclicSpec.multiply, cli.cayley_ball,
            graphs.enumerate_geodesics) == originals


def test_traced_centraliser_counts_its_products(tmp_path):
    # The scan makes g·h and h·g through multiply for each of the 53
    # members h of the F2 ball of radius 3, so the counter sees them all.
    group = tmp_path / "f2.grp"
    group.write_text("group plain Z=2\ngen a word a\ngen A word a^-1\ngen b word b\ngen B word b^-1\n")
    argv = ["centraliser", "ab", "--group", str(group), "--radius", "3"]
    plain = run_cli(argv)
    tracer = load_tracing().Tracer([geodetic, cli, graphs, groups, geometry, lang, words])
    tracer.install()
    try:
        traced = run_cli(argv)
    finally:
        tracer.remove()
    assert traced == plain
    assert plain[1].startswith("centraliser of a b in ball: size=3\n")
    metrics = tracer.round_metrics(0, 1.0)
    assert metrics["groups.ball_vertices"] == 53
    assert metrics["groups.multiply_calls"] >= 2 * 53
