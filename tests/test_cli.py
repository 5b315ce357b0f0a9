import gc
import hashlib
import random
from pathlib import Path

import pytest

from geodetic import cayley_ball, cli, ladder_bound_A, parse_group_file
from geodetic.graphs import Graph, graph_to_dot, parse_graph
from geodetic.lang import parse_forbidden_file
from geodetic.zoo import complete_bipartite, petersen_graph, random_tree

from fixtures import format_graph, grid_graph
from oracles import word_of_path

C6_GROUP = "group cyclic 6\ngen a pow 1\ngen a' pow 5\nball R=3\n"
Z6_ODD = "group cyclic 6\ngen a1 pow 1\ngen a3 pow 3\ngen a5 pow 5\nball R=2\n"
Z_GROUP = "group cyclic 0\ngen a pow 1\ngen a' pow -1\nball R=3\n"
Z2Z2_GROUP = (
    "group plain Z=0 factors=2,2\n"
    "gen a word a\n"
    "gen b word b\n"
    "ball R=6\n"
)
C4_GRAPH = "graph 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n"
ZXZ_R4 = (
    "group product cyclic 0 cyclic 0\n"
    "gen a pow 1, pow 0\n"
    "gen a' pow -1, pow 0\n"
    "gen b pow 0, pow 1\n"
    "gen b' pow 0, pow -1\n"
    "ball R=4\n"
)
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def c6(tmp_path):
    path = tmp_path / "c6.grp"
    path.write_text(C6_GROUP)
    return str(path)


@pytest.fixture
def c4(tmp_path):
    path = tmp_path / "c4.g"
    path.write_text(C4_GRAPH)
    return str(path)


def test_ball_summary(capsys, c6):
    code, out, err = run(capsys, ["ball", "--group", c6])
    assert code == 0 and err == ""
    assert out == "ball: radius=3 vertices=6 edges=6 complete=true\n"


def test_ball_verbose_layers(capsys, c6):
    code, out, _ = run(capsys, ["ball", "--group", c6, "--verbose"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "norm 0: 1 elements"
    assert lines[-1] == "reached 6 of 6 group elements"
    # A complete ball lists only the norms it holds, not every d <= radius.
    assert run(capsys, ["ball", "--group", c6, "--radius", "5", "--verbose"]) == (0, (
        "ball: radius=5 vertices=6 edges=6 complete=true\n"
        "norm 0: 1 elements\nnorm 1: 2 elements\nnorm 2: 2 elements\nnorm 3: 1 elements\n"
        "reached 6 of 6 group elements\n"), "")


def test_ball_radius_override(capsys, c6):
    code, out, _ = run(capsys, ["ball", "--group", c6, "--radius", "1"])
    assert code == 0
    assert "radius=1 vertices=3" in out


def test_ball_dot_output(capsys, c6, tmp_path):
    dot = tmp_path / "ball.dot"
    code, _, _ = run(capsys, ["ball", "--group", c6, "--dot", str(dot)])
    assert code == 0
    assert dot.read_text().startswith("graph G {")


ZXZ2_GROUP = (
    "group product cyclic 0 cyclic 2\n"
    "gen a pow 1, pow 0\n"
    "gen a' pow -1, pow 0\n"
    "gen f pow 0, pow 1\n"
    "ball R=2\n"
)
ZXZ2_DOT = (
    "graph G {\n"
    "  0 [label=\"(1, 1)\"];\n"
    "  1 [label=\"(a, 1)\"];\n"
    "  2 [label=\"(a^-1, 1)\"];\n"
    "  3 [label=\"(1, a)\"];\n"
    "  4 [label=\"(a^2, 1)\"];\n"
    "  5 [label=\"(a, a)\"];\n"
    "  6 [label=\"(a^-2, 1)\"];\n"
    "  7 [label=\"(a^-1, a)\"];\n"
    "  0 -- 1 [label=\"a\"];\n"
    "  0 -- 2 [label=\"a'\"];\n"
    "  0 -- 3 [label=\"f\"];\n"
    "  1 -- 4 [label=\"a\"];\n"
    "  1 -- 5 [label=\"f\"];\n"
    "  2 -- 6 [label=\"a'\"];\n"
    "  2 -- 7 [label=\"f\"];\n"
    "  3 -- 5 [label=\"a\"];\n"
    "  3 -- 7 [label=\"a'\"];\n"
    "}\n"
)


def test_ball_dot_golden(capsys, tmp_path):
    path = tmp_path / "zxz2.grp"
    path.write_text(ZXZ2_GROUP)
    dot = tmp_path / "ball.dot"
    code, out, _ = run(capsys, ["ball", "--group", str(path), "--dot", str(dot)])
    assert code == 0
    assert out == "ball: radius=2 vertices=8 edges=9 complete=false\n"
    assert dot.read_bytes() == ZXZ2_DOT.encode()
    code, out, _ = run(capsys, ["export-dot", "--group", str(path)])
    assert code == 0 and out == ZXZ2_DOT


def test_ball_dot_builds_no_graph(capsys, tmp_path, monkeypatch):
    # The ball's DOT edges come from steps alone.
    path = tmp_path / "zxz2.grp"
    path.write_text(ZXZ2_GROUP)

    def no_graph(*args, **kwargs):
        raise AssertionError("Graph built")

    monkeypatch.setattr(Graph, "__init__", no_graph)
    dot = tmp_path / "ball.dot"
    code, _, err = run(capsys, ["ball", "--group", str(path), "--dot", str(dot)])
    assert (code, err) == (0, "")
    assert dot.read_bytes() == ZXZ2_DOT.encode()
    code, out, err = run(capsys, ["export-dot", "--group", str(path)])
    assert (code, out, err) == (0, ZXZ2_DOT, "")


@pytest.mark.parametrize("name", ["zxz", "z2z3", "z6odd"])
def test_ball_dot_labels_match_word_of_path(capsys, tmp_path, name):
    # The edge labels come from one pass over steps; word_of_path is the oracle.
    text = {"zxz": ZXZ_R4, "z2z3": Z2Z3_GROUP.replace("R=12", "R=5"), "z6odd": Z6_ODD}[name]
    path = tmp_path / f"{name}.grp"
    path.write_text(text)
    gf = parse_group_file(text)
    ball = cayley_ball(gf.spec, gf.genset, gf.default_radius)
    want = graph_to_dot(ball.graph, vertex_labels=[gf.spec.format_element(x) for x in ball.elements],
                        edge_label=lambda u, v: word_of_path(ball, (u, v))[0])
    dot = tmp_path / "ball.dot"
    code, _, err = run(capsys, ["ball", "--group", str(path), "--dot", str(dot)])
    assert (code, err) == (0, "")
    assert dot.read_text() == want


def test_check_k_group_golden(capsys, tmp_path):
    path = tmp_path / "z6odd.grp"
    path.write_text(Z6_ODD)
    code, out, _ = run(capsys, ["check-k", "--group", str(path), "--k", "3"])
    assert code == 0
    assert out == "k-geodetic: true (min k = 3)\n"


def test_check_k_expect_exit_codes(capsys, c4):
    code, out, _ = run(capsys, ["check-k", "--graph", c4, "--k", "2", "--expect", "true"])
    assert code == 0 and out == "k-geodetic: true (min k = 2)\n"
    code, out, _ = run(capsys, ["check-k", "--graph", c4, "--k", "1", "--expect", "true"])
    assert code == 1 and out == "k-geodetic: false (min k = 2)\n"
    code, _, _ = run(capsys, ["check-k", "--graph", c4, "--k", "1", "--expect", "false"])
    assert code == 0


def test_check_k_verbose_witness(capsys, c4):
    code, out, _ = run(capsys, ["check-k", "--graph", c4, "--k", "1", "--verbose"])
    assert code == 0
    assert out.splitlines()[1] == "witness: 2 geodesics between vertices 0 and 2"


# (group file, min-k --verbose output), captured from the all-pairs scan.
IDENTITY_BFS_CASES = [
    (ZXZ2_GROUP, "min k = 2\nwitness: 2 geodesics between vertices 0 and 5\n"),
    (Z2Z2_GROUP, "min k = 1\nwitness: 1 geodesics between vertices 0 and 1\n"),
    (Z6_ODD, "min k = 3\nwitness: 3 geodesics between vertices 0 and 4\n"),
]


@pytest.mark.parametrize("text, expected", IDENTITY_BFS_CASES, ids=["zxz2", "z2z2", "z6-odd"])
def test_min_k_and_check_k_on_a_ball_read_only_the_identity_bfs(
    capsys, tmp_path, monkeypatch, text, expected
):
    path = tmp_path / "host.grp"
    path.write_text(text)
    original = Graph.dag

    def identity_only(self, source, count_cap=None):
        if source != 0:
            raise AssertionError(f"BFS from vertex {source}")
        return original(self, source, count_cap)

    def no_graph(self, *args):
        raise AssertionError("Graph built")

    monkeypatch.setattr(Graph, "dag", identity_only)
    monkeypatch.setattr(Graph, "__init__", no_graph)
    assert run(capsys, ["min-k", "--group", str(path), "--verbose"]) == (0, expected, "")
    min_k_line, witness_line = expected.splitlines()
    k = int(min_k_line.split()[-1])
    for j, verdict in ((k, "true"), (k - 1, "false")):
        if j < 1:
            continue
        code, out, err = run(
            capsys, ["check-k", "--group", str(path), "--k", str(j), "--verbose", "--expect", "true"]
        )
        assert (code, err) == (0 if verdict == "true" else 1, "")
        assert out == f"k-geodetic: {verdict} (min k = {k})\n{witness_line}\n"


def test_min_k_and_check_k_on_a_large_ball(capsys, tmp_path):
    # 10,001 vertices: the all-pairs scan would hold 10^8 distances.
    path = tmp_path / "z.grp"
    path.write_text(Z_GROUP)
    witness = "witness: 1 geodesics between vertices 0 and 1\n"
    code, out, err = run(capsys, ["min-k", "--group", str(path), "--radius", "5000", "--verbose"])
    assert (code, out, err) == (0, "min k = 1\n" + witness, "")
    code, out, err = run(
        capsys, ["check-k", "--group", str(path), "--radius", "5000", "--k", "1", "--verbose"]
    )
    assert (code, out, err) == (0, "k-geodetic: true (min k = 1)\n" + witness, "")


def test_min_k_tree(capsys, tmp_path):
    path = tmp_path / "p4.g"
    path.write_text("graph 4\ne 0 1\ne 1 2\ne 2 3\n")
    code, out, _ = run(capsys, ["min-k", "--graph", str(path)])
    assert code == 0 and out == "min k = 1\n"


def test_ladders_c4(capsys, c4):
    code, out, _ = run(capsys, ["ladders", "--graph", c4, "--m", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ladders: m=1 k=2 bound=70 found=1"
    assert lines[1] == "ladder: p1=0->3 p2=1->2 len=1 m=1 height=2 bound=70 within=true"
    assert lines[2] == "scanned: pairs=6 geodesic_pairs=12 skipped=0 exhausted=false"


def test_ladders_disconnected_host_error(capsys, tmp_path):
    # geodesics in different components are disjoint; the scan stops at the
    # first such pair with the distance error of its first index
    path = tmp_path / "two.g"
    path.write_text("graph 6\ne 0 1\ne 1 2\ne 3 4\ne 4 5\n")
    result = run(capsys, ["ladders", "--graph", str(path), "--m", "1", "--k", "1"])
    assert result == (2, "", "error: no path between vertices 0 and 3\n")


def test_ladders_bound_at_the_digit_limit(capsys, c4):
    # A(777, 1) has 4,296 digits and A(778, 1) 4,302; Python prints at most 4,300.
    code, out, _ = run(capsys, ["ladders", "--graph", c4, "--m", "777", "--k", "1"])
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == "e7e778288285b93669f1f6263887c7470d9c5e07"
    assert out.splitlines()[0] == f"ladders: m=777 k=1 bound={ladder_bound_A(777, 1)} found=0"


def test_ladders_bound_too_long_to_print_fails_before_the_scan(capsys, c4, monkeypatch):
    def no_scan(*args):
        raise AssertionError("find_ladders ran")

    monkeypatch.setattr(cli, "find_ladders", no_scan)
    result = run(capsys, ["ladders", "--graph", c4, "--m", "778", "--k", "1"])
    assert result == (
        2, "", "error: bound A(m, k) at width m=778, k=1 has too many digits to print\n")



@pytest.mark.parametrize("host", ["tree", "ball"])
def test_ladders_scan_reads_no_bfs_dag(capsys, tmp_path, monkeypatch, host):
    # The pair source grows its own BFS rounds and reads geodesics off them.
    if host == "tree":
        path = tmp_path / "tree.g"
        path.write_text(format_graph(random_tree(60, random.Random(5))))
        argv = ["ladders", "--graph", str(path), "--k", "1", "--scope-pairs", "200", "--verbose"]
    else:
        path = tmp_path / "zxz.grp"
        path.write_text(ZXZ_R4)
        argv = ["ladders", "--group", str(path), "--k", "2", "--scope-pairs", "100", "--verbose"]
    want = run(capsys, argv)
    assert want[0] == 0 and f"pairs={argv[-2]} " in want[1] and "exhausted=true" in want[1]

    def no_dag(self, source, count_cap=None):
        raise AssertionError(f"BFS DAG of vertex {source}")

    monkeypatch.setattr(Graph, "dag", no_dag)
    assert run(capsys, argv) == want


@pytest.mark.parametrize("width", ["0", "-1"])
def test_ladders_rejects_width_before_any_bfs(capsys, c4, monkeypatch, width):
    def no_bfs(self, source, count_cap=None):
        raise AssertionError(f"BFS from vertex {source}")

    monkeypatch.setattr(Graph, "dag", no_bfs)
    result = run(capsys, ["ladders", "--graph", c4, "--m", width])
    assert result == (2, "", "error: width m must be at least 1\n")


@pytest.mark.parametrize("argv", [
    ["check-k", "--graph", "c4", "--k", "0"],
    ["check-k", "--graph", "c4", "--k", "-3", "--expect", "false"],
    ["check-k", "--group", "c6", "--k", "0"],
    ["ladders", "--graph", "c4", "--k", "0"],
    ["ladders", "--group", "c6", "--m", "2", "--k", "-1"],
])
def test_k_below_one_is_rejected_before_any_host_is_loaded(capsys, c4, c6, monkeypatch, argv):
    argv = [{"c4": c4, "c6": c6}.get(a, a) for a in argv]

    def refuse(*args, **kwargs):
        raise AssertionError("host loaded")

    monkeypatch.setattr(cli, "parse_graph", refuse)
    monkeypatch.setattr(cli, "cayley_ball", refuse)
    assert run(capsys, argv) == (2, "", "error: k must be at least 1\n")
    # The width is still checked first.
    if argv[0] == "ladders":
        result = run(capsys, argv + ["--m", "0"])
        assert result == (2, "", "error: width m must be at least 1\n")


ZZ_GROUP = (
    "group product cyclic 0 cyclic 0\n"
    "gen a pow 1, pow 0\ngen A pow -1, pow 0\ngen b pow 0, pow 1\ngen B pow 0, pow -1\n"
)
F2_GROUP = "group plain Z=2\ngen a word a\ngen A word a^-1\ngen b word b\ngen B word b^-1\n"


@pytest.mark.parametrize("group, flags, sha1", [
    (ZZ_GROUP, ["--radius", "12", "--m", "1"], "ce81c268c320389bd97f7c5b6543c06bf383e907"),
    (ZZ_GROUP, ["--radius", "12", "--m", "2"], "da67da009edce63dd837c51bf2dc07f832f1ee14"),
    (F2_GROUP, ["--radius", "8", "--m", "1", "--k", "1"],
     "90b2ccc0a4bfaa834bcfd8a3c22645f155b640c9"),
], ids=["zz-r12-m1", "zz-r12-m2", "f2-r8-m1"])
def test_large_ladder_scans_keep_their_stdout(capsys, tmp_path, group, flags, sha1):
    # Captured before the pairing read its length buckets a row at a time;
    # the windows of these rows span hundreds of geodesics.
    path = tmp_path / "host.grp"
    path.write_text(group)
    code, out, err = run(capsys, ["ladders", "--group", str(path), *flags])
    assert (code, err) == (0, "")
    assert hashlib.sha1(out.encode()).hexdigest() == sha1

SCAN_COMMANDS = [
    ["ladders", "--m", "1"],
    ["ladders", "--m", "2", "--scope-pairs", "50"],
    ["bigons", "--verbose"],
    ["triangles", "--verbose", "--scope-pairs", "300"],
]


def test_scans_golden(capsys, tmp_path):
    # Captured before the scans stopped building what they do not print;
    # each command's stdout follows a "$ geodetic <args>" line.
    path = tmp_path / "zxz.grp"
    path.write_text(ZXZ_R4)
    chunks = []
    for argv in SCAN_COMMANDS:
        code, out, err = run(capsys, [*argv, "--group", str(path)])
        assert (code, err) == (0, "")
        chunks.append(f"$ geodetic {' '.join(argv)}\n{out}")
    assert "".join(chunks).encode() == (GOLDEN / "scans_zz_r4.txt").read_bytes()


GRAPH_SCAN_HOSTS = {
    "grid6x6.g": lambda: grid_graph(6, 6),
    "petersen.g": petersen_graph,
    "k34.g": lambda: complete_bipartite(3, 4),
}
GRAPH_SCAN_COMMANDS = [
    ["ladders", "--m", "1"],
    ["ladders", "--m", "2"],
    ["ladders", "--m", "3", "--scope-geodesics", "2"],
    ["bigons", "--verbose"],
]


def test_graph_scans_golden(capsys, tmp_path):
    # Captured before the ladder pairing moved to bit masks; each command's
    # stdout follows a "$ geodetic <args> --graph <file>" line.  The grid
    # fills the geodesic-pair cap, so the pairing stops inside a bucket.
    chunks = []
    for name, make in GRAPH_SCAN_HOSTS.items():
        path = tmp_path / name
        path.write_text(format_graph(make()))
        for argv in GRAPH_SCAN_COMMANDS:
            code, out, err = run(capsys, [*argv, "--graph", str(path)])
            assert (code, err) == (0, "")
            chunks.append(f"$ geodetic {' '.join(argv)} --graph {name}\n{out}")
    assert "".join(chunks).encode() == (GOLDEN / "scans_graphs.txt").read_bytes()


Z2Z3_GROUP = "group plain Z=0 factors=2,3\ngen a word a\ngen b word b\ngen b' word b^2\nball R=12\n"
ZXZ_R6 = ZXZ_R4.replace("ball R=4", "ball R=6")
# golden file -> (group file, commands); the Z x Z powers need radius 10,
# since (ab)^4 already leaves the radius-6 ball.
LANG_GOLDENS = {
    "lang_zz.txt": (ZXZ_R6, [
        ["forbidden", "--e", "4"],
        ["automaton", "--e", "4"],
        ["powers", "ab", "--nmax", "5", "--radius", "10"],
    ]),
    "lang_z2z3.txt": (Z2Z3_GROUP, [
        ["forbidden", "--e", "4"],
        ["automaton", "--e", "4"],
        ["powers", "ab", "--nmax", "5"],
        ["powers", "abab'", "--nmax", "2"],
        ["powers", "bab", "--nmax", "4"],
    ]),
    "lang_z.txt": (Z_GROUP, [
        ["forbidden", "--e", "3"],
        ["automaton", "--e", "3"],
        ["powers", "a", "--nmax", "60", "--radius", "60"],
    ]),
}


@pytest.mark.parametrize("name", sorted(LANG_GOLDENS))
def test_language_goldens(capsys, tmp_path, name):
    # Captured before power languages read the identity BFS and the
    # stabilisation fit and factor automaton were cut down.
    text, commands = LANG_GOLDENS[name]
    path = tmp_path / "host.grp"
    path.write_text(text)
    chunks = []
    for argv in commands:
        code, out, err = run(capsys, [*argv, "--group", str(path)])
        assert (code, err) == (0, "")
        chunks.append(f"$ geodetic {' '.join(argv)}\n{out}")
    assert "".join(chunks).encode() == (GOLDEN / name).read_bytes()


def test_bigons_c4(capsys, c4):
    code, out, _ = run(capsys, ["bigons", "--graph", c4])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bigons: found=2 non_degenerate=2 max_non_degenerate_side=2"
    assert lines[1] == "bigon: u=0 v=2 len=2 degenerate=false"


def test_triangles_c4(capsys, c4):
    code, out, _ = run(capsys, ["triangles", "--graph", c4])
    assert code == 0
    assert out.splitlines()[0] == "triangles: found=36 non_degenerate=4"


@pytest.mark.parametrize("command", ["ladders", "bigons", "triangles"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--scope-pairs", "-1"], "max_pairs must be nonnegative, got -1"),
        (["--scope-geodesics", "-1"], "max_geodesics must be nonnegative, got -1"),
        (["--scope-pairs", "0", "--scope-geodesics", "-1"], "max_geodesics must be nonnegative, got -1"),
    ],
)
def test_negative_scope_cap_exits_2(capsys, c4, command, flags, message):
    assert run(capsys, [command, "--graph", c4, *flags]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, scanned",
    [
        (["bigons", "--graph", "C4"], "pairs=6 geodesic_pairs=0 skipped=0 exhausted=false"),
        (["bigons", "--group", "Z"], "pairs=11 geodesic_pairs=0 skipped=10 exhausted=false"),
        (["triangles", "--graph", "C4"], "pairs=20 geodesic_pairs=0 skipped=0 exhausted=false"),
        (["triangles", "--graph", "C4", "--scope-pairs", "5"],
         "pairs=5 geodesic_pairs=0 skipped=0 exhausted=true"),
        (["triangles", "--graph", "C4", "--scope-geodesics", "1"],
         "pairs=20 geodesic_pairs=0 skipped=0 exhausted=true"),
    ],
)
def test_verbose_adds_only_the_scanned_line(capsys, tmp_path, argv, scanned):
    (tmp_path / "C4").write_text(C4_GRAPH)
    (tmp_path / "Z").write_text(Z_GROUP)
    argv = [str(tmp_path / a) if a in ("C4", "Z") else a for a in argv]
    code, plain, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert run(capsys, argv + ["--verbose"]) == (0, plain + f"scanned: {scanned}\n", "")


def test_bigons_none_without_non_degenerate_bigon(capsys, tmp_path):
    path = tmp_path / "z.grp"
    path.write_text(Z_GROUP)
    code, out, _ = run(capsys, ["bigons", "--group", str(path)])
    assert (code, out) == (0, "bigons: found=0 non_degenerate=0 max_non_degenerate_side=none\n")


def test_forbidden_round_trip(capsys, tmp_path):
    path = tmp_path / "z2z2.grp"
    path.write_text(Z2Z2_GROUP)
    code, out, _ = run(capsys, ["forbidden", "--group", str(path), "--e", "2"])
    assert code == 0
    parsed = parse_forbidden_file(out)
    assert parsed.e == 2
    assert parsed.words == {("a", "a"), ("b", "b")}


def test_automaton_group_vs_file(capsys, tmp_path):
    grp = tmp_path / "z2z2.grp"
    grp.write_text(Z2Z2_GROUP)
    code, from_group, _ = run(
        capsys, ["automaton", "--group", str(grp), "--e", "2"]
    )
    assert code == 0
    assert from_group.splitlines()[0] == "automaton states=4 start=0 dead=3"

    fset = tmp_path / "fset.txt"
    fset.write_text("forbidden e=2\naa\nbb\n")
    code, from_file, _ = run(capsys, ["automaton", str(fset)])
    assert code == 0
    assert from_file == from_group


def test_forbidden_file_header_names_its_line(capsys, tmp_path):
    fset = tmp_path / "fset.txt"
    for text, lineno in (("forbidden e=x\naa\n", 1), ("# set\nforbidden e=\naa\n", 2)):
        fset.write_text(text)
        result = run(capsys, ["automaton", str(fset)])
        assert result == (2, "", f"error: line {lineno}: expected 'forbidden e=<e>'\n")


def test_forbidden_file_rejects_a_second_header(capsys, tmp_path):
    fset = tmp_path / "fset.txt"
    fset.write_text("forbidden e=2\nforbidden e=3\naA\n")
    assert run(capsys, ["automaton", str(fset)]) == (
        2, "", "error: line 2: duplicate 'forbidden' header\n")


@pytest.mark.parametrize("word, position", [("a a", 1), ("ab\tb", 2)], ids=["space", "tab"])
def test_forbidden_file_rejects_whitespace_inside_a_word(capsys, tmp_path, word, position):
    fset = tmp_path / "fset.txt"
    fset.write_text(f"forbidden e=3\n{word}\n")
    assert run(capsys, ["automaton", str(fset)]) == (
        2, "", f"error: line 2: whitespace at position {position} in {word!r}\n")


def test_forbidden_file_checks_e_and_word_lengths(capsys, tmp_path):
    fset = tmp_path / "fset.txt"
    for text, message in (
        ("forbidden e=-5\naa\n", "line 1: e must be at least 1"),
        ("# set\nforbidden e=0\n", "line 2: e must be at least 1"),
        ("forbidden e=1\naaa\n", "line 2: word of length 3 exceeds e=1"),
        ("ab\nforbidden e=2\naA\n\nabab\n", "line 5: word of length 4 exceeds e=2"),
    ):
        fset.write_text(text)
        assert run(capsys, ["automaton", str(fset)]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["forbidden", "automaton"])
def test_language_commands_build_the_ball_to_radius_e(capsys, tmp_path, monkeypatch, command):
    radii = []

    def recording_ball(spec, genset, radius, budget=None):
        radii.append(radius)
        return cayley_ball(spec, genset, radius, budget)

    monkeypatch.setattr(cli, "cayley_ball", recording_ball)
    path = tmp_path / "z2z3.grp"
    path.write_text(Z2Z3_GROUP)
    group = ["--group", str(path)]
    for flags in (["--e", "3"], ["--e", "3", "--radius", "20"], ["--e", "12"]):
        code, out, _ = run(capsys, [command, *group, *flags])
        assert code == 0 and out
    assert radii == [3, 3, 12]
    # Out-of-range bounds keep their messages and build no ball at all.
    radii.clear()
    assert run(capsys, [command, *group, "--e", "13"]) == (
        2, "", "error: e=13 exceeds the ball radius 12\n")
    assert run(capsys, [command, *group, "--e", "0"]) == (2, "", "error: e must be at least 1\n")
    assert radii == []


def test_language_commands_check_e_before_any_ball(capsys, tmp_path, monkeypatch):
    def no_ball(*args, **kwargs):
        raise AssertionError("a ball was built before --e was checked")

    monkeypatch.setattr(cli, "cayley_ball", no_ball)
    monkeypatch.setenv("GEODETIC_BALL_BUDGET", "2")  # e's errors come before the budget's
    path = tmp_path / "z2z3.grp"
    path.write_text(Z2Z3_GROUP)
    group = ["--group", str(path)]
    for command in ("forbidden", "automaton"):
        assert run(capsys, [command, *group, "--e", "0"]) == (2, "", "error: e must be at least 1\n")
        assert run(capsys, [command, *group, "--e", "5", "--radius", "4"]) == (
            2, "", "error: e=5 exceeds the ball radius 4\n")
        assert run(capsys, [command, *group, "--e", "2", "--radius", "-1"]) == (
            2, "", "error: radius must be nonnegative\n")
    assert run(capsys, ["automaton", *group]) == (
        2, "", "error: pass --e for the forbidden-factor length bound\n")


@pytest.mark.parametrize("flags, flag", [
    (["--group", "/nonexistent.grp", "--e", "9"], "--group"),
    (["--e", "2"], "--e"),
    (["--radius", "3"], "--radius"),
])
def test_automaton_file_rejects_group_flags(capsys, tmp_path, flags, flag):
    fset = tmp_path / "fset.txt"
    fset.write_text("forbidden e=2\naa\nbb\n")
    assert run(capsys, ["automaton", str(fset), *flags]) == (
        2, "", f"error: pass FILE or {flag}, not both\n")


def test_language_commands_build_no_graph(capsys, tmp_path, monkeypatch):
    zxz, z2z3 = tmp_path / "zxz.grp", tmp_path / "z2z3.grp"
    zxz.write_text(ZXZ_R4)
    z2z3.write_text(Z2Z3_GROUP)
    commands = [
        ["ball", "--group", str(z2z3), "--verbose"],
        ["powers", "ab", "--group", str(zxz), "--nmax", "2"],
        ["centraliser", "ab", "--group", str(zxz)],
        ["forbidden", "--group", str(z2z3), "--e", "4"],
        ["automaton", "--group", str(z2z3), "--e", "4"],
    ]
    want = [run(capsys, argv) for argv in commands]

    def no_graph(*args, **kwargs):
        raise AssertionError("a Graph was built")

    monkeypatch.setattr(Graph, "__init__", no_graph)
    monkeypatch.setattr(Graph, "dag", no_graph)
    assert [run(capsys, argv) for argv in commands] == want
    assert all(code == 0 for code, _, _ in want)
    with pytest.raises(AssertionError, match="a Graph was built"):
        run(capsys, ["bigons", "--group", str(z2z3), "--radius", "2"])


def test_language_commands_fit_the_budget_at_radius_e(capsys, tmp_path, monkeypatch):
    # Z2*Z3 holds 22 elements at radius 4 and 442 at its file radius 12.
    path = tmp_path / "z2z3.grp"
    path.write_text(Z2Z3_GROUP)
    group = ["--group", str(path)]
    monkeypatch.setenv("GEODETIC_BALL_BUDGET", "22")
    for command in ("forbidden", "automaton"):
        explicit = run(capsys, [command, *group, "--e", "4", "--radius", "4"])
        assert explicit[0] == 0 and explicit[1]
        assert run(capsys, [command, *group, "--e", "4"]) == explicit
    code, out, err = run(capsys, ["ball", *group])
    assert (code, out) == (2, "") and "22-vertex budget" in err


def test_automaton_dot(capsys, tmp_path):
    fset = tmp_path / "fset.txt"
    fset.write_text("forbidden e=2\naa\nbb\n")
    dot = tmp_path / "auto.dot"
    code, _, _ = run(capsys, ["automaton", str(fset), "--dot", str(dot)])
    assert code == 0
    assert dot.read_text().startswith("digraph")


def test_powers_golden(capsys, tmp_path):
    path = tmp_path / "z2z2.grp"
    path.write_text(Z2Z2_GROUP)
    code, out, _ = run(capsys, ["powers", "ab", "--group", str(path), "--nmax", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "powers of ab: n_max=3"
    assert lines[1] == "L_0: size=1 {λ}"
    assert any(line.startswith("stabilization: n*=") for line in lines)


def test_powers_finite_order_is_an_input_error(capsys, c6):
    code, out, err = run(capsys, ["powers", "a", "--group", c6])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "order" in err


def test_centraliser_golden(capsys, tmp_path):
    path = tmp_path / "z.grp"
    path.write_text(Z_GROUP)
    code, out, _ = run(capsys, ["centraliser", "a", "--group", str(path)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "centraliser of a in ball: size=7"
    assert len(lines) == 8


PREFIX_LABELS = (
    "group product cyclic 0 cyclic 0\n"
    "gen x1 pow 1, pow 0\n"
    "gen x1' pow -1, pow 0\n"
    "gen x12 pow 0, pow 1\n"
    "gen x12' pow 0, pow -1\n"
    "ball R=4\n"
)


def test_powers_and_centraliser_read_labels_that_prefix_each_other(capsys, tmp_path):
    """Words are read greedily, longest label first, so x12' is never x1 then 2'."""
    path = tmp_path / "prefix.grp"
    path.write_text(PREFIX_LABELS)
    assert run(capsys, ["powers", "x12'x1", "--group", str(path), "--nmax", "2"]) == (0, (
        "powers of x12'x1: n_max=2\n"
        "L_0: size=1 {λ}\n"
        "L_1: size=2 {x1x12',x12'x1}\n"
        "L_2: size=6 {x1x1x12'x12',x1x12'x1x12',x1x12'x12'x1,x12'x1x1x12',x12'x1x12'x1,x12'x12'x1x1}\n"
        "stabilization: none (multiplicity growing)\n"), "")
    assert run(capsys, ["centraliser", "x1'x12'x12", "--group", str(path), "--radius", "1"]) == (0, (
        "centraliser of (a^-1, 1) in ball: size=5\n"
        "(1, 1)\n(a, 1)\n(a^-1, 1)\n(1, a)\n(1, a^-1)\n"), "")
    assert run(capsys, ["powers", "x13", "--group", str(path), "--nmax", "2"]) == (
        2, "", "error: cannot read a letter at position 2 in 'x13'\n")


def test_word_tool_primitive_root(capsys):
    code, out, _ = run(capsys, ["word-tool", "primitive-root", "abab"])
    assert code == 0 and out == "ab ^ 2\n"


def test_word_tool_rejects_whitespace_inside_a_word(capsys):
    assert run(capsys, ["word-tool", "primitive-root", "ab ab"]) == (
        2, "", "error: whitespace at position 2 in 'ab ab'\n")


def test_word_tool_solve(capsys):
    code, out, _ = run(capsys, ["word-tool", "solve-zx-yz", "ab", "ba", "babab"])
    assert code == 0
    assert out == "s = a\nt = b\nq = 2\n"


def test_word_tool_solve_unsolvable(capsys):
    code, _, err = run(capsys, ["word-tool", "solve-zx-yz", "ab", "ab", "aab"])
    assert code == 2 and err.startswith("error:")


def test_word_tool_common_root(capsys):
    code, out, _ = run(capsys, ["word-tool", "common-root", "abab", "ab"])
    assert code == 0 and out == "ab\n"


def test_export_dot_matches_library(capsys, c4):
    code, out, _ = run(capsys, ["export-dot", "--graph", c4])
    assert code == 0
    assert out == graph_to_dot(parse_graph(C4_GRAPH))


def test_export_dot_file(capsys, c4, tmp_path):
    target = tmp_path / "out.dot"
    code, out, _ = run(capsys, ["export-dot", "--graph", c4, "--dot", str(target)])
    assert code == 0 and out == ""
    assert target.read_text() == graph_to_dot(parse_graph(C4_GRAPH))


def test_missing_file_is_reported(capsys):
    code, out, err = run(capsys, ["min-k", "--graph", "/nonexistent/x.g"])
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_host_required(capsys):
    code, _, err = run(capsys, ["min-k"])
    assert code == 2 and "--graph FILE or --group FILE" in err


@pytest.mark.parametrize("argv", [
    ["ball"],
    ["forbidden", "--e", "2"],
    ["automaton", "--e", "2"],
    ["powers", "a"],
    ["centraliser", "a"],
], ids=lambda argv: argv[0])
def test_group_commands_require_a_group(capsys, argv):
    assert run(capsys, argv) == (2, "", "error: pass --group FILE\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("graph 2\ngraph 2\n", "line 2: duplicate graph header"),
        ("graph\n", "line 1: expected 'graph <vertex_count>'"),
        ("graph 2\ne 0\n", "line 2: expected 'e <u> <v>'"),
        ("graph 2\ne 0 x\n", "line 2: bad edge endpoints"),
        ("graph 2\n# edges\nv 0\n", "line 3: unknown directive 'v'"),
        ("# no header\n\n", "missing 'graph <vertex_count>' header"),
        ("graph 2\ne 0 2\n", "edge (0, 2) out of range"),
        ("graph 2\ne 1 1\n", "self-loop at vertex 1"),
        ("graph -1\n", "vertex_count must be nonnegative"),
    ],
    ids=["duplicate-header", "header-arity", "edge-arity", "edge-endpoints", "directive",
         "no-header", "edge-range", "self-loop", "negative-count"],
)
def test_graph_file_errors_are_reported(capsys, tmp_path, text, message):
    path = tmp_path / "bad.g"
    path.write_text(text)
    assert run(capsys, ["min-k", "--graph", str(path)]) == (2, "", f"error: {message}\n")


def test_both_hosts_rejected(capsys, c4, c6):
    code, _, err = run(capsys, ["min-k", "--graph", c4, "--group", c6])
    assert code == 2 and "not both" in err


def test_radius_required_without_file_default(capsys, tmp_path):
    path = tmp_path / "nodefault.grp"
    path.write_text("group cyclic 6\ngen a pow 1\ngen a' pow 5\n")
    code, _, err = run(capsys, ["ball", "--group", str(path)])
    assert code == 2 and "radius" in err
    code, out, _ = run(capsys, ["ball", "--group", str(path), "--radius", "2"])
    assert code == 0 and "radius=2" in out


def test_ball_budget_env(capsys, c6, monkeypatch):
    monkeypatch.setenv("GEODETIC_BALL_BUDGET", "3")
    code, _, err = run(capsys, ["ball", "--group", c6])
    assert code == 2 and "budget" in err


def test_commands_run_with_the_collector_paused(capsys, c6, monkeypatch):
    """A command runs with the collector off, and it is on again after an
    exit 0, a budget error, a ValueError or an exception main does not
    catch; a caller's disabled collector stays disabled."""
    seen = []
    real_ball = cli.cayley_ball

    def recording_ball(*args, **kwargs):
        seen.append(gc.isenabled())
        return real_ball(*args, **kwargs)

    monkeypatch.setattr(cli, "cayley_ball", recording_ball)
    try:
        gc.enable()
        assert run(capsys, ["ball", "--group", c6])[0] == 0
        assert seen == [False] and gc.isenabled()
        monkeypatch.setenv("GEODETIC_BALL_BUDGET", "2")
        assert run(capsys, ["ball", "--group", c6]) == (
            2, "", "error: ball exceeds the 2-vertex budget at radius 1\n")
        assert gc.isenabled()
        monkeypatch.delenv("GEODETIC_BALL_BUDGET")
        assert run(capsys, ["ball", "--group", c6, "--radius", "-1"]) == (
            2, "", "error: radius must be nonnegative\n")
        assert gc.isenabled()
        gc.disable()
        assert run(capsys, ["ball", "--group", c6])[0] == 0
        assert not gc.isenabled()
        assert run(capsys, ["ball", "--group", c6, "--radius", "-1"])[0] == 2
        assert not gc.isenabled()
        assert seen == [False] * 3  # a negative radius is refused before the ball
        gc.enable()

        def failing_ball(*args, **kwargs):
            raise RuntimeError("not caught by main")

        monkeypatch.setattr(cli, "cayley_ball", failing_ball)
        with pytest.raises(RuntimeError, match="not caught by main"):
            cli.main(["ball", "--group", c6])
        assert gc.isenabled()
    finally:
        gc.enable()


def test_out_of_memory_exits_2(capsys, tmp_path, monkeypatch):
    """A MemoryError in a command is an exit 2 with one line on stderr, and
    the collector is on again afterwards."""
    path = tmp_path / "z2z2.grp"
    path.write_text(Z2Z2_GROUP)

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "power_language", exhausted)
    try:
        gc.enable()
        assert run(capsys, ["powers", "ab", "--group", str(path), "--nmax", "3"]) == (
            2, "", "error: out of memory\n")
        assert gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("value", ["x", "", "2.5", "0", "-4"])
def test_ball_budget_env_rejects_a_bad_value(capsys, c6, monkeypatch, value):
    monkeypatch.setenv("GEODETIC_BALL_BUDGET", value)
    for argv in (["ball", "--group", c6], ["min-k", "--group", c6]):
        assert run(capsys, argv) == (
            2, "", f"error: GEODETIC_BALL_BUDGET must be an integer of at least 1, got {value!r}\n")


def test_deterministic_output(capsys, c4, tmp_path):
    path = tmp_path / "z2z2.grp"
    path.write_text(Z2Z2_GROUP)
    for argv in (
        ["ladders", "--graph", c4, "--m", "2"],
        ["forbidden", "--group", str(path), "--e", "3"],
        ["min-k", "--group", str(path)],
    ):
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second


def test_bad_group_file_is_reported(capsys, tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("group cyclic 6\ngen a pow 1\n")
    code, _, err = run(capsys, ["ball", "--group", str(path)])
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("group cyclic x\n", 1),
        ("group cyclic 6\ngen a pow x\n", 2),
        ("group cyclic 6\ngen a foo 1\n", 2),
        ("group table 2\n0 1\n\n1 x\ngen a idx 1\n", 4),
        ("# plain\ngroup plain Z=q\n", 2),
        ("group cyclic 6\ngen a pow 1\nball R=z\n", 3),
    ],
    ids=["group-order", "gen-power", "gen-expression", "table-row", "plain-rank", "ball-radius"],
)
def test_group_file_errors_name_their_line(capsys, tmp_path, text, lineno):
    path = tmp_path / "bad.grp"
    path.write_text(text)
    code, out, err = run(capsys, ["ball", "--group", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: line {lineno}: ")


def test_group_file_rejects_a_second_ball_line(capsys, tmp_path):
    path = tmp_path / "two-balls.grp"
    path.write_text("group cyclic 6\ngen a pow 1\ngen A pow -1\nball R=2\n# again\nball R=3\n")
    assert run(capsys, ["ball", "--group", str(path)]) == (
        2, "", "error: line 6: duplicate ball line\n")


# Were the last value kept, the first file would read as F2, and the
# second as Z3, where the involution a is not inverse-closed.
@pytest.mark.parametrize("text, key", [
    ("group plain Z=1 Z=2\ngen a word a\ngen a' word a^-1\n", "Z="),
    ("group plain factors=2 factors=3\ngen a word a\n", "factors="),
], ids=["Z", "factors"])
def test_group_file_rejects_a_repeated_plain_option(capsys, tmp_path, text, key):
    path = tmp_path / "repeated.grp"
    path.write_text("# one option twice\n" + text)
    assert run(capsys, ["ball", "--group", str(path)]) == (
        2, "", f"error: line 2: duplicate plain option '{key}'\n")


def parsed(capsys, parser, argv):
    """(exit code, stdout, stderr) of parser.parse_args(argv)."""
    try:
        parser.parse_args(argv)
        code = 0
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_one_subcommand_parser_prints_what_the_full_one_does(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in ([name, "-h"], [name, "--bogus"], [name, "--radius", "x"]):
        full = parsed(capsys, cli.build_parser(), argv)
        assert full[0] in (0, 2)
        assert parsed(capsys, cli.build_parser(name), argv) == full


@pytest.mark.parametrize("name", [name for name, spec in cli.COMMANDS.items() if "scope" in spec[2]])
def test_scope_flags_default_to_2000_pairs_and_50_geodesics(name):
    args = cli.build_parser(name).parse_args([name])
    assert (args.scope_pairs, args.scope_geodesics) == (2000, 50)


SUBCOMMAND_HELP = [
    ("ball", "build a Cayley ball and summarize it"),
    ("check-k", "test k-geodeticity"),
    ("min-k", "smallest k with at most k geodesics per pair"),
    ("ladders", "search for ladder-like geodesic pairs"),
    ("bigons", "enumerate geodesic bigons"),
    ("triangles", "enumerate geodesic triangles"),
    ("forbidden", "minimal non-geodesic factors of the ball language"),
    ("automaton", "factor-excluding automaton as a transition table"),
    ("powers", "geodesic languages of powers of a base word"),
    ("centraliser", "ball elements commuting with a given one"),
    ("word-tool", "standalone word utilities"),
    ("export-dot", "write a graph or ball as DOT"),
]


def test_top_level_usage_and_errors(capsys, monkeypatch):
    """Bare geodetic, geodetic -h and geodetic bogus build every subcommand.

    The usage wraps differently from one Python version to the next, and
    the invalid-choice message quotes the names on some and not on others,
    so those parts are pinned by what they hold.
    """
    monkeypatch.setenv("COLUMNS", "80")
    names = [name for name, _ in SUBCOMMAND_HELP]
    listed = "{" + ",".join(names) + "}"
    code, out, err = run(capsys, [])
    assert (code, out) == (2, "")
    assert err.startswith("usage: geodetic [-h]") and listed in err
    assert err.endswith("\ngeodetic: error: the following arguments are required: command\n")
    usage = err[: err.index("geodetic: error:")]

    code, out, err = run(capsys, ["bogus"])
    assert (code, out) == (2, "")
    assert err.startswith(usage)
    assert err[len(usage):] in (
        f"geodetic: error: argument command: invalid choice: 'bogus' (choose from {choices})\n"
        for choices in (", ".join(map(repr, names)), ", ".join(names))
    )

    code, out, err = run(capsys, ["-h"])
    assert (code, err) == (0, "")
    assert out == usage + "".join([
        "\nGeodesic counting, Cayley balls, ladder bounds, and geodesic languages.\n",
        f"\npositional arguments:\n  {listed}\n",
        *(f"    {name:<20}{help_text}\n" for name, help_text in SUBCOMMAND_HELP),
        "\noptions:\n  -h, --help            show this help message and exit\n",
    ])
