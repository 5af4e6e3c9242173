import contextlib
import io
import json
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from linetrees.cli import main
from linetrees.crit_group import (MAX_ORDER_DIGITS, group_order_db, group_order_kautz,
                                  kautz_formula)
from linetrees.errors import MAX_FAMILY_EDGES, GraphError


def run_cli(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_codec_encode_doc_example(capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch,
                             ["codec", "encode", "--degree", "3"], stdin="00010111\n")
    assert code == 0
    assert out.strip() == "0011" and len(out.strip()) == 4


def test_codec_encode_rejects_non_sequence(capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch,
                             ["codec", "encode", "--degree", "3"], stdin="01010101\n")
    assert code == 1
    assert "not a de Bruijn sequence" in err


@pytest.mark.parametrize("degree,bits,message", [
    ("0", "01", "degree must be at least 1"),
    ("1", "01", "encoding requires degree >= 2"),
    ("1", "0", "sequence of degree 1 must have length 2, got 1"),
    ("2", "0101", "not a de Bruijn sequence"),
])
def test_codec_encode_error_lines(capsys, monkeypatch, degree, bits, message):
    code, out, err = run_cli(capsys, monkeypatch,
                             ["codec", "encode", "--degree", degree], stdin=bits + "\n")
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("action,message", [
    ("encode", "sequence of degree 100000000 must have length 2^100000000, got 2"),
    ("decode", "code for degree 100000000 must be a bit string of length 2^99999999"),
])
def test_codec_huge_degree_is_one_error_line(capsys, monkeypatch, action, message):
    # the length is checked without building 2^degree, which at this
    # degree takes most of a second and has too many digits to print
    start = time.perf_counter()
    code, out, err = run_cli(capsys, monkeypatch,
                             ["codec", action, "--degree", "100000000"], stdin="01\n")
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert time.perf_counter() - start < 1.0


def test_codec_decode_roundtrip(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["codec", "decode", "--degree", "3"], stdin="0011\n")
    assert code == 0 and out.strip() == "00010111"


def test_codec_enumerate_json(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["codec", "enumerate", "--degree", "2", "--json"])
    data = json.loads(out)
    assert code == 0 and data["count"] == 4
    assert data["sequences"] == ["0011", "0110", "1001", "1100"]


def test_group_compute_doc_example(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["group", "compute", "--family", "kautz",
                            "-m", "2", "-n", "2", "--json"])
    data = json.loads(out)
    assert code == 0
    assert data["invariant_factors"] == [2, 6]
    assert data["order"] == "12"
    assert data["matches_formula"] is True


def test_group_verify(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["group", "verify", "--family", "db",
                            "-m", "2", "-n", "3", "--json"])
    data = json.loads(out)
    assert code == 0 and data["ok"] is True and data["divisibility_split"] is True


def test_group_order_and_formula(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["group", "order", "--family", "db", "-m", "2", "-n", "3"])
    assert code == 0 and out.strip() == "16"
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["group", "formula", "--family", "kautz",
                            "-m", "2", "-n", "2", "--json"])
    data = json.loads(out)
    assert code == 0 and data["invariant_factors"] == [2, 6]


@pytest.mark.parametrize("n", [14, 64])
@pytest.mark.parametrize("argv", [["order"], ["order", "--json"], ["formula", "--json"],
                                  ["formula"], ["compute"], ["compute", "--json"],
                                  ["verify"], ["verify", "--json"]])
def test_group_order_past_the_cap_is_one_error_line(capsys, monkeypatch, argv, n):
    # db(2,14) has an order of 4928 digits, which CPython refuses to print;
    # at n = 64 it would need 2^64 bits, so the cap must come first, and
    # before compute/verify build the 16384-vertex graph and its SNF
    started = time.perf_counter()
    code, out, err = run_cli(capsys, monkeypatch,
                             ["group", *argv, "--family", "db", "-m", "2", "-n", str(n)])
    assert time.perf_counter() - started < 1.0
    assert code == 1 and out == ""
    assert err == f"error: group order exceeds the cap of {MAX_ORDER_DIGITS} decimal digits\n"


def test_group_order_cap_admits_the_largest_printable_orders():
    # kautz(3,8) has 4170 digits and db(2,13) 2462: both under the cap
    assert len(str(group_order_kautz(3, 8))) == 4170
    assert len(str(group_order_db(2, 13))) == 2462
    assert kautz_formula(3, 8).order() == group_order_kautz(3, 8)
    for make in (group_order_kautz, kautz_formula):
        with pytest.raises(GraphError, match="exceeds the cap"):
            make(3, 9)


@pytest.mark.parametrize("family", ["db", "kautz"])
@pytest.mark.parametrize("n", [24, 1000000])
def test_gen_past_the_family_cap_is_one_error_line(capsys, monkeypatch, family, n):
    # db(2,24) has 2^25 edges: refused from m and n, before any label is built
    started = time.perf_counter()
    code, out, err = run_cli(capsys, monkeypatch,
                             ["gen", "--family", family, "-m", "2", "-n", str(n)])
    assert time.perf_counter() - started < 1.0
    assert code == 1 and out == ""
    assert err == (f"error: family graph exceeds the cap of {MAX_FAMILY_EDGES} edges "
                   "or 20 symbols per label\n")


def test_gen_and_linegraph_json(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["gen", "--family", "db", "-m", "2", "-n", "1",
                            "--format", "json"])
    assert code == 0
    graph = json.loads(out)
    assert graph["vertices"] == ["0", "1"]
    assert len(graph["edges"]) == 4

    edge_list = "".join(f"{s} {t} {lbl}\n" for s, t, lbl in graph["edges"])
    monkeypatch.setattr("sys.stdin", io.StringIO(edge_list))
    code = main(["linegraph", "--input", "-", "--format", "json"])
    lg = json.loads(capsys.readouterr().out)
    assert code == 0
    assert sorted(lg["vertices"]) == ["00", "01", "10", "11"]
    assert len(lg["edges"]) == 8


def test_gen_dot(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["gen", "--family", "kautz", "-m", "2", "-n", "1",
                            "--format", "dot"])
    assert code == 0 and out.startswith("digraph") and "->" in out


def test_trees_count_json(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["trees", "count", "--family", "db", "-m", "2", "-n", "2",
                            "--json"])
    data = json.loads(out)
    assert code == 0 and data["total"] == "8"
    assert set(data["by_root"].values()) == {"2"}


def test_trees_identity_and_knuth(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["trees", "identity-check", "--family", "kautz",
                            "-m", "2", "-n", "1", "--json"])
    data = json.loads(out)
    assert code == 0 and data["holds"] is True and data["witness"] is None

    code, out, _ = run_cli(capsys, monkeypatch,
                           ["trees", "knuth-check", "--family", "kautz",
                            "-m", "2", "-n", "1", "--json"])
    data = json.loads(out)
    assert code == 0 and data["holds"] is True
    assert data["kappa_line"] == "72"


@pytest.mark.parametrize("argv", [["trees", "identity-check"], ["trees", "knuth-check"],
                                  ["linegraph"], ["trees", "count"]])
def test_line_graph_commands_take_repeated_edge_labels(capsys, monkeypatch, argv):
    # the second edge's default label is "1", the first edge's label too
    code, out, err = run_cli(capsys, monkeypatch, [*argv, "--input", "-"], stdin="a b 1\nb a\n")
    assert code == 0 and err == ""
    if argv == ["linegraph"]:
        assert out == "0 1\n1 0\n"


def test_linegraph_edge_list_refuses_a_vertex_with_no_edge(capsys, monkeypatch):
    # the line graph of one edge 0 -> 1 is one vertex and no edge
    code, out, err = run_cli(capsys, monkeypatch, ["linegraph", "--input", "-"], stdin="0 1\n")
    assert code == 1 and out == ""
    assert err == ("error: vertex '0' has no edge, so edge-list text would lose it; "
                   "use JSON output (--format json)\n")
    code, out, _ = run_cli(capsys, monkeypatch, ["linegraph", "--input", "-", "--format", "json"],
                           stdin="0 1\n")
    assert code == 0 and json.loads(out) == {"vertices": ["0"], "edges": []}


def test_trees_enumerate(capsys, monkeypatch):
    stdin = "a b\nb a\n"
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["trees", "enumerate", "--input", "-", "--json"],
                           stdin=stdin)
    data = json.loads(out)
    assert code == 0 and len(data["trees"]) == 2


def test_bijection_roundtrip_file(tmp_path, capsys, monkeypatch):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("a b\nb a\n")
    array = {"root": "a", "lists": {"a": ["OMEGA"], "b": ["1"]}}
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["bijection", "roundtrip", "--input", str(graph_file)],
                           stdin=json.dumps(array))
    data = json.loads(out)
    assert code == 0 and data["roundtrip_ok"] is True
    assert data["tree"]["root"] == "1"

    code, out, _ = run_cli(capsys, monkeypatch,
                           ["bijection", "sigma", "--input", str(graph_file)],
                           stdin=json.dumps(array))
    tree = json.loads(out)
    assert code == 0 and tree == {"root": "1", "edges": [["0", "1"]]}

    code, out, _ = run_cli(capsys, monkeypatch,
                           ["bijection", "pi", "--input", str(graph_file)],
                           stdin=json.dumps(tree))
    assert code == 0 and json.loads(out) == array


def test_bijection_rejects_malformed_array(tmp_path, capsys, monkeypatch):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("a b\nb a\n")
    bad = {"root": "a", "lists": {"a": ["0", "OMEGA"], "b": ["1"]}}
    code, _, err = run_cli(capsys, monkeypatch,
                           ["bijection", "sigma", "--input", str(graph_file)],
                           stdin=json.dumps(bad))
    assert code == 1 and "error" in err


@pytest.mark.parametrize("action", ["sigma", "pi", "roundtrip"])
@pytest.mark.parametrize("edges,message", [
    # (1, ((0,), (2, OMEGA))) and (1, ((1,), (2, OMEGA))) would write the same JSON
    ("a b x\na b x\nb a y\n", "edge label 'x' repeats"),
    # pi would write the root's list as ["OMEGA", "OMEGA"]
    ("a a OMEGA\na b x\nb a y\n", "edge label 'OMEGA' reads as the terminator"),
], ids=["repeated-label", "omega-label"])
def test_bijection_refuses_edge_labels_its_json_cannot_tell_apart(tmp_path, capsys, monkeypatch,
                                                                  action, edges, message):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(edges)
    stdin = io.StringIO(json.dumps({"root": "b", "lists": {"a": ["x"], "b": ["y", "OMEGA"]}}))
    monkeypatch.setattr("sys.stdin", stdin)
    code = main(["bijection", action, "--input", str(graph_file)])
    out, err = capsys.readouterr()
    assert (code, out, stdin.tell()) == (1, "", 0)   # refused before stdin is read
    assert err == (f"error: {message}: the bijection's JSON needs distinct edge labels "
                   "other than OMEGA\n")


@pytest.mark.parametrize("action,data", [
    ("sigma", {"lists": {}}),                                      # no "root"
    ("sigma", [["a", "OMEGA"]]),                                   # a list, not an object
    ("roundtrip", [["a", "OMEGA"]]),
    ("pi", [["0", "1"]]),
    ("roundtrip", {"root": "a", "lists": {"a": "OMEGA", "b": ["1"]}}),  # list not a list
    ("pi", {"root": "1", "edges": [["0"]]}),                       # edge pair too short
    # line vertex 1 given two out-edges, (1,0) and (1,2), in either order:
    # keeping either pair would make the answer depend on the order
    ("pi", {"root": "2", "edges": [["0", "1"], ["1", "0"], ["1", "2"]]}),
    ("pi", {"root": "2", "edges": [["0", "1"], ["1", "2"], ["1", "0"]]}),
])
def test_bijection_rejects_malformed_json(tmp_path, capsys, monkeypatch, action, data):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("a b\nb a\na a\n")  # edges 0 = a->b, 1 = b->a, 2 = a->a
    code, out, err = run_cli(capsys, monkeypatch,
                             ["bijection", action, "--input", str(graph_file)],
                             stdin=json.dumps(data))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_all_subset(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["verify-all", "6", "9"])
    assert code == 0
    assert "criterion 6" in out and "criterion 9" in out
    assert "2/2 criteria passed" in out


def test_verify_all_refuses_unknown_criterion_numbers(capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch, ["verify-all", "6", "99", "0"])
    assert (code, out) == (1, "")   # refused before any criterion runs
    assert err == "error: unknown criterion numbers [0, 99]: the criteria are 1 to 9\n"


def test_identity_sweep_refuses_a_count_its_bounds_cannot_reach():
    import pathlib
    import subprocess
    import sys
    root = pathlib.Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "scripts/identity_sweep.py", "--count", "2",
                           "--max-vertices", "1", "--max-edges", "1"],
                          cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "error: count 2 is out of reach" in proc.stderr


def test_identity_sweep_refuses_more_vertices_than_the_canonical_form_takes():
    # canonical_form tries all n! relabellings, minutes a graph at n = 12
    import pathlib
    import subprocess
    import sys
    root = pathlib.Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "scripts/identity_sweep.py", "--max-vertices", "12",
                           "--max-edges", "20"],
                          cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "error: max_vertices is capped at 8" in proc.stderr


def test_experiment_scripts_run():
    import pathlib
    import subprocess
    import sys
    root = pathlib.Path(__file__).resolve().parent.parent
    for cmd in (
        [sys.executable, "scripts/critical_group_table.py", "--max-m", "2", "--max-n", "2"],
        [sys.executable, "scripts/identity_sweep.py", "--count", "3"],
    ):
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def _cycle_array(n):
    # the 10^4-line graph's tree array rooted at 0: edge v runs v -> v + 1,
    # edge n is the loop at 0, and vertex 0 (indegree 2) lists the loop first
    lists = {str(v): [str(v)] for v in range(1, n)}
    lists["0"] = [str(n), "OMEGA"]
    return json.dumps({"root": "0", "lists": lists})


def _cyclic_line_tree(n):
    # rooted at the loop, with every edge of the n-cycle followed by the next:
    # the line tree's edges close that cycle, so nothing can be peeled
    return json.dumps({"root": str(n), "edges": [[str(e), str((e + 1) % n)] for e in range(n)]})


@pytest.mark.parametrize("argv,n,stdin,code,lines,err", [
    (["linegraph"], 10 ** 4, None, 0, (10 ** 4 + 3, "0 1", "10000 10000"), ""),
    (["trees", "enumerate", "--bound", "10"], 10 ** 4, None, 1, None,
     "error: 19999 candidate assignments exceed bound 10\n"),
    (["trees", "identity-check", "--bound", "10"], 10 ** 4, None, 1, None,
     "error: 40000 candidate assignments exceed bound 10\n"),
    (["trees", "count"], 300, None, 0, (301, "spanning trees: 300", "  root 299: 1"), ""),
    (["trees", "identity-check", "--method", "evaluate"], 300, None, 0,
     (1, "identity holds: True (lhs terms: None, rhs terms: None)",
      "identity holds: True (lhs terms: None, rhs terms: None)"), ""),
    (["bijection", "roundtrip"], 10 ** 4, _cycle_array, 0, "roundtrip_ok", ""),
    (["bijection", "pi"], 10 ** 4, _cyclic_line_tree, 1, None,
     "error: cycle through vertex 0\n"),
], ids=["linegraph", "trees-enumerate", "trees-identity-check", "trees-count-cycle300",
        "trees-identity-evaluate-cycle300", "bijection-roundtrip", "bijection-pi-cycle"])
def test_large_edge_list_within_time_bound(tmp_path, capsys, monkeypatch,
                                           argv, n, stdin, code, lines, err):
    # a 10^4-line edge list: a cycle on 10^4 vertices plus a loop at 0; no
    # subcommand may be quadratic in it before its enumeration bound refuses,
    # and the bijection maps answer or name the cycle.
    # On a 300-cycle the determinant commands answer: `trees count` takes
    # one sparse minor, as both graphs are balanced, and the evaluated
    # identity 8 determinants.
    path = tmp_path / "big.txt"
    path.write_text("".join(f"{v} {(v + 1) % n}\n" for v in range(n))
                    + ("0 0\n" if n == 10 ** 4 else ""))
    text = stdin(n) if stdin else ""
    start = time.perf_counter()
    got_code, out, got_err = run_cli(capsys, monkeypatch, [*argv, "--input", str(path)],
                                     stdin=text)
    elapsed = time.perf_counter() - start
    assert (got_code, got_err) == (code, err)
    got = out.splitlines()
    if lines is None:
        assert got == []
    elif lines == "roundtrip_ok":
        # one JSON line: the line tree, and pi(sigma(A)) == A
        assert len(got) == 1 and json.loads(got[0])["roundtrip_ok"] is True
    else:
        # for the 10^4 line graph: edges into vertex 0 (n - 1 -> 0 and the
        # loop) have two successors, the other n - 1 edges one
        assert (len(got), got[0], got[-1]) == lines
    assert elapsed < 1.0


def test_codec_degree16_within_time_bound(capsys, monkeypatch):
    # a degree-16 round trip through the CLI: 2^15 code bits in, a 2^16-bit
    # sequence out, and back; the library takes about 0.3 s each way
    def timed(action, stdin):
        start = time.perf_counter()
        status, out, err = run_cli(capsys, monkeypatch, ["codec", action, "--degree", "16"],
                                   stdin=stdin + "\n")
        elapsed = time.perf_counter() - start
        assert (status, err, out.count("\n")) == (0, "", 1)
        assert elapsed < 1.0
        return out.strip()

    code = "".join(random.Random(16).choice("01") for _ in range(2 ** 15))
    bits = timed("decode", code)
    assert len(bits) == 2 ** 16
    assert timed("encode", bits) == code


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["group", "compute", "--family", "nope", "-m", "2", "-n", "2"])
    assert exc.value.code == 2


def test_missing_graph_source_is_usage_error(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["trees", "count"])
    assert code == 2 and "provide --input" in err


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_input_is_usage_error(tmp_path, capsys, monkeypatch, kind):
    path = tmp_path / "absent.txt" if kind == "missing" else tmp_path
    code, out, err = run_cli(capsys, monkeypatch, ["trees", "count", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


# --- fuzz: arbitrary short stdin ends in an exit code, never a traceback -----

FUZZ_GRAPH = "a b\nb a\na a\n"  # the graph file of the bijection actions
FUZZ_COMMANDS = {
    "linegraph": [["linegraph", "--input", "-", "--format", fmt]
                  for fmt in ("edgelist", "json", "dot")],
    "trees": ([["trees", action, "--input", "-"] for action in ("count", "enumerate")]
              + [["trees", action, "--input", "-", "--bound", "10000"]
                 for action in ("identity-check", "knuth-check")]),
    "bijection": [["bijection", action, "--input", "GRAPH"]
                  for action in ("sigma", "pi", "roundtrip")],
    "codec": [["codec", action, "--degree", str(d)]
              for action in ("encode", "decode") for d in range(2, 7)],
}

_token = st.sampled_from(["a", "b", "c", "0", "1", "2", "01", "0011", "x\"y", "z\\",
                          "#", "{", "}", "[", "]", ":", ",", "OMEGA", '"OMEGA"',
                          '"root"', '"lists"', '"edges"', '"a"', '"1"'])
_line = st.one_of(st.text(max_size=25), st.lists(_token, max_size=5).map(" ".join))
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.sampled_from(["a", "b", "0", "1", "2", "OMEGA", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["root", "lists", "edges", "a", "b"]), inner, max_size=3),
    max_leaves=8).map(json.dumps)
_stdin = st.one_of(st.lists(_line, max_size=8).map("\n".join), _json,
                   st.text("01", max_size=40)).filter(lambda text: len(text) <= 200)


@pytest.fixture(scope="module")
def fuzz_graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "g.txt"
    path.write_text(FUZZ_GRAPH)
    return str(path)


@pytest.mark.parametrize("command", FUZZ_COMMANDS)
def test_cli_fuzz_stdin(command, fuzz_graph_file):

    @settings(max_examples=100)
    @given(st.sampled_from(FUZZ_COMMANDS[command]), _stdin)
    def run(argv, stdin):
        argv = [fuzz_graph_file if arg == "GRAPH" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        real_stdin = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            sys.stdin = real_stdin
        assert code in (0, 1, 2)
        lines = err.getvalue().splitlines()
        assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: "))

    run()
