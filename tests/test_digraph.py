import json

import pytest
from hypothesis import given, strategies as st

from linetrees.digraph import (DiGraph, _check_family_size, class_cycle, debruijn,
                               detect_family, eulerian_circuit, format_edge_list, is_eulerian,
                               is_strongly_connected, kautz, label_isomorphic,
                               line_graph, parse_edge_list, to_dot, to_json_dict)
from linetrees.arborescence import knuth_check, verify_identity
from linetrees.errors import GraphError, UnsupportedFamilyError


@st.composite
def small_digraphs(draw, max_n=4, max_m=8):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    edges = [(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
             for _ in range(m)]
    return DiGraph(n, edges)


@pytest.mark.parametrize("g", [DiGraph(1, []), DiGraph(2, [(0, 1), (1, 0)]),
                               DiGraph(3, [(2, 0), (0, 1), (2, 2), (0, 1), (1, 2), (2, 0)]),
                               debruijn(2, 2), kautz(3, 1), line_graph(kautz(2, 1))],
                         ids=["edgeless", "two-cycle", "multigraph", "debruijn-2-2",
                              "kautz-3-1", "line-kautz-2-1"])
def test_out_lists_hold_each_edge_under_its_source_in_edge_order(g):
    # LineContext's rank of f is its index in _out[s(f)], and line_graph
    # lists the line edges in this order
    assert g._out == tuple(tuple(e for e, (s, _) in enumerate(g.edges) if s == v)
                           for v in range(g.n))
    assert list(map(len, g._out)) == list(g.outdeg)
    assert sorted(e for out in g._out for e in out) == list(range(g.m))


def test_build_two_cycle():
    g = DiGraph(2, [(0, 1), (1, 0)])
    assert g.n == 2 and g.m == 2
    assert g.indeg == (1, 1) and g.outdeg == (1, 1)


def test_build_self_loop():
    g = DiGraph(1, [(0, 0)])
    assert g.indeg == (1,) and g.outdeg == (1,)


def test_build_parallel_edges():
    g = DiGraph(2, [(0, 1), (0, 1)])
    assert g.m == 2 and g.indeg[1] == 2


def test_build_rejects_bad_input():
    with pytest.raises(GraphError):
        DiGraph(0, [])
    with pytest.raises(GraphError):
        DiGraph(2, [(0, 5)])


@pytest.mark.parametrize("n, edges", [
    (2, [(0.5, 1), (1, 0)]),      # int() would build the edge (0, 1)
    (2, [(0, "1"), (1, 0)]),      # int() would parse the string
    (2.7, [(0, 1), (1, 0)]),
    ("2", [(0, 1), (1, 0)]),
], ids=["float-endpoint", "string-endpoint", "float-n", "string-n"])
def test_build_refuses_endpoints_and_counts_that_are_not_integers(n, edges):
    with pytest.raises(GraphError, match="^vertex count and edge endpoints must be integers$"):
        DiGraph(n, edges)


def test_build_takes_integer_like_endpoints_as_ints():
    # bools and other __index__ types are integers, and are stored as int
    g = DiGraph(True, [(False, 0)])
    assert g.n == 1 and g.edges == ((0, 0),) and type(g.edges[0][0]) is int


@pytest.mark.parametrize("make, m, n", [(debruijn, 2.5, 3), (debruijn, 2, "3"),
                                        (kautz, 2, 2.0), (kautz, None, 2)])
def test_generators_refuse_parameters_that_are_not_integers(make, m, n):
    name = "de Bruijn" if make is debruijn else "Kautz"
    with pytest.raises(GraphError, match=f"^{name} graph requires integers m and n$"):
        make(m, n)


@pytest.mark.parametrize("g", [debruijn(2, 2), DiGraph(2, [(0, 1), (1, 0)])])
def test_labels_take_their_index_through_the_range_check(g):
    # labelled or not, an index a vertex or edge does not have is refused,
    # not read from the end or printed
    labels = ("01", "001") if g.vertex_labels else ("1", "1")
    assert (g.vertex_label(1), g.edge_label(1)) == labels
    for v in (-1, 1.5, 1.0, g.n):
        with pytest.raises(GraphError, match="^vertex"):
            g.vertex_label(v)
    for e in (-1, 1.5, 1.0, g.m):
        with pytest.raises(GraphError, match="^edge"):
            g.edge_label(e)


def test_line_graph_two_cycle():
    g = DiGraph(2, [(0, 1), (1, 0)])
    lg = line_graph(g)
    assert lg.n == 2 and lg.m == 2
    assert sorted(lg.edges) == [(0, 1), (1, 0)]
    # vertex e of the line graph is edge e of g: line edges join consecutive edges
    assert lg.n == g.m
    assert all(g.edges[e][1] == g.edges[f][0] for e, f in lg.edges)


def test_line_graph_self_loop():
    lg = line_graph(DiGraph(1, [(0, 0)]))
    assert lg.n == 1 and lg.edges == ((0, 0),)


def test_line_graph_db1_is_db2():
    lg = line_graph(debruijn(2, 1))
    assert (lg.n, lg.m) == (4, 8)
    assert label_isomorphic(lg, debruijn(2, 2))


@given(small_digraphs())
def test_line_graph_edge_count(g):
    if g.m == 0:
        return
    lg = line_graph(g)
    assert lg.n == g.m
    assert lg.m == sum(g.indeg[v] * g.outdeg[v] for v in range(g.n))


def test_line_graph_edge_count_on_corpus():
    from linetrees.corpus import identity_corpus
    for g in identity_corpus():
        lg = line_graph(g)
        assert lg.m == sum(g.indeg[v] * g.outdeg[v] for v in range(g.n))


def test_debruijn_small():
    g = debruijn(2, 1)
    assert (g.n, g.m) == (2, 4)  # complete with self-loops
    assert debruijn(2, 3).n == 8 and debruijn(2, 3).m == 16
    assert g.vertex_labels == ("0", "1")
    assert g.edge_labels == ("00", "01", "10", "11")


def test_kautz_small():
    g = kautz(2, 1)
    assert (g.n, g.m) == (3, 6)
    assert all(s != t for s, t in g.edges)  # no self-loops
    assert kautz(2, 2).vertex_labels == ("01", "02", "10", "12", "20", "21")
    assert kautz(2, 2).m == 12


def test_generators_reject_zero_parameters():
    for make in (debruijn, kautz):
        with pytest.raises(GraphError):
            make(0, 2)
        with pytest.raises(GraphError):
            make(2, 0)


def test_family_cap_from_m_and_n_alone():
    # the largest graphs on two symbols under the cap, and past it
    _check_family_size(2, 19, kautz=False)      # 2^20 edges
    _check_family_size(2, 18, kautz=True)       # 3 * 2^18 edges
    for make, m, n in [(debruijn, 2, 20), (kautz, 2, 19), (debruijn, 3, 12),
                       (debruijn, 10 ** 9, 1), (kautz, 2, 10 ** 18)]:
        with pytest.raises(GraphError, match="exceeds the cap of 1048576 edges"):
            make(m, n)
    # one symbol: one or two edges, but labels of n + 1 symbols
    for make in (debruijn, kautz):
        assert make(1, 19).m == (1 if make is debruijn else 2)
        with pytest.raises(GraphError, match="or 20 symbols per label"):
            make(1, 20)


# the codec's top level at degree 12 is the line graph of debruijn(2, 11)
LINE_GRAPH_LEVELS = ([(make, m, n) for make in (debruijn, kautz) for n in (1, 2, 3) for m in (2, 3)]
                     + [(debruijn, 2, n) for n in range(4, 12)])


@pytest.mark.parametrize("make,m,n", [pytest.param(make, m, n, id=f"{make.__name__}-{n}-{m}")
                                      for make, m, n in LINE_GRAPH_LEVELS])
def test_family_line_graph_identity(make, m, n):
    lg = line_graph(make(m, n))
    lifted = make(m, n + 1)
    assert label_isomorphic(lg, lifted)
    # index for index: vertex e of the line graph is edge e, numbered as the lifted graph
    assert lg.edges == lifted.edges
    assert lg.vertex_labels == lifted.vertex_labels


@pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("make", [debruijn, kautz])
def test_families_balanced_and_connected(make, m, n):
    g = make(m, n)
    assert g.indeg == tuple([m] * g.n) and g.outdeg == tuple([m] * g.n)
    assert is_eulerian(g) and is_strongly_connected(g)


def test_eulerian_and_connectivity_basics():
    assert is_eulerian(debruijn(3, 2))
    assert is_strongly_connected(debruijn(3, 2))
    path = DiGraph(2, [(0, 1)])
    assert not is_eulerian(path) and not is_strongly_connected(path)
    loop = DiGraph(1, [(0, 0)])
    assert is_eulerian(loop) and is_strongly_connected(loop)


def test_eulerian_circuit_is_a_circuit():
    g = debruijn(2, 2)
    circuit = eulerian_circuit(g)
    assert sorted(circuit) == list(range(g.m))
    for e, f in zip(circuit, circuit[1:] + circuit[:1]):
        assert g.edges[e][1] == g.edges[f][0]


def test_class_cycle_kautz22():
    g = kautz(2, 2)
    cycle = [g.vertex_label(v) for v in class_cycle(g)]
    assert cycle == ["01", "12", "20"]


def test_class_cycle_debruijn22():
    g = debruijn(2, 2)
    assert [g.vertex_label(v) for v in class_cycle(g)] == ["01", "10"]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("make", [debruijn, kautz])
def test_class_cycle_families(make, m, n):
    g = make(m, n)
    cycle = class_cycle(g)  # class_cycle validates edges and coverage itself
    assert len(cycle) == g.n // m
    suffixes = {g.vertex_label(v)[1:] for v in cycle}
    assert len(suffixes) == len(cycle)


def test_class_cycle_rejects_non_family():
    with pytest.raises(UnsupportedFamilyError):
        class_cycle(DiGraph(2, [(0, 1), (1, 0)]))


def test_detect_family():
    assert detect_family(debruijn(3, 2)) == ("db", 3, 2)
    assert detect_family(kautz(2, 3)) == ("kautz", 2, 3)
    with pytest.raises(UnsupportedFamilyError):
        detect_family(DiGraph(2, [(0, 1), (1, 0)]))


def test_detect_family_builds_only_candidates_of_the_right_size(monkeypatch):
    import linetrees.digraph as digraph
    g = kautz(2, 5)  # 48 vertices; debruijn(3, 5) would have 243

    def refuse(m, n):
        raise AssertionError(f"debruijn({m}, {n}) built")

    monkeypatch.setattr(digraph, "debruijn", refuse)
    assert detect_family(g) == ("kautz", 2, 5)
    # a labelled graph of neither family's size builds no candidate at all
    monkeypatch.setattr(digraph, "kautz", refuse)
    with pytest.raises(UnsupportedFamilyError):
        detect_family(DiGraph(3, [(0, 1), (1, 2)], vertex_labels=["0", "1", "01"]))


def test_edge_list_roundtrip():
    text = "# comment\na b e1\nb a e2\n"
    g = parse_edge_list(text)
    assert g.vertex_labels == ("a", "b")
    assert g.edge_labels == ("e1", "e2")
    again = parse_edge_list(format_edge_list(g))
    assert again.edges == g.edges and again.vertex_labels == g.vertex_labels


def test_line_graph_keeps_edge_labels_only_when_distinct():
    assert line_graph(debruijn(2, 1)).vertex_labels == debruijn(2, 1).edge_labels
    # a repeated edge label cannot name two vertices: the line graph is
    # unlabelled, and the identity checks read it as the unlabelled graph's
    repeated = DiGraph(2, [(0, 1), (1, 0)], edge_labels=["x", "x"])
    plain = DiGraph(2, [(0, 1), (1, 0)])
    assert line_graph(repeated).vertex_labels is None
    assert line_graph(repeated).edges == line_graph(plain).edges
    assert knuth_check(repeated) == knuth_check(plain)
    assert verify_identity(repeated) == verify_identity(plain)


@pytest.mark.parametrize("labels", [[1, "b"], ["a", None], [b"a", "b"]])
def test_build_refuses_labels_that_are_not_strings(labels):
    with pytest.raises(GraphError, match="^vertex labels must be strings$"):
        DiGraph(2, [(0, 1)], vertex_labels=labels)
    with pytest.raises(GraphError, match="^edge labels must be strings$"):
        DiGraph(2, [(0, 1), (1, 0)], edge_labels=labels)


@pytest.mark.parametrize("g, named", [
    (DiGraph(3, [(0, 1)]), "vertex '2' has no edge"),
    (DiGraph(3, [(0, 2)], vertex_labels=["a", "b", "c"]), "vertex 'b' has no edge"),
    (DiGraph(2, [(0, 1)], vertex_labels=["a b", "c"]), "label 'a b'"),
    (DiGraph(2, [(0, 1)], vertex_labels=["", "c"]), "label ''"),
    (DiGraph(2, [(0, 1)], vertex_labels=["a#", "c"]), "label 'a#'"),
    (DiGraph(2, [(0, 1)], vertex_labels=["a\n", "c"]), "label 'a\\n'"),
    (DiGraph(2, [(0, 1)], edge_labels=["x\ty"]), "label 'x\\ty'"),
    (DiGraph(2, [(0, 1)], edge_labels=[""]), "label ''"),
])
def test_edge_list_writer_refuses_what_the_reader_would_misread(g, named):
    # format_edge_list("a b" -> "c") would print "a b c", an edge a -> b
    # labelled c; a vertex with no edge would be dropped
    with pytest.raises(GraphError) as info:
        format_edge_list(g)
    assert named in str(info.value) and "--format json" in str(info.value)


def test_edge_list_rejects_garbage():
    with pytest.raises(GraphError):
        parse_edge_list("a\n")
    with pytest.raises(GraphError):
        parse_edge_list("# nothing\n")


def test_json_roundtrip():
    g = kautz(2, 2)
    data = json.loads(json.dumps(to_json_dict(g)))
    assert set(data) == {"vertices", "edges"}
    assert data["vertices"] == list(g.vertex_labels)
    assert data["edges"] == [[g.vertex_label(s), g.vertex_label(t), g.edge_label(e)]
                             for e, (s, t) in enumerate(g.edges)]
    assert data["edges"][0] == ["01", "10", "010"]


def test_dot_export_mentions_labels():
    dot = to_dot(debruijn(2, 1))
    assert "digraph" in dot and '"01"' in dot and "v0 -> v1" in dot


def test_dot_escapes_quotes_and_backslashes():
    # vertex x"y, vertex z\ and edge label q"\ each stay one DOT string
    g = parse_edge_list('x"y z\\ q"\\\nz\\ x"y\n')
    dot = to_dot(g)
    assert 'v0 [label="x\\"y"];' in dot
    assert 'v1 [label="z\\\\"];' in dot
    assert 'v0 -> v1 [label="q\\"\\\\"];' in dot
