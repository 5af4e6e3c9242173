"""The input contract (README, "Input contract") over every public member.

A bad value in an argument of the right kind raises ValueError or the
module's typed subclass of it, and the message names the argument.  Each
row of ROWS is (member, argument, bad values, error type, message pattern);
every other argument takes its value from VALID.  A row with no bad values
says that every value of the right kind is accepted.  A member in
ALSO_UNDER has its rows checked again under each of its other valid
arguments there.  Every parameter of every public callable
(``test_public_surface.public_members()``, plus
``LineContext.sigma``/``.pi``/``.line_tree``/``.successors`` and
``DiGraph.vertex_label``/``.edge_label``) needs a row, or its member a
reason in NO_ARGUMENT_ROWS, so new API cannot skip the contract, and
deleting any row or reason fails ``test_every_public_argument_has_a_row``.
"""

import inspect
import re
import time
from functools import cache
from importlib import import_module

import pytest
from hypothesis import given, strategies as st

from linetrees.arborescence import SpanningTree
from linetrees.crit_group import AbelianGroup
from linetrees.db_codec import HamPath
from linetrees.digraph import DiGraph, debruijn
from linetrees.errors import (GraphError, InvalidSequenceError, InvalidTreeArrayError,
                              InvalidTreeError, UnsupportedFamilyError)
from linetrees.line_bijection import LineContext, TreeArray, enumerate_tree_arrays

from test_public_surface import public_members

G = debruijn(2, 1)      # 2 vertices, 4 edges: 00, 01, 10, 11
ARRAY = next(enumerate_tree_arrays(G))
TREE = LineContext(G).sigma(ARRAY)              # a tree of the 4-vertex line graph
SUCC = LineContext(G).successors(TREE)
ZERO_INDEGREE = DiGraph(2, [(0, 1)])            # nor strongly connected, nor balanced
EDGELESS = DiGraph(1, [])
UNLABELLED = DiGraph(2, [(0, 1), (1, 0)])
# the public methods with rows, by class; they are called on LineContext(G) and G
METHODS = {LineContext: ("sigma", "pi", "line_tree", "successors"),
           DiGraph: ("vertex_label", "edge_label")}

# Valid arguments for each member; a row replaces one of them.
VALID = {
    "bareiss_determinant": dict(matrix=[[2, 1], [1, 3]]),
    "count_trees": dict(g=G),
    "degree_product": dict(g=G),
    "determinant": dict(rows=[{0: 2, 1: 1}, {0: 1, 1: 3}]),
    "enumerate_trees": dict(g=G, root=0, bound=100),
    "kappa_edge": dict(g=G, bound=100),
    "kappa_vertex": dict(g=G, bound=100),
    "knuth_check": dict(g=G),
    "out_laplacian": dict(g=G, weights=[1, 2, 3, 4]),
    "rhs_product": dict(g=G, bound=100),
    "rooted_tree_counts": dict(g=G),
    "validate_tree": dict(g=G, t=SpanningTree(0, (None, 2))),
    "verify_identity": dict(g=G, method="expand", bound=100, seed=0),
    "canonical_form": dict(n=2, edges=[(0, 1), (1, 1)]),
    "random_small_graphs": dict(count=1, max_vertices=1, max_edges=1, seed=0),
    "AbelianGroup": dict(invariant_factors=(2, 4), free_rank=0),
    "GroupFormula": dict(summands=((2, 1), (4, 2))),
    "check_divbym": dict(g=debruijn(2, 2)),
    "critical_group": dict(g=G),
    "db_formula": dict(m=2, n=2),
    "kautz_formula": dict(m=2, n=2),
    "group_order_db": dict(m=2, n=2),
    "group_order_kautz": dict(m=2, n=2),
    "tree_count_db": dict(m=2, n=2),
    "tree_count_kautz": dict(m=2, n=2),
    "group_from_cyclic_orders": dict(orders=[2, 3]),
    "group_from_diagonal": dict(diagonal=[1, 2, 4, 0]),
    "mult_by_k": dict(group=AbelianGroup((2, 4)), k=2),
    "sandpile_group": dict(g=G, sink=1),
    "smith_normal_form": dict(rows=[{0: 2}, {1: 3}]),
    "decode": dict(code="01", degree=2),
    "encode": dict(bits="0011", degree=2),
    "enumerate_db_sequences": dict(degree=2),
    "path_to_seq": dict(path=HamPath(2, (0, 1, 3, 2))),
    "seq_to_path": dict(bits="0011", degree=2),
    "validate": dict(bits="0011", degree=2),
    "DiGraph": dict(n=2, edges=[(0, 1), (1, 0)], vertex_labels=["a", "b"],
                    edge_labels=["x", "y"]),
    "class_cycle": dict(g=debruijn(2, 2)),
    "debruijn": dict(m=2, n=2),
    "kautz": dict(m=2, n=2),
    "detect_family": dict(g=G),
    "eulerian_circuit": dict(g=G),
    "format_edge_list": dict(g=G),
    "is_eulerian": dict(g=G),
    "is_strongly_connected": dict(g=G),
    "label_isomorphic": dict(a=G, b=G),
    "line_graph": dict(g=G),
    "parse_edge_list": dict(text="a b\nb a\n"),
    "to_dot": dict(g=G),
    "to_json_dict": dict(g=G),
    "count_text": dict(n=12),
    "integers": dict(values=[1, 2], text="values", error=ValueError, count=2),
    "integer": dict(value=1, text="value", error=ValueError),
    "LineContext": dict(g=G),
    "LineContext.sigma": dict(a=ARRAY, order=[3, 2, 1, 0]),
    "LineContext.pi": dict(tree=TREE, order=[3, 2, 1, 0]),
    "LineContext.line_tree": dict(root=TREE.root, succ=SUCC),
    "LineContext.successors": dict(tree=TREE),
    "DiGraph.vertex_label": dict(v=1),
    "DiGraph.edge_label": dict(e=3),
    "enumerate_tree_arrays": dict(g=G),
    "shuffled_order": dict(g=G, seed=1),
    "tree_array_count": dict(g=G),
    "validate_tree_array": dict(g=G, a=ARRAY),
    "run": dict(numbers=[9]),
}

NOT_INTEGERS = ["x", 1.5, None]
HUGE = 10 ** 5000       # past the digits CPython prints: messages give it by its logarithm
ORDERS = [[0, 0, 1, 2], [0, 1, 2], [0.0, 1, 2, 3], ["x", 1, 2, 3], [0, 1, 2, 4]]
BOUND = (NOT_INTEGERS, ValueError, "^bound must be an integer$")
ANY = ((), None, None)      # every value of the right kind is accepted


def _arrays(a):
    return [TreeArray(0, None), TreeArray(0, (1, 2)), TreeArray(0, (1, 2, 3, 4)),
            TreeArray(2, a.lists), TreeArray(-1, a.lists), TreeArray("x", a.lists),
            TreeArray(1.5, a.lists), TreeArray(a.root, a.lists[:1]),
            TreeArray(a.root, (("x",) + a.lists[0][1:],) + a.lists[1:])]


def _put(root, entries, x):
    # entries with x in place of the entry after the root's
    at = (root + 1) % len(entries)
    return entries[:at] + (x,) + entries[at + 1:]


def _line_trees(t):
    return [SpanningTree(0, None), SpanningTree(0, 5), SpanningTree(t.root, t.out_edge[:-1]),
            SpanningTree(4, t.out_edge), SpanningTree("x", t.out_edge),
            *(SpanningTree(t.root, _put(t.root, t.out_edge, x)) for x in ("x", 1.5, -1, 99))]


def _succs(root, succ):
    head = G.edges[(root + 1) % len(succ)][1]
    out = [f for f, (s, _) in enumerate(G.edges) if s == head]
    elsewhere = next(f for f in range(G.m) if f not in out)
    return [None, 5, succ[:-1], succ + (None,),
            *(_put(root, succ, x) for x in ("x", 1.5, float(out[0]), -1, 4, [1], elsewhere))]


ROWS = [
    # arborescence
    ("bareiss_determinant", "matrix", [[[1, 2]], [[1.5]], [["x"]], [[1, 2], [3]], [None]],
     ValueError, "square matrix"),
    ("count_trees", "g", *ANY),
    ("degree_product", "g", [ZERO_INDEGREE], InvalidTreeError, "indegree"),
    ("determinant", "rows", [[{0: 1.5}], [{0: "x"}], [{0: None}], [{0: 1, 1: 1}],
                             [{0: 1.5}] * 11, iter([{0: 1}])],
     ValueError, "matrix|determinant rows"),
    ("enumerate_trees", "g", *ANY),
    ("enumerate_trees", "root", [*NOT_INTEGERS[:2], -1, 2], GraphError, "^root"),
    ("enumerate_trees", "bound", *BOUND),
    ("kappa_edge", "g", *ANY),
    ("kappa_edge", "bound", *BOUND),
    ("kappa_vertex", "g", *ANY),
    ("kappa_vertex", "bound", *BOUND),
    ("knuth_check", "g", [ZERO_INDEGREE, EDGELESS], InvalidTreeError, "indegree"),
    ("out_laplacian", "g", *ANY),
    ("out_laplacian", "weights", [[1, 2, 3], [1.5] * 4, ["x"] * 4, 4, "abcd"],
     ValueError, "^weights must be 4 integers"),
    ("rhs_product", "g", [ZERO_INDEGREE], InvalidTreeError, "indegree"),
    ("rhs_product", "bound", *BOUND),
    ("rooted_tree_counts", "g", *ANY),
    ("validate_tree", "g", *ANY),
    ("validate_tree", "t", _line_trees(SpanningTree(0, (None, 2)))[:3]
     + [SpanningTree(2, (None, 2)), SpanningTree("x", (None, 2)), SpanningTree(0, (None, "x")),
        SpanningTree(0, (None, 1.5)), SpanningTree(0, (None, 9)), SpanningTree(0, (None, 0))],
     InvalidTreeError, "tree shape|root|out-edge"),
    ("verify_identity", "g", [ZERO_INDEGREE, EDGELESS], InvalidTreeError, "indegree"),
    ("verify_identity", "method", ["x", None], ValueError, "^unknown method"),
    ("verify_identity", "bound", *BOUND),
    ("verify_identity", "seed", *ANY),
    # corpus
    ("canonical_form", "n", [0, *NOT_INTEGERS[:2], 9], GraphError, "vertex"),
    ("canonical_form", "edges", [[(0, 5)], [(0, -1)], [(0, 1.5)], [(0, 1, 1)], [(0,)]],
     GraphError, "edge"),
    ("random_small_graphs", "count", [*NOT_INTEGERS, 2], ValueError, "count"),
    ("random_small_graphs", "max_vertices", [*NOT_INTEGERS, 0, 2, 9], ValueError,
     "max_vertices"),
    ("random_small_graphs", "max_edges", [*NOT_INTEGERS, 0], ValueError, "max_edges"),
    ("random_small_graphs", "seed", *ANY),
    # crit_group
    ("AbelianGroup", "invariant_factors", [(1.5,), ("x",), (1,), (2, 3), 5, None],
     ValueError, "factors"),
    ("AbelianGroup", "free_rank", [*NOT_INTEGERS, -1], ValueError, "free rank"),
    ("GroupFormula", "summands", [((2, 1.5),), ((2,),), (("x", 1),), ((2, 1, 1),), (2,),
                                  ((0, 1),), ((2, -1),), ((2, 10 ** 12),), ((HUGE, 1),)],
     ValueError, "^summands|^moduli"),
    ("check_divbym", "g", [G, UNLABELLED], GraphError, "length|labels"),
    ("critical_group", "g", [ZERO_INDEGREE], GraphError, "indeg = outdeg"),
    *[(name, "m", [*NOT_INTEGERS, 0], GraphError, "requires")
      for name in ("db_formula", "kautz_formula", "group_order_db", "group_order_kautz",
                   "tree_count_db", "tree_count_kautz")],
    *[(name, "n", [*NOT_INTEGERS, 0, 10 ** 6], GraphError, "requires|cap")
      for name in ("db_formula", "kautz_formula", "group_order_db", "group_order_kautz",
                   "tree_count_db", "tree_count_kautz")],
    ("group_from_cyclic_orders", "orders", [[1.5], ["x"], [0], 5], ValueError, "cyclic orders"),
    ("group_from_diagonal", "diagonal", [[1.5], ["x"], [-2], [2, 3]], ValueError, "factors"),
    ("mult_by_k", "group", [AbelianGroup((2,), 1)], ValueError, "finite groups"),
    ("mult_by_k", "k", NOT_INTEGERS, ValueError, "integer k"),
    ("sandpile_group", "g", [ZERO_INDEGREE], GraphError, "strongly connected"),
    ("sandpile_group", "sink", [*NOT_INTEGERS, -1, 2], GraphError, "^sink"),
    ("smith_normal_form", "rows", [[{0: 1.5}], [{0: "x"}], [{0: None}], [{0: 1, 1: 1, 2: 1}],
                                   iter([{0: 2}, {1: 3}])],
     ValueError, "entries|columns"),
    # db_codec
    ("decode", "code", ["012", "0", "0a"], InvalidSequenceError, "^code"),
    ("decode", "degree", [*NOT_INTEGERS, 1, 3, HUGE], InvalidSequenceError, "degree"),
    ("encode", "bits", ["0000", "001", "0012"], InvalidSequenceError, "sequence"),
    ("encode", "degree", [*NOT_INTEGERS, 1, 3, HUGE], InvalidSequenceError, "degree"),
    ("enumerate_db_sequences", "degree", [*NOT_INTEGERS, 0, 5], InvalidSequenceError, "degree"),
    ("path_to_seq", "path", [HamPath(2, (0, 1, 2)), HamPath(2, (0, 1, 3, 3)),
                             HamPath("x", (0, 1, 3, 2)), HamPath(1.5, (0, 1, 3, 2)),
                             HamPath(2, ("a", 1, 3, 2)), HamPath(2, None),
                             HamPath(2, (0, 2, 1, 3)), HamPath(HUGE, (0, 1, 3, 2))],
     InvalidSequenceError, "degree|path"),
    ("seq_to_path", "bits", ["0000", "001", "0012"], InvalidSequenceError, "sequence"),
    ("seq_to_path", "degree", [*NOT_INTEGERS, 0, 3, HUGE], InvalidSequenceError, "degree"),
    ("validate", "bits", ["001", "0012"], InvalidSequenceError, "sequence"),
    ("validate", "degree", [*NOT_INTEGERS, 0, 3, HUGE], InvalidSequenceError, "degree"),
    # digraph
    ("DiGraph", "n", [0, -1, *NOT_INTEGERS], GraphError, "vertex"),
    ("DiGraph", "edges", [[(0, 5), (1, 0)], [(0, -1), (1, 0)], [(0, 1.5), (1, 0)],
                          [(0, 1, 1), (1, 0)], [(0,), (1, 0)], [5, (1, 0)]],
     GraphError, "edge"),
    ("DiGraph", "vertex_labels", [["a"], ["a", "a"], [1, "b"], ["a", None]], GraphError,
     "vertex label"),
    ("DiGraph", "edge_labels", [["x"], ["x", "y", "z"], ["x", 2], [None, "y"]], GraphError,
     "edge label"),
    ("DiGraph.vertex_label", "v", [*NOT_INTEGERS, 1.0, -1, 2], GraphError, "^vertex"),
    ("DiGraph.edge_label", "e", [*NOT_INTEGERS, 1.0, -1, 4], GraphError, "^edge"),
    ("class_cycle", "g", [G, UNLABELLED], UnsupportedFamilyError, "length|labels"),
    ("debruijn", "m", [0, *NOT_INTEGERS, 40], GraphError, "requires|alphabet"),
    ("debruijn", "n", [0, *NOT_INTEGERS, 30], GraphError, "requires|cap"),
    ("kautz", "m", [0, *NOT_INTEGERS, 40], GraphError, "requires|alphabet"),
    ("kautz", "n", [0, *NOT_INTEGERS, 30], GraphError, "requires|cap"),
    ("detect_family", "g", [UNLABELLED, DiGraph(1, [(0, 0)], ["x"])],
     UnsupportedFamilyError, "labels"),
    ("eulerian_circuit", "g", [ZERO_INDEGREE], GraphError, "balanced"),
    ("format_edge_list", "g", [DiGraph(3, [(0, 1)]),
                               DiGraph(2, [(0, 1)], vertex_labels=["a b", "c"]),
                               DiGraph(2, [(0, 1)], edge_labels=[""]),
                               DiGraph(2, [(0, 1)], edge_labels=["x#"])],
     GraphError, "^vertex .* no edge|^label .* read back"),
    ("is_eulerian", "g", *ANY),
    ("is_strongly_connected", "g", *ANY),
    ("label_isomorphic", "a", [UNLABELLED], GraphError, "labels"),
    ("label_isomorphic", "b", [UNLABELLED], GraphError, "labels"),
    ("line_graph", "g", [EDGELESS], GraphError, "edgeless"),
    ("parse_edge_list", "text", ["", "a b c d", "# a comment\n"], GraphError, "line 1|empty"),
    ("to_dot", "g", *ANY),
    ("to_json_dict", "g", *ANY),
    # errors
    ("count_text", "n", *ANY),
    ("integers", "values", [["x", 1], [1.5, 1], [1], [1, 2, 3], 5, None], ValueError, "^values$"),
    ("integers", "text", *ANY),
    ("integers", "error", *ANY),
    ("integers", "count", *ANY),
    ("integer", "value", NOT_INTEGERS, ValueError, "^value$"),
    ("integer", "text", *ANY),
    ("integer", "error", *ANY),
    # line_bijection
    ("LineContext", "g", *ANY),
    ("LineContext.sigma", "a", _arrays(ARRAY), InvalidTreeArrayError, "array shape|entry"),
    ("LineContext.sigma", "order", ORDERS, ValueError, "^edge order"),
    ("LineContext.pi", "tree", _line_trees(TREE), InvalidTreeError, "tree shape|out-edge"),
    ("LineContext.pi", "order", ORDERS, ValueError, "^edge order"),
    ("LineContext.line_tree", "root", [*NOT_INTEGERS, -1, 4], InvalidTreeError,
     "tree shape|root"),
    ("LineContext.line_tree", "succ", _succs(TREE.root, SUCC), InvalidTreeError,
     r"tree shape|succ\[e\]"),
    ("LineContext.successors", "tree", _line_trees(TREE), InvalidTreeError, "tree shape|out-edge"),
    ("enumerate_tree_arrays", "g", [ZERO_INDEGREE], InvalidTreeArrayError, "indegree"),
    ("shuffled_order", "g", *ANY),
    ("shuffled_order", "seed", *ANY),
    ("tree_array_count", "g", [ZERO_INDEGREE], InvalidTreeArrayError, "indegree"),
    ("validate_tree_array", "g", *ANY),
    ("validate_tree_array", "a", _arrays(ARRAY), InvalidTreeArrayError, "array shape|entry"),
    # verify
    ("run", "numbers", [[99], ["x"], [1.0], [0], [1, 10]], ValueError, "criterion numbers"),
]

# Other valid arguments under which a member's rows are checked again: the
# evaluated identity enumerates nothing, yet refuses a bad bound as
# expansion does.
ALSO_UNDER = {"verify_identity": [dict(method="evaluate")]}

# Values of the right kind that look large but are accepted, and answer at
# once: (member, argument, value, method called on the result, its result).
AT_ONCE = [
    # modulus 1 adds nothing to the order, so the cap lets it through
    ("GroupFormula", "summands", ((1, 10 ** 6),), "normalize", AbelianGroup(())),
    ("GroupFormula", "summands", ((1, 10 ** 6), (2, 3)), "normalize", AbelianGroup((2, 2, 2))),
]

# Members with no argument that the contract covers, and why.
NO_ARGUMENT_ROWS = {
    **dict.fromkeys(["GraphError", "UnsupportedFamilyError", "InvalidTreeArrayError",
                     "InvalidTreeError", "InvalidSequenceError", "EnumerationBound",
                     "SystemExit2"], "an exception type"),
    **dict.fromkeys(["Poly", "Succ", "ArrayEntry"], "a type alias"),
    **dict.fromkeys(["IdentityReport", "KnuthReport", "DivisibilityReport", "SmithResult",
                     "CriterionResult"], "a result record the library fills in"),
    "SpanningTree": "a record; validate_tree and LineContext.pi, .line_tree and .successors "
                    "check it",
    "TreeArray": "a record; validate_tree_array and LineContext.sigma check it",
    "HamPath": "a record; path_to_seq checks it",
    "main": "the CLI reports bad input by exit code, which test_cli checks",
    **dict.fromkeys(["identity_corpus", "build_parser", "criterion_1_identity",
                     "criterion_2_knuth", "criterion_3_bijection", "criterion_4_codec",
                     "criterion_5_groups", "criterion_6_orders", "criterion_7_divisibility",
                     "criterion_8_homomorphism", "criterion_9_class_cycles"],
                    "takes no argument"),
}


@cache
def _members() -> dict:
    """Every public callable, and the public methods of METHODS, by name."""
    found = {}
    for name, module in public_members().items():
        obj = getattr(import_module(f"linetrees.{module}"), name)
        if callable(obj):
            found[name] = obj
    found.update({f"{cls.__name__}.{m}": getattr(cls, m)
                  for cls, names in METHODS.items() for m in names})
    return found


def _call(member: str, **changed):
    if "." in member:
        owner, method = member.split(".")
        target = getattr({"LineContext": LineContext(G), "DiGraph": G}[owner], method)
    else:
        target = _members()[member]
    result = target(**{**VALID[member], **changed})
    return list(result) if inspect.isgenerator(result) else result


def _parameters(obj) -> list[str] | None:
    try:
        return [p for p in inspect.signature(obj).parameters if p != "self"]
    except (TypeError, ValueError):     # no signature: an exception type or an alias
        return None


def coverage_gaps(rows=ROWS, reasons=NO_ARGUMENT_ROWS) -> list[str]:
    """What the table misses or names wrongly: empty when every parameter
    of every public callable has exactly one row, or its member a reason."""
    members = _members()
    keys = [(row[0], row[1]) for row in rows]
    gaps = [f"two rows for {m}({a})" for m, a in set(keys) if keys.count((m, a)) > 1]
    for name, obj in members.items():
        params = _parameters(obj)
        rowed = [a for m, a in keys if m == name]
        if name in reasons:
            gaps += [f"{name} has a reason and rows"] if rowed else []
        elif not params:
            gaps.append(f"{name} has no row and no reason")
        else:
            gaps += [f"{name}({p}) has no row" for p in params if p not in rowed]
            gaps += [f"{name}({a}) is not a parameter" for a in rowed if a not in params]
    gaps += [f"{name} is not a public callable" for name in {*reasons, *(m for m, _ in keys)}
             if name not in members]
    return gaps


def test_every_public_argument_has_a_row():
    assert coverage_gaps() == []


def test_deleting_any_row_or_reason_leaves_a_gap():
    for i in range(len(ROWS)):
        assert coverage_gaps(ROWS[:i] + ROWS[i + 1:]) != [], ROWS[i][:2]
    for name in NO_ARGUMENT_ROWS:
        reasons = {k: v for k, v in NO_ARGUMENT_ROWS.items() if k != name}
        assert coverage_gaps(reasons=reasons) != [], name


@pytest.mark.parametrize("member", sorted(VALID))
def test_valid_arguments_are_accepted(member, capsys):
    for under in [{}, *ALSO_UNDER.get(member, ())]:
        _call(member, **under)


CASES = [pytest.param(member, argument, bad, error, pattern, under,
                      id="-".join([member, argument, str(i),
                                   *(f"{k}={v}" for k, v in under.items())]))
         for member, argument, values, error, pattern in ROWS
         for under in [{}, *ALSO_UNDER.get(member, ())] if argument not in under
         for i, bad in enumerate(values)]


@pytest.mark.parametrize("member, argument, bad, error, pattern, under", CASES)
def test_a_bad_value_raises_the_typed_error_naming_the_argument(member, argument, bad,
                                                                error, pattern, under):
    with pytest.raises(error) as info:
        _call(member, **{**under, argument: bad})
    assert re.search(pattern, str(info.value)), str(info.value)


@pytest.mark.parametrize("member, argument, value, method, result", AT_ONCE)
def test_a_large_accepted_value_answers_at_once(member, argument, value, method, result):
    # GroupFormula(((1, 10 ** 6),)).normalize() once built 10^6 list entries
    started = time.perf_counter()
    assert getattr(_call(member, **{argument: value}), method)() == result
    assert time.perf_counter() - started < 0.1


# the rows of integer arguments: those whose bad values include "x" and 1.5
INTEGER_ROWS = [row for row in ROWS if "x" in row[2] and 1.5 in row[2]]


@given(st.sampled_from(INTEGER_ROWS),
       st.floats(allow_nan=False).filter(lambda x: not x.is_integer()) | st.text())
def test_no_integer_argument_takes_a_fraction_or_a_string(row, bad):
    member, argument, _, error, pattern = row
    with pytest.raises(error) as info:
        _call(member, **{argument: bad})
    assert re.search(pattern, str(info.value)), str(info.value)
