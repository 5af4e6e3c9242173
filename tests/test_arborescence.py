import ast
import random
import sys
import time
from collections import Counter
from math import comb, factorial, isqrt, prod

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import linetrees.arborescence as arb
import linetrees.elimination as elimination
from linetrees.arborescence import (DEFAULT_BOUND, SpanningTree, _candidate_count,
                                    _frontier_counts, _poly_mul, _tree_roots, _unpack,
                                    bareiss_determinant, count_trees, determinant,
                                    enumerate_trees, kappa_edge, kappa_vertex, knuth_check,
                                    out_laplacian, rhs_product, rooted_tree_counts,
                                    validate_tree, verify_identity)
from linetrees.crit_group import tree_count_db
from linetrees.digraph import DiGraph, debruijn, kautz, line_graph
from linetrees.elimination import DENSE_HANDOFF, _minor_in_place, _parity
from linetrees.errors import (MAX_ORDER_DIGITS, EnumerationBound, GraphError, InvalidTreeError,
                              count_text)
from oracles import (count_trees_rooted, dense, dense_laplacian, dense_minor, small_point_identity,
                     sparse)
from test_public_surface import PACKAGE

TWO_CYCLE = DiGraph(2, [(0, 1), (1, 0)])
SELF_LOOP = DiGraph(1, [(0, 0)])
# a prime in the evaluate method's range [2^30, 2^31): the tests that take
# residues mod P check the arithmetic, and verify_identity's own draw of p
# is checked where its witness is
P = 2 ** 31 - 1


@st.composite
def digraphs_with_indeg(draw, max_n=4, max_m=7):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(n, max_m))
    targets = list(range(n)) + [draw(st.integers(0, n - 1)) for _ in range(m - n)]
    edges = [(draw(st.integers(0, n - 1)), t) for t in targets]
    return DiGraph(n, edges)


def test_enumerate_two_cycle():
    trees = enumerate_trees(TWO_CYCLE)
    assert trees == [SpanningTree(0, (None, 1)), SpanningTree(1, (0, None))]


def test_enumerate_self_loop():
    assert enumerate_trees(SELF_LOOP) == [SpanningTree(0, (None,))]


def test_enumerate_db21():
    trees = enumerate_trees(debruijn(2, 1))
    assert len(trees) == 2  # kappa = m^(m-1)


def test_enumerate_respects_bound():
    with pytest.raises(EnumerationBound):
        enumerate_trees(debruijn(2, 2), bound=3)


@pytest.mark.parametrize("root,message", [(1.5, "must be an integer"), ("1", "must be an integer"),
                                          (-1, "out of range"), (4, "out of range"),
                                          (9, "out of range")])
def test_enumerate_refuses_a_root_that_is_not_a_vertex(root, message):
    with pytest.raises(GraphError, match=f"^root {message}$"):
        enumerate_trees(debruijn(2, 2), root)


def test_enumerate_one_root_takes_it_through_index():
    g = debruijn(2, 2)
    by_root = enumerate_trees(g)
    for r in range(g.n):
        assert enumerate_trees(g, r) == [t for t in by_root if t.root == r]
    assert enumerate_trees(g, True) == enumerate_trees(g, 1)    # as index(True) == 1
    assert all(type(t.root) is int for t in enumerate_trees(g, True))


def test_search_deeper_than_the_recursion_limit():
    # the search keeps one stack level per vertex, not one Python frame, so
    # a cycle longer than the recursion limit is searched in full
    n = 1500
    assert n > sys.getrecursionlimit()
    g = DiGraph(n, [(v, (v + 1) % n) for v in range(n)])  # edge v runs v -> v + 1
    assert enumerate_trees(g) == [SpanningTree(r, tuple(None if v == r else v for v in range(n)))
                                  for r in range(n)]
    # the tree rooted at r reaches every vertex but r + 1
    assert kappa_vertex(g) == {tuple(v for v in range(n) if v != (r + 1) % n): 1
                               for r in range(n)}


@st.composite
def multigraphs(draw, max_n=5, max_m=8):
    # any edges at all: self-loops, parallel edges, sources and sinks
    n = draw(st.integers(1, max_n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=max_m))
    return DiGraph(n, edges)


@given(multigraphs(), st.data())
def test_candidate_count_matches_double_loop(g, data):
    root = data.draw(st.one_of(st.none(), st.integers(0, g.n - 1)))
    roots = range(g.n) if root is None else [root]
    expected = 0
    for r in roots:
        count = 1
        for v in range(g.n):
            if v != r:
                count *= g.outdeg[v]
        expected += count
    assert _candidate_count(g.outdeg, roots) == expected
    if expected:
        with pytest.raises(EnumerationBound,
                           match=f"^{expected} candidate assignments exceed bound {expected - 1}$"):
            enumerate_trees(g, root, bound=expected - 1)
        enumerate_trees(g, root, bound=expected)


def test_bound_message_past_the_digit_cap():
    # 9100 vertices with three out-edges each: about 10^4345 candidates, past
    # the digits str() will print, so the message gives the logarithm
    rng = random.Random(0)
    n = 9100
    g = DiGraph(n, [(v, rng.randrange(n)) for v in range(n) for _ in range(3)])
    with pytest.raises(EnumerationBound) as info:
        enumerate_trees(g, bound=10)
    assert str(info.value) == "about 10^4345.3 candidate assignments exceed bound 10"
    assert count_text(10 ** MAX_ORDER_DIGITS - 1) == "9" * MAX_ORDER_DIGITS
    assert count_text(10 ** MAX_ORDER_DIGITS) == f"about 10^{MAX_ORDER_DIGITS}.0"


def test_validate_tree_rejects_cycles():
    g = DiGraph(3, [(0, 1), (1, 0), (2, 0)])
    with pytest.raises(InvalidTreeError):
        validate_tree(g, SpanningTree(2, (0, 1, None)))  # 0 and 1 chase each other
    with pytest.raises(InvalidTreeError):
        validate_tree(g, SpanningTree(0, (1, None, None)))  # vertex 2 missing an edge
    with pytest.raises(InvalidTreeError, match="vertex 1 needs exactly one out-edge"):
        validate_tree(TWO_CYCLE, SpanningTree(0, (None, "x")))  # not an edge id


def _reference_validate_tree(g, t):
    # The per-vertex chain walk validate_tree replaced: O(n * depth), kept
    # as the oracle for the memoised walk's verdicts and messages.
    if len(t.out_edge) != g.n or not (0 <= t.root < g.n):
        raise InvalidTreeError("tree shape does not match the graph")
    if t.out_edge[t.root] is not None:
        raise InvalidTreeError("root must not have an out-edge")
    for v, e in enumerate(t.out_edge):
        if v == t.root:
            continue
        if e is None or not (0 <= e < g.m) or g.edges[e][0] != v:
            raise InvalidTreeError(f"vertex {v} needs exactly one out-edge with source {v}")
    for v in range(g.n):
        seen = set()
        w = v
        while w != t.root:
            if w in seen:
                raise InvalidTreeError(f"cycle through vertex {w}")
            seen.add(w)
            w = g.edges[t.out_edge[w]][1]


def _verdict(validator, g, t):
    try:
        validator(g, t)
    except InvalidTreeError as exc:
        return str(exc)
    return None


@st.composite
def out_edge_assignments(draw):
    """A graph and an out-edge per vertex: mostly out-edges of that vertex
    (trees and cycles), sometimes arbitrary values and roots (bad shapes)."""
    g = draw(digraphs_with_indeg(max_n=7, max_m=12))
    noisy = draw(st.booleans())
    root = draw(st.integers(-1, g.n) if noisy else st.integers(0, g.n - 1))
    out = []
    for v in range(g.n):
        out_edges = [e for e, (s, _) in enumerate(g.edges) if s == v]
        options = st.sampled_from(out_edges) if out_edges else st.none()
        if v == root and not noisy:
            options = st.none()
        elif noisy:
            options = st.one_of(options, st.none(), st.integers(-1, g.m))
        out.append(draw(options))
    return g, SpanningTree(root, tuple(out))


@given(out_edge_assignments())
def test_validate_tree_matches_reference_walk(case):
    g, t = case
    assert _verdict(validate_tree, g, t) == _verdict(_reference_validate_tree, g, t)


def test_validate_tree_reports_first_cycle_like_reference():
    # 0 -> 1 -> 2 -> 1 and 3 -> 4 -> 3, root 5: the first failing start is
    # 0 and its first repeated vertex is 1
    g = DiGraph(6, [(0, 1), (1, 2), (2, 1), (3, 4), (4, 3), (5, 0)])
    t = SpanningTree(5, (0, 1, 2, 3, 4, None))
    assert _verdict(validate_tree, g, t) == "cycle through vertex 1"
    assert _verdict(_reference_validate_tree, g, t) == "cycle through vertex 1"


def test_validate_tree_linear_on_long_path():
    # a path-shaped tree is the deepest one; the reference walk would take
    # about n^2 / 2 steps here
    n = 2 ** 17
    g = DiGraph(n, [(v, v + 1) for v in range(n - 1)])
    tree = SpanningTree(n - 1, tuple(range(n - 1)) + (None,))
    start = time.perf_counter()
    validate_tree(g, tree)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("g", [TWO_CYCLE, SELF_LOOP, debruijn(2, 2), kautz(2, 2),
                               DiGraph(3, [(0, 1), (0, 1), (1, 2), (2, 0), (2, 2), (1, 0)]),
                               line_graph(debruijn(2, 1))],
                         ids=["two-cycle", "self-loop", "debruijn-2-2", "kautz-2-2",
                              "multigraph", "line-debruijn-2-1"])
def test_tree_heads_gives_each_tree_edge_head_and_the_indegrees(g):
    # the successor list and indegrees that validate_tree and LineContext.pi
    # share, on every spanning tree, against the edges read one by one
    source, head = [s for s, _ in g.edges], [h for _, h in g.edges]
    trees = list(enumerate_trees(g))
    assert trees
    for t in trees:
        succ, indeg = arb._tree_heads(t, g.n, source, head)
        assert succ == [None if e is None else g.edges[e][1] for e in t.out_edge]
        assert indeg == [succ.count(v) for v in range(g.n)]


def test_count_rooted_kautz21():
    g = kautz(2, 1)
    assert rooted_tree_counts(g) == [count_trees_rooted(g, r) for r in range(3)] == [3, 3, 3]
    assert count_trees(g) == 9  # (m+1)^m


def test_count_rooted_self_loop():
    assert rooted_tree_counts(SELF_LOOP) == [count_trees_rooted(SELF_LOOP, 0)] == [1]  # empty


def test_count_db22_by_roots():
    g = debruijn(2, 2)
    assert sum(rooted_tree_counts(g)) == 8  # m^(m^n - 1)


def test_count_zero_when_unreachable():
    g = DiGraph(3, [(0, 1), (1, 0), (0, 2)])  # nothing leaves vertex 2
    assert rooted_tree_counts(g) == [0, 0, 1]


@given(digraphs_with_indeg())
def test_determinant_matches_enumeration(g):
    trees = enumerate_trees(g, bound=10 ** 6)
    for t in trees:
        validate_tree(g, t)
    assert len(set(trees)) == len(trees)
    by_root = Counter(t.root for t in trees)
    expected = [by_root.get(r, 0) for r in range(g.n)]
    assert rooted_tree_counts(g) == [count_trees_rooted(g, r) for r in range(g.n)] == expected


@given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
                min_size=4, max_size=4))
def test_bareiss_against_sympy(rows):
    assert bareiss_determinant(rows) == sympy.Matrix(rows).det()


@st.composite
def square_matrices(draw, max_k=DENSE_HANDOFF + 4):
    """Square integer matrices past the handoff size, mostly zeros, with
    negative entries and now and then a zero row or column or a repeated row."""
    k = draw(st.integers(DENSE_HANDOFF + 1, max_k) | st.integers(0, max_k))
    entry = st.integers(-9, 9) | st.just(0)
    rows = [[draw(entry) for _ in range(k)] for _ in range(k)]
    if k:
        kind = draw(st.sampled_from(["none", "zero row", "zero column", "repeated row"]))
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        if kind == "zero row":
            rows[i] = [0] * k
        elif kind == "zero column":
            for row in rows:
                row[j] = 0
        elif kind == "repeated row":
            rows[i] = [3 * x for x in rows[j]]
    return rows


@given(square_matrices())
def test_sparse_determinant_against_bareiss_and_sympy(rows):
    assert determinant(sparse(rows)) == bareiss_determinant(rows) == sympy.Matrix(rows).det()


def _times_7_times_11():
    """A 12 x 12 matrix L diag(7, 11, 1, ..., 1) U, L and U unit triangular:
    its determinant 77 is 0 mod 7 and 11 but not over the integers."""
    rng = random.Random(4)
    k = 12
    lower = [[rng.randint(-3, 3) if j < i else int(i == j) for j in range(k)] for i in range(k)]
    upper = [[rng.randint(-3, 3) if j > i else int(i == j) * (7 if i == 0 else 11 if i == 1 else 1)
              for j in range(k)] for i in range(k)]
    return [[sum(lower[i][t] * upper[t][j] for t in range(k)) for j in range(k)]
            for i in range(k)]


@given(square_matrices(), st.sampled_from([2, 3, 7, 11, P]))
@example(_times_7_times_11(), 7)
@example(_times_7_times_11(), 11)
@example(_times_7_times_11(), P)
def test_determinant_mod_against_the_integer_body_and_sympy(rows, p):
    # on both sides of DENSE_HANDOFF, singular or not mod p, the rows unchanged
    given_rows = sparse(rows)
    det = elimination._determinant_mod(given_rows, p)
    assert given_rows == sparse(rows)
    assert det == elimination._determinant(sparse(rows)) % p == sympy.Matrix(rows).det() % p


def test_is_prime_against_trial_division():
    # the strong pseudoprimes to base 2 (2047), to 2 and 3 (1373653) and to
    # 2, 3 and 5 (25326001), to 2, 3, 5 and 7 (3215031751), and the
    # Carmichael numbers 561 and 41041, which fool a Fermat test
    def trial(n):
        return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))

    rng = random.Random(0)
    liars = [2047, 1373653, 25326001, 3215031751, 561, 41041]
    cases = [*range(3000), *liars, 2 ** 31 - 1,
             *(rng.randrange(2 ** 30, 2 ** 31) for _ in range(200))]
    assert [n for n in cases if elimination._is_prime(n)] == [n for n in cases if trial(n)]
    assert not any(map(elimination._is_prime, liars)) and elimination._is_prime(2 ** 31 - 1)


def test_sparse_determinant_column_names_and_shape():
    # the columns are the keys in increasing order, whatever their names
    assert determinant([{5: 2, 9: 1}, {5: 1, 9: 3}]) == 5
    assert determinant([{9: 2, 5: 1}, {9: 1, 5: 3}]) == -5
    assert determinant([{0: 1}, {0: 2}]) == 0          # a zero column
    assert determinant([]) == 1
    with pytest.raises(ValueError):
        determinant([{0: 1, 1: 1, 2: 1}, {0: 1}])
    with pytest.raises(ValueError, match="sort"):
        determinant([{"a": 1, 0: 1}, {"b": 1, 0: 2}])
    assert [_parity(p) for p in ([], [0, 1, 2], [1, 0, 2], [1, 2, 0], [3, 2, 1, 0])] == \
        [1, 1, -1, 1, 1]


@pytest.mark.parametrize("det,rows", [
    # Bareiss' floor division once gave 3 for this 3.5, and 12 float rows
    # a raw TypeError from gcd; a list row once raised AttributeError
    (determinant, [{0: 1.5, 1: 1}, {0: 1, 1: 3}]),
    (determinant, [{i: 1.0, (i + 1) % 12: 0.5} for i in range(12)]),
    (determinant, [[1]]), (determinant, [{0: "1"}]), (determinant, [{0: None}]),
    (determinant, [{0: 1}, 5]), (determinant, 5),
    (bareiss_determinant, [[1.5]]), (bareiss_determinant, [[2.0, 1], [1, 3]]),
    (bareiss_determinant, [{0: 1}]), (bareiss_determinant, [[1, 2]]),
    (bareiss_determinant, [[1], [2, 3]]), (bareiss_determinant, ["ab", "cd"]),
    (bareiss_determinant, 5)])
def test_determinants_refuse_entries_that_are_not_integers(det, rows):
    with pytest.raises(ValueError):
        det(rows)


def test_determinants_take_entries_through_index():
    assert determinant([{0: True, 1: 1}, {0: 1, 1: 3}]) == 2
    assert bareiss_determinant(((True, 1), (1, 3))) == 2
    assert bareiss_determinant([range(1, 3), [1, 3]]) == 1


def test_laplacian_rows_and_minor_match_the_dense_build():
    g = DiGraph(4, [(0, 1), (0, 1), (1, 1), (1, 2), (2, 0), (3, 3), (3, 0)])
    weights = [2, 3, 5, 7, 11, 13, 17]
    lap = out_laplacian(g, weights)
    assert dense(lap, 4) == dense_laplacian(g, weights)
    assert lap[3] == {3: 17, 0: -17}    # the loop at 3 cancels
    for r in range(4):
        rows = _minor_in_place(out_laplacian(g, weights), r)
        assert [[row.get(c, 0) for c in range(4) if c != r] for row in rows] == \
            dense_minor(dense_laplacian(g, weights), r)


def test_laplacian_keys_are_one_int_per_vertex():
    # the eliminations' dict lookups match a key by identity before value;
    # past 256 an edge list's equal ints are distinct objects
    g = DiGraph(300, [(v, (v + 1) % 300) for v in range(300)] * 2)
    first = {}
    assert all(first.setdefault(c, c) is c for row in out_laplacian(g) for c in row)


@st.composite
def weighted_multigraphs_past_handoff(draw):
    """Multigraphs with more vertices than DENSE_HANDOFF, so the sparse phase
    runs.  Every vertex v > 0 has an edge to a lower vertex, so trees
    toward 0 exist, unless one such edge is cut (a second sink); a few more
    edges add self-loops, parallel edges and cycles, and sources come up as
    they fall.  Weights are 1-9, with one of them set to 0 now and then."""
    n = draw(st.integers(DENSE_HANDOFF + 1, DENSE_HANDOFF + 4))
    vertex = st.integers(0, n - 1)
    edges = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    if draw(st.booleans()) and draw(st.booleans()):
        del edges[draw(st.integers(0, n - 2))]
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(edges), max_size=len(edges)))
    if draw(st.booleans()) and draw(st.booleans()):
        weights[draw(st.integers(0, len(edges) - 1))] = 0
    return DiGraph(n, edges), weights


@given(weighted_multigraphs_past_handoff())
def test_sparse_determinant_against_enumeration(case):
    g, weights = case
    by_root = [0] * g.n
    for t in enumerate_trees(g):
        by_root[t.root] += prod(weights[e] for e in t.out_edge if e is not None)
    assert [abs(determinant(_minor_in_place(out_laplacian(g, weights), r)))
            for r in range(g.n)] == by_root
    lap = out_laplacian(g, weights)
    # over all roots, det(L + 1 e_0^T), exactly and mod the prime the evaluate method might draw
    assert determinant(arb._plus_ones(out_laplacian(g, weights))) == sum(by_root)
    assert elimination._determinant_mod(arb._plus_ones(lap), P) == sum(by_root) % P


@st.composite
def weighted_multigraphs_deep_in_the_sparse_phase(draw):
    """20-40 vertices, so the sparse phase runs ten pivots or more before the
    handoff: each vertex v > 0 has an edge to a lower vertex, and n to 3n
    more edges add self-loops, parallel edges and cycles.  Weights 0-9 give
    rows with a common factor, pivots that do not divide their column, and
    fill-in that cancels to 0 and comes back."""
    n = draw(st.integers(20, 40))
    vertex = st.integers(0, n - 1)
    edges = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    edges += draw(st.lists(st.tuples(vertex, vertex), min_size=n, max_size=3 * n))
    edges += draw(st.lists(st.sampled_from(edges), max_size=n // 4))   # parallel edges
    weights = draw(st.lists(st.integers(0, 9), min_size=len(edges), max_size=len(edges)))
    return DiGraph(n, edges), weights, draw(vertex)


@settings(max_examples=40, deadline=None)
@given(weighted_multigraphs_deep_in_the_sparse_phase())
def test_sparse_determinant_against_bareiss_deep_in_the_sparse_phase(case):
    g, weights, r = case
    lap = dense_laplacian(g, weights)
    assert determinant(_minor_in_place(out_laplacian(g, weights), r)) == \
        bareiss_determinant(dense_minor(lap, r))
    for row in lap:
        row[0] += 1
    assert determinant(arb._plus_ones(out_laplacian(g, weights))) == bareiss_determinant(lap)


def _block_unit_matrix(units, content, lower_left, lower_right):
    """[[U, 0], [content * lower_left, content * lower_right]], U square."""
    return ([row + [0] * len(lower_right) for row in units]
            + [[content * x for x in left] + [content * x for x in right]
               for left, right in zip(lower_left, lower_right)])


def _shuffled(rows, rng):
    """rows with their rows and their columns in a random order, so the
    pivots sit off the diagonal and the sign is tested."""
    k = len(rows)
    order, cols = rng.sample(range(k), k), rng.sample(range(k), k)
    return [[rows[i][j] for j in cols] for i in order]


@st.composite
def unit_phase_matrices(draw):
    """Square matrices past DENSE_HANDOFF built for the unit phase:
    [[U, 0], [g C, g B]] with rows and columns shuffled.  U is unit lower
    triangular up to sign, so the first round has its +-1 units; the rows
    below have content g in {2, 3, 6}, so a later round takes +-g units
    from g B.  B is +-1 on a diagonal (the phase empties the matrix), unit
    lower triangular, or small random entries (the heap loop gets the
    rest); one column of g C is dense.  Now and then a row below has no B
    part, or a column is twice another one, so the units empty it: either
    way the determinant is 0."""
    a = draw(st.integers(3, 8))
    # at most 3a rows below, so the units of U can split a quarter of the
    # rows and the phase goes on to a second round
    b = draw(st.integers(max(2, DENSE_HANDOFF + 1 - a), min(14, 3 * a)))
    g = draw(st.sampled_from([2, 3, 6]))
    sign = st.sampled_from([1, -1])
    small = st.integers(-3, 3)
    units = [[draw(small) if j < i else draw(sign) if j == i else 0 for j in range(a)]
             for i in range(a)]
    left = [[draw(small) for _ in range(a)] for _ in range(b)]
    dense_col = draw(st.integers(0, a - 1))
    for row in left:
        row[dense_col] = row[dense_col] or draw(st.sampled_from([1, -1, 2]))
    kind = draw(st.sampled_from(["diagonal", "triangular", "random"]))
    if kind == "random":
        right = [[draw(st.integers(-4, 4)) for _ in range(b)] for _ in range(b)]
    else:
        right = [[draw(sign) if j == i else draw(small) if kind == "triangular" and j < i
                  else 0 for j in range(b)] for i in range(b)]
    rows = _block_unit_matrix(units, g, left, right)
    empty = draw(st.sampled_from(["none", "none", "row", "column"]))
    if empty == "row":
        rows[a + draw(st.integers(0, b - 1))][a:] = [0] * b
    elif empty == "column":
        i, j = draw(st.integers(0, a + b - 1)), draw(st.integers(0, a + b - 1))
        if i != j:
            for row in rows:
                row[j] = 2 * row[i]
    return _shuffled(rows, random.Random(draw(st.integers(0, 2 ** 32))))


@settings(deadline=None)
@given(unit_phase_matrices())
def test_determinant_through_the_unit_phase_against_bareiss_and_sympy(rows):
    assert determinant(sparse(rows)) == bareiss_determinant(rows) == sympy.Matrix(rows).det()


def test_unit_phase_empties_a_block_unit_matrix_or_leaves_the_heap_loop_a_block():
    # the shared phase on the two ends of the strategy above: with g B a
    # signed permutation it splits every row, the units then the +-g, and
    # with g B dense and free of +-g it hands every row of B on
    rng = random.Random(5)
    a, b, g = 6, 14, 3
    units = [[1 if i == j else 0 for j in range(a)] for i in range(a)]
    left = [[rng.randint(-3, 3) for _ in range(a)] for _ in range(b)]
    perm = rng.sample(range(b), b)
    signed = [[rng.choice([1, -1]) if j == perm[i] else 0 for j in range(b)] for i in range(b)]
    dense_right = [[rng.choice([2, 3, -2, 5]) for _ in range(b)] for _ in range(b)]
    for right, handed in [(signed, 0), (dense_right, b)]:
        rows = _shuffled(_block_unit_matrix(units, g, left, right), rng)
        reduced = sparse(rows)
        pivot_rows, _, pivots = elimination._unit_pivots(reduced, elimination._column_rows(reduced))
        assert sum(map(bool, reduced)) == handed and len(pivot_rows) == a + b - handed
        assert sorted(map(abs, pivots)) == [1] * a + [g] * (b - handed)
        assert determinant(sparse(rows)) == bareiss_determinant(rows) == \
            sympy.Matrix(rows).det()


def test_count_trees_determinant_and_sandpile_group_share_one_unit_phase():
    # the phase lives in elimination alone; the tree count and the checked
    # determinant reach it through the determinant's body, which runs the
    # phase again after each content step that turns up a unit, and the
    # Smith form's body runs it once.  The count of a balanced graph takes
    # its reduced Laplacian, n - 1 rows: on at most DENSE_HANDOFF rows it
    # goes to dense Bareiss whole, and a larger one hands it only the block
    # its loops leave (0 and 3 rows here)
    import linetrees.crit_group as crit_group
    assert not hasattr(crit_group, "_unit_pivots") and not hasattr(arb, "_unit_pivots")
    calls, dense_calls = [], []
    unit_pivots, bareiss = elimination._unit_pivots, elimination._bareiss

    def recording(rows, col_rows):
        calls.append(len(rows))
        return unit_pivots(rows, col_rows)

    def counting_bareiss(matrix):
        dense_calls.append(len(matrix))
        return bareiss(matrix)

    rows = [{i: 2, (i + 1) % 20: -1, (i * 7) % 20: 1} for i in range(20)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(elimination, "_unit_pivots", recording)
        patch.setattr(elimination, "_bareiss", counting_bareiss)
        assert count_trees(debruijn(2, 6)) == 2 ** 63
        assert determinant(rows) == sympy.Matrix(dense(rows, 20)).det()
        assert crit_group.sandpile_group(debruijn(2, 4), 3).order == 2 ** 11
        phases = [63, 20, 15]
        assert (list(dict.fromkeys(calls)), dense_calls) == (phases, [0, 3])
        assert count_trees(debruijn(2, 3)) == 2 ** 7
    assert (list(dict.fromkeys(calls)), dense_calls) == (phases, [0, 3, 7])


@st.composite
def balanced_multigraphs(draw):
    """Unions of seeded permutations of up to three disjoint parts, so
    indeg = outdeg: with loops (fixed points), parallel edges, isolated
    vertices (a part with no permutation), kappa = 0 (two parts) and n = 1."""
    rng = draw(st.randoms(use_true_random=False))
    sizes = draw(st.lists(st.integers(1, 14), min_size=1, max_size=3))
    n = sum(sizes)
    label = list(range(n))
    rng.shuffle(label)
    edges, start = [], 0
    for size in sizes:
        part = range(start, start + size)
        for _ in range(draw(st.integers(0, 3))):
            perm = list(part)
            rng.shuffle(perm)
            edges += [(label[v], label[w]) for v, w in zip(part, perm)]
        start += size
    rng.shuffle(edges)
    return DiGraph(n, edges)


@settings(deadline=None)
@given(balanced_multigraphs())
@example(DiGraph(1, []))
@example(DiGraph(1, [(0, 0), (0, 0)]))
@example(DiGraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)]))
def test_balanced_count_takes_one_reduced_laplacian(g):
    # the balanced route, n times det of L without row and column 0, against
    # the dense-column route that unbalanced graphs keep, det(L + 1 e_0^T)
    count = count_trees(g)
    assert count == arb._determinant(arb._plus_ones(out_laplacian(g)))
    assert rooted_tree_counts(g) == [count // g.n] * g.n
    if g.n <= 6:
        assert count == len(enumerate_trees(g))


def test_content_steps_empty_the_de_bruijn_minor():
    # the unit phase first stops on db(2,10)'s minor with 256 rows left, of
    # gcd 2 but with no +-2, all but one of content 4; dividing the contents
    # out turns up units, and each later run of the phase halves the rows
    # left until none is, so the heap is never built and Bareiss gets an
    # empty block
    blocks, heaps = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(elimination, "_bareiss",
                      lambda m, bareiss=elimination._bareiss: blocks.append(len(m)) or bareiss(m))
        patch.setattr(elimination, "heapify", heaps.append)
        assert determinant(_minor_in_place(out_laplacian(debruijn(2, 10)), 0)) == \
            tree_count_db(2, 10) // 2 ** 10
    assert (blocks, heaps) == ([0], [])


def test_only_elimination_touches_a_heap_or_a_column_index():
    # the determinant's and the Smith form's bodies live in one module: no
    # other imports heapq, or names the column index or the unit phase
    touching = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "module", None), getattr(node, "id", None),
                     getattr(node, "attr", None)}
            names.update(a.name for a in getattr(node, "names", ()))
            if {"heapq", "_column_rows", "_unit_pivots"} & names:
                touching.append(path.stem)
    assert set(touching) == {"elimination"}


def test_unit_phase_and_the_evaluated_tree_sum_of_a_weighted_cycle():
    # weights 1-9 on a 300-cycle leave a +1 in every row (column 0) but the
    # units in 72 columns: the phase splits 38 rows, the last of them column
    # 0's at a cost of ~600, and stops.  Unit weights put units in every
    # column, and it splits every row.  The trees rooted at r are the path
    # to r, so the evaluate method's two sides, here mod a prime, are both
    # the sum over r of the product of all weights but r's out-edge's
    n = 300
    cycle = DiGraph(n, [(v, (v + 1) % n) for v in range(n)])
    rng = random.Random(1)
    for weights, split in [([rng.randint(1, 9) for _ in range(n)], 38), ([1] * n, n)]:
        rows = arb._plus_ones(out_laplacian(cycle, weights))
        assert len(elimination._unit_pivots(rows, elimination._column_rows(rows))[2]) == split
    x = [rng.randrange(1, P) for _ in range(n)]
    tree_sum = sum(prod(x) // w for w in x) % P
    assert arb._sides_mod(cycle, line_graph(cycle), x, P) == (tree_sum, tree_sum)
    assert count_trees(cycle) == n


def test_multigraph_count_takes_the_heap_loop_and_hands_bareiss_a_small_block():
    # edge multiplicities 1-9 make a multigraph's Laplacian a weighted one
    # with few units: the unit phase leaves 226 sparse rows of the
    # 300-cycle's L + 1 e_0^T, which would cost dense Bareiss ~0.5 s, and
    # the heap loop takes them down to DENSE_HANDOFF rows
    n, rng = 300, random.Random(0)
    mult = [rng.randint(1, 9) for _ in range(n)]
    g = DiGraph(n, [(v, (v + 1) % n) for v in range(n) for _ in range(mult[v])])
    blocks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(elimination, "_bareiss",
                      lambda m, bareiss=elimination._bareiss: blocks.append(len(m)) or bareiss(m))
        assert count_trees(g) == sum(prod(mult) // w for w in mult)
    assert blocks == [DENSE_HANDOFF]


def three_out_eulerian(n, seed):
    """Three random permutations on n vertices: indegree = outdegree = 3."""
    rng = random.Random(seed)
    edges = []
    for _ in range(3):
        perm = list(range(n))
        rng.shuffle(perm)
        edges += [(v, perm[v]) for v in range(n)]
    return DiGraph(n, edges)


@pytest.mark.parametrize("n,seed", [(60, 1), (60, 2), (120, 3)])
def test_sparse_determinant_against_bareiss_on_three_out_graphs(n, seed):
    g = three_out_eulerian(n, seed)
    lap = dense_laplacian(g)
    for row in lap:
        row[0] += 1
    assert count_trees(g) == bareiss_determinant(lap) > 0
    assert abs(determinant(_minor_in_place(out_laplacian(g), 7))) == count_trees_rooted(g, 7)


def test_kappa_polys_two_cycle():
    assert kappa_edge(TWO_CYCLE) == {(0,): 1, (1,): 1}
    assert kappa_vertex(TWO_CYCLE) == {(0,): 1, (1,): 1}


def test_kappa_self_loop_is_constant_one():
    assert kappa_edge(SELF_LOOP) == {(): 1}
    assert kappa_vertex(SELF_LOOP) == {(): 1}


@given(digraphs_with_indeg())
def test_kappa_at_ones_is_tree_count(g):
    # at x = 1 a polynomial's value is the sum of its coefficients
    trees = enumerate_trees(g, bound=10 ** 6)
    assert sum(kappa_edge(g).values()) == len(trees)
    assert sum(kappa_vertex(g).values()) == len(trees)


@given(digraphs_with_indeg())
def test_kappa_monomial_degree(g):
    for mon in kappa_edge(g):
        assert len(mon) == g.n - 1


def _counted_monomials(g, variables):
    # the oracle: one sorted tuple per enumerated tree, counted in tree order
    poly = {}
    for t in enumerate_trees(g):
        mon = tuple(sorted(variables[e] for e in t.out_edge if e is not None))
        poly[mon] = poly.get(mon, 0) + 1
    return poly


@settings(max_examples=200)
@given(multigraphs())
def test_kappa_polys_match_counted_monomials(g):
    # equal item for item, in the same insertion order
    targets = [t for _, t in g.edges]
    assert list(kappa_edge(g).items()) == list(_counted_monomials(g, range(g.m)).items())
    assert list(kappa_vertex(g).items()) == list(_counted_monomials(g, targets).items())


@pytest.mark.parametrize("leaves", [1, 2, 4, 8])
@pytest.mark.parametrize("hub_first", [True, False])
def test_kappa_vertex_fields_hold_indegree_n_minus_1(leaves, hub_first):
    # An in-star whose hub has a loop, plus an edge from each leaf to the
    # next: the trees are rooted at the hub, and the one where every leaf
    # points at the hub gives it indegree n - 1 = leaves, a power of two
    # that overflows a key field of the merged pass one bit too narrow.
    n = leaves + 1
    hub = 0 if hub_first else leaves
    others = [v for v in range(n) if v != hub]
    edges = [(hub, hub), *((v, hub) for v in others), *zip(others, others[1:])]
    g = DiGraph(n, edges)
    poly = kappa_vertex(g)
    assert poly[(hub,) * leaves] == 1
    assert sum(poly.values()) == 2 ** (leaves - 1)
    targets = [t for _, t in g.edges]
    counted = list(_counted_monomials(g, targets).items())
    assert list(poly.items()) == counted
    assert list(_merged_poly(g).items()) == counted
    assert list(kappa_edge(g).items()) == list(_counted_monomials(g, range(g.m)).items())


def _merged_poly(g):
    # the merged pass alone, with kappa_vertex's packed weights and unpacking
    width = (g.n - 1).bit_length()
    return _unpack(_frontier_counts(g, [1 << (width * t) for _, t in g.edges]), width)


# graphs by their sink components (strong components with no edge out):
# one, all its vertices roots, fed by others or the whole graph; one
# vertex with no out-edge, the only root; two, so no tree at all.  With
# self-loops and parallel edges.
TERMINAL_CLASSES = [
    DiGraph(4, [(0, 1), (1, 0), (2, 3), (3, 2), (0, 2)]),
    DiGraph(4, [(0, 1), (1, 2), (2, 1), (3, 3), (3, 0), (3, 0)]),
    DiGraph(4, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (3, 0)]),
    DiGraph(3, [(0, 2), (1, 2), (1, 2), (2, 2)]),
    DiGraph(3, [(0, 2), (1, 0), (1, 1)]),
    DiGraph(3, [(0, 0), (1, 1), (2, 0), (2, 1)]),
    DiGraph(3, [(0, 1), (1, 0)]),
    DiGraph(2, []),
    SELF_LOOP,
]


@settings(max_examples=300)
@given(multigraphs(max_m=9), st.data())
def test_merged_pass_matches_counted_monomials(g, data):
    # the merged pass on any multigraph and on the line graph of a small
    # one, below the handoff too: equal item for item, in the same order
    if g.m and g.m <= 6 and data.draw(st.booleans()):
        g = line_graph(g)
    targets = [t for _, t in g.edges]
    assert list(_merged_poly(g).items()) == list(_counted_monomials(g, targets).items())
    assert _tree_roots(g) == [r for r in range(g.n) if count_trees_rooted(g, r)]


@pytest.mark.parametrize("g", TERMINAL_CLASSES)
def test_merged_pass_on_terminal_classes(g):
    targets = [t for _, t in g.edges]
    assert list(_merged_poly(g).items()) == list(_counted_monomials(g, targets).items())
    assert _tree_roots(g) == [r for r in range(g.n) if count_trees_rooted(g, r)]


def bouquet_line_graph(k):
    # L(one vertex with k loops) is the complete digraph with loops on k vertices
    return line_graph(DiGraph(1, [(0, 0)] * k))


@pytest.mark.parametrize("g,bound,path", [
    (bouquet_line_graph(8), 10 ** 8, "merged"),
    (bouquet_line_graph(5), DEFAULT_BOUND, "merged"),     # 5^5 > 16 C(8, 4) candidates
    (bouquet_line_graph(4), DEFAULT_BOUND, "search"),     # 4^4 <= 16 C(6, 3)
    (DiGraph(1500, [(v, (v + 1) % 1500) for v in range(1500)]), DEFAULT_BOUND, "search"),
    (TWO_CYCLE, DEFAULT_BOUND, "search"),
])
def test_kappa_vertex_takes_the_merged_pass_past_the_handoff(g, bound, path, monkeypatch):
    # each body is replaced by a stub that records its call and does nothing
    calls = []
    monkeypatch.setattr(arb, "_frontier_counts", lambda g, weights: calls.append("merged") or {})
    monkeypatch.setattr(arb, "_search_trees", lambda *args: calls.append("search"))
    assert arb.kappa_vertex(g, bound) == {}
    assert calls == [path]


def test_kappa_vertex_of_the_bouquet_line_graph_is_a_power_of_the_sum():
    # summed over roots, the trees of the complete digraph on k vertices
    # give (x_0 + ... + x_{k-1})^(k-1) (Cayley): each monomial's coefficient
    # is a multinomial coefficient; 8^7 trees, C(14, 7) monomials
    poly = kappa_vertex(bouquet_line_graph(8), bound=10 ** 8)
    assert len(poly) == comb(14, 7) and sum(poly.values()) == 8 ** 7
    for mon, count in poly.items():
        assert count == factorial(7) // prod(factorial(mon.count(x)) for x in set(mon))


def test_kappa_vertex_bound_is_checked_before_either_path(monkeypatch):
    # 8^8 candidates: refused with the search's message, before any work
    monkeypatch.setattr(arb, "_frontier_counts", None)
    monkeypatch.setattr(arb, "_search_trees", None)
    with pytest.raises(EnumerationBound,
                       match="^16777216 candidate assignments exceed bound 1000000$"):
        arb.kappa_vertex(bouquet_line_graph(8))


def test_rhs_product_trivial_cases():
    # both indegrees 1: the degree product is empty
    assert rhs_product(TWO_CYCLE) == kappa_edge(TWO_CYCLE)
    assert rhs_product(SELF_LOOP) == {(): 1}


def test_rhs_product_requires_positive_indegree():
    with pytest.raises(InvalidTreeError):
        rhs_product(DiGraph(2, [(0, 1)]))


def test_rhs_product_db21_total():
    poly = rhs_product(debruijn(2, 1))
    assert sum(poly.values()) == 8  # = kappa(DB_2(2))


def test_verify_identity_two_cycle():
    report = verify_identity(TWO_CYCLE)
    assert report.holds and report.lhs_terms == report.rhs_terms == 2


def test_verify_identity_db21():
    report = verify_identity(debruijn(2, 1))
    assert report.holds
    assert sum(kappa_vertex(line_graph(debruijn(2, 1))).values()) == 8


def test_verify_identity_kautz21():
    report = verify_identity(kautz(2, 1))
    assert report.holds
    assert sum(rhs_product(kautz(2, 1)).values()) == 72


@pytest.mark.parametrize("method", ["expand", "evaluate", "x"])
def test_verify_identity_checks_the_indegrees_then_the_bound_before_any_work(method,
                                                                           monkeypatch):
    # the evaluate path once took any bound, as it never reads its value
    with pytest.raises(InvalidTreeError, match="every indegree to be positive"):
        verify_identity(DiGraph(2, [(0, 1), (1, 1)]), method, bound="x")
    monkeypatch.setattr(arb, "line_graph", lambda g: pytest.fail("line graph built"))
    with pytest.raises(ValueError, match="^bound must be an integer$"):
        verify_identity(TWO_CYCLE, method, bound="x")


def test_verify_identity_reports_witness(monkeypatch):
    # the identity itself always holds, so skew one side to see the witness
    import linetrees.arborescence as arb
    real = arb.rhs_product

    def skewed(g, bound=arb.DEFAULT_BOUND):
        poly = real(g, bound=bound)
        mon = next(iter(poly))
        poly[mon] += 1
        return poly

    monkeypatch.setattr(arb, "rhs_product", skewed)
    report = arb.verify_identity(TWO_CYCLE)
    assert not report.holds
    assert report.witness is not None and report.witness["lhs"] != report.witness["rhs"]


@given(digraphs_with_indeg())
def test_verify_identity_random_graphs(g):
    assert verify_identity(g, bound=10 ** 7).holds


@given(digraphs_with_indeg())
def test_evaluate_method_agrees(g):
    assert verify_identity(g, method="evaluate", seed=11).holds


@pytest.mark.parametrize("g", [debruijn(2, 6), debruijn(3, 3), kautz(3, 3)],
                         ids=["db(2,6)", "db(3,3)", "kautz(3,3)"])
def test_evaluate_on_unit_poor_line_graphs_past_the_expansion_bound(g):
    # the weighted line graphs fill in as they are eliminated, far past the
    # sizes square_matrices draws: at weights 1..9 both sides mod a prime
    # are the integer body's determinants mod it, and these agree over Z
    lg, rng = line_graph(g), random.Random(5)
    x = [rng.randint(1, 9) for _ in range(g.m)]
    lhs = elimination._determinant(arb._plus_ones(out_laplacian(lg, [x[f] for _, f in lg.edges])))
    rhs = elimination._determinant(arb._plus_ones(out_laplacian(g, x))) * prod(
        sum(x[e] for e in g._out[v]) ** (g.indeg[v] - 1) for v in range(g.n))
    assert lhs == rhs and arb._sides_mod(g, lg, x, P) == (lhs % P, rhs % P)
    assert verify_identity(g, method="evaluate", seed=5).holds


def _nine_roots(x):
    """(x_0 - 1)(x_0 - 2)...(x_0 - 9): 0 wherever x_0 is in 1..9."""
    return prod(x[0] - c for c in range(1, 10))


def test_evaluate_catches_a_wrong_side_that_weights_1_to_9_miss(monkeypatch):
    # the left side plus a polynomial that vanishes on {1..9}^m: weights
    # drawn from 1..9 over the integers miss it at every seed, and weights
    # drawn mod a prime catch it at every one, with a witness that names
    # the prime and gives both sides' residues
    g = debruijn(2, 3)
    sides = arb._sides_mod

    def wrong(graph, lg, x, p):
        lhs, rhs = sides(graph, lg, x, p)
        return (lhs + _nine_roots(x)) % p, rhs

    monkeypatch.setattr(arb, "_sides_mod", wrong)
    for seed in range(20):
        assert small_point_identity(g, seed) and small_point_identity(g, seed, _nine_roots)
        report = verify_identity(g, method="evaluate", seed=seed)
        assert not report.holds
        point, p = report.witness["point"], report.witness["prime"]
        assert 2 ** 30 <= p < 2 ** 31 and elimination._is_prime(p) and len(point) == g.m
        assert all(0 <= x < p for x in point)
        lhs, rhs = report.witness["lhs"], report.witness["rhs"]
        assert (lhs, rhs) == wrong(g, line_graph(g), point, p) and lhs != rhs


def test_tree_sum_determinant_matches_enumeration():
    g = kautz(2, 1)
    weights = [2, 3, 5, 7, 11, 13]
    expected = 0
    for t in enumerate_trees(g):
        prod = 1
        for e in t.out_edge:
            if e is not None:
                prod *= weights[e]
        expected += prod
    assert determinant(arb._plus_ones(out_laplacian(g, weights))) == expected


@st.composite
def weighted_multigraphs(draw, max_n=5, max_m=9):
    """Any multigraph: self-loops, sources, sinks, several components."""
    n = draw(st.integers(1, max_n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=max_m))
    weights = draw(st.lists(st.integers(0, 9), min_size=len(edges), max_size=len(edges)))
    return DiGraph(n, edges), weights


@given(weighted_multigraphs())
def test_tree_sum_is_the_sum_of_rooted_minors(case):
    # one determinant of L + 1 e_0^T against the n dense per-root
    # determinants, exactly and mod a prime
    g, weights = case
    by_roots = sum(count_trees_rooted(g, r, weights) for r in range(g.n))
    assert elimination._determinant(arb._plus_ones(out_laplacian(g, weights))) == by_roots
    assert elimination._determinant_mod(arb._plus_ones(out_laplacian(g, weights)), P) == \
        by_roots % P
    assert count_trees(g) == len(enumerate_trees(g)) == sum(
        count_trees_rooted(g, r) for r in range(g.n)) == sum(rooted_tree_counts(g))


@pytest.mark.parametrize("weights", [[1], [1] * 9, [1.0] * 8, [1] * 7 + [0.5], ["1"] * 8,
                                     [0.5] * 8, 8])
def test_out_laplacian_refuses_weights_that_are_not_one_integer_per_edge(weights):
    # 1 weight for 8 edges once raised IndexError, and float weights gave a
    # float tree sum
    with pytest.raises(ValueError, match="8 integers"):
        out_laplacian(debruijn(2, 2), weights)


@st.composite
def balanced_multigraphs(draw):
    """Unions of 1-3 random permutations of 1-7 vertices, self-loops
    allowed, and now and then two of them side by side, so disconnected."""
    edges, n = [], 0
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(1, 7))
        for p in draw(st.lists(st.permutations(range(k)), min_size=1, max_size=3)):
            edges += [(n + v, n + t) for v, t in enumerate(p)]
        n += k
    return DiGraph(n, edges)


@given(balanced_multigraphs())
def test_rooted_tree_counts_of_a_balanced_graph_take_one_minor(g):
    # indeg = outdeg, so every cofactor of L is equal; a disconnected union
    # has no tree at all
    calls = []
    body = arb._determinant

    def counting_determinant(rows):
        calls.append(len(rows))
        return body(rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arb, "_determinant", counting_determinant)
        counts = rooted_tree_counts(g)
    assert counts == [count_trees_rooted(g, r) for r in range(g.n)]
    assert calls == [g.n - 1]


@pytest.mark.parametrize("g,line_count,base,prod", [
    (TWO_CYCLE, 2, 2, 1),
    (debruijn(2, 1), 8, 2, 4),
    (kautz(2, 1), 72, 9, 8),
])
def test_knuth_examples(g, line_count, base, prod):
    report = knuth_check(g)
    assert report.holds
    assert (report.kappa_line, report.kappa_base, report.degree_product) == \
        (line_count, base, prod)


def test_poly_mul():
    p = {(0,): 1, (1,): 1}  # x_0 + x_1
    sq = _poly_mul(p, p)
    assert sq == {(0, 0): 1, (0, 1): 2, (1, 1): 1}
    assert sum(_poly_mul(sq, p).values()) == 8
