import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import linetrees
from linetrees.arborescence import SpanningTree, enumerate_trees, validate_tree
from linetrees.digraph import DiGraph, debruijn, kautz, line_graph
from linetrees.errors import EnumerationBound, InvalidTreeArrayError, InvalidTreeError
from linetrees.line_bijection import (LineContext, OMEGA, TreeArray, _check_term_counts, _pi,
                                      _sigma, array_tree, enumerate_tree_arrays, shuffled_order,
                                      tree_array_count, validate_tree_array)
from oracles import heap_pi, heap_sigma

TWO_CYCLE = DiGraph(2, [(0, 1), (1, 0)])
SELF_LOOP = DiGraph(1, [(0, 0)])


@st.composite
def digraphs_positive_indeg(draw, max_n=3, max_m=6):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(n, max_m))
    targets = list(range(n)) + [draw(st.integers(0, n - 1)) for _ in range(m - n)]
    edges = [(draw(st.integers(0, n - 1)), t) for t in targets]
    g = DiGraph(n, edges)
    return g


def test_tree_array_count_examples():
    assert tree_array_count(TWO_CYCLE) == 2
    assert tree_array_count(debruijn(2, 1)) == 8   # kappa * prod outdeg^(indeg-1)
    assert tree_array_count(kautz(2, 1)) == 72
    # vertex 0 has indegree 0: no tree arrays, and the count says so
    source = DiGraph(2, [(0, 1), (0, 1), (1, 1)])
    with pytest.raises(InvalidTreeArrayError, match="every indegree to be positive"):
        tree_array_count(source)
    with pytest.raises(InvalidTreeArrayError, match="every indegree to be positive"):
        next(enumerate_tree_arrays(source))


def test_enumerate_tree_arrays_counts():
    assert len(list(enumerate_tree_arrays(TWO_CYCLE))) == 2
    assert len(list(enumerate_tree_arrays(debruijn(2, 1)))) == 8
    assert len(list(enumerate_tree_arrays(kautz(2, 1)))) == 72


def test_array_bound_message_past_the_digit_cap():
    # one vertex with 1700 loops has 1700^1699 tree arrays, about 10^5488:
    # too many digits for str(), so the message gives the logarithm
    with pytest.raises(EnumerationBound,
                       match=r"^about 10\^5488\.5 tree arrays exceed bound 10$"):
        next(enumerate_tree_arrays(DiGraph(1, [(0, 0)] * 1700), bound=10))


def test_sigma_two_cycle_hand_trace():
    a = TreeArray(0, ((OMEGA,), (1,)))
    t = LineContext(TWO_CYCLE).sigma(a)
    # edge 0 starts outside the lists, pops edge 1 from vertex 1's list,
    # then edge 1 pops OMEGA: tree {(e0,e1)} rooted at e1
    assert t.root == 1
    assert t.out_edge[0] is not None and t.out_edge[1] is None


def test_sigma_self_loop():
    t = LineContext(SELF_LOOP).sigma(TreeArray(0, ((OMEGA,),)))
    assert t == SpanningTree(0, (None,))


def test_pi_inverts_hand_trace():
    a = TreeArray(0, ((OMEGA,), (1,)))
    ctx = LineContext(TWO_CYCLE)
    assert ctx.pi(ctx.sigma(a)) == a


def test_db21_bijection_exhaustive():
    g = debruijn(2, 1)
    ctx = LineContext(g)
    arrays = list(enumerate_tree_arrays(g))
    images = {ctx.sigma(a) for a in arrays}
    assert len(images) == 8
    assert images == set(enumerate_trees(ctx.line))
    for a in arrays:
        assert ctx.pi(ctx.sigma(a)) == a


def test_sigma_term_counts_match():
    # the output tree's indegrees equal the list counts, per edge
    g = kautz(2, 1)
    ctx = LineContext(g)
    for a in enumerate_tree_arrays(g):
        t = ctx.sigma(a)
        indeg = [0] * g.m
        for e, j in enumerate(t.out_edge):
            if j is not None:
                indeg[ctx.line.target(j)] += 1
        for e in range(g.m):
            assert indeg[e] == sum(1 for x in a.lists[g.source(e)] if x == e)


@settings(max_examples=30)
@given(digraphs_positive_indeg(), st.integers(0, 3))
def test_roundtrip_random_graphs_and_orders(g, seed):
    if tree_array_count(g) > 400:
        return
    ctx = LineContext(g)
    order = None if seed == 0 else shuffled_order(g, seed)
    arrays = list(enumerate_tree_arrays(g))
    images = set()
    for a in arrays:
        t = ctx.sigma(a, order)
        images.add(t)
        assert ctx.pi(t, order) == a
    line_trees = set(enumerate_trees(ctx.line, bound=10 ** 7))
    assert images == line_trees
    for t in line_trees:
        assert ctx.sigma(ctx.pi(t, order), order) == t


@settings(max_examples=40)
@given(digraphs_positive_indeg(max_n=4, max_m=8), st.integers(0, 2 ** 16))
def test_scan_bodies_match_heap_oracle(g, seed):
    # the linear scans against the heap bodies, on every array and every
    # line tree, in index order (what order=None means) and 3 shuffled orders
    if tree_array_count(g) > 300:
        return
    ctx = LineContext(g)
    n, target = g.n, ctx.target
    arrays = list(enumerate_tree_arrays(g))
    line_trees = [(t.root, ctx.successors(t)) for t in enumerate_trees(ctx.line, bound=10 ** 7)]
    for order in [range(g.m)] + [shuffled_order(g, seed + i) for i in range(3)]:
        for a in arrays:
            assert _sigma(n, target, a, order) == heap_sigma(n, target, a, order)
        for root, succ in line_trees:
            assert _pi(n, target, root, succ, order) == heap_pi(n, target, root, succ, order)


def test_sigma_and_successors_build_no_line_graph(monkeypatch):
    import linetrees.line_bijection as lb

    def refuse(_):
        raise AssertionError("line graph built")

    monkeypatch.setattr(lb, "line_graph", refuse)
    g = kautz(2, 1)
    lg = line_graph(g)  # the oracle: this module's own reference, not patched
    ctx = LineContext(g)
    for a in enumerate_tree_arrays(g):
        t = ctx.sigma(a)
        succ = ctx.successors(t)
        assert succ == tuple(None if j is None else lg.edges[j][1] for j in t.out_edge)
        assert ctx.line_tree(t.root, succ) == t
        assert ctx.pi(t) == a
    # pi checks its input through the numbering too
    with pytest.raises(InvalidTreeError, match="cycle through vertex"):
        ctx.pi(_cycle_tree(ctx, lg))


def _cycle_tree(ctx, lg):
    # a valid line tree with one vertex's edge redirected into its own subtree
    t = enumerate_trees(lg, bound=10 ** 6)[0]
    for e in range(lg.n):
        for j in range(ctx.off[e], ctx.off[e + 1]):
            bad = SpanningTree(t.root, t.out_edge[:e] + (j,) + t.out_edge[e + 1:])
            try:
                validate_tree(lg, bad)
            except InvalidTreeError as exc:
                if "cycle" in str(exc):
                    return bad
    raise AssertionError("no cycle found")


def _outcome(f):
    try:
        return f()
    except Exception as exc:  # the error type and message are compared
        return type(exc), str(exc)


@st.composite
def line_trees(draw):
    # Trees of L(g) as pi's callers may give them: in half of them every
    # non-root entry is a line edge out of its vertex (cycles and valid
    # trees), in the other half entries are of any kind; a few have a wrong
    # length or a root out of range.
    g = draw(digraphs_positive_indeg(max_n=3, max_m=5))
    ctx = LineContext(g)
    m, off = g.m, ctx.off
    length = draw(st.sampled_from([m] * 8 + [m - 1, m + 1]))
    root = draw(st.sampled_from([*range(m)] * 4 + [-1, m]))
    loose = draw(st.booleans())
    out_edge = []
    for e in range(length):
        line_edge = (st.integers(off[e], off[e + 1] - 1)
                     if e < m and off[e] < off[e + 1] else st.none())
        if loose:
            entry = st.one_of(st.none(), line_edge, st.integers(-1, off[-1]),
                              st.sampled_from(["x", 1.5, True]))
        else:
            entry = st.none() if e == root else line_edge
        out_edge.append(draw(entry))
    return ctx, SpanningTree(root, tuple(out_edge))


@settings(max_examples=300)
@given(line_trees())
def test_pi_rejects_what_validate_tree_rejects(case):
    ctx, t = case
    expected = _outcome(lambda: validate_tree(ctx.line, t))
    got = _outcome(lambda: ctx.pi(t))
    if expected is None:
        assert got == _pi(ctx.g.n, ctx.target, t.root, ctx.successors(t), range(ctx.g.m))
    else:
        assert got == expected


def test_pi_error_kinds_match_validate_tree():
    # one case per check, on kautz(2, 1): m = 6 line vertices
    g = kautz(2, 1)
    ctx = LineContext(g)
    t = ctx.sigma(next(enumerate_tree_arrays(g)))
    e = next(v for v in range(g.m) if v != t.root)
    other = next(j for j in range(ctx.off[-1]) if not ctx.off[e] <= j < ctx.off[e + 1])
    cases = [
        SpanningTree(t.root, t.out_edge[:-1]),                      # wrong length
        SpanningTree(g.m, t.out_edge),                              # root out of range
        SpanningTree(-1, t.out_edge),
        SpanningTree(e, t.out_edge),                                # root with an out-edge
        *(SpanningTree(t.root, t.out_edge[:e] + (j,) + t.out_edge[e + 1:])
          for j in (None, "x", 1.5, -1, ctx.off[-1], other)),       # not a line edge out of e
        _cycle_tree(ctx, ctx.line),
    ]
    for bad in cases:
        expected = _outcome(lambda: validate_tree(ctx.line, bad))
        assert expected is not None and expected[0] is InvalidTreeError
        assert _outcome(lambda: ctx.pi(bad)) == expected


def test_validate_rejects_wrong_lengths():
    with pytest.raises(InvalidTreeArrayError):
        validate_tree_array(TWO_CYCLE, TreeArray(0, ((OMEGA, 0), (1,))))


def test_validate_rejects_missing_omega():
    with pytest.raises(InvalidTreeArrayError):
        validate_tree_array(TWO_CYCLE, TreeArray(0, ((0,), (1,))))


def test_validate_rejects_omega_not_last():
    g = debruijn(2, 1)
    bad = TreeArray(0, ((OMEGA, 0), (2, 3)))
    with pytest.raises(InvalidTreeArrayError):
        validate_tree_array(g, bad)


def test_validate_rejects_wrong_source():
    # entry 0 has source 0 but sits in vertex 1's list
    with pytest.raises(InvalidTreeArrayError):
        validate_tree_array(TWO_CYCLE, TreeArray(0, ((OMEGA,), (0,))))


def test_validate_rejects_non_tree_last_entries():
    # edges of DB_1(2): 0 = 0->0, 1 = 0->1, 2 = 1->0, 3 = 1->1
    g = debruijn(2, 1)
    validate_tree_array(g, TreeArray(0, ((0, OMEGA), (3, 2))))  # sane baseline
    with pytest.raises(InvalidTreeArrayError):
        # vertex 1's last entry is its self-loop, which never reaches the root
        validate_tree_array(g, TreeArray(0, ((0, OMEGA), (2, 3))))


def test_validate_rejects_indegree_zero_vertex():
    # vertex 1 has no in-edges, so its list is empty and has no last entry
    g = DiGraph(2, [(0, 0), (1, 0)])
    with pytest.raises(InvalidTreeArrayError, match="list of vertex 1 is empty"):
        validate_tree_array(g, TreeArray(0, ((0, OMEGA), ())))


def test_sigma_rejects_invalid_array():
    with pytest.raises(InvalidTreeArrayError):
        LineContext(TWO_CYCLE).sigma(TreeArray(0, ((0,), (1,))))


def test_order_must_be_permutation():
    a = TreeArray(0, ((OMEGA,), (1,)))
    t = SpanningTree(1, (0, None))
    ctx = LineContext(TWO_CYCLE)
    bad_orders = [
        [0, 0], [1, 1],      # duplicates
        [0, 2], [-1, 0],     # out of range
        [0], [0, 1, 1],      # wrong length
        [0, "a"],            # mixed types that sorted() cannot compare
        [0, 1.0], [0, None],  # not ints
    ]
    for order in bad_orders:
        with pytest.raises(ValueError, match="edge order must be a permutation of all edge ids"):
            ctx.sigma(a, order=order)
        with pytest.raises(ValueError, match="edge order must be a permutation of all edge ids"):
            ctx.pi(t, order=order)


def test_enumerated_arrays_pass_public_validation():
    # enumerate_tree_arrays checks nothing; the public validator must
    # accept what it yields
    for g in (TWO_CYCLE, SELF_LOOP, debruijn(2, 1), kautz(2, 1)):
        trees = enumerate_trees(g)
        for a in enumerate_tree_arrays(g):
            validate_tree_array(g, a)
            assert array_tree(g, a) in trees


# Malformed arrays that skip validation and reach sigma's body, one per guard.
# TWO_CYCLE has edges 0 = 0->1 and 1 = 1->0.
UNCHECKED_SIGMA_CASES = [
    (TreeArray(0, ((0,), (1,))), "candidate set empty"),       # no OMEGA, every edge listed
    (TreeArray(0, ((OMEGA,), ())), "popped an exhausted list"),
    (TreeArray(0, ((), (OMEGA,))), "output has 0 line edges, expected 1"),
]


@pytest.mark.parametrize("array,message", UNCHECKED_SIGMA_CASES)
def test_sigma_body_guards_raise_typed_errors(array, message):
    with pytest.raises(InvalidTreeArrayError, match=message):
        _sigma(2, [1, 0], array, range(2))


def test_term_count_check_raises_typed_error():
    root, succ = _sigma(2, [1, 0], TreeArray(0, ((OMEGA,), (1,))), range(2))
    _check_term_counts(succ, [0, 1])  # one copy of edge 1, in vertex 1's list
    with pytest.raises(InvalidTreeArrayError, match="indegrees disagree"):
        _check_term_counts(succ, [0, 0])


def test_pi_body_guard_raises_typed_error():
    # both line vertices get an out-edge, so each has an in-edge and there
    # is no leaf to peel
    ctx = LineContext(TWO_CYCLE)
    with pytest.raises(InvalidTreeError):
        validate_tree(ctx.line, ctx.line_tree(1, (1, 0)))
    with pytest.raises(InvalidTreeError, match="no removable leaf"):
        _pi(2, ctx.target, 1, (1, 0), range(2))


@pytest.mark.parametrize("order", [range(4), [3, 2, 1, 0], [2, 0, 3, 1]])
def test_pi_body_guard_after_peeling_some_leaves(order):
    # in L(DB_1(2)) the leaf 0 (the loop at 0) feeds the 2-cycle 1 -> 2 -> 1
    # (0 -> 1, 1 -> 0), and the root 3 (the loop at 1) is off that cycle:
    # the scan peels 0, then finds no leaf while two edges are left
    ctx = LineContext(debruijn(2, 1))
    succ = (1, 2, 1, None)
    with pytest.raises(InvalidTreeError):
        validate_tree(ctx.line, ctx.line_tree(3, succ))
    for body in (_pi, heap_pi):
        with pytest.raises(InvalidTreeError, match="no removable leaf"):
            body(2, ctx.target, 3, succ, order)


def test_sigma_body_guards_survive_optimize_flag():
    # python -O strips assert statements; the guards of sigma and pi (the
    # stalled peel of test_pi_body_guard_after_peeling_some_leaves) must
    # still raise
    src = Path(linetrees.__file__).resolve().parent.parent
    script = (
        "import sys\n"
        "from linetrees.errors import InvalidTreeArrayError, InvalidTreeError\n"
        "from linetrees.line_bijection import TreeArray, _pi, _sigma\n"
        "assert False, 'asserts are not stripped'\n"
        "try:\n"
        "    _sigma(2, [1, 0], TreeArray(0, ((0,), (1,))), range(2))\n"
        "except InvalidTreeArrayError as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "else:\n"
        "    sys.exit('no error raised')\n"
        "try:\n"
        "    _pi(2, [0, 1, 0, 1], 3, (1, 2, 1, None), range(4))\n"
        "except InvalidTreeError as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "else:\n"
        "    sys.exit('no error raised')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    sigma_line, pi_line = proc.stdout.splitlines()
    assert sigma_line.startswith("InvalidTreeArrayError candidate set empty")
    assert pi_line.startswith("InvalidTreeError no removable leaf")


@settings(max_examples=50)
@given(digraphs_positive_indeg(max_n=4, max_m=8))
def test_line_edge_numbering_matches_line_graph(g):
    # sigma's output ids and the codec's levels rely on this alignment:
    # off[e] + pos[f] is where line_graph emits the line edge (e, f)
    ctx = LineContext(g)
    lg = line_graph(g)
    pairs = [(e, f) for e in range(g.m) for f in range(g.m) if g.target(e) == g.source(f)]
    assert len(pairs) == lg.m
    for e, f in pairs:
        assert lg.edges[ctx.off[e] + ctx.pos[f]] == (e, f)
