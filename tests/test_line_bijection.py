import copy
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from enum import IntEnum
from itertools import product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import linetrees
from linetrees.arborescence import SpanningTree, enumerate_trees, validate_tree
from linetrees.corpus import identity_corpus
from linetrees.digraph import DiGraph, debruijn, kautz, line_graph
from linetrees.errors import EnumerationBound, InvalidTreeArrayError, InvalidTreeError
import linetrees.line_bijection as lb
from linetrees.line_bijection import (LineContext, OMEGA, TreeArray, _pi, _sigma,
                                      enumerate_tree_arrays, shuffled_order, tree_array_count,
                                      validate_tree_array)
from oracles import array_tree, heap_pi, heap_sigma, two_pass_pi, two_pass_sigma

TWO_CYCLE = DiGraph(2, [(0, 1), (1, 0)])
SELF_LOOP = DiGraph(1, [(0, 0)])
# an int subclass, accepted wherever an int is, for every id a corpus-size
# graph or its line graph has
Id = IntEnum("Id", {f"ID{i}": i for i in range(64)})


class Index:
    """Not an int, but usable as a list index: refused wherever an id is read."""

    def __init__(self, i):
        self.i = i

    def __index__(self):
        return self.i

    def __repr__(self):
        return f"Index({self.i})"


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


@pytest.mark.parametrize("g,count", [(TWO_CYCLE, 2), (debruijn(2, 1), 8), (kautz(2, 1), 72)],
                         ids=["two-cycle", "debruijn-2-1", "kautz-2-1"])
def test_enumerate_tree_arrays_yields_up_to_the_bound_and_refuses_past_it(g, count,
                                                                          monkeypatch):
    monkeypatch.setattr(lb, "DEFAULT_BOUND", count)
    assert len(set(enumerate_tree_arrays(g))) == count
    monkeypatch.setattr(lb, "DEFAULT_BOUND", count - 1)
    with pytest.raises(EnumerationBound, match=f"^{count} tree arrays exceed bound {count - 1}$"):
        next(enumerate_tree_arrays(g))


def test_array_bound_message_past_the_digit_cap():
    # one vertex with 1700 loops has 1700^1699 tree arrays, about 10^5488:
    # too many digits for str(), so the message gives the logarithm
    with pytest.raises(EnumerationBound,
                       match=r"^about 10\^5488\.5 tree arrays exceed bound 1000000$"):
        next(enumerate_tree_arrays(DiGraph(1, [(0, 0)] * 1700)))


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
                indeg[ctx.line.edges[j][1]] += 1
        for e in range(g.m):
            assert indeg[e] == sum(1 for x in a.lists[g.edges[e][0]] if x == e)


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


@st.composite
def boundary_cases(draw):
    """A graph of corpus size (n <= 4, m <= 8), a tree array, a line tree
    and edge orders, each valid or broken by one or two mutations."""
    if draw(st.integers(0, 3)):
        g = draw(digraphs_positive_indeg(max_n=4, max_m=8))
    else:  # some vertices may have indegree 0
        n = draw(st.integers(1, 4))
        g = DiGraph(n, draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                     min_size=1, max_size=8)))
    n, m = g.n, g.m
    out = [[e for e, (s, _) in enumerate(g.edges) if s == v] for v in range(n)]
    ctx = LineContext(g)
    edge = st.integers(0, m - 1)
    # a valid array when g has one: random surplus entries, then the
    # tree's out-edge, OMEGA at the root
    trees = enumerate_trees(g, bound=10 ** 6)
    tree = draw(st.sampled_from(trees)) if trees else None
    root = tree.root if tree else draw(st.integers(0, n - 1))
    lists = []
    for v in range(n):
        pick = st.sampled_from(out[v]) if out[v] else edge
        entries = [draw(pick) for _ in range(g.indeg[v] - 1)]
        if g.indeg[v]:
            entries.append(OMEGA if v == root else tree.out_edge[v] if tree else draw(pick))
        lists.append(entries)
    for _ in range(draw(st.integers(0, 2))):
        v = draw(st.integers(0, n - 1))
        if not lists[v]:
            lists[v].append(draw(st.sampled_from([OMEGA, *range(m)])))
            continue
        i = draw(st.integers(0, len(lists[v]) - 1))
        kind = draw(st.sampled_from(["source", "range", "type", "omega", "drop", "extra",
                                     "last", "last", "last", "root"]))
        if kind == "source":    # an edge out of another vertex
            others = [e for e in range(m) if g.edges[e][0] != v]
            if others:
                lists[v][i] = draw(st.sampled_from(others))
        elif kind == "range":
            lists[v][i] = draw(st.sampled_from([-1, m, m + 3]))
        elif kind == "type":
            lists[v][i] = draw(st.sampled_from([1.0, True, None, "0", Id(draw(edge)),
                                                Index(draw(edge))]))
        elif kind == "omega":   # misplaced, missing or extra OMEGA
            lists[v][i] = OMEGA if lists[v][i] is not OMEGA else draw(edge)
        elif kind == "drop":
            del lists[v][i]
        elif kind == "extra":
            lists[v].insert(i, draw(st.sampled_from([OMEGA, *out[v]] if out[v] else [OMEGA])))
        elif kind == "last" and out[v]:  # may close a cycle of last entries
            lists[v][-1] = draw(st.sampled_from(out[v]))
        elif kind == "root":
            root = draw(st.sampled_from([*range(n), -1, n]))
    # the lists as a tuple of tuples, or a list, or with one list a list
    rows = list(map(tuple, lists))
    kind = draw(st.sampled_from(["tuples", "tuples", "list", "one list"]))
    if kind == "one list":
        v = draw(st.integers(0, n - 1))
        rows[v] = list(rows[v])
    array = TreeArray(root, rows if kind == "list" else tuple(rows))
    # a line tree: the image of a valid array, broken by a mutation
    line_tree = None
    if tree is not None and all(d == 1 or d and out[v] for v, d in enumerate(g.indeg)):
        valid = TreeArray(tree.root, tuple((*(out[v][0] for _ in range(g.indeg[v] - 1)),
                                            OMEGA if v == tree.root else tree.out_edge[v])
                                           for v in range(n)))
        line_tree = ctx.sigma(valid)
        e = draw(st.integers(0, m - 1))
        kind = draw(st.sampled_from(["none", "cycle", "cycle", "type", "range", "root"]))
        out_edge = list(line_tree.out_edge)
        t_root = line_tree.root
        succ = ctx.successors(line_tree)
        # line edges out of e whose head reaches e: each closes a cycle
        closing = [j for j in range(ctx.off[e], ctx.off[e + 1])
                   if e in _chain(succ, out[g.edges[e][1]][j - ctx.off[e]])]
        if kind == "cycle" and e != t_root and closing:
            out_edge[e] = draw(st.sampled_from(closing))
        elif kind == "type" and e != t_root:
            j = out_edge[e]
            out_edge[e] = draw(st.sampled_from([None, 1.5, True, "x", Id(j), Index(j)]))
        elif kind == "range" and e != t_root:
            out_edge[e] = draw(st.sampled_from([-1, ctx.off[-1]]))
        elif kind == "root":
            t_root = draw(st.sampled_from([*range(m), -1, m]))
        line_tree = SpanningTree(t_root, tuple(out_edge))
    # orders: index order, a shuffle, and a broken one
    shuffled = draw(st.permutations(range(m)))
    broken = list(shuffled)
    kind = draw(st.sampled_from(["short", "dup", "float", "true", "none", "enum", "index",
                                 "long", "unsized"]))
    if kind == "unsized":   # no len(): a TypeError, after any cycle
        broken = m
    elif kind == "short":
        broken.pop()
    elif kind == "dup":
        broken[0] = broken[-1]      # for m = 1, the order stays valid
    elif kind in ("float", "true", "none", "enum", "index"):
        i = draw(st.integers(0, m - 1))
        broken[i] = {"float": float(broken[i]), "true": True, "none": None,
                     "enum": Id(broken[i]), "index": Index(broken[i])}[kind]
    else:
        broken.append(0)
    return ctx, array, line_tree, [None, shuffled, broken, shuffled]


def _chain(succ, f):
    # f, succ[f], ... up to the root
    while f is not None:
        yield f
        f = succ[f]


@settings(max_examples=300, deadline=None)
@given(boundary_cases())
def test_one_pass_boundary_matches_two_pass_oracle(case):
    # public sigma and pi read each input once; the two-pass boundary they
    # replaced must give equal outputs, or the same error type and message.
    # One context serves every order, so its checked-order slot is reused.
    ctx, array, line_tree, orders = case
    for order in orders:
        assert (_outcome(lambda: ctx.sigma(array, order))
                == _outcome(lambda: two_pass_sigma(ctx, array, order)))
        if line_tree is not None:
            assert (_outcome(lambda: ctx.pi(line_tree, order))
                    == _outcome(lambda: two_pass_pi(ctx, line_tree, order)))


def _counting(monkeypatch, name):
    calls = []
    original = getattr(lb, name)

    def counted(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(lb, name, counted)
    return calls


def test_sigma_walks_only_a_failed_body(monkeypatch):
    g = kautz(2, 1)
    ctx = LineContext(g)
    arrays = list(enumerate_tree_arrays(g))
    walks = _counting(monkeypatch, "_check_reaches_root")
    for a in arrays:
        ctx.sigma(a)
    assert walks == []
    # edges of DB_1(2): 0 = 0->0, 1 = 0->1, 2 = 1->0, 3 = 1->1; vertex 1's
    # last entry is its loop, so the body fails and the walk names the cycle
    db = LineContext(debruijn(2, 1))
    cyclic = TreeArray(0, ((0, OMEGA), (2, 3)))
    with pytest.raises(InvalidTreeArrayError, match="cycle through vertex 1"):
        db.sigma(cyclic)
    assert len(walks) == 1
    # a refused order on a cyclic array: the cycle is named first, as the
    # two-pass boundary did
    with pytest.raises(InvalidTreeArrayError, match="cycle through vertex 1"):
        db.sigma(cyclic, order=[0])
    assert len(walks) == 2


def test_sigma_reads_every_array_in_one_pass(monkeypatch):
    # sigma checks and counts an array in one loop, whatever its entries'
    # types, and numbers its body's output unchecked: one _check_entries
    # call per array, and no _check_shape, line_tree or walk
    def refuse(*_):
        raise AssertionError("line_tree called")

    graphs = [g for g in identity_corpus() if 0 < tree_array_count(g) <= 200]
    contexts = [(LineContext(g), list(enumerate_tree_arrays(g))) for g in graphs]
    images = [[ctx.sigma(a) for a in arrays] for ctx, arrays in contexts]
    checks = _counting(monkeypatch, "_check_entries")
    shapes = _counting(monkeypatch, "_check_shape")
    walks = _counting(monkeypatch, "_check_reaches_root")
    monkeypatch.setattr(LineContext, "line_tree", refuse)
    for (ctx, arrays), expected in zip(contexts, images):
        assert [ctx.sigma(a) for a in arrays] == expected
    calls = sum(map(len, images))
    assert len(checks) == calls > 2000 and shapes == walks == []
    # the same array with one entry an int subclass, and as lists: the same
    # image, through the same one check
    ctx, arrays = contexts[-1]
    a = arrays[-1]
    v = next(v for v, entries in enumerate(a.lists) if entries[0] is not OMEGA)
    lists = list(a.lists)
    lists[v] = (Id(lists[v][0]),) + lists[v][1:]
    for other in (TreeArray(a.root, tuple(lists)), TreeArray(a.root, list(map(list, a.lists)))):
        assert ctx.sigma(other) == images[-1][-1]
    assert len(checks) == calls + 2 and shapes == walks == []


def test_successors_checks_the_tree_as_pi_does():
    # edges of DB_2(2) are numbered 0..7 and each has two line edges,
    # 2e and 2e + 1; line edge 1 leaves edge 0, not edge 1, so the tree is
    # refused, not read as some other successor list
    g = debruijn(2, 2)
    ctx = LineContext(g)
    bad = SpanningTree(0, (None, 1, 4, 6, 8, 10, 12, 14))
    message = "vertex 1 needs exactly one out-edge with source 1"
    for read in (lambda t: validate_tree(ctx.line, t), ctx.pi, ctx.successors):
        with pytest.raises(InvalidTreeError, match=f"^{message}$"):
            read(bad)
    t = ctx.sigma(next(enumerate_tree_arrays(g)))
    for broken in (SpanningTree(t.root, t.out_edge[:-1]), SpanningTree(t.root, None),
                   *(SpanningTree(t.root, _put(t.root, t.out_edge, x))
                     for x in (-1, 16, 99, "x", 1.5, Index(3)))):
        assert (_outcome(lambda: ctx.successors(broken))
                == _outcome(lambda: validate_tree(ctx.line, broken)))
        assert _outcome(lambda: ctx.successors(broken))[0] is InvalidTreeError
    # acyclicity is left to the reader, as in line_tree
    cyclic = _cycle_tree(ctx, ctx.line)
    assert ctx.line_tree(cyclic.root, ctx.successors(cyclic)) == cyclic


def _put(root, out_edge, x):
    # out_edge with x in place of the entry after the root's
    at = (root + 1) % len(out_edge)
    return out_edge[:at] + (x,) + out_edge[at + 1:]


@pytest.mark.parametrize("record, fields, text", [
    (SpanningTree(1, (None, 2)), (1, (None, 2)), "SpanningTree(root=1, out_edge=(None, 2))"),
    (TreeArray(0, ((OMEGA, 1), (2,))), (0, ((OMEGA, 1), (2,))),
     "TreeArray(root=0, lists=((OMEGA, 1), (2,)))"),
])
def test_records_keep_their_behaviour(record, fields, text):
    cls = type(record)
    twin = cls(*fields)
    assert record == twin and hash(record) == hash(twin) and record is not twin
    assert record != cls(fields[0] + 1, fields[1]) and record != fields
    assert repr(record) == text
    assert not hasattr(record, "__dict__")    # fields live in slots
    for name in ("root", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, 0)
    with pytest.raises(FrozenInstanceError):
        del record.root
    for back in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert back == record and hash(back) == hash(record) and type(back) is cls
    if cls is TreeArray:
        assert pickle.loads(pickle.dumps(record)).lists[0][0] is OMEGA
        assert copy.deepcopy(record).lists[0][0] is OMEGA


def _entry_valid_arrays(g):
    # every array that passes all checks but the walk: for each root, each
    # list holds out-edges of its vertex, the root's closed by OMEGA, so
    # some of them have last entries that cycle
    indeg = g.indeg
    out = [[e for e, (s, _) in enumerate(g.edges) if s == v] for v in range(g.n)]
    for root in range(g.n):
        choices = [[(*p, OMEGA) for p in product(out[v], repeat=indeg[v] - 1)] if v == root
                   else list(product(out[v], repeat=indeg[v])) for v in range(g.n)]
        for lists in product(*choices):
            yield TreeArray(root, lists)


def _assert_body_fails_iff_cyclic(g, arrays, orders):
    ctx = LineContext(g)
    for a in arrays:
        lb._check_entries(g, a, ctx.source)
        valid = _outcome(lambda: validate_tree_array(g, a)) is None
        for order in orders:
            try:
                _sigma(g.n, ctx.target, a, order)
            except InvalidTreeArrayError:
                assert not valid
                assert _outcome(lambda: ctx.sigma(a, order)) == _outcome(
                    lambda: validate_tree_array(g, a))
            else:
                assert valid


def test_sigma_body_fails_exactly_on_cyclic_last_entries():
    # the slow oracle for public sigma, which walks only once its body
    # fails: on every array that passes the entry checks, the body raises
    # iff the walk would
    checked = cyclic = 0
    for g in identity_corpus():
        if sum(prod(g.outdeg[v] ** (g.indeg[v] - (v == r)) for v in range(g.n))
               for r in range(g.n)) > 500:
            continue
        arrays = list(_entry_valid_arrays(g))
        _assert_body_fails_iff_cyclic(
            g, arrays, [range(g.m)] + [shuffled_order(g, seed) for seed in (1, 2, 3)])
        checked += len(arrays)
        cyclic += len(arrays) - tree_array_count(g)
    assert checked > 10_000 and cyclic > 5_000


@st.composite
def entry_valid_cases(draw):
    # a multigraph with every in- and outdegree positive, an array of
    # out-edge lists closed by OMEGA at a drawn root, and an edge order
    n = draw(st.integers(1, 4))
    extra = draw(st.integers(0, 8 - n))
    sources = list(range(n)) + [draw(st.integers(0, n - 1)) for _ in range(extra)]
    targets = draw(st.permutations(list(range(n)) + [draw(st.integers(0, n - 1))
                                                     for _ in range(extra)]))
    g = DiGraph(n, list(zip(sources, targets)))
    root = draw(st.integers(0, n - 1))
    out = [[e for e, (s, _) in enumerate(g.edges) if s == v] for v in range(n)]
    lists = tuple((*(draw(st.sampled_from(out[v]))
                     for _ in range(g.indeg[v] - (v == root))),
                   *((OMEGA,) if v == root else ())) for v in range(n))
    return g, TreeArray(root, lists), draw(st.permutations(range(g.m)))


@settings(max_examples=300, deadline=None)
@given(entry_valid_cases())
def test_sigma_body_fails_exactly_on_cyclic_random_multigraphs(case):
    g, a, order = case
    _assert_body_fails_iff_cyclic(g, [a], [order])


def test_pi_walks_only_a_stalled_peel(monkeypatch):
    g = kautz(2, 1)
    ctx = LineContext(g)
    trees = [ctx.sigma(a) for a in enumerate_tree_arrays(g)]
    cyclic = _cycle_tree(ctx, ctx.line)
    walks = _counting(monkeypatch, "_check_reaches_root")
    for t in trees:
        ctx.pi(t)
    assert walks == []
    with pytest.raises(InvalidTreeError, match="cycle through vertex"):
        ctx.pi(cyclic)
    assert len(walks) == 1
    # a refused order on a cyclic tree: the cycle is named first, as the
    # two-pass boundary did
    with pytest.raises(InvalidTreeError, match="cycle through vertex"):
        ctx.pi(cyclic, order=[0])
    assert len(walks) == 2


def test_edge_order_checked_once_while_unchanged(monkeypatch):
    g = kautz(2, 1)
    ctx = LineContext(g)
    arrays = list(enumerate_tree_arrays(g))
    order = shuffled_order(g, 3)
    checks = _counting(monkeypatch, "_edge_order")
    images = [ctx.sigma(a, order) for a in arrays]
    assert [ctx.pi(t, order) for t in images] == arrays
    assert len(checks) == 1
    order[0], order[1] = order[1], order[0]   # in place: checked again
    assert ctx.pi(ctx.sigma(arrays[0], order), order) == arrays[0]
    assert len(checks) == 2
    first = order[0]
    order[0] = float(first)                   # equal, but not an int
    with pytest.raises(ValueError, match="edge order must be a permutation"):
        ctx.sigma(arrays[0], order)
    assert len(checks) == 3
    order[0] = first
    ctx.sigma(arrays[0], order)               # the slot kept the last good order
    assert len(checks) == 3


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


@pytest.mark.parametrize("root", [0.0, 1.0, 0.5, "0", None])
def test_non_int_roots_refused_with_typed_errors(root):
    # edges of DB_1(2): 0 = 0->0, 1 = 0->1, 2 = 1->0, 3 = 1->1
    g = debruijn(2, 1)
    with pytest.raises(InvalidTreeArrayError, match="array shape does not match the graph"):
        validate_tree_array(g, TreeArray(root, ((0, OMEGA), (3, 2))))
    with pytest.raises(InvalidTreeError, match="tree shape does not match the graph"):
        validate_tree(g, SpanningTree(root, (None, 2)))
    ctx = LineContext(g)
    tree = ctx.sigma(TreeArray(0, ((0, OMEGA), (3, 2))))
    with pytest.raises(InvalidTreeError, match="tree shape does not match the graph"):
        ctx.pi(SpanningTree(root, tree.out_edge))


def test_bool_roots_still_accepted():
    g = debruijn(2, 1)
    validate_tree_array(g, TreeArray(False, ((0, OMEGA), (3, 2))))
    validate_tree(g, SpanningTree(True, (1, None)))
    ctx = LineContext(g)
    tree = ctx.sigma(TreeArray(1, ((0, 1), (2, OMEGA))))
    assert tree.root == 1
    assert ctx.pi(SpanningTree(True, tree.out_edge)) == ctx.pi(tree)


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


class _Unseen(tuple):
    """A list whose iteration skips its last entry, which indexing reaches."""

    def __iter__(self):
        return iter(self[:-1])


def test_term_count_check_raises_typed_error():
    # sigma's last guard: every list copy of e was popped, i.e. indeg of e
    # in the output tree equals its initial count.  Once the line-edge count
    # holds, every edge was taken with no copy left, so no array of plain
    # tuples reaches the guard; here vertex 1's list holds a surplus copy
    # of edge 0 that the count never saw, and popping it leaves count -1.
    assert _sigma(2, [1, 0], TreeArray(0, ((OMEGA,), (1,))), range(2)) == (1, (1, None))
    doctored = TreeArray(0, ((OMEGA,), _Unseen((0,))))
    with pytest.raises(InvalidTreeArrayError,
                       match="^output tree indegrees disagree with list counts$"):
        _sigma(2, [1, 0], doctored, range(2))


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
    # off[e] + rank[f] is where line_graph emits the line edge (e, f), and
    # pi reads line edge j as (line_src[j], line_head[j])
    ctx = LineContext(g)
    lg = line_graph(g)
    pairs = [(e, f) for e in range(g.m) for f in range(g.m) if g.edges[e][1] == g.edges[f][0]]
    assert len(pairs) == lg.m
    for e, f in pairs:
        assert lg.edges[ctx.off[e] + ctx.rank[f]] == (e, f)
    assert tuple(zip(ctx.line_src, ctx.line_head)) == lg.edges
