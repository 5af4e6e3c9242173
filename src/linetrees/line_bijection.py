"""Tree arrays and the mutually inverse maps between them and spanning
trees of the directed line graph.

A *tree array* of G assigns to each vertex v an ordered list of length
indeg(v) whose entries are out-edges of v, except for a single sentinel
OMEGA which terminates the root's list.  The last entries of the non-root
lists must form a spanning tree of G.  Tree arrays are exactly the data
"spanning tree + one extra out-edge list entry per surplus indegree", so
there are kappa(G) * prod_v outdeg(v)^(indeg(v)-1) of them.

The forward map (here ``sigma``) consumes a tree array and emits a spanning
tree of the line graph LG; the inverse (``pi``) peels a spanning tree of LG
leaf by leaf and reconstructs the array.  Both depend on a total order on
the edges of G; any order works, as long as the same one is used in both
directions.

sigma, given array <l_v> and an empty subgraph T' of LG:
  1. among edges e with no remaining copy in l_{s(e)} and no out-edge in
     T' yet, pick the smallest, f;
  2. pop the head g of l_{t(f)}; if g is OMEGA stop, returning T' rooted
     at f;
  3. otherwise add the line edge (f, g) to T' and repeat.

pi, given a spanning tree T' of LG and empty lists:
  1. among the indegree-0 vertices of the remaining tree (the root counts
     only once it is the sole survivor), pick the smallest, f;
  2. if f is not the root, remove f and its out-edge (f, g) and append g
     to l_{t(f)}, then repeat from 1;
  3. if f is the root, append OMEGA to l_{t(f)} and return the lists.

Vertex e of LG is edge e of G, and a line edge is a path (f, g) in G.  The
maps' bodies, ``_sigma(n, target, a, order)`` and ``_pi(n, target, root,
succ, order)``, are functions of what they read: the vertex count n, the
edge heads target[e] and the edge order itself, smallest first.  They hold
a tree of LG as a successor list, succ[f] = g, None at the root; line-edge
ids, numbered by :class:`LineContext`, appear only at the public boundary,
so the codec builds neither LG nor G.

Both bodies take the smallest ready element in linear time, with no heap,
as in the linear decoding of a Pruefer code.  A ready element (a candidate
in sigma, a leaf in pi) stays ready until it is taken, and each step makes
at most one new element ready: in sigma the popped entry whose count
reaches 0, in pi succ[f] once its indegree reaches 0.  So one scan over
the order takes each ready element it reaches, and after each step takes
the newly ready element at once if the scan has already passed it, since
every other ready element lies ahead of the scan; otherwise it scans on.

The public maps (``LineContext.sigma``/``pi``) read their input once, in
linear time, and then run a body that trusts it; internal callers (the de
Bruijn codec, verify-all's round trips) call the bodies directly.
``validate_tree_array``, the one check of a tree array, makes a pass over
the entries, then walks the chains of last entries to the root once; it
builds no SpanningTree of G.  ``sigma`` makes the same pass, which counts
the entries for its body.  Its body is the acyclicity check: a run pops
every entry, and were the last entries e_i of l_{v_i} a cycle, t(e_i) =
v_{i+1}, the last pop from l_{v_{i+1}} would follow the taking of e_i,
hence the pop of e_i, the last from l_{v_i}, and so, around the cycle,
itself.  So the body's line edges are valid, and sigma numbers them
off[e] + rank[f] with no second check.  ``pi`` checks its tree
through the flat line-edge tables while building the successor list and
its indegrees, in validate_tree's own loop (arborescence._tree_heads), so
it builds no line graph: line edge j runs from line_src[j] to
line_head[j].  A successor list peels down to its root iff it has no
cycle, so pi's body is the acyclicity check too.  Only once a body fails,
or the order is refused, does a public map walk the chains to name the
error, so the errors of ``sigma`` are those of ``validate_tree_array`` and
those of ``pi`` those of ``validate_tree(ctx.line, tree)``, in order.  The
tests keep the walk as the oracle: on the corpus graphs under four edge
orders and on random multigraphs, a body fails exactly when the walk
does.  A context checks an edge order once and keeps it in one slot until
some position holds another object.  ``enumerate_tree_arrays`` builds
arrays valid by construction.
The invariants that make the loop in sigma well-defined (the candidate set
and the popped list are never empty) are checked and raise typed errors,
not asserts that python -O strips, and every sigma run checks that each
list copy was popped, i.e. that indeg of e in the output tree equals the
initial count of e in l_{s(e)} - the per-monomial statement behind the
generating-function identity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, product
from operator import add, index, indexOf, is_
from typing import Iterable, Iterator, Sequence

from .arborescence import (SpanningTree, _check_reaches_root, _check_shape, _tree_heads,
                           count_trees, degree_product, enumerate_trees, DEFAULT_BOUND)
from .digraph import DiGraph, line_graph
from .errors import EnumerationBound, InvalidTreeArrayError, InvalidTreeError, count_text


class _OmegaType:
    """Sentinel terminating the root's list; distinct from every edge id."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "OMEGA"


OMEGA = _OmegaType()

ArrayEntry = object  # int edge id or OMEGA
Succ = tuple[int | None, ...]  # a line-graph tree as a successor list


@dataclass(frozen=True)
class TreeArray:
    """Per-vertex entry lists; `root` is the vertex whose list ends in OMEGA."""
    __slots__ = ("root", "lists")  # no per-instance dict, so quicker to build
    root: int
    lists: tuple[tuple[ArrayEntry, ...], ...]

    def __reduce__(self):  # pickle and copy by the constructor: the fields refuse setattr
        return type(self), (self.root, self.lists)


def validate_tree_array(g: DiGraph, a: TreeArray) -> None:
    """Raise InvalidTreeArrayError unless a is a tree array of g; O(n + m)."""
    _check_entries(g, a, [s for s, _ in g.edges])
    # every last entry is now an out-edge of its vertex, so the one check
    # left of the tree they form is that each chain of heads reaches the root
    edges, root = g.edges, a.root
    succ = [None if v == root else edges[entries[-1]][1] for v, entries in enumerate(a.lists)]
    try:
        _check_reaches_root(root, succ)
    except InvalidTreeError as exc:
        raise InvalidTreeArrayError(f"last entries do not form a spanning tree: {exc}") from None


def _check_entries(g: DiGraph, a: TreeArray, source: Sequence[int]) -> list[int]:
    # validate_tree_array's checks but the walk, in one loop over the edge
    # sources: each edge's copy count.  An exact int of the list's vertex is
    # counted and OMEGA placed before any other test runs; every entry before
    # the first OMEGA is then a checked int, so indexOf finds it
    n, m, indeg = g.n, g.m, g.indeg
    root, lists = a.root, a.lists
    omegas = 0
    count = [0] * m
    shape = "array shape does not match the graph"
    try:
        if len(lists) != n or not isinstance(root, int) or not (0 <= root < n):
            raise InvalidTreeArrayError(shape)
        for v, entries in enumerate(lists):
            if len(entries) != indeg[v]:
                raise InvalidTreeArrayError(
                    f"list of vertex {v} has length {len(entries)}, expected indeg {indeg[v]}")
            for e in entries:
                if type(e) is int and 0 <= e < m and source[e] == v:
                    count[e] += 1
                elif e is OMEGA:
                    omegas += 1
                    if v != root or indexOf(entries, OMEGA) != len(entries) - 1:
                        raise InvalidTreeArrayError(
                            "OMEGA must be the last entry of the root's list")
                elif isinstance(e, int) and 0 <= e < m:
                    if source[e] != v:
                        raise InvalidTreeArrayError(
                            f"entry {e} in list of vertex {v} has source {source[e]}")
                    count[e] += 1
                else:
                    raise InvalidTreeArrayError(f"entry {e!r} is not an edge id")
    except TypeError:   # the lists, or one of them, have no length
        raise InvalidTreeArrayError(shape) from None
    if omegas != 1:
        raise InvalidTreeArrayError(f"expected exactly one OMEGA, found {omegas}")
    if 0 in indeg:  # not the root's list: it holds the one OMEGA
        raise InvalidTreeArrayError(f"list of vertex {indeg.index(0)} is empty: "
                                    "tree arrays need every indegree to be positive")
    return count


def _edge_order(g: DiGraph, order: Sequence[int] | None) -> Sequence[int]:
    """The order itself once checked to be a permutation of the edge ids;
    edge-index order for None."""
    m = g.m
    if order is None:
        return range(m)
    if len(order) != m:
        raise ValueError("edge order must be a permutation of all edge ids")
    # m distinct ids in range(m) are a permutation of it
    seen = bytearray(m)
    for e in order:
        if not (isinstance(e, int) and 0 <= e < m) or seen[e]:
            raise ValueError("edge order must be a permutation of all edge ids")
        seen[e] = 1
    return order


def shuffled_order(g: DiGraph, seed: int) -> list[int]:
    order = list(range(g.m))
    random.Random(seed).shuffle(order)
    return order


class LineContext:
    """A graph g and the numbering of its line edges: (e, f) is edge
    ``off[e] + rank[f]`` of ``line`` (built on first use), with off the
    prefix sums of outdeg(t(e)) and rank[f] the index of f among the
    out-edges of s(f); line edge j runs from line_src[j] to line_head[j]."""

    def __init__(self, g: DiGraph):
        self.g, out = g, g._out
        self.source = [s for s, _ in g.edges]
        self.target = target = [t for _, t in g.edges]
        self.off = list(accumulate((g.outdeg[t] for t in target), initial=0))
        self.rank = [i for _, i in sorted((f, i) for fs in out for i, f in enumerate(fs))]
        self.line_src = [e for e, t in enumerate(target) for _ in out[t]]
        self.line_head = [f for t in target for f in out[t]]
        self._order = tuple(range(g.m))  # the last edge order checked

    @cached_property
    def line(self) -> DiGraph:
        return line_graph(self.g)

    def line_tree(self, root: int, succ: Sequence[int | None]) -> SpanningTree:
        """The line-graph tree with the line edge (e, succ[e]) out of each e
        that has one; InvalidTreeError unless the shape matches and each
        succ[e] is an out-edge of t(e).  Acyclicity is left to its reader."""
        _check_shape(root, succ, self.g.m)
        out, target, off = self.g._out, self.target, self.off
        try:
            return SpanningTree(root, tuple([None if f is None else o + out[t].index(index(f))
                                             for f, t, o in zip(succ, target, off)]))
        except (TypeError, ValueError):   # not an integer, or not an out-edge of t(e)
            raise InvalidTreeError("each succ[e] must be None or an out-edge of t(e)") from None

    def successors(self, tree: SpanningTree) -> Succ:
        """Inverse of :meth:`line_tree`: the head of each edge, None at the root,
        checked as :meth:`pi` checks it but for acyclicity, left to its reader."""
        return tuple(_tree_heads(tree, self.g.m, self.line_src, self.line_head)[0])

    def _checked_order(self, order: Sequence[int] | None) -> Sequence[int]:
        # _edge_order, skipped while every position holds the same object
        # as in the last order checked; an in-place change, or 1.0 for 1,
        # runs it again
        if order is None:
            return range(self.g.m)
        last = self._order
        if len(order) != len(last) or not all(map(is_, order, last)):
            self._order = last = tuple(_edge_order(self.g, order))
        return last

    def sigma(self, a: TreeArray, order: Sequence[int] | None = None) -> SpanningTree:
        """Map a tree array of g to a spanning tree of the line graph, raising
        ``validate_tree_array``'s errors; its walk runs only if the body fails."""
        g = self.g
        count = _check_entries(g, a, self.source)
        try:
            root, succ = _sigma(g.n, self.target, a, self._checked_order(order), count)
        except (TypeError, ValueError):  # a refused order, or a cycle of last entries
            validate_tree_array(g, a)
            raise
        off, rank = self.off, self.rank  # the body's line edges are valid: no check
        return SpanningTree(root, tuple([None if f is None else off[e] + rank[f]
                                         for e, f in enumerate(succ)]))

    def pi(self, tree: SpanningTree, order: Sequence[int] | None = None) -> TreeArray:
        """Map a spanning tree of the line graph back to a tree array of g.

        The tree is checked as ``validate_tree(self.line, tree)`` would, with
        the same errors in the same order, through the numbering alone: the
        body's peel is the acyclicity check, and the walk that names the
        cycle runs only once the peel stalls or the order is refused."""
        succ, indeg = _tree_heads(tree, self.g.m, self.line_src, self.line_head)
        try:
            return _pi(self.g.n, self.target, tree.root, succ, self._checked_order(order), indeg)
        except (TypeError, ValueError):  # a refused order, or a stalled peel
            _check_reaches_root(tree.root, succ)
            raise


def _sigma(n: int, target: Sequence[int], a: TreeArray, order: Iterable[int],
           count: list[int] | None = None) -> tuple[int, Succ]:
    # sigma's body, on n vertices and the edge heads target, for arrays
    # with valid entries: the root and successors of the image.  It raises
    # if the last entries cycle (module docstring); its other guards are a
    # safety net.  count, each edge's copies in its list, is used up if given.
    m, lists = len(target), a.lists
    if count is None:              # remaining copies of e in l_{s(e)}
        count = [0] * m
        for entries in lists:
            for entry in entries:
                if entry is not OMEGA:
                    count[entry] += 1
    heads = [0] * n                # next unpopped position per list
    succ: list[int | None] = [None] * m
    passed = bytearray(m)          # the scan has reached e
    added = 0
    # Step 1: the smallest edge with no remaining list copies and no
    # out-edge chosen yet, by the scan described in the module docstring.
    for f in order:
        passed[f] = 1
        if count[f]:
            continue
        while True:
            # Step 2: pop the head of l_{t(f)}.
            v = target[f]
            if heads[v] >= len(lists[v]):
                raise InvalidTreeArrayError("popped an exhausted list")
            entry = lists[v][heads[v]]
            heads[v] += 1
            if entry is OMEGA:
                if added != m - 1:
                    raise InvalidTreeArrayError(
                        f"output has {added} line edges, expected {m - 1}")
                if any(count):
                    # all m edges were taken, each at count 0, and counts
                    # only fall, so none is above 0; one falls below 0 only
                    # if a list's iteration hid an entry that indexing popped
                    raise InvalidTreeArrayError("output tree indegrees disagree with list counts")
                return f, tuple(succ)
            # Step 3: record the line edge (f, entry).
            succ[f] = entry
            added += 1
            count[entry] -= 1
            if count[entry] or not passed[entry]:
                break
            f = entry
    # Non-emptiness of the candidate set is the well-definedness guarantee
    # for valid arrays: they reach OMEGA before the scan ends.
    raise InvalidTreeArrayError("candidate set empty: tree-array invariant violated")


def _pi(n: int, target: Sequence[int], root: int, succ: Sequence[int | None],
        order: Iterable[int], indeg: list[int] | None = None) -> TreeArray:
    # pi's body, on n vertices and the edge heads target, for trees known
    # to be valid.  Its output is a valid tree array by the bijection, so it
    # is not re-validated; pi(sigma(A)) == A in the tests and verify-all.
    # The smallest leaf is found by the same scan as in _sigma.  indeg, the
    # indegrees of succ, is used up if given.
    m = len(target)
    if indeg is None:
        indeg = [0] * m
        for f in succ:
            if f is not None:
                indeg[f] += 1
    lists: list[list[ArrayEntry]] = [[] for _ in range(n)]
    passed = bytearray(m)
    peeled = 0
    for e in order:
        passed[e] = 1
        if indeg[e] or e == root:
            continue
        while True:
            f = succ[e]
            lists[target[e]].append(f)
            peeled += 1
            indeg[f] -= 1
            if indeg[f] or f == root or not passed[f]:
                break
            e = f
    if peeled != m - 1:
        raise InvalidTreeError("no removable leaf: not a spanning tree of the line graph")
    # Only the root is left; close its target's list with OMEGA.
    lists[target[root]].append(OMEGA)
    return TreeArray(target[root], tuple(map(tuple, lists)))


def tree_array_count(g: DiGraph) -> int:
    """kappa(G) * prod_v outdeg(v)^(indeg(v)-1), via determinants."""
    if any(d == 0 for d in g.indeg):
        raise InvalidTreeArrayError("tree arrays need every indegree to be positive")
    return count_trees(g) * degree_product(g)


def enumerate_tree_arrays(g: DiGraph) -> Iterator[TreeArray]:
    """Yield every tree array exactly once, deterministically, or raise
    EnumerationBound if there are more than DEFAULT_BOUND of them.

    Outer order: spanning trees in enumerate_trees order; inner order:
    proto lists in lexicographic slot order, vertex by vertex.
    """
    expected = tree_array_count(g)
    if expected > DEFAULT_BOUND:
        raise EnumerationBound(f"{count_text(expected)} tree arrays "
                               f"exceed bound {count_text(DEFAULT_BOUND)}")
    # all length-(indeg(v)-1) sequences of v's out-edges, lexicographically
    protos = [list(product(out, repeat=d - 1)) for out, d in zip(g._out, g.indeg)]
    if any(not p for p in protos):
        # some vertex has surplus indegree but no out-edges: the proto-list
        # product is empty, matching the zero factor in the array count
        return
    for tree in enumerate_trees(g):
        # each list ends in the tree's out-edge, OMEGA at the root; a valid
        # tree and lists of out-edges always give a valid array, so nothing
        # is checked here
        last = [(OMEGA,) if v == tree.root else (f,) for v, f in enumerate(tree.out_edge)]
        for proto in product(*protos):
            yield TreeArray(tree.root, tuple(map(add, proto, last)))
