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
directions.  LG is always built by ``line_graph``, so vertex e of LG is
edge e of G and no index map is needed.

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

The public entry points (``LineContext.sigma``/``pi`` and
``make_tree_array``) validate their input once, in time linear in the size
of the graph, and then run a private body that trusts it; internal callers
(``enumerate_tree_arrays``, the de Bruijn codec) call the bodies directly.
The invariants that make the loop in sigma well-defined (the candidate set
and the popped list are never empty) are checked and raise typed errors,
and every sigma run checks that indeg of e in the output tree equals the
initial count of e in l_{s(e)} - the per-monomial statement behind the
generating-function identity.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .arborescence import (SpanningTree, count_trees, degree_product, enumerate_trees,
                           validate_tree, DEFAULT_BOUND)
from .digraph import DiGraph, line_graph
from .errors import EnumerationBound, InvalidTreeArrayError, InvalidTreeError


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


@dataclass(frozen=True)
class TreeArray:
    """Per-vertex entry lists; `root` is the vertex whose list ends in OMEGA."""
    root: int
    lists: tuple[tuple[ArrayEntry, ...], ...]


def validate_tree_array(g: DiGraph, a: TreeArray) -> None:
    """Raise InvalidTreeArrayError unless a is a tree array of g; O(n + m)."""
    n, m, indeg, source = g.n, g.m, g.indeg, g.source
    if len(a.lists) != n or not (0 <= a.root < n):
        raise InvalidTreeArrayError("array shape does not match the graph")
    omegas = 0
    for v, entries in enumerate(a.lists):
        if len(entries) != indeg[v]:
            raise InvalidTreeArrayError(
                f"list of vertex {v} has length {len(entries)}, expected indeg {indeg[v]}")
        for pos, entry in enumerate(entries):
            if entry is OMEGA:
                omegas += 1
                if v != a.root or pos != len(entries) - 1:
                    raise InvalidTreeArrayError("OMEGA must be the last entry of the root's list")
            elif isinstance(entry, int) and 0 <= entry < m:
                if source(entry) != v:
                    raise InvalidTreeArrayError(
                        f"entry {entry} in list of vertex {v} has source {source(entry)}")
            else:
                raise InvalidTreeArrayError(f"entry {entry!r} is not an edge id")
    if omegas != 1:
        raise InvalidTreeArrayError(f"expected exactly one OMEGA, found {omegas}")
    for v, entries in enumerate(a.lists):
        if not entries:  # not the root's: it holds the one OMEGA
            raise InvalidTreeArrayError(
                f"list of vertex {v} is empty: tree arrays need every indegree to be positive")
    try:
        validate_tree(g, array_tree(g, a))
    except InvalidTreeError as exc:
        raise InvalidTreeArrayError(f"last entries do not form a spanning tree: {exc}") from None


def make_tree_array(g: DiGraph, tree: SpanningTree,
                    proto: Sequence[Sequence[int]]) -> TreeArray:
    """Append the tree's out-edge (OMEGA at the root) to each proto list."""
    validate_tree(g, tree)
    if len(proto) != g.n:
        raise InvalidTreeArrayError("need one proto list per vertex")
    m, source = g.m, g.source
    lists = []
    for v in range(g.n):
        entries = list(proto[v])
        if len(entries) != g.indeg[v] - 1:
            raise InvalidTreeArrayError(
                f"proto list of vertex {v} must have indeg-1 = {g.indeg[v] - 1} entries")
        if any(not (isinstance(e, int) and 0 <= e < m and source(e) == v)
               for e in entries):
            raise InvalidTreeArrayError(f"proto list of vertex {v} contains a non-out-edge")
        lists.append(entries)
    return _tree_array(tree, lists)


def _tree_array(tree: SpanningTree, proto: Sequence[Sequence[int]]) -> TreeArray:
    # make_tree_array's body: a valid tree plus valid proto lists always
    # give a valid tree array, so nothing is checked here.
    root, out_edge = tree.root, tree.out_edge
    return TreeArray(root, tuple((*entries, OMEGA if v == root else out_edge[v])
                                 for v, entries in enumerate(proto)))


def array_tree(g: DiGraph, a: TreeArray) -> SpanningTree:
    """The spanning tree formed by the last entries of the non-root lists."""
    out: list[int | None] = [None] * g.n
    for v, entries in enumerate(a.lists):
        if v != a.root:
            out[v] = entries[-1]
    return SpanningTree(a.root, tuple(out))


def _edge_ranks(g: DiGraph, order: Sequence[int] | None) -> list[int]:
    m = g.m
    if order is None:
        return list(range(m))
    if len(order) != m:
        raise ValueError("edge order must be a permutation of all edge ids")
    # m distinct ids in range(m) are a permutation of it
    ranks: list[int | None] = [None] * m
    for rank, e in enumerate(order):
        if not (isinstance(e, int) and 0 <= e < m) or ranks[e] is not None:
            raise ValueError("edge order must be a permutation of all edge ids")
        ranks[e] = rank
    return ranks


def shuffled_order(g: DiGraph, seed: int) -> list[int]:
    order = list(range(g.m))
    random.Random(seed).shuffle(order)
    return order


class LineContext:
    """A graph together with its line graph, built by :func:`line_graph`.

    Vertex i of the line graph is edge i of g, and ``pair_edge`` maps each
    pair (e, f) of consecutive edges of g to its line edge.
    """

    def __init__(self, g: DiGraph):
        self.g = g
        self.line = line_graph(g)
        self.pair_edge = {pair: j for j, pair in enumerate(self.line.edges)}

    # -- forward map ----------------------------------------------------

    def sigma(self, a: TreeArray, order: Sequence[int] | None = None) -> SpanningTree:
        """Map a tree array of g to a spanning tree of the line graph."""
        validate_tree_array(self.g, a)
        return self._sigma(a, order)

    def _sigma(self, a: TreeArray, order: Sequence[int] | None = None) -> SpanningTree:
        # sigma's body, for arrays already known to be valid.  Its guards
        # hold for every valid array and are checked anyway, as the safety
        # net of callers that skip validation.
        g = self.g
        m = g.m
        rank = _edge_ranks(g, order)
        target, lists, pair_edge = g.target, a.lists, self.pair_edge
        count = [0] * m                # remaining copies of e in l_{s(e)}
        for entries in lists:
            for entry in entries:
                if entry is not OMEGA:
                    count[entry] += 1
        initial_count = list(count)
        heads = [0] * g.n              # next unpopped position per list
        out_edge: list[int | None] = [None] * m
        ready = [(rank[e], e) for e in range(m) if count[e] == 0]
        heapq.heapify(ready)
        added = 0
        while True:
            # Step 1: smallest edge with no remaining list copies and no
            # out-edge chosen yet.  Non-emptiness is the well-definedness
            # guarantee for valid arrays.
            if not ready:
                raise InvalidTreeArrayError("candidate set empty: tree-array invariant violated")
            _, f = heapq.heappop(ready)
            # Step 2: pop the head of l_{t(f)}.
            v = target(f)
            if heads[v] >= len(lists[v]):
                raise InvalidTreeArrayError("popped an exhausted list")
            entry = lists[v][heads[v]]
            heads[v] += 1
            if entry is OMEGA:
                if added != m - 1:
                    raise InvalidTreeArrayError(
                        f"output has {added} line edges, expected {m - 1}")
                tree = SpanningTree(f, tuple(out_edge))
                self._check_term_counts(tree, initial_count)
                return tree
            # Step 3: record the line edge (f, entry).
            out_edge[f] = pair_edge[(f, entry)]
            added += 1
            count[entry] -= 1
            if count[entry] == 0:
                heapq.heappush(ready, (rank[entry], entry))

    def _check_term_counts(self, tree: SpanningTree, initial_count: list[int]) -> None:
        # indeg of e in the output tree == initial copies of e in l_{s(e)}:
        # both sides contribute the same monomial to the identity.
        target = self.line.target
        indeg = [0] * self.g.m
        for j in tree.out_edge:
            if j is not None:
                indeg[target(j)] += 1
        if indeg != initial_count:
            raise InvalidTreeArrayError("output tree indegrees disagree with list counts")

    # -- inverse map ----------------------------------------------------

    def pi(self, tree: SpanningTree, order: Sequence[int] | None = None) -> TreeArray:
        """Map a spanning tree of the line graph back to a tree array of g."""
        validate_tree(self.line, tree)
        return self._pi(tree, order)

    def _pi(self, tree: SpanningTree, order: Sequence[int] | None = None) -> TreeArray:
        # pi's body, for trees already known to be valid.  Its output is a
        # valid tree array by the bijection, so it is not re-validated;
        # pi(sigma(A)) == A in the tests and verify-all covers that.
        g = self.g
        m = g.m
        rank = _edge_ranks(g, order)
        g_target, line_target, out_edge = g.target, self.line.target, tree.out_edge
        indeg = [0] * m
        for j in out_edge:
            if j is not None:
                indeg[line_target(j)] += 1
        lists: list[list[ArrayEntry]] = [[] for _ in range(g.n)]
        leaves = [(rank[e], e) for e in range(m) if indeg[e] == 0 and e != tree.root]
        heapq.heapify(leaves)
        for _ in range(m - 1):
            if not leaves:
                raise InvalidTreeError("no removable leaf: not a spanning tree of the line graph")
            _, f = heapq.heappop(leaves)
            succ = line_target(out_edge[f])
            lists[g_target(f)].append(succ)
            indeg[succ] -= 1
            if indeg[succ] == 0 and succ != tree.root:
                heapq.heappush(leaves, (rank[succ], succ))
        # Only the root is left; close its target's list with OMEGA.
        lists[g_target(tree.root)].append(OMEGA)
        return TreeArray(g_target(tree.root), tuple(tuple(entries) for entries in lists))


def tree_array_count(g: DiGraph) -> int:
    """kappa(G) * prod_v outdeg(v)^(indeg(v)-1), via determinants."""
    if any(d == 0 for d in g.indeg):
        raise InvalidTreeArrayError("tree arrays need every indegree to be positive")
    return count_trees(g) * degree_product(g)


def enumerate_tree_arrays(g: DiGraph, bound: int = DEFAULT_BOUND) -> Iterator[TreeArray]:
    """Yield every tree array exactly once, deterministically.

    Outer order: spanning trees in enumerate_trees order; inner order:
    proto lists in lexicographic slot order, vertex by vertex.
    """
    expected = tree_array_count(g)
    if expected > bound:
        raise EnumerationBound(f"{expected} tree arrays exceed bound {bound}")
    # all length-(indeg(v)-1) sequences of v's out-edges, lexicographically
    protos = [list(product(g.out_edges(v), repeat=g.indeg[v] - 1)) for v in range(g.n)]
    if any(not p for p in protos):
        # some vertex has surplus indegree but no out-edges: the proto-list
        # product is empty, matching the zero factor in the array count
        return
    for tree in enumerate_trees(g, bound=bound):
        for proto in product(*protos):
            yield _tree_array(tree, proto)
