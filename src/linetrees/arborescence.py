"""Oriented spanning trees: brute-force enumeration, determinant counts,
and the spanning-tree generating functions.

An oriented spanning tree (arborescence) rooted at r gives every non-root
vertex exactly one out-edge and a unique directed path to r.  Two
independent counting routes are kept side by side: :func:`enumerate_trees`
is the brute-force oracle, :func:`rooted_tree_counts` takes the matrix-tree
determinants, and the test suite insists they agree.  The count over all
roots, :func:`count_trees`, takes one determinant rather than one per
root: the rows of L = D - A sum to 0, so adj(L) = 1 kappa^T, kappa_r the
(weighted) count rooted at r, and by the matrix determinant lemma
det(L + 1 e_0^T) = det(L) + e_0^T adj(L) 1 = sum_r kappa_r.  On a balanced
graph the columns sum to 0 too, every kappa_r is kappa_0, and it takes
n kappa_0 instead.  The brute-force route
is one search, shared by :func:`enumerate_trees` and the generating
functions (kappa_vertex merges trees instead on graphs with many of
them).  The determinant route is one Laplacian, :func:`out_laplacian`,
and one sparse exact elimination, :func:`determinant`, whose body and
row format are :mod:`linetrees.elimination`'s.

The generating functions attach one variable per edge or per vertex:

    kappa_edge(G)   = sum over trees T of prod_{e in T} x_e
    kappa_vertex(G) = sum over trees T of prod_{e in T} x_{t(e)}

summed over all roots, each a dict from monomial (the sorted tuple of the
tree edges' variable ids) to the positive number of trees giving it, in
the order of each monomial's first tree.  With every variable set to 1 both
collapse to the tree count kappa(G), the sum of the coefficients.  The
headline identity relating a graph to its line graph LG (all indegrees
positive) is

    kappa_vertex(LG) = kappa_edge(G) * prod_v (sum_{s(e)=v} x_e)^(indeg(v)-1)

where vertex e of LG is edge e of G;
:func:`verify_identity` checks it as exact multiset equality of monomials,
and :func:`knuth_check` checks the numeric specialization

    kappa(LG) = kappa(G) * prod_v outdeg(v)^(indeg(v)-1).

Both run the one search with one leaf, which counts the sorted tuple of
the tree's edge variables: the edge ids (one slice) for kappa_edge, the
edge heads for kappa_vertex.  A tree is its edge set, so every
coefficient of kappa_edge is 1.  kappa_vertex merges many trees into each
monomial, and on graphs with many candidate assignments per possible
monomial it hands over to one pass per root that counts partial trees
sharing a frontier state together (:func:`_frontier_counts`).  That pass
merges entries by an int key, so it packs a tree's monomial into one: the
sum over its edges of 1 << (w * t(e)), with w the bit length of n - 1.  A
tree has n - 1 edges, so each w-bit field counts one vertex variable and
never carries into the next.  Each distinct key is unpacked to its sorted
tuple once at the end.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import asdict, dataclass
from functools import reduce
from itertools import repeat
from math import comb, prod
from operator import index
import random

from .digraph import DiGraph, _reach, _vertex, is_eulerian, line_graph
from .elimination import (_bareiss, _checked_rows, _determinant, _determinant_mod, _is_prime,
                          _minor_in_place)
from .errors import EnumerationBound, InvalidTreeError, count_text, integer, integers

DEFAULT_BOUND = 10 ** 6


@dataclass(frozen=True)
class SpanningTree:
    """Arborescence toward `root`: out_edge[v] is v's edge, None at the root."""
    __slots__ = ("root", "out_edge")  # no per-instance dict, so quicker to build
    root: int
    out_edge: tuple[int | None, ...]

    def __reduce__(self):  # pickle and copy by the constructor: the fields refuse setattr
        return type(self), (self.root, self.out_edge)


def validate_tree(g: DiGraph, t: SpanningTree) -> None:
    """Raise InvalidTreeError unless t is an arborescence of g; O(n + m)."""
    succ = _tree_heads(t, g.n, [s for s, _ in g.edges], [h for _, h in g.edges])[0]
    _check_reaches_root(t.root, succ)


def _check_shape(root: int, out_edge: Sequence, n: int) -> None:
    # validate_tree's first two checks, shared with LineContext.line_tree
    try:
        shape = len(out_edge) == n and isinstance(root, int) and 0 <= root < n
    except TypeError:   # out_edge has no length
        shape = False
    if not shape:
        raise InvalidTreeError("tree shape does not match the graph")
    if out_edge[root] is not None:
        raise InvalidTreeError("root must not have an out-edge")


def _tree_heads(t: SpanningTree, n: int, source: Sequence[int],
                head: Sequence[int]) -> tuple[list[int | None], list[int]]:
    """validate_tree's checks but the walk, on n vertices whose edge j runs
    from source[j] to head[j]: the head of each vertex's tree edge, None at
    the root, and the indegrees of that successor list.  Shared with
    LineContext.pi/.successors, which pass the flat line-edge tables."""
    root, out_edge = t.root, t.out_edge
    _check_shape(root, out_edge, n)
    m = len(source)
    succ: list[int | None] = [None] * n
    indeg = [0] * n
    for v, e in enumerate(out_edge):
        if v != root:
            if not (isinstance(e, int) and 0 <= e < m and source[e] == v):
                raise InvalidTreeError(f"vertex {v} needs exactly one out-edge with source {v}")
            succ[v] = w = head[e]
            indeg[w] += 1
    return succ, indeg


def _check_reaches_root(root: int, succ: Sequence[int | None]) -> None:
    """Raise InvalidTreeError unless every chain v, succ[v], ... reaches root.

    succ[v] is the head of v's tree edge (any value at the root).  Each
    vertex is walked once: state 0 unvisited, 1 on the current chain, 2
    known to reach the root.  The first chain that fails starts at the same
    vertex, and repeats first at the same vertex, as a fresh walk from every
    start would.  Shared by validate_tree, validate_tree_array and
    LineContext.pi, which walks only once its peel has stalled.
    """
    state = bytearray(len(succ))
    state[root] = 2
    for v in range(len(succ)):
        if state[v]:
            continue
        chain = []
        w = v
        while not state[w]:
            state[w] = 1
            chain.append(w)
            w = succ[w]
        if state[w] == 1:
            raise InvalidTreeError(f"cycle through vertex {w}")
        for u in chain:
            state[u] = 2


def _candidate_count(outdeg: Sequence[int], roots: Sequence[int]) -> int:
    """sum over r in roots of prod_{v != r} outdeg[v], exactly, in O(n) steps.

    Over the vertices seen so far, `prod` is the product of their
    out-degrees and `total` the sum above; a new vertex v multiplies both
    by outdeg[v], and if v is a root, adds the product without v to total.
    """
    is_root = bytearray(len(outdeg))
    for r in roots:
        is_root[r] = 1
    prod, total = 1, 0
    for d, k in zip(outdeg, is_root):
        prod, total = prod * d, total * d + k * prod
    return total


def _bounded_candidates(outdeg: Sequence[int], roots: Sequence[int], bound: int) -> int:
    """_candidate_count, raising EnumerationBound past the bound (ValueError if not an int)."""
    bound = integer(bound, "bound must be an integer")
    candidates = _candidate_count(outdeg, roots)
    if candidates > bound:
        raise EnumerationBound(f"{count_text(candidates)} candidate assignments "
                               f"exceed bound {count_text(bound)}")
    return candidates


def _search_trees(g: DiGraph, roots: Sequence[int],
                  leaf: Callable[[int, list], None], bound: int) -> None:
    """The one brute-force arborescence search.

    For each root in turn, calls leaf(root, choice) once per oriented
    spanning tree, in lexicographic order of the out-edge choice vector:
    choice[v] is v's tree edge (None at the root).  The choice list is
    reused, so leaf copies what it keeps.  The bound caps the number of
    candidate out-edge assignments (the product of the non-root
    out-degrees, summed over the roots), not the number of trees.
    """
    n = g.n
    _bounded_candidates(g.outdeg, roots, bound)
    target = [t for _, t in g.edges]
    out = g._out
    for r in roots:
        vertices = [v for v in range(n) if v != r]
        last = len(vertices) - 1
        choice: list[int | None] = [None] * n
        if last < 0:
            leaf(r, choice)
            continue
        # depth-first over the vertices in order, with an explicit stack
        # (no recursion limit): level i holds the iterator over the
        # out-edges of vertices[i]
        stack = [iter(out[vertices[0]])]
        while stack:
            i = len(stack) - 1
            v = vertices[i]
            for e in stack[i]:
                # follow chosen edges from the new edge's target; reaching v
                # again closes a cycle, anything unassigned (or the root) is fine
                w = target[e]
                while w != v and choice[w] is not None:
                    w = target[choice[w]]
                if w != v:
                    choice[v] = e
                    if i == last:  # call leaf from here: one step per tree, not two
                        leaf(r, choice)
                    else:
                        stack.append(iter(out[vertices[i + 1]]))
                        break
            else:
                choice[v] = None
                stack.pop()


def enumerate_trees(g: DiGraph, root: int | None = None,
                    bound: int = DEFAULT_BOUND) -> list[SpanningTree]:
    """All oriented spanning trees, by brute force.

    Trees are listed by root, then lexicographically by the out-edge choice
    vector.  The bound caps the number of candidate out-edge assignments
    (the product of out-degrees), not the number of trees.  A root that is
    not an integer or not a vertex of g raises GraphError.
    """
    trees: list[SpanningTree] = []
    _search_trees(g, range(g.n) if root is None else [_vertex(g.n, root, "root")],
                  lambda r, choice: trees.append(SpanningTree(r, tuple(choice))), bound)
    return trees


# --- exact determinants ------------------------------------------------------

def bareiss_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Fraction-free Gaussian elimination, exact, of n sequences of n
    integers each (not changed); anything else raises ValueError."""
    try:    # a list row skips the slower ABC check
        m = [list(map(index, row)) for row in matrix
             if type(row) is list or isinstance(row, Sequence)]
        n = len(m)
        square = n == len(matrix) and all(len(row) == n for row in m)
    except TypeError:
        square = False
    if not square:
        raise ValueError("Bareiss takes a square matrix: n sequences of n integers")
    return _bareiss(m)


def determinant(rows: Sequence[Mapping[int, int]]) -> int:
    """Exact determinant of a square matrix held as sparse rows.

    Row i is rows[i] as {col: value}, each value an integer; the columns
    are the distinct keys in increasing order (a key that holds 0 still
    names one), and there may be no more of them than rows (fewer means a
    zero column, so the determinant is 0).  The input is not changed, and
    rows of any other kind raise ValueError.  Each entry is checked once,
    in the copy that the body, elimination._determinant, takes.
    """
    return _determinant(_checked_rows(rows, "determinant rows must map keys that sort to integers"))


def out_laplacian(g: DiGraph, weights: Sequence[int] | None = None) -> list[dict[int, int]]:
    """D - A as sparse rows, the package's one Laplacian.

    Row v is {col: value} over its nonzero entries: entry (v, v) is the
    total weight of v's out-edges and entry (s, t) is minus the weight of
    the edges s -> t, so a self-loop cancels.  Unit weights (the default)
    count trees; others must be g.m integers, else ValueError.
    """
    weights = (repeat(1) if weights is None else
               integers(weights, f"weights must be {g.m} integers, one per edge", count=g.m))
    lap: list[dict[int, int]] = [{} for _ in range(g.n)]
    vs = list(range(g.n))   # one int per vertex, so that dict lookups match keys by identity
    for (s, t), w in zip(g.edges, weights):
        s, t = vs[s], vs[t]
        row = lap[s]
        row[s] = row.get(s, 0) + w
        row[t] = row.get(t, 0) - w
    for row in lap:
        if 0 in row.values():      # a self-loop cancelled, or weights summed to 0
            for c in [c for c, v in row.items() if not v]:
                del row[c]
    return lap


def rooted_tree_counts(g: DiGraph) -> list[int]:
    """Trees rooted at each vertex, by the matrix-tree theorem: one reduced
    Laplacian per root, or one in all on a balanced graph (indeg = outdeg)."""
    if is_eulerian(g):
        return [_determinant(_minor_in_place(out_laplacian(g), 0))] * g.n
    return [_determinant(_minor_in_place(out_laplacian(g), r)) for r in range(g.n)]


def count_trees(g: DiGraph) -> int:
    """kappa(G), trees summed over all roots: n kappa_0 on a balanced graph,
    else det(L + 1 e_0^T)."""
    if is_eulerian(g):
        return g.n * _determinant(_minor_in_place(out_laplacian(g), 0))
    return _determinant(_plus_ones(out_laplacian(g)))


def _plus_ones(lap: list[dict[int, int]]) -> list[dict[int, int]]:
    """The rows of L + 1 e_0^T from those of L, in place."""
    for row in lap:
        if x := row.get(0, 0) + 1:
            row[0] = x
        else:
            del row[0]
    return lap


def degree_product(g: DiGraph) -> int:
    """prod_v outdeg(v)^(indeg(v)-1): tree arrays per spanning tree of g."""
    if 0 in g.indeg:
        raise InvalidTreeError("degree product requires every indegree to be positive")
    return prod(d ** (i - 1) for d, i in zip(g.outdeg, g.indeg))


# --- generating functions ----------------------------------------------------

Poly = dict[tuple[int, ...], int]  # sorted tuple of variable ids -> coefficient


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for mon_a, ca in a.items():
        for mon_b, cb in b.items():
            mon = tuple(sorted(mon_a + mon_b))
            out[mon] = out.get(mon, 0) + ca * cb
    return out


def kappa_edge(g: DiGraph, bound: int = DEFAULT_BOUND) -> Poly:
    return _monomials_by_search(g, None, bound)


def kappa_vertex(g: DiGraph, bound: int = DEFAULT_BOUND) -> Poly:
    """kappa_vertex(G): each monomial is the sorted heads of a tree's edges.

    The monomials come in the order of their first trees: by root, then by
    the lexicographic out-edge choice vector, as enumerate_trees lists
    them.  The bound caps the candidate assignments, as there, and is
    checked before any work.  There are C(2n - 2, n - 1) possible
    monomials (degree n - 1 in n variables).  With more than 16 candidates
    per possible monomial, trees share monomials often enough that
    _frontier_counts pays: it counts partial trees that share a frontier
    state and a packed key (see the module docstring) together.  Below
    that the search counts each tree's monomial at its leaf, as merging
    costs more than it saves on small graphs.  Either way the entries held
    at once never exceed the candidates: each counted monomial, and each
    (state, key) entry of a merged layer, stands for at least one
    assignment of out-edges to the vertices so far, no two entries share
    one, and the assignments of a prefix are at most those of all
    vertices, as a root with trees leaves no other vertex without an
    out-edge.
    """
    n = g.n
    if _bounded_candidates(g.outdeg, range(n), bound) > 16 * comb(2 * n - 2, n - 1):
        width = (n - 1).bit_length()
        return _unpack(_frontier_counts(g, [1 << (width * t) for _, t in g.edges]), width)
    return _monomials_by_search(g, [t for _, t in g.edges], bound)


def _monomials_by_search(g: DiGraph, variables: Sequence[int] | None, bound: int) -> Poly:
    """{sorted tuple of variables[e] over a tree's edges e: number of trees}
    over all roots, in the order of each monomial's first tree.  None takes
    the edge ids by one slice, each tree's own monomial: mapping and
    counting them made kappa_edge ~1.5x slower."""
    counts: Poly = {}
    get = counts.get

    def leaf(root: int, choice: list) -> None:
        if variables is None:   # a tree is its edge set: coefficient 1
            counts[tuple(sorted(choice[:root] + choice[root + 1:]))] = 1
        else:
            mon = tuple(sorted([variables[e] for e in choice if e is not None]))
            counts[mon] = get(mon, 0) + 1

    _search_trees(g, range(g.n), leaf, bound)
    return counts


def _unpack(counts: dict[int, int], width: int) -> Poly:
    """The polynomial of packed keys, each unpacked once, lowest field first,
    into the sorted tuple of its variables; dicts keep insertion order, so
    the result keeps the order of `counts`."""
    mask = (1 << width) - 1
    poly: Poly = {}
    for key, count in counts.items():
        mon: list[int] = []
        x = 0
        while key:
            mon += [x] * (key & mask)
            key >>= width
            x += 1
        poly[tuple(mon)] = count
    return poly


def _tree_roots(g: DiGraph) -> list[int]:
    """The vertices that every vertex reaches, in increasing order: the
    roots with at least one tree.  O(n + m).

    Traversing the reversed graph from each vertex not yet reached, in
    index order, marks from a start c the unmarked vertices that reach c.
    The marked set is closed under "reaches", so anything the last start c
    reaches was marked from c and reaches c: c lies in a sink component.
    If every vertex reaches c, the roots are the vertices c reaches;
    otherwise no vertex is reached by all.
    """
    n = g.n
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for s, t in g.edges:
        succ[s].append(t)
        pred[t].append(s)
    seen = bytearray(n)
    for v in range(n):
        if not seen[v]:
            c = v
            _reach(pred, v, seen)
    if 0 in _reach(pred, c, bytearray(n)):
        return []
    reached = _reach(succ, c, bytearray(n))
    return [r for r in range(n) if reached[r]]


def _frontier_counts(g: DiGraph, weights: Sequence[int]) -> dict[int, int]:
    """{key: number of trees} over all roots, key the sum of weights[e] over
    a tree's edges, in the order of each key's first tree, as the search
    would count them; by merging partial trees that share a frontier state
    (Sekine, Imai and Tani 1995), instead of visiting every tree.

    For each root r with trees, the vertices get their out-edges in index
    order (r gets none).  After vertex v, a partial tree's state gives, for
    each vertex u <= v that an out-edge of a later vertex still reads, the
    end of u's chain: a vertex > v not yet assigned, or -1 for the root.  An
    edge of v whose target's chain ends at v closes a cycle; any other edge
    is safe, and the chains that ended at v now end where the edge leads.
    So two partial trees in one state extend alike, and one layer maps
    (state code << shift) + key to the number of partial trees there, with
    shift past any key, and each (state, edge) moves an entry by one
    constant delta.  The layer is walked in its insertion order and v's
    edges in out-edge order.  By induction that walk meets the partial
    trees' choice vectors in lexicographic order, so each entry is inserted
    first by its least partial tree and the entries stay in that order; the
    last layer, with one empty state, is in first-tree order.
    """
    n = g.n
    target = [t for _, t in g.edges]
    shift = (n * max(weights, default=0)).bit_length()
    counts: dict[int, int] = {}
    get = counts.get
    for r in _tree_roots(g):
        last = [-1] * n     # the last vertex whose out-edge reads each vertex
        for s, t in g.edges:
            if s != r and s > last[t]:
                last[t] = s
        frontier: list[int] = []
        states: list[tuple[int, ...]] = [()]
        layer = {0: 1}
        for v in range(n):
            # v's choices as (weight, the target's index in the state or
            # None, the target); then the state entries that stay, v's last
            where = {u: i for i, u in enumerate(frontier)}
            reads = ([(0, None, -1)] if v == r else
                     [(weights[e], where.get(target[e]), target[e]) for e in g._out[v]])
            frontier.append(v)
            kept = [i for i, u in enumerate(frontier) if last[u] > v]
            codes: dict[tuple[int, ...], int] = {}
            moves = []
            for code, state in enumerate(states):
                deltas = []
                for w, i, end in reads:
                    if i is not None:
                        end = state[i]
                    if end == v:
                        continue    # the edge closes a cycle through v
                    ends = [end if x == v else x for x in state]
                    ends.append(end)
                    ends = tuple([ends[j] for j in kept])
                    deltas.append(w + ((codes.setdefault(ends, len(codes)) - code) << shift))
                moves.append(deltas)
            nxt: dict[int, int] = {}
            nget = nxt.get
            for key, count in layer.items():
                for d in moves[key >> shift]:
                    d += key
                    nxt[d] = nget(d, 0) + count
            layer, states = nxt, list(codes)
            frontier = [frontier[i] for i in kept]
        for key, count in layer.items():
            counts[key] = get(key, 0) + count
    return counts


def rhs_product(g: DiGraph, bound: int = DEFAULT_BOUND) -> Poly:
    """kappa_edge(G) times prod_v (sum of v's out-edge variables)^(indeg(v)-1)."""
    if any(d == 0 for d in g.indeg):
        raise InvalidTreeError("identity requires every indegree to be positive")
    poly = kappa_edge(g, bound=bound)
    for v in range(g.n):
        if g.indeg[v] > 1:
            linear = {(e,): 1 for e in g._out[v]}
            poly = _poly_mul(poly, reduce(_poly_mul, [linear] * (g.indeg[v] - 1), {(): 1}))
    return poly


@dataclass
class IdentityReport:
    holds: bool
    lhs_terms: int | None
    rhs_terms: int | None
    witness: dict | None
    method: str

    def to_json_dict(self) -> dict:
        return asdict(self)


def verify_identity(g: DiGraph, method: str = "expand",
                    bound: int = DEFAULT_BOUND, seed: int = 0) -> IdentityReport:
    """Check the line-graph generating-function identity on g.

    method="expand" compares exact monomial multisets.  method="evaluate"
    is the probabilistic fallback for graphs past the expansion bound: it
    draws a prime p in [2^30, 2^31) from the seed and compares both sides
    mod p at 4 points drawn uniform in [0, p)^m, with no enumeration.  Both
    sides have degree m - 1, so if p does not divide every coefficient of
    their difference, a wrong identity holds at all 4 points with
    probability at most ((m - 1)/p)^4 (Schwartz-Zippel).  p is uniform over
    the ~5*10^7 primes in range, and a difference with coefficients below
    2^B has at most B/30 of them dividing all its coefficients.  A failure's
    witness gives the point, the prime and both sides' residues.  Either
    method refuses a bound that is not an integer.
    """
    if any(d == 0 for d in g.indeg):
        raise InvalidTreeError("identity requires every indegree to be positive")
    bound = integer(bound, "bound must be an integer")
    lg = line_graph(g)
    if method == "expand":
        # vertex e of lg is edge e of g: its vertex monomials are edge monomials
        lhs = kappa_vertex(lg, bound=bound)
        rhs = rhs_product(g, bound=bound)
        if lhs == rhs:
            return IdentityReport(True, len(lhs), len(rhs), None, method)
        # the least monomial whose coefficients differ
        mon = min(mon for mon in lhs.keys() | rhs.keys() if lhs.get(mon, 0) != rhs.get(mon, 0))
        witness = {"monomial": list(mon), "lhs": lhs.get(mon, 0), "rhs": rhs.get(mon, 0)}
        return IdentityReport(False, len(lhs), len(rhs), witness, method)
    if method == "evaluate":
        rng = random.Random(seed)
        while not _is_prime(p := rng.randrange(1 << 30, 1 << 31)):
            pass
        for _ in range(4):
            x = [rng.randrange(p) for _ in range(g.m)]
            lhs, rhs = _sides_mod(g, lg, x, p)
            if lhs != rhs:
                witness = {"point": x, "prime": p, "lhs": lhs, "rhs": rhs}
                return IdentityReport(False, None, None, witness, method)
        return IdentityReport(True, None, None, None, method)
    raise ValueError(f"unknown method {method!r}")


def _sides_mod(g: DiGraph, lg: DiGraph, x: list[int], p: int) -> tuple[int, int]:
    """Both sides of the identity mod p at the point x, x[e] the variable of
    edge e of g and of vertex e of lg: det(L + 1 e_0^T) of lg with its edge
    (e, f) weighted x[f], and that of g times prod_v (sum_{s(e)=v} x_e)^(indeg(v)-1)."""
    rhs = _determinant_mod(_plus_ones(out_laplacian(g, x)), p)
    for v in range(g.n):
        rhs = rhs * pow(sum(x[e] for e in g._out[v]), g.indeg[v] - 1, p) % p
    return _determinant_mod(_plus_ones(out_laplacian(lg, [x[f] for _, f in lg.edges])), p), rhs


@dataclass
class KnuthReport:
    holds: bool
    kappa_line: int
    kappa_base: int
    degree_product: int

    def to_json_dict(self) -> dict:
        return {"holds": self.holds, "kappa_line": str(self.kappa_line),
                "kappa_base": str(self.kappa_base),
                "degree_product": str(self.degree_product)}


def knuth_check(g: DiGraph) -> KnuthReport:
    """kappa(LG) = kappa(G) * prod_v outdeg(v)^(indeg(v)-1), both sides by determinant."""
    if any(d == 0 for d in g.indeg):
        raise InvalidTreeError("Knuth's formula requires every indegree to be positive")
    lhs = count_trees(line_graph(g))
    base = count_trees(g)
    prod = degree_product(g)
    return KnuthReport(lhs == base * prod, lhs, base, prod)
