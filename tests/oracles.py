"""Slow oracles for the library's fast paths.

The library holds matrices as sparse rows, one {col: value} dict per row.
These helpers build the same matrices as dense lists and count rooted
trees by one dense Bareiss minor per root, the route the library took
before its sparse determinant.  ``dense_diagonal`` is the dense
smallest-pivot Smith loop that once reduced whatever block the sparse
divisor pivots left; the library now runs the whole form as one sparse
loop.  ``bubble_chain`` and ``trial_division_factors`` are the two routes
from cyclic orders to invariant factors that the library once took: the
Smith form's gcd/lcm passes until the chain is stable (quadratic on
interleaved prime powers), and the groups' trial-division factoring
(exponential in an order's digits).  The library merges each order into
the chain once.  ``bucket_unit_pivots`` is the Smith form's unit phase
with its bucket queue written plainly, a dict of lists of ``(i, j)``
tuples; the library keeps one list per cost, of ints packed from (i, j),
that must pop in the same order.

``small_point_identity`` is the evaluate method of ``verify_identity`` as
it once ran: both sides over the integers at 4 points with weights drawn
from 1..9, each side a determinant of L + 1 e_0^T (``tree_sum_rows``).  A
point of {1..9}^m bounds nothing once m >= 10, and the tests show it
missing a wrong side that the library's draw mod a prime catches.

``heap_sigma`` and ``heap_pi`` run the tree-array maps as they read: each
step pops the smallest ready element from a heap keyed by edge rank, in
O(m log m).  The library's bodies find the same elements in one linear
scan of the edge order.

``two_pass_sigma`` and ``two_pass_pi`` are the public maps with their
input checked in two passes, as the library once did: sigma validates the
array entry by entry, then builds the tree of last entries
(``array_tree``) and validates it with ``validate_tree``; pi validates its
tree with ``validate_tree`` on the line graph before the order is checked.
The library reads each input once, and must give the same outputs and the
same errors.

``body_encode`` and ``body_decode`` are the de Bruijn codec with every
level on the maps' bodies, as the library once ran it: the top level peels
the path as a tree of the line graph (``path_tree``) with pi's body, and
reads the path back from sigma's image (``tree_path``).  The library runs
its top level as one walk over the path.  ``walk_top`` is decode's top
level as it once ran: it keeps the walk's 2^n edges and hands them to
``path_to_seq``, which checks every window.  The library writes the
sequence as it walks and checks only that no edge repeats.
"""

import heapq
import random
from itertools import chain
from math import gcd

from linetrees.arborescence import SpanningTree, bareiss_determinant, determinant, validate_tree
from linetrees.digraph import line_graph
from linetrees.db_codec import HamPath, _heads, path_to_seq, seq_to_path
from linetrees.errors import InvalidSequenceError, InvalidTreeArrayError, InvalidTreeError
from linetrees.line_bijection import OMEGA, TreeArray, _edge_order, _pi, _sigma


def dense(rows, cols):
    """Sparse rows over columns 0..cols-1 as dense lists."""
    return [[row.get(c, 0) for c in range(cols)] for row in rows]


def sparse(matrix):
    """Dense lists as sparse rows, zeros dropped."""
    return [{c: v for c, v in enumerate(row) if v} for row in matrix]


def dense_laplacian(g, weights=None):
    """D - A as n dense lists, built edge by edge."""
    lap = [[0] * g.n for _ in range(g.n)]
    for e, (s, t) in enumerate(g.edges):
        w = 1 if weights is None else weights[e]
        lap[s][s] += w
        lap[s][t] -= w
    return lap


def dense_minor(matrix, r):
    return [row[:r] + row[r + 1:] for i, row in enumerate(matrix) if i != r]


def count_trees_rooted(g, root, weights=None):
    """Weighted trees rooted at `root`: one dense Bareiss minor."""
    return abs(bareiss_determinant(dense_minor(dense_laplacian(g, weights), root)))


def tree_sum_rows(g, weights=None):
    """L + 1 e_0^T as sparse rows: by the matrix determinant lemma, its
    determinant is the weighted tree count summed over all roots."""
    return sparse([[x + (c == 0) for c, x in enumerate(row)]
                   for row in dense_laplacian(g, weights)])


def small_point_identity(g, seed, perturb=lambda x: 0):
    """Whether the identity holds at 4 points with weights drawn from 1..9
    by random.Random(seed), over the integers, with perturb(x) added to the
    left side at the point x."""
    lg = line_graph(g)
    rng = random.Random(seed)
    for _ in range(4):
        x = [rng.randint(1, 9) for _ in range(g.m)]
        lhs = determinant(tree_sum_rows(lg, [x[f] for _, f in lg.edges])) + perturb(x)
        rhs = determinant(tree_sum_rows(g, x))
        for v in range(g.n):
            rhs *= sum(x[e] for e, (s, _) in enumerate(g.edges) if s == v) ** (g.indeg[v] - 1)
        if lhs != rhs:
            return False
    return True


def dense_diagonal(d: list[list[int]]) -> list[int]:
    """|diagonal| after dense smallest-pivot elimination, reducing `d` in
    place; the divisibility chain is not yet enforced.

    Smallest-nonzero-entry pivoting with immediate remainder swaps keeps
    intermediate entries tame at the matrix sizes used here.
    """
    rows = len(d)
    cols = len(d[0]) if rows else 0

    def row_op(i, j, q):  # row_j -= q * row_i
        dj, di = d[j], d[i]
        for c in range(cols):
            dj[c] -= q * di[c]

    def col_op(i, j, q):  # col_j -= q * col_i
        for row in d:
            row[j] -= q * row[i]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]

    def col_swap(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]

    for t in range(min(rows, cols)):
        # locate the smallest nonzero entry of the trailing submatrix
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        while True:
            # clear column t below the pivot
            restart = False
            for i in range(t + 1, rows):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    row_op(t, i, q)
                    if d[i][t]:
                        row_swap(t, i)  # remainder is a smaller pivot
                        restart = True
                        break
            if restart:
                continue
            # clear row t to the right of the pivot
            for j in range(t + 1, cols):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    col_op(t, j, q)
                    if d[t][j]:
                        col_swap(t, j)
                        restart = True
                        break
            if restart:
                continue
            break
    # each pivot row ends as (0, ..., 0, pivot, 0, ...) and later steps
    # leave it alone, so only the pivot's sign is left to fix
    return [abs(d[i][i]) for i in range(min(rows, cols))]


def bubble_chain(diag: list[int]) -> list[int]:
    """The divisibility chain d1 | d2 | ... on a diagonal, in place, by
    adjacent (a, b) -> (gcd, lcm) passes until none changes.  Any zeros
    come last, where they stay."""
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if a != 0 and b % a != 0:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a // g * b
                changed = True
    return diag


def trial_division_factors(orders: list[int]) -> list[int]:
    """The invariant factors above 1, ascending, of the sum of cyclic groups
    of the given positive orders: each order factored by trial division,
    each prime's exponents sorted, and slot k the product of every prime's
    k-th largest power."""
    by_prime: dict[int, list[int]] = {}
    for n in orders:
        p = 2
        while n > 1:
            if p * p > n:
                p = n
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                by_prime.setdefault(p, []).append(e)
            p += 1
    slots: list[int] = []
    for p, exps in by_prime.items():
        exps.sort(reverse=True)
        slots += [1] * (len(exps) - len(slots))
        for k, e in enumerate(exps):
            slots[k] *= p ** e
    return slots[::-1]


def bucket_unit_pivots(sparse):
    """The unit phase with its bucket queue written plainly: the rows,
    columns and signed values of its pivots, in order, with what is left in
    `sparse` (reduced in place) for the divisor pivots.  Each round keeps a
    dict from Markowitz cost to a list of (i, j), each list sorted as the
    round starts; the least non-empty list gives up its first item, and a
    re-keyed unit or one made by fill-in goes back in first.  Keys compare
    as themselves, so they need only sort."""
    col_rows = {}
    for i, row in enumerate(sparse):
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    pivot_rows, pivot_cols, pivots = [], [], []
    while any(sparse):
        g = gcd(*chain.from_iterable(map(dict.values, sparse)))
        live, before = len(sparse) - sparse.count({}), len(pivots)
        buckets = {}
        for i, row in enumerate(sparse):
            for j, v in row.items():
                if v in (g, -g):
                    buckets.setdefault((len(row) - 1) * (len(col_rows[j]) - 1), []).append((i, j))
        for bucket in buckets.values():
            bucket.sort()
        while any(buckets.values()):
            cost = min(c for c, bucket in buckets.items() if bucket)
            i, j = buckets[cost].pop(0)
            prow = sparse[i]
            if (p := prow.get(j)) not in (g, -g):    # gone, or no longer +-g
                continue
            now = (len(prow) - 1) * (len(col_rows[j]) - 1)
            if now != cost:
                buckets.setdefault(now, []).insert(0, (i, j))
                continue
            pivot_rows.append(i)
            pivot_cols.append(j)
            pivots.append(p)
            sparse[i] = {}
            for c in prow:
                col_rows[c].discard(i)
            del prow[j]
            # the rows in the set's own order: it sets the order of fill-in units
            for r in col_rows.pop(j):
                row = sparse[r]
                q = row.pop(j) // p
                for c, a in prow.items():
                    x = row.get(c, 0) - q * a
                    if x:
                        row[c] = x
                        col_rows[c].add(r)
                        if x in (g, -g):
                            buckets.setdefault(0, []).insert(0, (r, c))
                    else:
                        del row[c]
                        col_rows[c].discard(r)
        if 4 * (len(pivots) - before) < live:
            break
    return pivot_rows, pivot_cols, pivots


def _ranks(order):
    rank = [0] * len(order)
    for r, e in enumerate(order):
        rank[e] = r
    return rank


def _indegrees(succ):
    indeg = [0] * len(succ)
    for f in succ:
        if f is not None:
            indeg[f] += 1
    return indeg


def _check_term_counts(succ, initial_count):
    # indeg of e in the output tree == initial copies of e in l_{s(e)}
    if _indegrees(succ) != initial_count:
        raise InvalidTreeArrayError("output tree indegrees disagree with list counts")


def heap_sigma(n, target, a, order):
    """sigma's body with a heap of (rank, edge) candidates."""
    m, lists, rank = len(target), a.lists, _ranks(order)
    count = [0] * m
    for entries in lists:
        for entry in entries:
            if entry is not OMEGA:
                count[entry] += 1
    initial_count = list(count)
    heads = [0] * n
    succ = [None] * m
    ready = [(rank[e], e) for e in range(m) if count[e] == 0]
    heapq.heapify(ready)
    added = 0
    while True:
        if not ready:
            raise InvalidTreeArrayError("candidate set empty: tree-array invariant violated")
        _, f = heapq.heappop(ready)
        v = target[f]
        if heads[v] >= len(lists[v]):
            raise InvalidTreeArrayError("popped an exhausted list")
        entry = lists[v][heads[v]]
        heads[v] += 1
        if entry is OMEGA:
            if added != m - 1:
                raise InvalidTreeArrayError(f"output has {added} line edges, expected {m - 1}")
            _check_term_counts(succ, initial_count)
            return f, tuple(succ)
        succ[f] = entry
        added += 1
        count[entry] -= 1
        if count[entry] == 0:
            heapq.heappush(ready, (rank[entry], entry))


def heap_pi(n, target, root, succ, order):
    """pi's body with a heap of (rank, edge) leaves."""
    m, rank = len(target), _ranks(order)
    indeg = _indegrees(succ)
    lists = [[] for _ in range(n)]
    leaves = [(rank[e], e) for e in range(m) if indeg[e] == 0 and e != root]
    heapq.heapify(leaves)
    for _ in range(m - 1):
        if not leaves:
            raise InvalidTreeError("no removable leaf: not a spanning tree of the line graph")
        _, e = heapq.heappop(leaves)
        f = succ[e]
        lists[target[e]].append(f)
        indeg[f] -= 1
        if indeg[f] == 0 and f != root:
            heapq.heappush(leaves, (rank[f], f))
    lists[target[root]].append(OMEGA)
    return TreeArray(target[root], tuple(tuple(entries) for entries in lists))


def array_tree(g, a):
    """The spanning tree formed by the last entries of the non-root lists."""
    out = [None] * g.n
    for v, entries in enumerate(a.lists):
        if v != a.root:
            out[v] = entries[-1]
    return SpanningTree(a.root, tuple(out))


def two_pass_validate_tree_array(g, a):
    """The tree-array check in two passes: the entries, then the tree of
    last entries through ``validate_tree``."""
    n, m, indeg, edges = g.n, g.m, g.indeg, g.edges
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
                if edges[entry][0] != v:
                    raise InvalidTreeArrayError(
                        f"entry {entry} in list of vertex {v} has source {edges[entry][0]}")
            else:
                raise InvalidTreeArrayError(f"entry {entry!r} is not an edge id")
    if omegas != 1:
        raise InvalidTreeArrayError(f"expected exactly one OMEGA, found {omegas}")
    for v, entries in enumerate(a.lists):
        if not entries:
            raise InvalidTreeArrayError(
                f"list of vertex {v} is empty: tree arrays need every indegree to be positive")
    try:
        validate_tree(g, array_tree(g, a))
    except InvalidTreeError as exc:
        raise InvalidTreeArrayError(f"last entries do not form a spanning tree: {exc}") from None


def two_pass_sigma(ctx, a, order=None):
    """Public sigma with the two-pass check, on the heap body."""
    g = ctx.g
    two_pass_validate_tree_array(g, a)
    return ctx.line_tree(*heap_sigma(g.n, ctx.target, a, _edge_order(g, order)))


def two_pass_pi(ctx, tree, order=None):
    """Public pi with the tree checked by ``validate_tree`` on the line
    graph first, on the heap body."""
    g = ctx.g
    validate_tree(ctx.line, tree)
    return heap_pi(g.n, ctx.target, tree.root, ctx.successors(tree), _edge_order(g, order))


def path_tree(path):
    """The path as a tree of DB_n(2) = L(DB_{n-1}(2)): root and successors."""
    succ = [None] * len(path.vertices)
    for a, b in zip(path.vertices, path.vertices[1:]):
        succ[a] = b
    return path.vertices[-1], tuple(succ)


def tree_path(succ, degree):
    """The path a successor list describes, from its one vertex of indegree 0."""
    starts = set(range(len(succ))).difference(succ)
    if len(starts) != 1:
        raise InvalidSequenceError("tree is not a path")
    vertices = [starts.pop()]
    while (v := succ[vertices[-1]]) is not None:
        vertices.append(v)
    return HamPath(degree, tuple(vertices))


def body_encode(bits, degree):
    """encode with pi's body at every level, the top one included."""
    path = seq_to_path(bits, degree)
    if degree < 2:
        raise InvalidSequenceError("encoding requires degree >= 2")
    out = ["?"] * 2 ** (degree - 1)
    k = degree - 1
    array = _pi(1 << k, _heads(k), *path_tree(path), range(2 << k))
    # top level: only the root's first entry is a free bit
    out[2 ** k - 1] = str(array.lists[array.root][0] & 1)
    for k in range(degree - 2, 0, -1):
        mask = (2 << k) - 1
        succ = [None if v == array.root else entries[-1] & mask
                for v, entries in enumerate(array.lists)]
        array = _pi(1 << k, _heads(k), array.root, succ, range(2 << k))
        for v, entries in enumerate(array.lists):
            out[2 ** k - 1 + v] = str(entries[0] & 1)
    out[0] = "0" if array.root == 0 else "1"
    return "".join(out)


def body_decode(code, degree):
    """decode with sigma's body at every level, the top one included."""
    if degree < 2:
        raise InvalidSequenceError("decoding requires degree >= 2")
    if len(code) != 2 ** (degree - 1) or code.strip("01"):
        raise InvalidSequenceError(
            f"code for degree {degree} must be a bit string of length {2 ** (degree - 1)}")
    root = 0 if code[0] == "0" else 1
    tree = [None, 2] if root == 0 else [1, None]
    for k in range(1, degree - 1):
        lists = tuple((2 * v + (code[2 ** k - 1 + v] == "1"), OMEGA if v == root else tree[v])
                      for v in range(2 ** k))
        root, succ = _sigma(1 << k, _heads(k), TreeArray(root, lists), range(2 << k))
        tree = [None if f is None else 2 * e + (f & 1) for e, f in enumerate(succ)]
    k = degree - 1
    _, succ = _sigma(1 << k, _heads(k), top_array(code, root, tree), range(2 << k))
    return path_to_seq(tree_path(succ, degree))


def top_array(code, root, tree):
    """A_{n-1} from the code's last bit and T_{n-1}: the root's list is
    [chosen edge, OMEGA], every other list [non-tree edge, tree edge]."""
    return TreeArray(root, tuple((2 * v + (code[-1] == "1"), OMEGA) if v == root
                                 else (tree[v] ^ 1, tree[v]) for v in range(len(tree))))


def walk_top(code, root, tree, degree):
    """decode's top level from T_{n-1}: the walk of 2^n edges that leaves
    each vertex by tree[v] ^ 1 first and tree[v] after, the root by the
    code's last bit, read back by path_to_seq."""
    mask, start = len(code) - 1, 2 * root + (code[-1] == "0")
    tree, first = [start if v == root else e for v, e in enumerate(tree)], [1] * len(code)
    walk = [e := start]
    for _ in range(2 * mask + 1):
        v = e & mask
        e = tree[v] ^ first[v]
        first[v] = 0
        walk.append(e)
    return path_to_seq(HamPath(degree, tuple(walk)))
