"""Seeded input generators and independent expectations for the benchmark.

Nothing here imports linetrees: inputs and the answers they are checked
against come from this file alone, so their cost and their correctness do
not move with the code under test.  Every generator takes a
``random.Random`` and draws from it in a fixed order, so one seed always
yields the same inputs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations
from typing import Iterator

# --- de Bruijn sequences -----------------------------------------------------


def random_debruijn(rng: random.Random, degree: int) -> str:
    """A uniformly random binary de Bruijn sequence of the given degree.

    Wilson's algorithm draws a uniform arborescence of DB_{degree-1}(2)
    toward vertex 0 (every out-degree is 2, so the loop-erased walk is
    uniform over arborescences).  The BEST theorem turns it into an
    Eulerian circuit: leave each vertex by its non-tree edge first and its
    tree edge last, and leave the root by edge 0 first.  With that first
    edge fixed, arborescences and cyclic circuits correspond one to one;
    a uniform rotation then makes the linear string uniform.
    """
    k = degree - 1
    n = 1 << k
    mask = n - 1
    root = 0
    in_tree = bytearray(n)
    in_tree[root] = 1
    nxt = [0] * n  # chosen out-bit b: edge v -> ((v << 1) | b) & mask
    for start in range(n):
        u = start
        while not in_tree[u]:
            nxt[u] = rng.getrandbits(1)
            u = ((u << 1) | nxt[u]) & mask
        u = start
        while not in_tree[u]:
            in_tree[u] = 1
            u = ((u << 1) | nxt[u]) & mask
    # out-bit order per vertex: non-tree bit first, tree bit last
    order = [(1 - nxt[v], nxt[v]) for v in range(n)]
    order[root] = (0, 1)
    used = [0] * n
    bits = []
    u = root
    for _ in range(2 * n):
        if used[u] == 2:
            raise RuntimeError("BEST walk stopped early")
        b = order[u][used[u]]
        used[u] += 1
        bits.append("1" if u >> (k - 1) & 1 else "0")  # first bit of edge (u, b)
        u = ((u << 1) | b) & mask
    if u != root or any(c != 2 for c in used):
        raise RuntimeError("BEST walk is not an Eulerian circuit")
    r = rng.randrange(2 * n)
    seq = "".join(bits[r:] + bits[:r])
    if not is_debruijn(seq, degree):
        raise RuntimeError("generated string is not a de Bruijn sequence")
    return seq


def is_debruijn(bits: str, degree: int) -> bool:
    """All 2^degree cyclic windows of length `degree` are distinct."""
    size = 1 << degree
    if len(bits) != size or set(bits) - {"0", "1"}:
        return False
    mask = size - 1
    ext = bits + bits[:degree - 1]
    window = int(ext[:degree - 1], 2) if degree > 1 else 0
    seen = bytearray(size)
    for c in ext[degree - 1:]:
        window = ((window << 1) | (c == "1")) & mask
        if seen[window]:
            return False
        seen[window] = 1
    return True


def random_code(rng: random.Random, degree: int) -> str:
    """A uniform bit string of length 2^(degree-1): a valid codec code."""
    return format(rng.getrandbits(1 << (degree - 1)), f"0{1 << (degree - 1)}b")


# --- small multigraphs --------------------------------------------------------


def _canonical(n: int, edges: list[tuple[int, int]]) -> tuple:
    return (n, min(tuple(sorted((p[s], p[t]) for s, t in edges))
                   for p in permutations(range(n))))


def _sample_small_graphs(rng: random.Random, max_vertices: int = 4,
                         max_edges: int = 8) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Pairwise non-isomorphic multigraphs with every indegree >= 1, forever.

    Same draw as the verification corpus sampler: n uniform in
    1..max_vertices, m uniform in n..max_edges, endpoints uniform, rejection
    of zero indegrees and of graphs isomorphic to one already drawn.
    """
    seen: set[tuple] = set()
    while True:
        n = rng.randint(1, max_vertices)
        m = rng.randint(n, max_edges)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        if len({t for _, t in edges}) != n:
            continue
        key = _canonical(n, edges)
        if key not in seen:
            seen.add(key)
            yield n, edges


def array_count(n: int, edges: list[tuple[int, int]]) -> int:
    """Tree arrays of the graph: kappa(G) * prod_v outdeg(v)^(indeg(v)-1)."""
    return tree_count(n, edges) * degree_product(n, edges)


# Share (per mille) of each cost class in the sampler's output, measured
# once over 20 pools of POOL_SIZE graphs.  A graph's class is
# floor(log2(estimated ms)), capped at the last class; the estimate is
# linear in its tree-array count: round trips cost ~0.06 ms per array up to
# BIJECTION_CAP arrays, the identity expansion ~0.0012 ms per array.  Cost
# per graph spans four decades and the top 5% of graphs take over half the
# time, so drawing graphs freely makes a run's work swing by 10% or more
# between seeds; pinning each class's share keeps it fixed while the graphs
# inside each class stay seeded draws from the sampler.
CLASS_PER_MILLE = (532.0, 117.6, 95.0, 79.0, 66.3, 49.1, 32.9, 19.4, 6.6, 2.0)
BIJECTION_CAP = 10 ** 4
POOL_SIZE = 2500


def cost_class(arrays: int) -> int:
    est_ms = 1 + 0.0012 * arrays + (0.06 * arrays if arrays <= BIJECTION_CAP else 0)
    return min(len(CLASS_PER_MILLE) - 1, int(math.log2(est_ms)))


def class_schedule(length: int) -> list[int]:
    """Cost classes for positions 0..length-1, each class at its share.

    Adams apportionment: position i goes to the class with the largest
    share / taken, so the first positions hold one graph of every class
    (the rare costly ones are in every run, however short) and every
    longer prefix stays close to the shares.
    """
    taken = [0] * len(CLASS_PER_MILLE)
    out = []
    for _ in range(length):
        c = max(range(len(taken)),
                key=lambda k: CLASS_PER_MILLE[k] / taken[k] if taken[k] else math.inf)
        taken[c] += 1
        out.append(c)
    return out


def corpus_stream(rng: random.Random, length: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """`length` graphs from a pool of POOL_SIZE draws, every class at its share.

    Within a class the pool's graphs are used in draw order, cyclically; a
    class missing from the pool takes its graphs from the next cheaper one.
    """
    members: list[list] = [[] for _ in CLASS_PER_MILLE]
    sampler = _sample_small_graphs(rng)
    for _ in range(POOL_SIZE):
        n, edges = next(sampler)
        members[cost_class(array_count(n, edges))].append((n, edges))
    used = [0] * len(members)
    out = []
    for c in class_schedule(length):
        while not members[c]:
            c -= 1
        out.append(members[c][used[c] % len(members[c])])
        used[c] += 1
    return out


def line_graph_edges(edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Edges of the directed line graph; vertex i is edge i."""
    out: dict[int, list[int]] = {}
    for i, (s, _) in enumerate(edges):
        out.setdefault(s, []).append(i)
    return [(e, f) for e, (_, t) in enumerate(edges) for f in out.get(t, ())]


def _det(matrix: list[list[int]]) -> Fraction:
    n = len(matrix)
    if n <= 3:  # cofactor expansion; the minors of the sampled graphs are this small
        if n == 0:
            return Fraction(1)
        if n == 1:
            return Fraction(matrix[0][0])
        if n == 2:
            return Fraction(matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0])
        (a, b, c), (d, e, f), (g, h, i) = matrix
        return Fraction(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                for j in range(c, n):
                    m[r][j] -= f * m[c][j]
    return det


def tree_count(n: int, edges: list[tuple[int, int]]) -> int:
    """Oriented spanning trees summed over all roots (matrix-tree theorem)."""
    lap = [[0] * n for _ in range(n)]
    for s, t in edges:
        lap[s][s] += 1
        lap[s][t] -= 1
    total = 0
    for r in range(n):
        minor = [[lap[i][j] for j in range(n) if j != r] for i in range(n) if i != r]
        total += int(_det(minor))
    return total


def degree_product(n: int, edges: list[tuple[int, int]]) -> int:
    """prod_v outdeg(v)^(indeg(v)-1): tree arrays per spanning tree."""
    outdeg, indeg = [0] * n, [0] * n
    for s, t in edges:
        outdeg[s] += 1
        indeg[t] += 1
    prod = 1
    for v in range(n):
        prod *= outdeg[v] ** (indeg[v] - 1)
    return prod


def edge_order(rng: random.Random, m: int) -> list[int]:
    order = list(range(m))
    rng.shuffle(order)
    return order


# --- de Bruijn and Kautz families ---------------------------------------------


def family_edges(family: str, m: int, n: int) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge list of DB_n(m) or Kautz_n(m), strings in lex order."""
    if family == "db":
        size = m ** n
        return size, [(v, (v * m + a) % size) for v in range(size) for a in range(m)]
    words = [(c,) for c in range(m + 1)]
    for _ in range(n - 1):
        words = [w + (c,) for w in words for c in range(m + 1) if c != w[-1]]
    index = {w: i for i, w in enumerate(words)}
    return len(words), [(index[w], index[w[1:] + (c,)]) for w in words
                        for c in range(m + 1) if c != w[-1]]


def relabel(rng: random.Random, size: int,
            edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    perm = list(range(size))
    rng.shuffle(perm)
    return [(perm[s], perm[t]) for s, t in edges]


def family_tree_count(family: str, m: int, n: int) -> int:
    """kappa(DB_n(m)) = m^(m^n-1); kappa(Kautz_n(m)) = (m+1)^m m^((m^(n-1)-1)(m+1))."""
    if family == "db":
        return m ** (m ** n - 1)
    return (m + 1) ** m * m ** ((m ** (n - 1) - 1) * (m + 1))


def family_cyclic_orders(family: str, m: int, n: int) -> list[int]:
    """The critical group as a list of cyclic orders, per the closed forms."""
    if family == "db":
        summands = [(m ** n, m - 2)]
        summands += [(m ** i, m ** (n - 1 - i) * (m - 1) ** 2) for i in range(1, n)]
    else:
        summands = [(m + 1, m - 1), (m ** (n - 1), m * m - 2)]
        summands += [(m ** i, m ** (n - 2 - i) * (m - 1) ** 2 * (m + 1))
                     for i in range(1, n - 1)]
    return [mod for mod, mult in summands for _ in range(mult) if mod > 1]


def invariant_factors(orders: list[int]) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... (all >= 2) of a sum of cyclic groups."""
    exps: dict[int, list[int]] = {}
    for x in orders:
        p = 2
        while x > 1:
            if p * p > x:
                p = x
            e = 0
            while x % p == 0:
                x //= p
                e += 1
            if e:
                exps.setdefault(p, []).append(e)
            p += 1
    depth = max((len(v) for v in exps.values()), default=0)
    for v in exps.values():
        v.sort()
        v[:0] = [0] * (depth - len(v))
    factors = []
    for slot in range(depth):
        f = 1
        for p, v in exps.items():
            f *= p ** v[slot]
        factors.append(f)
    return tuple(factors)
