"""Dense, slow oracles for the sparse matrix code.

The library holds matrices as sparse rows, one {col: value} dict per row.
These helpers build the same matrices as dense lists and count rooted
trees by one dense Bareiss minor per root, the route the library took
before its sparse determinant.
"""

from linetrees.arborescence import bareiss_determinant


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
