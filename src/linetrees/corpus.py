"""Deterministic corpus of small digraphs for exhaustive verification.

The sampler draws multigraphs with at most 4 vertices and 8 edges in which
every vertex has positive indegree (the precondition of the line-graph
identity), deduplicated up to vertex relabelling via a canonical form, with
a fixed seed so every run sees the same corpus.
"""

from __future__ import annotations

import random
from itertools import permutations

from .digraph import DiGraph, debruijn, kautz
from .errors import GraphError, integers

CORPUS_SEED = 271828
# canonical_form tries all n! relabellings: 40,320 at n = 8, 479,001,600 at n = 12
_MAX_VERTICES = 8
# draws in a row that bring no new graph before the sampler gives up; the
# corpus's longest run is 20
_REJECTED_DRAWS = 10_000


def canonical_form(n: int, edges: list[tuple[int, int]]) -> tuple:
    """Lexicographically least sorted edge list over all vertex relabellings;
    n (at most _MAX_VERTICES) and the edges as DiGraph takes them, else
    GraphError (a ValueError)."""
    g = DiGraph(n, edges)
    if g.n > _MAX_VERTICES:
        raise GraphError(f"canonical_form tries all n! vertex relabellings, "
                         f"so it is capped at {_MAX_VERTICES} vertices")
    return (g.n, min(tuple(sorted((perm[s], perm[t]) for s, t in g.edges))
                     for perm in permutations(range(g.n))))


def random_small_graphs(count: int = 200, max_vertices: int = 4,
                        max_edges: int = 8, seed: int = CORPUS_SEED) -> list[DiGraph]:
    """`count` pairwise non-isomorphic digraphs with min indeg >= 1.  ValueError
    unless the counts are integers with 1 <= max_vertices <= max_edges and
    max_vertices <= _MAX_VERTICES, or once _REJECTED_DRAWS draws in a row
    bring no new graph (count out of reach)."""
    count, max_vertices, max_edges = integers(
        (count, max_vertices, max_edges), "count, max_vertices and max_edges must be integers")
    if max_vertices > _MAX_VERTICES:
        raise ValueError(f"max_vertices is capped at {_MAX_VERTICES}, "
                         f"as canonical_form tries all n! relabellings")
    if not 1 <= max_vertices <= max_edges:
        raise ValueError("random graphs need 1 <= max_vertices <= max_edges")
    rng = random.Random(seed)
    seen: set[tuple] = set()
    graphs: list[DiGraph] = []
    while len(graphs) < count:
        for _ in range(_REJECTED_DRAWS):
            n = rng.randint(1, max_vertices)
            m = rng.randint(n, max_edges)  # need at least n edges for indeg >= 1
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
            if len({t for _, t in edges}) == n and (key := canonical_form(n, edges)) not in seen:
                break
        else:
            raise ValueError(f"count {count} is out of reach: {_REJECTED_DRAWS} draws in a row "
                             f"found no graph past the first {len(graphs)}")
        seen.add(key)
        graphs.append(DiGraph(n, edges))
    return graphs


def identity_corpus() -> list[DiGraph]:
    """The verification corpus: 200 sampled graphs plus three family graphs."""
    return random_small_graphs() + [debruijn(2, 1), debruijn(2, 2), kautz(2, 1)]
