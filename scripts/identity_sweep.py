#!/usr/bin/env python3
"""Stress the line-graph generating-function identity on random digraphs.

Samples multigraphs with positive indegrees, checks the identity both by
exact monomial expansion (when the enumeration is affordable) and by
randomized evaluation, and reports sizes and timing.  Graphs with at most
verify's BIJECTION_ARRAY_CAP tree arrays also go through the public sigma
and pi: every array is mapped and mapped back, each image is checked to be
a spanning tree of the line graph, and the time per public call (input
validation included) is printed in microseconds.

Usage:
    python scripts/identity_sweep.py [--count 50] [--seed 1] [--max-vertices 4]
"""

import argparse
import time

from linetrees.arborescence import validate_tree, verify_identity
from linetrees.corpus import random_small_graphs
from linetrees.digraph import line_graph
from linetrees.line_bijection import LineContext, enumerate_tree_arrays, tree_array_count
from linetrees.verify import BIJECTION_ARRAY_CAP


def round_trip(g, lg):
    """(sigma, pi) microseconds per public call, and whether every array
    came back and every image is a tree of lg."""
    ctx = LineContext(g)
    arrays = list(enumerate_tree_arrays(g))
    start = time.perf_counter()
    images = [ctx.sigma(a) for a in arrays]
    mid = time.perf_counter()
    backs = [ctx.pi(t) for t in images]
    end = time.perf_counter()
    for t in images:
        validate_tree(lg, t)
    per_call = 1e6 / len(arrays)
    return (mid - start) * per_call, (end - mid) * per_call, backs == arrays


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-vertices", type=int, default=4)
    parser.add_argument("--max-edges", type=int, default=8)
    args = parser.parse_args()

    try:
        graphs = random_small_graphs(count=args.count, max_vertices=args.max_vertices,
                                     max_edges=args.max_edges, seed=args.seed)
    except ValueError as exc:   # a count out of reach, or bounds out of order or past the cap
        parser.error(str(exc))
    failures = 0
    started = time.perf_counter()
    for i, g in enumerate(graphs):
        lg = line_graph(g)
        n_trees = tree_array_count(g)
        report = verify_identity(g, bound=10 ** 8)
        check = verify_identity(g, method="evaluate", seed=args.seed + i)
        holds = report.holds and check.holds
        maps = ""
        if n_trees <= BIJECTION_ARRAY_CAP:
            sigma_us, pi_us, inverse = round_trip(g, lg)
            holds = holds and inverse
            maps = f" sigma={sigma_us:.1f}us pi={pi_us:.1f}us"
        status = "ok" if holds else "FAIL"
        failures += status == "FAIL"
        print(f"[{status}] n={g.n} m={g.m} |V(LG)|={lg.n} |E(LG)|={lg.m} "
              f"line trees={n_trees} lhs terms={report.lhs_terms}{maps}")
    print(f"\n{len(graphs) - failures}/{len(graphs)} graphs verified "
          f"in {time.perf_counter() - started:.1f}s")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
