#!/usr/bin/env python3
"""Stress the line-graph generating-function identity on random digraphs.

Samples multigraphs with positive indegrees, checks the identity both by
exact monomial expansion (when the enumeration is affordable) and by
randomized evaluation, and reports sizes and timing.

Usage:
    python scripts/identity_sweep.py [--count 50] [--seed 1] [--max-vertices 4]
"""

import argparse
import time

from linetrees.arborescence import verify_identity
from linetrees.corpus import random_small_graphs
from linetrees.digraph import line_graph
from linetrees.line_bijection import tree_array_count


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-vertices", type=int, default=4)
    parser.add_argument("--max-edges", type=int, default=8)
    args = parser.parse_args()

    graphs = random_small_graphs(count=args.count, max_vertices=args.max_vertices,
                                 max_edges=args.max_edges, seed=args.seed)
    failures = 0
    started = time.time()
    for i, g in enumerate(graphs):
        lg = line_graph(g)
        n_trees = tree_array_count(g)
        report = verify_identity(g, bound=10 ** 8)
        check = verify_identity(g, method="evaluate", seed=args.seed + i)
        status = "ok" if report.holds and check.holds else "FAIL"
        failures += status == "FAIL"
        print(f"[{status}] n={g.n} m={g.m} |V(LG)|={lg.n} |E(LG)|={lg.m} "
              f"line trees={n_trees} lhs terms={report.lhs_terms}")
    print(f"\n{len(graphs) - failures}/{len(graphs)} graphs verified "
          f"in {time.time() - started:.1f}s")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
