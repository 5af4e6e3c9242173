#!/usr/bin/env python3
"""Time the generating-function identity against the number of trees.

For each case in CASES, a child process builds the graph G and its line
graph LG, and times one `kappa_vertex(LG)` call, the identity's left side,
or one `verify_identity(G)` call, which expands both sides.  A "bouquet"
is one vertex with k self-loops: LG is the complete digraph with loops on
k vertices, with k^(k-1) trees but only C(2k-2, k-1) monomials.  An
n-"cycle" is its own line graph, with n trees and n monomials.  The child
checks the polynomial's coefficient sum against `count_trees(LG)`, and that
the identity holds.  Each child gets TIMEOUT_S seconds; the harness and
--src are in scaling.py.

Usage:
    python scripts/identity_scaling.py [--src DIR ...]
"""

import scaling

TIMEOUT_S = 300.0
# (what, family, size): k loops of a bouquet, or n vertices of a cycle
CASES = [(what, family, size)
         for family, sizes in (("bouquet", (5, 6, 7, 8)), ("cycle", (300, 1000, 1500)))
         for size in sizes
         for what in ("kappa_vertex", "verify_identity")]
CHILD = """
import json, resource, sys, time
from linetrees.arborescence import count_trees, kappa_vertex, verify_identity
from linetrees.digraph import DiGraph, line_graph
what, family, size = sys.argv[1], sys.argv[2], int(sys.argv[3])
if family == "bouquet":
    g = DiGraph(1, [(0, 0)] * size)
else:
    g = DiGraph(size, [(v, (v + 1) % size) for v in range(size)])
lg = line_graph(g)
start = time.perf_counter()
result = (kappa_vertex(lg, bound=10 ** 8) if what == "kappa_vertex"
          else verify_identity(g, bound=10 ** 8))
elapsed = time.perf_counter() - start
if not (sum(result.values()) == count_trees(lg) if what == "kappa_vertex" else result.holds):
    sys.exit("the coefficients do not sum to the tree count, or the identity fails")
print(json.dumps({"s": elapsed,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def main():
    scaling.main(CHILD, CASES, TIMEOUT_S, ["call", "graph"],
                 lambda case: [case[0], f"{case[1]}({case[2]})"],
                 ["s", "peak MB"], lambda r: [f"{r['s']:.3f}", f"{r['peak_rss_mb']:.0f}"])


if __name__ == "__main__":
    main()
