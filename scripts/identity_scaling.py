#!/usr/bin/env python3
"""Time the generating-function identity against the number of trees.

For each case in CASES, a child process builds the graph G and its line
graph LG, and times one call: `kappa_vertex(LG)`, the identity's left side;
`kappa_edge(LG)` or `enumerate_trees(LG)`, the other two callers of the one
tree search; or `verify_identity(G)`, which expands both sides.  The
"evaluate" rows time `verify_identity(G, method="evaluate")` instead, which
takes weighted determinants of G and LG mod a prime at four points, and
report the median of REPS calls, as one takes 0.02-0.2 s: on cycles, and
on db(2,6) and db(3,3), whose line graphs db(2,7) and db(3,4) give weighted
matrices with few units.  A "bouquet"
is one vertex with k self-loops: LG is the complete digraph with loops on
k vertices, with k^(k-1) trees but only C(2k-2, k-1) monomials.  An
n-"cycle" is its own line graph, with n trees and n monomials.  The child
checks the polynomial's coefficient sum, or the number of trees listed,
against `count_trees(LG)`, and that the identity holds (by either method).  Each child gets
TIMEOUT_S seconds; the harness and --src are in scaling.py.

Usage:
    python scripts/identity_scaling.py [--src DIR ...]
"""

import scaling

TIMEOUT_S = 300.0
REPS = 5
# (what, family, size): k loops of a bouquet, n vertices of a cycle, or
# the de Bruijn graph "m,n".
# kappa_edge and enumerate_trees keep one entry per tree, so they skip the
# 8-loop bouquet's 2,097,152 trees.
CASES = [(what, family, size)
         for family, sizes in (("bouquet", (5, 6, 7, 8)), ("cycle", (300, 1000, 1500)))
         for size in sizes
         for what in ("kappa_vertex", "kappa_edge", "enumerate_trees", "verify_identity")
         if (family, size) != ("bouquet", 8) or what in ("kappa_vertex", "verify_identity")]
CASES += [("evaluate", "cycle", size) for size in (300, 1000, 1500)]
CASES += [("evaluate", "db", size) for size in ("2,6", "3,3")]
CHILD = f"REPS = {REPS}" + """
import json, resource, statistics, sys, time
from linetrees.arborescence import (count_trees, enumerate_trees, kappa_edge, kappa_vertex,
                                    verify_identity)
from linetrees.digraph import DiGraph, debruijn, line_graph
what, family, size = sys.argv[1], sys.argv[2], sys.argv[3]
if family == "bouquet":
    g = DiGraph(1, [(0, 0)] * int(size))
elif family == "cycle":
    g = DiGraph(int(size), [(v, (v + 1) % int(size)) for v in range(int(size))])
else:
    g = debruijn(*map(int, size.split(",")))
lg = line_graph(g)
times = []
for _ in range(REPS if what == "evaluate" else 1):
    start = time.perf_counter()
    if what == "evaluate":
        result = verify_identity(g, method="evaluate")
    elif what == "verify_identity":
        result = verify_identity(g, bound=10 ** 8)
    else:
        result = {"kappa_vertex": kappa_vertex, "kappa_edge": kappa_edge,
                  "enumerate_trees": enumerate_trees}[what](lg, bound=10 ** 8)
    times.append(time.perf_counter() - start)
elapsed = statistics.median(times)
if what in ("evaluate", "verify_identity"):
    ok = result.holds
else:
    ok = (len(result) if what == "enumerate_trees" else sum(result.values())) == count_trees(lg)
if not ok:
    sys.exit("the trees do not add up to the tree count, or the identity fails")
print(json.dumps({"s": elapsed,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def main():
    scaling.main(CHILD, CASES, TIMEOUT_S, ["call", "graph"],
                 lambda case: ["verify_identity(evaluate)" if case[0] == "evaluate" else case[0],
                               f"{case[1]}({case[2]})"],
                 ["s", "peak MB"], lambda r: [f"{r['s']:.3f}", f"{r['peak_rss_mb']:.0f}"])


if __name__ == "__main__":
    main()
