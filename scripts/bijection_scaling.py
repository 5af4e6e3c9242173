#!/usr/bin/env python3
"""Time the tree-array maps per call: public sigma and pi, and their bodies.

For each case in CASES, a child process builds tree arrays and times four
loops over them: `LineContext.sigma` and `LineContext.pi`, which check their
input, and the bodies `_sigma` and `_pi`, which trust it.  A "corpus" case
takes every tree array of the `identity_corpus()` graphs with the given
range of edge counts and at most BIJECTION_ARRAY_CAP arrays, as verify-all's
criterion 3 does.  A family case takes ARRAYS random arrays of db(2,3) or
kautz(2,3): a random spanning tree, then random out-edges before each last
entry.  Every loop runs under one shuffled edge order and REPEATS times,
the four loops taking turns; a cell is the least time over the repeats
divided by the calls in one loop.  The ratios σ/_σ and π/_π, the cost of
each public map over its body, are taken within the child, so a drift of
the host's speed between children cancels in them.  The cyclic collector is
off while the loops run.
The child checks pi(sigma(A)) == A on every array.  The harness and --src
are in scaling.py.

Usage:
    python scripts/bijection_scaling.py [--src DIR ...]
"""

import scaling

TIMEOUT_S = 300.0
# (family, a, b): corpus graphs with a <= m <= b edges, or the family graph (a, b)
CASES = [("corpus", 1, 4), ("corpus", 5, 6), ("corpus", 7, 8), ("db", 2, 3), ("kautz", 2, 3)]
CHILD = """
import gc, json, random, sys, time
from linetrees.arborescence import enumerate_trees
from linetrees.corpus import identity_corpus
from linetrees.digraph import debruijn, kautz
from linetrees.line_bijection import (OMEGA, LineContext, TreeArray, _pi, _sigma,
                                      enumerate_tree_arrays, shuffled_order, tree_array_count)
from linetrees.verify import BIJECTION_ARRAY_CAP
ARRAYS, REPEATS = 2000, 7
family, lo, hi = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
if family == "corpus":
    cases = [(g, list(enumerate_tree_arrays(g))) for g in identity_corpus()
             if lo <= g.m <= hi and tree_array_count(g) <= BIJECTION_ARRAY_CAP]
else:
    g = {"db": debruijn, "kautz": kautz}[family](lo, hi)
    rng, out = random.Random(1), g._out
    trees = enumerate_trees(g, bound=10 ** 8)
    arrays = []
    for _ in range(ARRAYS):
        t = rng.choice(trees)
        arrays.append(TreeArray(t.root, tuple(
            (*(rng.choice(out[v]) for _ in range(g.indeg[v] - 1)),
             OMEGA if v == t.root else t.out_edge[v]) for v in range(g.n))))
    cases = [(g, arrays)]
best = dict.fromkeys(("sigma", "pi", "_sigma", "_pi"), 0.0)
calls = 0
for g, arrays in cases:
    ctx, order = LineContext(g), shuffled_order(g, 1)
    n, target = g.n, ctx.target
    images = [ctx.sigma(a, order) for a in arrays]
    if [ctx.pi(t, order) for t in images] != arrays:
        sys.exit("pi(sigma(A)) != A")
    bodies = [(t.root, ctx.successors(t)) for t in images]
    loops = {"sigma": lambda: [ctx.sigma(a, order) for a in arrays],
             "pi": lambda: [ctx.pi(t, order) for t in images],
             "_sigma": lambda: [_sigma(n, target, a, order) for a in arrays],
             "_pi": lambda: [_pi(n, target, r, s, order) for r, s in bodies]}
    times = {name: [] for name in loops}
    gc.collect()
    gc.disable()
    for _ in range(REPEATS):
        for name, loop in loops.items():
            start = time.perf_counter()
            loop()
            times[name].append(time.perf_counter() - start)
    gc.enable()
    for name in loops:
        best[name] += min(times[name])
    calls += len(arrays)
print(json.dumps({"calls": calls, **{k: 1e6 * v / calls for k, v in best.items()},
                  "sigma_ratio": best["sigma"] / best["_sigma"],
                  "pi_ratio": best["pi"] / best["_pi"]}))
"""


def main():
    scaling.main(CHILD, CASES, TIMEOUT_S, ["graphs"],
                 lambda case: [f"corpus, m in {case[1]}..{case[2]}" if case[0] == "corpus"
                               else f"{case[0]}({case[1]},{case[2]})"],
                 ["calls", "σ µs", "π µs", "_σ µs", "_π µs", "σ/_σ", "π/_π"],
                 lambda r: [str(r["calls"])] + [f"{r[k]:.2f}" for k in (
                     "sigma", "pi", "_sigma", "_pi", "sigma_ratio", "pi_ratio")])


if __name__ == "__main__":
    main()
