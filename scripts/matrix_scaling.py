#!/usr/bin/env python3
"""Time critical groups and tree counts of family graphs against their size,
and the normal form that turns cyclic orders into invariant factors.

For each case in CASES, a child process builds the graph, times the case's
`critical_group`, `count_trees` or `rooted_tree_counts` calls and reports
their median, and then checks the answer against the closed forms
(`db_formula`/`kautz_formula`, `tree_count_db`) or another route.  A family
`critical_group` row also times the two phases of its Smith form alone,
the unit phase (`_unit_pivots`) and the divisor pivots (`_divisor_pivots`)
on what it leaves, on a fresh copy of the graph's minor at sink 0 per
call, and gives each median in ms.  The "eulerian" rows take the union of
three seeded random permutations of n vertices, a graph with no closed
form, so their child checks the group's order against the determinant of
the reduced Laplacian instead, and the tree count against `determinant` of
L + 1 e_0^T (`_plus_ones`), which `count_trees` does not take on a
balanced graph.  The "multicycle" and
"multichords" rows take unbalanced multigraphs, whose weighted Laplacians
leave the unit phase few units: they are the rows that reach the
determinant's fraction-free heap loop.  A multicycle is the 300-cycle with
seeded edge multiplicities 1-9, its tree count checked against the sum over
roots r of the product of the other multiplicities.  A multichords graph
gives each of its n vertices a cycle edge and an edge to a random vertex,
both of multiplicity 2-9; its count is checked mod 2^61 - 1 by
`_determinant_mod`, and its rooted counts by their sum, `count_trees`.
The "normalize" and "smith_normal_form" rows take the cyclic orders of
`kautz_formula(2, n)`, as the formula and as the diagonal matrix of one
order per row, and check each against the other; the
"group_from_cyclic_orders" row takes the powers 2^i and 3^i for
0 < i < n, whose invariant factors are the 6^i.  Each child gets TIMEOUT_S
seconds; the harness and --src are in scaling.py.

Usage:
    python scripts/matrix_scaling.py [--src DIR ...]
"""

import scaling

TIMEOUT_S = 300.0
# a family row takes 5-170 ms, within the noise of a shared host, so each
# is the median of REPS calls.  An Eulerian row of up to ~20 s is the
# median of EULERIAN_REPS, as single runs of the same code have read up to
# 1.3x apart there.  On the Eulerian graphs a group's time also moves
# between about 0.6x and 1.5x with the order in which tied pivots go, so
# n = 300 runs 12 seeds once each, to be judged by their total, which the
# table's last row gives; the n = 500 group (~25 s) runs once.
REPS = 5
EULERIAN_REPS = 3
# (what, family, m, n, calls); for "eulerian", "multicycle" and
# "multichords", m is the seed and n the vertex count, and for "powers" m is
# unused.  The critical_group rows include each graph of perfbench's matrix
# workload: db(2,8), db(3,5), db(4,4), kautz(2,8) and kautz(3,5);
# count_trees runs to n = 1000 to show its growth past n = 500.  The
# group_from_cyclic_orders row is the one input known where the merge of
# _chain is slower than trial division was
CASES = ([("critical_group", "db", 2, n, REPS) for n in range(8, 14)]
         + [("critical_group", "db", 3, 5, REPS), ("critical_group", "db", 4, 4, REPS)]
         + [("critical_group", "kautz", 2, 8, REPS), ("critical_group", "kautz", 3, 5, REPS)]
         + [("critical_group", "eulerian", 1, n, EULERIAN_REPS) for n in (150, 200)]
         + [("critical_group", "eulerian", seed, 300, 1) for seed in range(1, 13)]
         + [("critical_group", "eulerian", 1, 500, 1)]
         + [("count_trees", "db", 2, n, REPS) for n in range(5, 14)]
         + [("count_trees", "eulerian", 1, n, EULERIAN_REPS) for n in (300, 500, 1000)]
         + [("count_trees", "multicycle", seed, 300, REPS) for seed in range(4)]
         + [("count_trees", "multichords", seed, 300, REPS) for seed in range(3)]
         + [("rooted_tree_counts", "multichords", 0, 60, REPS)]
         + [(what, "kautz", 2, n, REPS) for what in ("normalize", "smith_normal_form")
            for n in range(10, 14)]
         + [("group_from_cyclic_orders", "powers", 0, 1000, REPS)])
CHILD = """
import json, random, resource, statistics, sys, time
from math import prod
from linetrees.arborescence import (_plus_ones, count_trees, determinant, out_laplacian,
                                    rooted_tree_counts)
from linetrees.crit_group import (AbelianGroup, critical_group, db_formula, group_from_cyclic_orders,
                                  group_from_diagonal, kautz_formula, smith_normal_form,
                                  tree_count_db)
from linetrees.digraph import DiGraph, debruijn, kautz
from linetrees.elimination import _determinant_mod, _minor_in_place
what, family = sys.argv[1], sys.argv[2]
m, n, calls = map(int, sys.argv[3:])
if family == "eulerian":
    rng, edges = random.Random(m), []
    for _ in range(3):
        p = list(range(n))
        rng.shuffle(p)
        edges += enumerate(p)
    g = DiGraph(n, edges)
elif family == "multicycle":
    rng = random.Random(m)
    mult = [rng.randint(1, 9) for _ in range(n)]
    g = DiGraph(n, [(v, (v + 1) % n) for v in range(n) for _ in range(mult[v])])
elif family == "multichords":
    rng, edges = random.Random(m), []
    for v in range(n):
        edges += [(v, (v + 1) % n)] * rng.randint(2, 9)
        edges += [(v, rng.randrange(n))] * rng.randint(2, 9)
    g = DiGraph(n, edges)
elif family == "powers":
    orders = [2 ** i for i in range(1, n)] + [3 ** i for i in range(1, n)]
elif what in ("normalize", "smith_normal_form"):
    formula = kautz_formula(m, n)
    orders = [mod for mod, mult in formula.summands for _ in range(mult)]
else:
    g = (debruijn if family == "db" else kautz)(m, n)
call = {"critical_group": lambda: critical_group(g), "count_trees": lambda: count_trees(g),
        "rooted_tree_counts": lambda: rooted_tree_counts(g),
        "normalize": lambda: formula.normalize(),
        "smith_normal_form": lambda: smith_normal_form([{i: d} for i, d in enumerate(orders)]),
        "group_from_cyclic_orders": lambda: group_from_cyclic_orders(orders)}[what]
times = []
for _ in range(calls):
    start = time.perf_counter()
    result = call()
    times.append(time.perf_counter() - start)
elapsed = statistics.median(times)
if family == "powers":
    ok = result == AbelianGroup(tuple(6 ** i for i in range(1, n)))
elif what == "normalize":
    ok = result == group_from_diagonal(smith_normal_form([{i: d} for i, d in enumerate(orders)]).diagonal)
elif what == "smith_normal_form":
    ok = group_from_diagonal(result.diagonal) == formula.normalize()
elif family == "multicycle":
    ok = result == sum(prod(mult[:r] + mult[r + 1:]) for r in range(n))
elif what == "rooted_tree_counts":
    ok = sum(result) == count_trees(g)
elif family == "multichords":
    p = 2 ** 61 - 1
    ok = result % p == _determinant_mod(_plus_ones(out_laplacian(g)), p)
elif family == "eulerian":
    ok = (result.order == abs(determinant(_minor_in_place(out_laplacian(g), 0)))
          if what == "critical_group" else result == determinant(_plus_ones(out_laplacian(g))))
elif what == "critical_group":
    ok = result == (db_formula if family == "db" else kautz_formula)(m, n).normalize()
else:
    ok = result == tree_count_db(m, n)
if not ok:
    sys.exit("answer differs from the closed form, the determinant or the tree counts")
layers = {}
if what == "critical_group" and family != "eulerian":
    # the two phases of its Smith form, on a fresh copy of its minor per call
    from linetrees.elimination import _column_rows, _divisor_pivots, _unit_pivots
    minor, unit, divisor = _minor_in_place(out_laplacian(g), 0), [], []
    for _ in range(calls):
        rows = [dict(row) for row in minor]
        col_rows = _column_rows(rows)
        start = time.perf_counter()
        _unit_pivots(rows, col_rows)
        middle = time.perf_counter()
        _divisor_pivots(rows, col_rows)
        unit.append(middle - start)
        divisor.append(time.perf_counter() - middle)
    layers = {"unit_s": statistics.median(unit), "divisor_s": statistics.median(divisor)}
print(json.dumps({"s": elapsed, **layers,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def label(case: tuple) -> list[str]:
    """The call, its input and the input's size: |V| for a graph, else the
    number of cyclic orders."""
    what, family, m, n, _ = case
    if family in ("eulerian", "multicycle", "multichords"):
        return [what, f"{family}(seed {m})", str(n)]
    if family == "powers":
        return [what, f"2^i, 3^i, 0 < i < {n}", str(2 * (n - 1))]
    if what in ("normalize", "smith_normal_form"):    # the multiplicities of kautz_formula
        size = m * m + m - 3 + sum(m ** (n - 2 - i) * (m - 1) ** 2 * (m + 1)
                                   for i in range(1, n - 1))
        return [what, f"{family}_formula({m},{n})", str(size)]
    size = m ** n if family == "db" else (m + 1) * m ** (n - 1)
    return [what, f"{family}({m},{n})", str(size)]


def main():
    results = scaling.main(CHILD, CASES, TIMEOUT_S, ["call", "input", "size"], label,
                           ["s", "unit ms", "divisor ms", "peak MB"],
                           lambda r: [f"{r['s']:.4f}", *(f"{1e3 * r[k]:.2f}" if k in r else "-"
                                                         for k in ("unit_s", "divisor_s")),
                                      f"{r['peak_rss_mb']:.0f}"])
    seeds = [runs for (what, family, _, n, _), runs in results.items()
             if (what, family, n) == ("critical_group", "eulerian", 300)]
    row = ["critical_group", f"eulerian({len(seeds)} seeds), total", "300"]
    for runs in zip(*seeds):    # one source tree's runs
        row += ["timeout" if None in runs else f"{sum(r['s'] for r in runs):.3f}", "-", "-", "-"]
    print("| " + " | ".join(row) + " |")


if __name__ == "__main__":
    main()
