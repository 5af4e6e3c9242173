#!/usr/bin/env python3
"""Time critical groups and tree counts of family graphs against their size.

For each case in CASES, a child process builds the graph, times one
`critical_group` or `count_trees` call, and checks the answer against the
closed forms (`db_formula`/`kautz_formula`, `tree_count_db`).  Each child
gets TIMEOUT_S seconds; the harness and --src are in scaling.py.

Usage:
    python scripts/matrix_scaling.py [--src DIR ...]
"""

import scaling

TIMEOUT_S = 120.0
# (what, family, m, n)
CASES = ([("critical_group", "db", 2, n) for n in range(8, 14)]
         + [("critical_group", "kautz", 3, 5)]
         + [("count_trees", "db", 2, n) for n in range(5, 12)])
CHILD = """
import json, resource, sys, time
from linetrees.arborescence import count_trees
from linetrees.crit_group import critical_group, db_formula, kautz_formula, tree_count_db
from linetrees.digraph import debruijn, kautz
what, family, m, n = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
g = (debruijn if family == "db" else kautz)(m, n)
start = time.perf_counter()
if what == "critical_group":
    ok = critical_group(g) == (db_formula if family == "db" else kautz_formula)(m, n).normalize()
else:
    ok = count_trees(g) == tree_count_db(m, n)
elapsed = time.perf_counter() - start
if not ok:
    sys.exit("answer differs from the closed form")
print(json.dumps({"s": elapsed,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def label(case: tuple) -> list[str]:
    what, family, m, n = case
    size = m ** n if family == "db" else (m + 1) * m ** (n - 1)
    return [what, f"{family}({m},{n})", str(size)]


def main():
    scaling.main(CHILD, CASES, TIMEOUT_S, ["call", "graph", "|V|"], label,
                 ["s", "peak MB"], lambda r: [f"{r['s']:.3f}", f"{r['peak_rss_mb']:.0f}"])


if __name__ == "__main__":
    main()
