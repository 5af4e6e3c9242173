#!/usr/bin/env python3
"""Tabulate critical groups of the de Bruijn and Kautz families.

For each (m, n) in range, compute the group from the Smith normal form of
the reduced Laplacian and compare against the closed-form decomposition and
the closed-form order, and the order against the determinant of that
Laplacian, both sparse (the checked public `determinant`, which shares its
unit phase with the Smith form) and dense (`bareiss_determinant`, which
shares none).  Everything is exact; the
table doubles as a quick visual check that the formulas track the linear
algebra.

Usage:
    python scripts/critical_group_table.py [--max-m 4] [--max-n 3]
"""

import argparse
import time

from linetrees.arborescence import bareiss_determinant, determinant, out_laplacian
from linetrees.crit_group import (critical_group, db_formula, group_order_db,
                                  group_order_kautz, kautz_formula)
from linetrees.digraph import debruijn, kautz
from linetrees.elimination import _minor_in_place


def row(family, make, formula, order_formula, m, n):
    started = time.perf_counter()
    g = make(m, n)
    group = critical_group(g)
    reduced = _minor_in_place(out_laplacian(g), 0)
    ok = (group == formula(m, n).normalize() and group.order == order_formula(m, n)
          == abs(determinant(reduced))
          == abs(bareiss_determinant([[row.get(c, 0) for c in range(1, g.n)] for row in reduced])))
    elapsed = time.perf_counter() - started
    print(f"{family}({m},{n})  |V|={g.n:4d}  K = {group}  "
          f"[{'ok' if ok else 'MISMATCH'}] ({elapsed:.2f}s)")
    return ok


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-m", type=int, default=4)
    parser.add_argument("--max-n", type=int, default=3)
    args = parser.parse_args()

    all_ok = True
    for m in range(2, args.max_m + 1):
        for n in range(1, args.max_n + 1):
            all_ok &= row("DB", debruijn, db_formula, group_order_db, m, n)
    print()
    for m in range(2, args.max_m + 1):
        for n in range(1, args.max_n + 1):
            all_ok &= row("Kautz", kautz, kautz_formula, group_order_kautz, m, n)
    print("\nall rows match" if all_ok else "\nMISMATCHES FOUND")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
