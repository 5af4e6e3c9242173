"""The unit phase that both sparse eliminations, arborescence.determinant
and crit_group's Smith form, run first on the same Laplacian rows."""

from __future__ import annotations

from itertools import chain
from math import gcd, inf


def _column_rows(rows: list[dict[int, int]]) -> dict[int, set[int]]:
    """{col: the rows with an entry there}: the eliminations' column index."""
    col_rows: dict[int, set[int]] = {j: set() for j in set().union(*rows)}
    for i, row in enumerate(rows):
        for j in row:
            col_rows[j].add(i)
    return col_rows


def _unit_pivots(sparse: list[dict[int, int]], col_rows: dict[int, set[int]],
                 skip_short: bool = False) -> tuple[list[int], list[int], list[int]]:
    """The unit phase: the rows, columns and signed values of its pivots, in
    order.  It reduces trusted rows (nonzero ints under non-negative int
    keys, read in key order) and their index (_column_rows) in place.

    A round's units are the entries +-g, g the gcd of all, so none is
    divided.  `buckets` maps a Markowitz cost (r-1)(c-1) to its units as
    i << W | j, W bits for a column, front last, sorted as the round
    starts: it opens in (cost, i, j) order.  Each step pops the front of the
    least non-empty bucket: a unit that is gone or no longer +-g is
    dropped, one whose cost has changed goes to the front of its new
    bucket, and a new one from fill-in to the front of bucket 0, whose
    first pop keys it.  It is a dict, not a list indexed by cost, as a +-1
    where a dense row meets a dense column can cost more than the matrix
    has entries.  A round reads only the `live` rows, those not empty, and
    one that splits under a quarter of them ends the phase.  With
    skip_short (the determinant's call), a first round whose units lie in
    under a quarter as many distinct rows or columns as there are rows is
    not run, as it could split no more: the phase is then empty, and the
    determinant's heap loop takes the whole matrix, so a weighted one with
    few units pays only the scan.  (Later rounds are not judged, as the
    check's two sets cost more than the short rounds they would save.)  The
    Smith form runs every round, keeping its pivot order.
    """
    w = max(col_rows, default=0).bit_length()
    cmask = (1 << w) - 1
    pivot_rows, pivot_cols, pivots, live = [], [], [], range(len(sparse))
    while live := [i for i in live if sparse[i]]:     # a row, once empty, stays empty
        g = gcd(*chain.from_iterable(sparse[i].values() for i in live))
        start, units = len(pivots), (g, -g)
        buckets: dict[int, list[int]] = {}
        for i in live:
            row = sparse[i]
            for j, v in row.items():
                if v in units:
                    cost = (len(row) - 1) * (len(col_rows[j]) - 1)
                    buckets.setdefault(cost, []).append(i << w | j)
        if skip_short and not pivots:
            keys = list(chain.from_iterable(buckets.values()))
            if 4 * min(len({key >> w for key in keys}), len({key & cmask for key in keys})) \
                    < len(live):
                break
        for bucket in buckets.values():
            bucket.sort(reverse=True)
        low = min(buckets, default=inf)     # the least cost that has a bucket
        while buckets:
            cost, bucket = low, buckets[low]
            key = bucket.pop()
            if not bucket:
                del buckets[cost]
                low = min(buckets, default=inf)
            prow = sparse[i := key >> w]
            if (p := prow.get(j := key & cmask)) not in units:    # gone, or no longer +-g
                continue
            now = (len(prow) - 1) * (len(col_rows[j]) - 1)
            if now != cost:
                buckets.setdefault(now, []).append(key)
                low = min(low, now)
                continue
            pivot_rows.append(i)
            pivot_cols.append(j)
            pivots.append(p)
            sparse[i] = {}
            for c in prow:
                col_rows[c].discard(i)
            del prow[j]
            for r in col_rows.pop(j):
                row = sparse[r]
                q = row.pop(j) // p
                for c, a in prow.items():
                    x = row.get(c, 0) - q * a
                    if x:
                        row[c] = x
                        col_rows[c].add(r)
                        if x in units:
                            buckets.setdefault(0, []).append(r << w | c)
                            low = 0
                    else:
                        del row[c]
                        col_rows[c].discard(r)
        if 4 * (len(pivots) - start) < len(live):
            break
    return pivot_rows, pivot_cols, pivots
