"""Sparse exact elimination: the determinant's and the Smith form's bodies,
and the unit phase that both run first.

A matrix is a list of sparse rows, one {col: value} dict per row.  The
bodies, _determinant and _smith, take trusted rows (nonzero ints under
non-negative int keys, read only in key order, so a monotone relabelling
of the keys changes no pivot) and reduce them in place.  The checking
entries, arborescence.determinant and crit_group.smith_normal_form, make
them with _checked_rows; the tree counts and the sandpile group hand over
their Laplacian rows unchecked.  Each elimination builds one column index,
_column_rows, and every phase keeps it current.

The unit phase, _unit_pivots, splits off entries +-g, g the gcd of what is
left, least Markowitz cost (r-1)(c-1) first and with no test: each is then
alone in its row and column, a factor of the determinant and, as
SNF(g M) = g SNF(M), a cyclic factor of the Smith form.  Once a round
splits under a quarter of its rows, _determinant divides each row left by
its content, a factor of the determinant, and runs the phase again while
that turns up units; then a fraction-free Markowitz loop and dense
Bareiss elimination (_bareiss) take the block it leaves.  _smith instead
splits off divisor pivots (_divisor_pivots), as dividing a row would
change its group, and merges its pivots into the chain d1 | d2 | ...
(_chain, the normal form that crit_group's groups share).
_determinant_mod, the determinant mod a prime (which _is_prime tests),
pivots in Markowitz order alone, as every nonzero entry is a unit there.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, inf, prod
from operator import index

# A matrix with at most this many rows goes to dense Bareiss at once,
# and so does the block the sparse phase leaves at this size: on the
# matrices of a few vertices that knuth_check and the identity corpus feed
# in, the heap costs more than dense elimination does.
DENSE_HANDOFF = 10


def _checked_rows(rows: Iterable[Mapping], text: str) -> list[dict[int, int]]:
    """Trusted rows from untrusted ones, for the checking entries: the keys,
    which must sort, become 0..k-1 in key order (so a key such as 10**30
    widens no packed key of the unit phase), and each value goes
    through operator.index, its zeros dropped.  Anything but rows of such
    mappings raises ValueError(text), and more distinct keys than rows (a
    key that holds only 0 counts) a ValueError that gives both counts."""
    try:    # len() refuses an iterator, which the key pass would use up
        rank = {c: x for x, c in enumerate(sorted(set().union(*rows)))} if len(rows) else {}
        checked = [{rank[c]: x for c, v in row.items() if (x := index(v))} for row in rows]
    except (TypeError, AttributeError):
        raise ValueError(text) from None
    if len(rank) > len(checked):
        raise ValueError(f"{len(rank)} columns in a matrix of {len(checked)} rows")
    return checked


def _minor_in_place(rows: list[dict[int, int]], r: int) -> list[dict[int, int]]:
    """The rows without row and column r, the other keys keeping their
    names: from a Laplacian's rows, the reduced Laplacian whose determinant
    counts the trees rooted at r and whose cokernel is r's sandpile group."""
    del rows[r]
    for row in rows:
        row.pop(r, None)
    return rows


def _column_rows(rows: list[dict[int, int]]) -> dict[int, set[int]]:
    """{col: the rows with an entry there}: the eliminations' column index."""
    col_rows: dict[int, set[int]] = {j: set() for j in set().union(*rows)}
    for i, row in enumerate(rows):
        for j in row:
            col_rows[j].add(i)
    return col_rows


def _unit_pivots(sparse: list[dict[int, int]],
                 col_rows: dict[int, set[int]]) -> tuple[list[int], list[int], list[int]]:
    """The unit phase: the rows, columns and signed values of its pivots, in
    order.  It reduces the rows and their index in place.

    A round's units are the entries +-g, g the gcd of all, so none is
    divided.  `buckets`, a bucket queue (Dial 1969), maps a Markowitz cost
    (r-1)(c-1) to its units as i << W | j, W bits for a column, front last,
    sorted as the round starts: it opens in (cost, i, j) order.  Each step
    pops the front of the least bucket, kept in `bucket` until `low` moves:
    a key whose row was pivoted is dropped before its column is read, one
    gone or no longer +-g after; one whose cost has changed goes to the
    front of its new bucket, and a new unit from fill-in to the front of
    bucket 0, whose first pop keys it.  Only ties in cost go otherwise than
    in a heap, and the Smith diagonal is unique.  It is a dict, with at most
    a list per unit, as a +-1 where a row and a column of k entries meet
    costs about k^2: a list indexed by cost would take gigabytes at k = 10^4.
    An update tests `c in row`, and each column set sees the adds and
    discards of a plain update, in its order: a pivot's column set orders
    its fill-in units.  A round reads only the `live` rows, those not
    empty, and one that splits under a quarter of them ends the phase, so
    diag(1, 2, 4, ...) takes no round per entry.  On eight relabelled
    db(2,8) minors it pops 1,183-1,216 keys (723-733 stale, 204-230
    re-keyed) for 247-253 pivots in 6-8 rounds.  The families' reduced
    Laplacians are m-divisible once their units are gone (check_divbym), so
    g grows by m a round and each round splits about half the rows, the
    first phase of sparse integer Smith forms (Dumas, Saunders and Villard,
    JSC 2001).  Where the content stays 1, as on unions of random
    permutations, the phase stops after its first round.
    """
    w = max(col_rows, default=0).bit_length()
    cmask = (1 << w) - 1
    record, live = [], range(len(sparse))
    while live := [i for i in live if sparse[i]]:     # a row, once empty, stays empty
        g = gcd(*chain.from_iterable(sparse[i].values() for i in live))
        start, buckets = len(record), {}
        for i in live:
            row = sparse[i]
            r1, key = len(row) - 1, i << w
            for j, v in row.items():
                if v == g or v == -g:
                    buckets.setdefault(r1 * (len(col_rows[j]) - 1), []).append(key | j)
        for bucket in buckets.values():
            bucket.sort(reverse=True)
        bucket = buckets.get(low := min(buckets, default=inf))   # the least cost's bucket
        while buckets:
            cost, key = low, bucket.pop()
            if not bucket:
                del buckets[cost]
                bucket = buckets.get(low := min(buckets, default=inf))
            prow = sparse[i := key >> w]
            if not prow or (p := prow.get(j := key & cmask)) != g and p != -g:
                continue    # its row was pivoted, or it is gone or no longer +-g
            now = (len(prow) - 1) * (len(col_rows[j]) - 1)
            if now != cost:
                buckets.setdefault(now, []).append(key)
                if now < low:
                    low, bucket = now, buckets[now]
                continue
            record.append((i, j, p))
            sparse[i] = {}
            rs = col_rows.pop(j)
            rs.remove(i)
            del prow[j]
            items = [*prow.items()]
            for c, _ in items:
                col_rows[c].discard(i)
            for r in rs:
                row = sparse[r]
                q = row.pop(j) // p
                for c, a in items:
                    if c in row:
                        if not (x := row[c] - q * a):
                            del row[c]
                            col_rows[c].discard(r)
                            continue
                        row[c] = x
                    else:     # fill-in
                        row[c] = x = -q * a
                        col_rows[c].add(r)
                    if x == g or x == -g:
                        if low:     # there is no bucket 0
                            low = 0
                            bucket = buckets[0] = []
                        bucket.append(r << w | c)
        if 4 * (len(record) - start) < len(live):
            break
    return tuple(map(list, zip(*record))) or ([], [], [])


# --- the determinant ---------------------------------------------------------

def _determinant(rows: list[dict[int, int]]) -> int:
    """The determinant of k trusted rows under at most k keys.

    The unit phase runs first.  Once it stops with rows left, each row is
    divided by its content, a factor of the determinant, and if that turns
    up a unit the phase runs again: on a de Bruijn minor each stop leaves
    half as many rows, until none is left (256 at the first stop on
    db(2,10)'s, all but one of content 4).  What a matrix with few units
    leaves, such as a multigraph's Laplacian, takes sparse fraction-free
    elimination, least Markowitz cost (r - 1)(c - 1) then least |p| first,
    under _determinant_mod's lazy heap rule: each row with a under the
    pivot p becomes (p/g) row - (a/g) row_i, g = gcd(p, a), and is divided
    by its content; the pivots, the multipliers p/g and the contents are
    carried into the determinant.  Once at most DENSE_HANDOFF rows are
    left, or the cheapest pivot would touch over half of the block left,
    that block goes to _bareiss.  On the 300-cycle with edge multiplicities
    1-9 the phase leaves 110-226 rows of about four entries, and this loop
    hands _bareiss 10.  The tests check it against dense Bareiss, sympy and
    enumeration, on matrices where the phase runs several rounds, empties
    the matrix or leaves the loop a block.
    """
    k = len(rows)
    if k <= DENSE_HANDOFF:
        cols = sorted(set().union(*rows))
        return _bareiss([[row.get(c, 0) for c in cols] for row in rows]) if len(cols) == k else 0
    col_rows = _column_rows(rows)
    if len(col_rows) < k:
        return 0    # a zero column
    rank = {c: x for x, c in enumerate(sorted(col_rows))}
    # factors: the pivots and the row contents; scales: the multipliers p/g
    pivot_rows, pivot_cols, factors, scales = [], [], [], []
    units = True
    while units:    # unit rounds, then the contents, while dividing turns up a unit
        new_rows, new_cols, new_pivots = _unit_pivots(rows, col_rows)
        pivot_rows += new_rows
        pivot_cols += new_cols
        factors += new_pivots
        units = False
        for row in rows:
            if row and (content := gcd(*row.values())) != 1:
                factors.append(content)
                for c in row:
                    row[c] //= content
                units = units or 1 in row.values() or -1 in row.values()
    if not all(col_rows.values()) or sum(map(bool, rows)) < len(col_rows):
        return 0    # a column or a row of the rest that the units emptied
    heap = []
    if len(col_rows) > DENSE_HANDOFF:     # else the block goes to _bareiss as it is
        heap = [((len(row) - 1) * (len(col_rows[j]) - 1), abs(v), i, j)
                for i, row in enumerate(rows) for j, v in row.items()]
        heapify(heap)
    while heap and len(col_rows) > DENSE_HANDOFF:     # a column per row left
        cost, v, i, j = heappop(heap)
        rs = col_rows.get(j, ())
        if i not in rs:     # the entry left its row, or its row or column was pivoted
            continue
        prow = rows[i]
        now, x = (len(prow) - 1) * (len(rs) - 1), abs(prow[j])
        if now != cost or x != v:
            heappush(heap, (now, x, i, j))
            continue
        if 2 * cost > (len(col_rows) - 1) ** 2:
            break
        pivot_rows.append(i)
        pivot_cols.append(j)
        rows[i] = {}    # so the rows left non-empty are the rest
        p = prow[j]
        factors.append(p)
        for c in prow:
            col_rows[c].discard(i)
        for r in col_rows.pop(j):
            row = rows[r]
            a = row.pop(j)
            if len(prow) > 1:   # else row_i = p e_j, and row - (a/p) row_i only drops a
                g = gcd(p, a)
                q, b = p // g, a // g
                if q != 1:
                    scales.append(q)
                    for c in row:
                        row[c] *= q
                for c, x in prow.items():
                    if c == j:
                        continue
                    y = row.get(c, 0) - b * x
                    if y:
                        if c not in row:
                            col_rows[c].add(r)
                            heappush(heap, (0, 0, r, c))
                        row[c] = y
                    else:
                        del row[c]
                        col_rows[c].discard(r)
            content = gcd(*row.values())
            if content == 0:
                return 0       # a zero row
            if content != 1:
                factors.append(content)
                for c in row:
                    row[c] //= content
    rest_rows, rest_cols = [i for i, row in enumerate(rows) if row], sorted(col_rows)
    # the pivots, in order, then the rest, in index order: a block
    # triangular matrix whose determinant is the pivots' product times the rest's
    order = [0] * k     # row i's partner column, by rank: the sign is its parity
    for i, c in zip(pivot_rows + rest_rows, pivot_cols + rest_cols):
        order[i] = rank[c]
    block = _bareiss([[rows[i].get(c, 0) for c in rest_cols] for i in rest_rows])
    return _parity(order) * prod(factors) * block // prod(scales)


def _determinant_mod(rows: list[dict[int, int]], p: int) -> int:
    """The determinant mod the prime p, in [0, p), of k rows of int entries
    under at most k keys; the rows are not changed.

    Every nonzero residue is a unit, so the pivots come in Markowitz order
    alone: the entry at (i, j) with the least cost (r - 1)(c - 1), for r
    entries in its row and c in its column.  Entries sit in a heap of
    (cost, i, j) under one lazy rule: each is pushed when it appears, at the
    start or as fill-in (then at cost 0, so that its first pop keys it),
    and a popped entry is checked against the matrix.  One that has left
    its row, or whose row or column was pivoted, is dropped; one whose cost
    has changed goes back in at its current cost.
    """
    rows = [{j: x for j, v in row.items() if (x := v % p)} for row in rows]
    col_rows = _column_rows(rows)
    rank = {c: x for x, c in enumerate(sorted(col_rows))}
    order, left, det = [0] * len(rows), len(rows), 1
    heap = [((len(row) - 1) * (len(col_rows[j]) - 1), i, j)
            for i, row in enumerate(rows) for j in row]
    heapify(heap)
    while heap:
        cost, i, j = heappop(heap)
        if i not in (rs := col_rows.get(j, ())):
            continue
        prow = rows[i]
        if (now := (len(prow) - 1) * (len(rs) - 1)) != cost:
            heappush(heap, (now, i, j))
            continue
        for c in prow:
            col_rows[c].discard(i)
        order[i], pivot, left = rank[j], prow.pop(j), left - 1
        det = det * pivot % p
        inverse = pow(pivot, -1, p)
        for r in col_rows.pop(j):
            row = rows[r]
            q = row.pop(j) * inverse % p
            for c, x in prow.items():
                if y := (row.get(c, 0) - q * x) % p:
                    if c not in row:
                        col_rows[c].add(r)
                        heappush(heap, (0, r, c))
                    row[c] = y
                else:
                    del row[c]
                    col_rows[c].discard(r)
    return 0 if left else _parity(order) * det % p


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 7 and 61, exact below 4,759,123,141 (Jaeschke 1993)."""
    if n < 2 or n % 2 == 0:
        return n == 2
    s = ((n - 1) & (1 - n)).bit_length() - 1    # n - 1 = d 2^s, d odd
    for a in (2, 7, 61):
        x = pow(a, (n - 1) >> s, n)
        if a % n == 0 or x in (1, n - 1):
            continue
        for _ in range(s - 1):
            if (x := x * x % n) == n - 1:
                break
        else:
            return False    # a is a witness that n is composite
    return True


def _parity(order: list[int]) -> int:
    """The sign of `order` as a permutation of 0..len(order)-1."""
    seen = bytearray(len(order))
    sign = 1
    for x in range(len(order)):
        if seen[x]:
            continue
        while not seen[x]:     # walk x's cycle; a cycle of length L is L - 1 swaps
            seen[x] = 1
            x = order[x]
            sign = -sign
        sign = -sign
    return sign


def _bareiss(m: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination, exact, on a square list of
    integer lists that it reduces in place: arborescence.bareiss_determinant's
    body."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = m[k]
        p = pivot_row[k]
        for row in m[k + 1:]:
            a = row[k]
            if a or p != prev:      # else the update leaves the row as it is
                for j in range(k + 1, n):
                    row[j] = (row[j] * p - a * pivot_row[j]) // prev
        prev = p
    return sign * m[n - 1][n - 1]


# --- the Smith normal form ---------------------------------------------------

def _smith(sparse: list[dict[int, int]]) -> list[int]:
    """The Smith diagonal, one place per row, from trusted rows with no
    more columns than rows, which it empties: the unit phase, then
    _divisor_pivots on what is left, with the one column index.  Each pivot
    splits off a cyclic factor, which _chain turns into the chain; the
    rank's other places are 1s, and the places past it 0s.  The tests check
    it against sympy, the determinantal divisors and the dense
    smallest-pivot loop of tests/oracles.py."""
    places = len(sparse)
    col_rows = _column_rows(sparse)
    pivots = _unit_pivots(sparse, col_rows)[2] + _divisor_pivots(sparse, col_rows)
    factors = _chain(map(abs, pivots))
    return [1] * (len(pivots) - len(factors)) + factors + [0] * (places - len(pivots))


def _divisor_pivots(sparse: list[dict[int, int]], col_rows: dict[int, set[int]]) -> list[int]:
    """Eliminate rows stored as {col: value} dicts, splitting off one
    divisor pivot at a time; col_rows is their index, as the unit phase
    left it.

    An entry p that divides every entry of its row and of its column (so
    |p| is the gcd of both) splits off Z_|p|: integer row operations clear
    p's column, after which p's row holds only multiples of p, and the
    column operations that would clear it touch no other row; so the row
    and column are simply dropped.

    Entries sit in one heap of (|p|, Markowitz cost (r-1)(c-1), i, j),
    pushed at the start and again on each new value (then at cost 0, which
    the first pop corrects).  A popped entry that is gone or whose |p| has
    changed is dropped, and one whose cost has changed goes back in.  What
    is left is a live entry p of least |p|, and only now is it tested
    against its row and column.  If it fails, it takes the same row
    operations, which leave remainders smaller than |p| in its column;
    once p is alone there, reducing its row modulo p is a column operation
    that touches no other row.  Either a smaller entry appears or p
    becomes a divisor pivot, so p goes back in, and the loop ends with
    every entry gone.  A heap of over four items per live entry is rebuilt
    from the rows not yet empty (`rows`, ascending, as a row once empty
    stays empty), so stale items do not pile up under a dense remainder;
    no dense block is built.  On the minors at sink 0 the content of
    db(2,n) stops at 2 after two rounds and this loop gets a quarter of the
    rows (241 entries on 64 at db(2,8), 4,060 on 1,024 at db(2,12)), with
    0-9 non-split steps to n = 12; db(3,5), db(4,4), kautz(2,8) and
    kautz(3,5) give it 187, 156, 176 and 91 entries (4, 2, 5 and 6 non-split
    steps), and the five relabelled with a random sink 4-75.

    Reduces the rows of `sparse` and the index in place, emptying each
    pivot row, and returns the |p| in pivot order.
    """
    def keyed() -> list[tuple[int, int, int, int]]:
        rows[:] = [i for i in rows if sparse[i]]    # a row, once empty, stays empty
        heap = [(abs(v), (len(row) - 1) * (len(col_rows[j]) - 1), i, j)
                for i in rows for row in [sparse[i]] for j, v in row.items()]
        heapify(heap)
        return heap

    rows = list(range(len(sparse)))     # ascending, holding every row not yet empty
    heap = keyed()
    live = len(heap)
    pivots: list[int] = []
    while heap:
        v, cost, i, j = heappop(heap)
        prow = sparse[i]
        if abs(prow.get(j, 0)) != v:    # gone, or rewritten and pushed again
            continue
        rs = col_rows[j]
        now = (len(prow) - 1) * (len(rs) - 1)
        if now != cost:
            heappush(heap, (v, now, i, j))
            continue
        p = prow[j]
        split = v == 1 or (all(x % p == 0 for x in prow.values())
                           and all(sparse[r][j] % p == 0 for r in rs))
        if split:
            pivots.append(v)
            sparse[i] = {}
            live -= len(prow)
            for c in prow:
                col_rows[c].discard(i)
        for r in [r for r in rs if r != i]:
            row = sparse[r]
            q = row[j] // p
            for c, a in prow.items():
                x = row.get(c, 0) - q * a
                if x:
                    if c not in row:
                        col_rows[c].add(r)
                        live += 1
                    row[c] = x
                    heappush(heap, (abs(x), 0, r, c))
                else:
                    del row[c]
                    col_rows[c].discard(r)
                    live -= 1
        if not split:
            if len(rs) == 1:    # p alone in its column
                for c in [c for c in prow if c != j]:
                    x = prow[c] % p
                    if x:
                        prow[c] = x
                        heappush(heap, (abs(x), 0, i, c))
                    else:
                        del prow[c]
                        col_rows[c].discard(i)
                        live -= 1
            heappush(heap, (v, 0, i, j))
        if len(heap) > 4 * live:
            heap = keyed()
    if any(sparse):    # an entry left out of the heap would drop a factor
        raise RuntimeError("Smith form loop ended with entries left")
    return pivots


def _chain(orders: Iterable[int]) -> list[int]:
    """The invariant factors above 1, ascending (d1 | d2 | ...), of the sum
    of cyclic groups of the given positive orders: the package's one normal
    form, for the Smith form and the groups of crit_group.

    Each order x, in ascending order, merges into the chain c from the top:
    while c[i-1] does not divide x, c[i-1] becomes lcm(c[i-1], x) and
    gcd(c[i-1], x) goes on down as x, a 2x2 unimodular change of basis.  A
    carry of 1 ends the merge; any other goes in above the first entry that
    divides it.  For each prime this inserts x's exponent into the chain's
    sorted exponents, so the result is exact; an order that the top
    divides, as each sorted power of one prime is, is appended.  Orders
    whose primes alternate, as 2^i and 3^i, run each merge down the whole
    chain: the one slow input known.
    """
    c: list[int] = []
    for x in sorted(x for x in orders if x != 1):
        i = len(c)
        while x != 1 and i and x % c[i - 1]:
            a = c[i - 1]
            g = gcd(a, x)
            c[i - 1], x = a // g * x, g
            i -= 1
        if x != 1:
            c.insert(i, x)
    return c
