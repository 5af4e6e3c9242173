import builtins
import heapq
import random
import time
import tracemalloc
from itertools import combinations
from math import gcd, prod

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import assume, example, given, strategies as st

import linetrees.crit_group as crit_group
import linetrees.elimination as elimination
from linetrees.arborescence import count_trees, determinant, out_laplacian, rooted_tree_counts
from linetrees.crit_group import (AbelianGroup, DivisibilityReport, GroupFormula, check_divbym,
                                  critical_group, db_formula, group_from_cyclic_orders,
                                  group_from_diagonal, group_order_db,
                                  group_order_kautz, kautz_formula, mult_by_k,
                                  sandpile_group, smith_normal_form,
                                  tree_count_db, tree_count_kautz)
from linetrees.digraph import DiGraph, debruijn, is_strongly_connected, kautz
from linetrees.elimination import _chain, _column_rows, _divisor_pivots, _minor_in_place
from linetrees.errors import GraphError
from oracles import (bubble_chain, bucket_unit_pivots, count_trees_rooted, dense,
                     dense_diagonal, dense_laplacian, dense_minor, sparse,
                     trial_division_factors)

FIGURE_LAPLACIAN = [
    [-2, 0, 1, 1, 0, 0],
    [0, -2, 0, 0, 1, 1],
    [1, 1, -2, 0, 0, 0],
    [0, 0, 0, -2, 1, 1],
    [1, 1, 0, 0, -2, 0],
    [0, 0, 1, 1, 0, -2],
]


def test_laplacian_kautz22_matches_reference_matrix():
    # vertex order 01, 02, 10, 12, 20, 21 (lexicographic); the figure
    # shows A - D, the negation of the D - A builder
    assert [[-x for x in row] for row in dense(out_laplacian(kautz(2, 2)), 6)] == FIGURE_LAPLACIAN


def test_laplacian_self_loop_and_two_cycle():
    assert out_laplacian(DiGraph(1, [(0, 0)])) == [{}]
    assert out_laplacian(DiGraph(2, [(0, 1), (1, 0)])) == [{0: 1, 1: -1}, {1: 1, 0: -1}]


def test_snf_identity():
    assert smith_normal_form([{0: 1}, {1: 1}, {2: 1}]).diagonal == [1, 1, 1]


def test_snf_hand_reducible():
    assert smith_normal_form([{0: 2}, {}, {2: 3}]).diagonal == [1, 6, 0]


def test_snf_kautz22_full_laplacian():
    assert smith_normal_form(sparse(FIGURE_LAPLACIAN)).diagonal == [1, 1, 1, 2, 6, 0]


def _determinantal_divisor(rows, k):
    """gcd of all k x k minors, by sympy determinants."""
    divisor = 0
    for r in combinations(range(len(rows)), k):
        for c in combinations(range(len(rows[0])), k):
            divisor = gcd(divisor, int(sympy.Matrix([[rows[i][j] for j in c] for i in r]).det()))
            if divisor == 1:
                return 1
    return divisor


@st.composite
def sparse_matrices(draw):
    """Integer matrices up to 6 x 6, mostly zeros, some with a zero row or column."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.integers(-9, 9) | st.just(0) | st.just(0)
    rows = [[draw(entry) for _ in range(m)] for _ in range(n)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [0] * m
    if draw(st.booleans()):
        j = draw(st.integers(0, m - 1))
        for row in rows:
            row[j] = 0
    return rows


def _tall(rows):
    """A wide matrix as its transpose, which has the same Smith form: the
    Smith form takes no more columns than rows."""
    return [list(col) for col in zip(*rows)] if len(rows[0]) > len(rows) else rows


def _square(rows):
    """_tall(rows) with zero columns up to its row count: the Smith form
    the library gives a tall matrix, one place per row."""
    rows = _tall(rows)
    return [list(row) + [0] * (len(rows) - len(row)) for row in rows]


def _dense_snf(rows):
    """The dense loop alone, the Smith form's former route, as an oracle."""
    return bubble_chain(sorted(dense_diagonal([list(row) for row in rows]),
                               key=lambda d: (d == 0, d)))


@given(sparse_matrices())
def test_snf_transforms_and_sympy_agreement(rows):
    rows = _tall(rows)
    n, m = len(rows), len(rows[0])
    diagonal = smith_normal_form(sparse(rows)).diagonal
    # one place per row: the n - m zero columns the Smith form adds are 0s
    assert len(diagonal) == n and diagonal[m:] == [0] * (n - m)
    diagonal = diagonal[:m]
    # d1 * ... * dk is the k-th determinantal divisor: the certificate that
    # the diagonal is the Smith form, independent of the elimination
    for k in range(1, m + 1):
        assert prod(diagonal[:k]) == _determinantal_divisor(rows, k)
    for a, b in zip(diagonal, diagonal[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    reference = sympy_snf(sympy.Matrix(rows))
    ref_diag = [abs(int(reference[i, i])) for i in range(m)]
    # sympy leaves factor order loose in edge cases; compare as multisets
    assert sorted(ref_diag) == sorted(diagonal)
    assert diagonal == _dense_snf(rows)


def _indexed_divisor_pivots(rows):
    """_divisor_pivots on rows and a fresh column index, as _smith hands it
    the index the unit phase left."""
    return _divisor_pivots(rows, _column_rows(rows))


@pytest.mark.parametrize("rows,split,diagonal", [
    # no entry divides its row and column: the least entry 2 leaves the
    # remainder 1, which then splits off, and 5 after it
    ([[2, 3], [3, 2]], [1, 5], [1, 5]),
    # one divisor pivot, then the same 2 x 2 block
    ([[1, 0, 0], [0, 2, 3], [0, 3, 2]], [1, 1, 5], [1, 1, 5]),
    # 2 divides its row and column; the row operation leaves [[2, 0], [0, -2]]
    ([[2, 4], [4, 6]], [2, 2], [2, 2]),
])
def test_divisor_pivots_split(rows, split, diagonal):
    assert _indexed_divisor_pivots(sparse(rows)) == split
    assert smith_normal_form(sparse(rows)).diagonal == diagonal


@pytest.mark.parametrize("make,m,n", [(debruijn, 2, 4), (debruijn, 3, 2), (kautz, 2, 3),
                                      (kautz, 3, 2)])
def test_snf_full_laplacians_match_dense_loop(make, m, n):
    g = make(m, n)
    assert smith_normal_form(out_laplacian(g)).diagonal == _dense_snf(dense_laplacian(g))


@pytest.mark.parametrize("make,m,n,non_split,pops", [(debruijn, 2, 8, 2, 2123),
                                                     (debruijn, 3, 5, 4, 1867),
                                                     (debruijn, 4, 4, 2, 2681),
                                                     (kautz, 2, 8, 9, 3175),
                                                     (kautz, 3, 5, 4, 2493)])
def test_family_laplacians_split_at_nearly_every_pop(make, m, n, non_split, pops, monkeypatch):
    # divisor pivots do nearly all the work on the reduced Laplacians.  A
    # least live entry that is not a unit is tested by one call of all()
    # over its row and, if that holds, one over its column, so each False
    # is one non-split step.  Every pop is counted, stale items included,
    # so a write that is not pushed, or pushed twice, changes the count.
    tests, popped = [], []

    def counting_all(items):
        tests.append(builtins.all(items))
        return tests[-1]

    def counting_heappop(heap):
        popped.append(1)
        return heapq.heappop(heap)

    monkeypatch.setattr(elimination, "all", counting_all, raising=False)
    monkeypatch.setattr(elimination, "heappop", counting_heappop)
    reduced = _minor_in_place(out_laplacian(make(m, n)), 0)
    assert len(_indexed_divisor_pivots(reduced)) == len(reduced)
    assert tests.count(False) == non_split
    assert len(popped) == pops


@pytest.mark.parametrize("rows", [[[1, 1], [1, 2]], [[3, 0, 0], [0, 1, 1], [0, 1, 2]]])
def test_lost_push_raises_instead_of_dropping_a_factor(rows, monkeypatch):
    # the unit pivot rewrites the other row's last entry to 1 and pushes
    # it; with that one push suppressed no item names the entry, the heap
    # runs dry with it left, and the loop must not return a short diagonal
    pushes = []

    def losing_heappush(heap, item):
        pushes.append(item)
        if len(pushes) > 1:
            heapq.heappush(heap, item)

    monkeypatch.setattr(elimination, "heappush", losing_heappush)
    with pytest.raises(RuntimeError, match="entries left"):
        _indexed_divisor_pivots(sparse(rows))
    assert pushes[0][0] == 1


@st.composite
def deep_sparse_matrices(draw):
    """15-40 rows of one to three entries in -9..9, some drawn with a
    column more or fewer than rows and some with a row repeated, returned
    square (_square): a wide one transposed, zero columns added."""
    n = draw(st.integers(15, 40))
    m = n + draw(st.sampled_from([0, 0, -3, -1, 2, 4]))
    rows = [[0] * m for _ in range(n)]
    for row in rows:
        for j in draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3)):
            row[j] = draw(st.integers(-9, 9))
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = list(rows[draw(st.integers(0, n - 1))])
    return _square(rows)


# column key maps: every key is relabelled to its place in key order, so
# neither the order nor the width of the unit phase's packed keys may change
COLUMN_KEYS = {"ints": lambda c: c, "negative": lambda c: -c,
               "huge": lambda c: 10 ** 30 if c == 0 else c, "strings": str,
               "gaps": lambda c: 7 * c + 3}


def _keyed(rows, name):
    return [{COLUMN_KEYS[name](c): v for c, v in row.items()} for row in rows]


@given(deep_sparse_matrices(), st.sampled_from(sorted(COLUMN_KEYS)))
def test_snf_of_larger_sparse_matrices_matches_dense_loop(rows, keys):
    assert smith_normal_form(_keyed(sparse(rows), keys)).diagonal == _dense_snf(rows)


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return DiGraph(g.n, [(perm[s], perm[t]) for s, t in g.edges])


MATRIX_GRAPHS = [(debruijn, 2, 8), (debruijn, 3, 5), (debruijn, 4, 4), (kautz, 2, 8), (kautz, 3, 5)]


def _matrix_minor(make, m, n, rng):
    g = _relabelled(make(m, n), rng)
    return _minor_in_place(out_laplacian(g), rng.randrange(g.n))


@st.composite
def matrix_minors(draw):
    """Reduced Laplacians of perfbench's matrix graphs, relabelled, at a random sink."""
    make, m, n = draw(st.sampled_from(MATRIX_GRAPHS))
    return _matrix_minor(make, m, n, draw(st.randoms(use_true_random=False)))


def _places(keys):
    """{key: its place among `keys` in increasing order}."""
    return {c: x for x, c in enumerate(sorted(keys))}


def _by_place(rows, keys):
    """`rows` with each key replaced by its place among `keys` in increasing order."""
    place = _places(keys)
    return [{place[c]: v for c, v in row.items()} for row in rows]


def _permutation_graph(n, seed):
    """Three random permutations of n vertices as one Eulerian multigraph."""
    rng = random.Random(seed)
    edges = []
    for _ in range(3):
        p = list(range(n))
        rng.shuffle(p)
        edges += enumerate(p)
    return DiGraph(n, edges)


def _hub(k):
    """Vertices u = 0 and v = 1 with w = 2..k+1 between them: u -> w -> v
    for each w, u -> v once and v -> u k + 1 times.  It is balanced, and at
    a sink w the unit L[u][v] = -1 sits where row u and column v, of k + 1
    entries each, meet: its Markowitz cost is k^2."""
    edges = [(0, 1)] + [(1, 0)] * (k + 1)
    for w in range(2, k + 2):
        edges += [(0, w), (w, 1)]
    return DiGraph(k + 2, edges)


def _arrow(k):
    """A full first row and column on the diagonal (1, 2, ..., 2): its unit
    at (0, 0) costs k^2."""
    return [{j: 1 for j in range(k + 1)}] + [{0: 1, i: 2} for i in range(1, k + 1)]


@given(deep_sparse_matrices().map(sparse) | matrix_minors(),
       st.sampled_from(sorted(COLUMN_KEYS)))
# minors on which the remainder changes when fill-in units go to the back
# of bucket 0, not to its front
@example(_matrix_minor(debruijn, 4, 4, random.Random(8)), "ints")
@example(_matrix_minor(kautz, 3, 5, random.Random(10)), "strings")
# costs past the row count: a unit of cost 36 on 7 rows, and a minor on
# 29 rows whose 191 pops re-key 85 units, up to cost 80
@example(_arrow(6), "strings")
@example(_minor_in_place(out_laplacian(_permutation_graph(30, 3)), 0), "ints")
# a first round that splits 4 of 17 live rows, at least a fifth but under a
# quarter: the stop rule's factor 4 ends the phase there, and 5 would not
@example([{i: 1} for i in range(4)] + [{i: 2} for i in range(4, 17)], "ints")
def test_packed_bucket_queue_matches_the_plain_bucket_oracle(rows, keys):
    # the library's unit phase, reached through smith_normal_form with the
    # divisor pivots cut off, against the phase with a dict of lists of
    # (i, j) tuples on the same keys: the same pivots in the same order,
    # each with its row, its column and its signed value, and the same rows
    # left, once each side's keys are read as their places in key order
    keyed = _keyed(rows, keys)
    given_rows = [dict(row) for row in keyed]
    started, units, left = [], ([], [], []), []
    unit_pivots = elimination._unit_pivots

    def recording(sparse_rows, col_rows):
        started.extend(dict(row) for row in sparse_rows)
        result = unit_pivots(sparse_rows, col_rows)
        for mine, taken in zip(units, result):
            mine.extend(taken)
        left.extend(sparse_rows)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(elimination, "_unit_pivots", recording)
        patch.setattr(elimination, "_divisor_pivots", lambda rest, col_rows: [])
        smith_normal_form(keyed)
    assert keyed == given_rows      # the input is not changed
    oracle_left = [dict(row) for row in keyed]
    oracle_rows, oracle_cols, oracle_values = bucket_unit_pivots(oracle_left)
    labels, names = set().union(*started), set().union(*keyed)
    label_place, name_place = _places(labels), _places(names)
    assert units[0] == oracle_rows
    assert [label_place[j] for j in units[1]] == [name_place[j] for j in oracle_cols]
    assert units[2] == oracle_values
    assert _by_place(started, labels) == _by_place(keyed, names)
    assert _by_place(left, labels) == _by_place(oracle_left, names)


FAMILY_LAPLACIANS = [dense_laplacian(make(m, n)) for make, m, n in
                     [(debruijn, 2, 4), (debruijn, 3, 2), (kautz, 2, 3), (kautz, 3, 2)]]


@given(deep_sparse_matrices() | st.sampled_from(FAMILY_LAPLACIANS), st.integers(2, 12))
def test_snf_of_a_multiple_is_the_multiple_of_the_snf(rows, k):
    # the unit phase takes the content k as its first unit
    scaled = [[k * x for x in row] for row in rows]
    diagonal = smith_normal_form(sparse(rows)).diagonal
    assert smith_normal_form(sparse(scaled)).diagonal == [k * d for d in diagonal]
    assert [k * d for d in diagonal] == _dense_snf(scaled)


@pytest.mark.parametrize("rows", [[{0: 2.5}], [{0: 2.0, 1: 1}, {0: 1, 1: 3}], [{0: "2"}],
                                  [{0: None}]])
def test_snf_refuses_entries_that_are_not_integers(rows):
    # a float would come back as a factor, [2.5] or [1, 5.0], not an error
    with pytest.raises(ValueError, match="must be integers"):
        smith_normal_form(rows)


@pytest.mark.parametrize("rows,message", [
    ([[1, 2], [3, 4]], "rows"), ([{0: 1}, "ab"], "rows"),
    # keys that do not sort, whether or not the heap would compare them,
    # and a key that holds only 0
    ([{"a": 1, 0: 1}, {"a": 1, 0: 2}], "sort"), ([{"a": 2, 0: 4}, {"a": 6, 0: 2}], "sort"),
    ([{"a": 0, 0: 1}], "sort")])
def test_snf_refuses_bad_arguments(rows, message):
    with pytest.raises(ValueError, match=message):
        smith_normal_form(rows)


@pytest.mark.parametrize("rows,diagonal", [
    ([], []), ([{}], [0]), ([{0: 2}, {0: 4}], [2, 0]),
    ([{5: 3}, {5: 6}, {7: 1}], [1, 3, 0]),
    # a key that holds only 0 still names a column, and a zero one
    ([{0: 2, 1: 0}, {0: 4}], [2, 0])])
def test_snf_gives_a_zero_place_per_missing_column(rows, diagonal):
    assert smith_normal_form(rows).diagonal == diagonal


@pytest.mark.parametrize("make,m,n,rounds,handed,rounds_at_0,handed_at_0", [
    (debruijn, 2, 8, 6, 4, 1, 241),
    (debruijn, 3, 5, 4, 8, 1, 187),
    (debruijn, 4, 4, 3, 8, 1, 156),
    (kautz, 2, 8, 6, 9, 2, 176),
    (kautz, 3, 5, 4, 7, 2, 91)],
    ids=["debruijn-2-8", "debruijn-3-5", "debruijn-4-4", "kautz-2-8", "kautz-3-5"])
def test_unit_phase_leaves_the_family_minors_a_small_remainder(
        make, m, n, rounds, handed, rounds_at_0, handed_at_0, monkeypatch):
    # each unit round splits off about half the rows, and the content of
    # what is left grows by m (or stays, at the end), so a few rounds leave
    # the general loop only a few entries on a relabelled graph with a
    # random sink, as perfbench's matrix workload has; the graph as built
    # with sink 0 stops growing its content sooner and hands over more
    contents, entries = [], []

    def counting_gcd(*values):
        contents.append(gcd(*values))
        return contents[-1]

    def divisor_pivots(sparse, col_rows):
        entries.append(sum(map(len, sparse)))
        return _divisor_pivots(sparse, col_rows)

    monkeypatch.setattr(elimination, "gcd", counting_gcd)
    monkeypatch.setattr(elimination, "_divisor_pivots", divisor_pivots)
    g = make(m, n)
    rng = random.Random(0)
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabelled = DiGraph(g.n, [(perm[s], perm[t]) for s, t in g.edges])
    for graph, sink, want in [(relabelled, rng.randrange(g.n), (rounds, handed)),
                              (g, 0, (rounds_at_0, handed_at_0))]:
        contents.clear()
        entries.clear()
        reduced = _minor_in_place(out_laplacian(graph), sink)
        # the pivots _smith takes: the unit phase's, then the divisor pivots
        col_rows = elimination._column_rows(reduced)
        units = elimination._unit_pivots(reduced, col_rows)[2]
        pivots = units + elimination._divisor_pivots(reduced, col_rows)
        assert len(pivots) == len(reduced) and not any(reduced)
        # one gcd a round: 1 (the Laplacian's), then each the last or m times it
        assert contents[0] == 1 and all(b in (a, m * a) for a, b in zip(contents, contents[1:]))
        assert (len(set(contents)) - 1, entries) == (want[0], [want[1]])


def test_snf_of_a_long_divisor_chain_within_bound():
    # rounds with units 1, 2, 4, ... would split one row each, 4000 passes
    # over the whole matrix; the first round splits under a quarter of the
    # rows, so the rest goes to the general loop at once
    k = 4000
    started = time.perf_counter()
    diagonal = smith_normal_form([{i: 1 << i} for i in range(k)]).diagonal
    assert time.perf_counter() - started < 1.0
    assert diagonal == [1 << i for i in range(k)]


@st.composite
def eulerian_multigraphs(draw):
    """Unions of 2-4 random permutations on 3-12 vertices, self-loops allowed."""
    n = draw(st.integers(3, 12))
    perms = draw(st.lists(st.permutations(range(n)), min_size=2, max_size=4))
    return DiGraph(n, [(v, t) for p in perms for v, t in enumerate(p)])


@given(eulerian_multigraphs())
def test_critical_group_of_random_eulerian_multigraphs(g):
    assume(is_strongly_connected(g))
    group = critical_group(g)
    assert group == group_from_diagonal(_dense_snf(dense_minor(dense_laplacian(g), 0)))
    assert group.order == rooted_tree_counts(g)[0]


@pytest.mark.parametrize("n,seed", [(40, 1), (50, 2), (60, 3)])
def test_snf_of_permutation_graph_minors_compacts_the_heap(n, seed, monkeypatch):
    # fill-in on these minors rewrites many entries per step, so stale
    # items pass four per live entry and the heap is rebuilt; only the
    # builds inside _divisor_pivots count
    builds, inside = [], []

    def counting_heapify(heap):
        if inside:
            builds.append(len(heap))
        heapq.heapify(heap)

    def divisor_pivots(sparse, col_rows):
        inside.append(1)
        return _divisor_pivots(sparse, col_rows)

    monkeypatch.setattr(elimination, "heapify", counting_heapify)
    monkeypatch.setattr(elimination, "_divisor_pivots", divisor_pivots)
    g = _permutation_graph(n, seed)
    diagonal = smith_normal_form(_minor_in_place(out_laplacian(g), 0)).diagonal
    assert diagonal == _dense_snf(dense_minor(dense_laplacian(g), 0))
    assert len(builds) >= 2     # the first build, then at least one rebuild


def test_critical_group_of_a_150_vertex_permutation_graph_within_bound():
    # a dense loop over the block left by divisor pivots took about 40 s here
    g = _permutation_graph(150, 1)
    started = time.perf_counter()
    group = critical_group(g)
    assert time.perf_counter() - started < 2.0
    assert group.order == abs(determinant(_minor_in_place(out_laplacian(g), 0)))


def test_critical_group_db_2_10_within_bound():
    g = debruijn(2, 10)
    started = time.perf_counter()
    group = critical_group(g)
    assert time.perf_counter() - started < 5.0
    assert group == db_formula(2, 10).normalize()


@pytest.mark.parametrize("call", [critical_group, count_trees])
def test_no_dense_matrix_on_the_library_path(call):
    # one list of 1024 lists of 1024 entries takes 8 MB of pointers alone
    g = debruijn(2, 10)
    tracemalloc.start()
    try:
        call(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("rows", [_minor_in_place(out_laplacian(_hub(500)), 2), _arrow(500)],
                         ids=["hub-graph", "arrow-matrix"])
def test_unit_phase_memory_follows_the_rows_not_the_costs(rows):
    # a cost of k^2 = 250,000: one empty list per cost up to it would take
    # 14 MB, where the matrix itself takes well under 1 MB
    tracemalloc.start()
    try:
        diagonal = smith_normal_form(rows).diagonal
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert prod(diagonal) == abs(determinant(rows))


def test_snf_of_rows_with_named_columns():
    # a minor's rows skip the deleted key; columns are named, not numbered
    lap = dense_laplacian(kautz(2, 2))
    for r in range(6):
        rows = _minor_in_place(sparse(lap), r)
        assert smith_normal_form(rows).diagonal == _dense_snf(dense_minor(lap, r))
    assert smith_normal_form([{7: 2}, {}]).diagonal == [2, 0]


@pytest.mark.parametrize("rows", [[{0: 1, 1: 0}], [{0: 1, 1: 1}, {2: 1}],
                                  [{}, {10 ** 30: 2, 7: 1}, {-1: 0, 5: 1}]])
def test_both_matrix_entries_refuse_more_column_keys_than_rows(rows):
    # one check in the copy both entries take, with one message; a key
    # whose entries are all 0 still names a column
    keys = len(set().union(*rows))
    for entry in (determinant, smith_normal_form):
        with pytest.raises(ValueError, match=f"^{keys} columns in a matrix of {len(rows)} rows$"):
            entry(rows)


def test_sandpile_kautz21_every_sink():
    g = kautz(2, 1)
    for sink in range(3):
        group = sandpile_group(g, sink)
        assert group == AbelianGroup((3,))
        assert group.order == count_trees_rooted(g, sink)


@pytest.mark.parametrize("make,m,n", [(debruijn, 2, 1), (debruijn, 2, 3), (debruijn, 3, 2),
                                      (kautz, 2, 1), (kautz, 2, 3), (kautz, 3, 2)])
def test_the_scripts_reduced_laplacian_gives_the_critical_group_at_every_sink(make, m, n):
    # critical_group_table.py's route at sink 0; on a balanced graph the
    # group and the rooted tree count do not depend on the sink
    g = make(m, n)
    group = critical_group(g)
    for sink in range(g.n):
        reduced = _minor_in_place(out_laplacian(g), sink)
        assert group_from_diagonal(smith_normal_form(reduced).diagonal) == group
        assert abs(determinant(reduced)) == group.order == count_trees_rooted(g, sink)


@st.composite
def strongly_connected_multigraphs(draw):
    """A cycle through 1-8 vertices in a random order plus up to 12 random
    edges: strongly connected, with self-loops and parallel edges, and
    seldom balanced."""
    n = draw(st.integers(1, 8))
    order = draw(st.permutations(range(n)))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    return DiGraph(n, [(order[i - 1], order[i]) for i in range(n)] + extra)


@given(strongly_connected_multigraphs())
@example(DiGraph(1, []))
def test_sandpile_group_at_every_sink_is_the_dense_smith_form(g):
    # _sandpile hands the unchecked reduced Laplacian, a gap at the sink,
    # to the Smith form's body
    lap = dense_laplacian(g)
    for sink in range(g.n):
        assert sandpile_group(g, sink) == group_from_diagonal(_dense_snf(dense_minor(lap, sink)))


@pytest.mark.parametrize("g", [_relabelled(debruijn(2, 6), random.Random(1)),
                               _relabelled(kautz(3, 3), random.Random(2)),
                               _permutation_graph(40, 3)],
                         ids=["debruijn-2-6", "kautz-3-3", "permutations-40"])
def test_sandpile_takes_the_pivots_of_the_public_smith_form(g):
    # _sandpile keeps the column labels with a gap at the sink, where
    # smith_normal_form numbers them 0..n-2 in key order; the unit phase
    # reads keys only by their order, so both routes start it from the same
    # rows, get the same pivots and hand the same rows on.  A renumbering
    # that reorders the columns (the last vertex moved into the sink's
    # slot, say) breaks ties between pivots another way and fails here.
    unit_pivots, divisor_pivots = elimination._unit_pivots, elimination._divisor_pivots

    def route(run):
        seen = []

        def recording_unit(rows, col_rows):
            seen.append([dict(row) for row in rows])
            seen.append(unit_pivots(rows, col_rows))
            return seen[-1]

        def recording_divisor(rows, col_rows):
            seen.append([dict(row) for row in rows])
            seen.append(divisor_pivots(rows, col_rows))
            return seen[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(elimination, "_unit_pivots", recording_unit)
            patch.setattr(elimination, "_divisor_pivots", recording_divisor)
            result = run()
        # both phases' pivots in order: the units' signed values, then the divisors
        started, left, pivots = seen[0], seen[2], seen[1][2] + seen[3]
        keys = set().union(*started)
        return result, _by_place(started, keys), _by_place(left, keys), pivots

    for sink in range(0, g.n, 7):
        body = route(lambda: crit_group._sandpile(g, sink))
        public = route(lambda: group_from_diagonal(
            smith_normal_form(_minor_in_place(out_laplacian(g), sink)).diagonal))
        assert body == public


def test_sandpile_two_cycle_trivial():
    g = DiGraph(2, [(0, 1), (1, 0)])
    assert sandpile_group(g, 0) == AbelianGroup(())
    assert sandpile_group(g, 0).order == 1


def test_sandpile_db22():
    assert sandpile_group(debruijn(2, 2), 0) == AbelianGroup((2,))
    assert sandpile_group(debruijn(2, 2), True) == AbelianGroup((2,))    # as index(True) == 1


@pytest.mark.parametrize("sink,message", [(1.0, "integer"), ("1", "integer"), (None, "integer"),
                                          (-1, "range"), (4, "range")])
def test_sandpile_refuses_a_sink_that_is_not_a_vertex(sink, message):
    with pytest.raises(GraphError, match=message):
        sandpile_group(debruijn(2, 2), sink)


def test_sandpile_rejects_disconnected():
    with pytest.raises(GraphError):
        sandpile_group(DiGraph(3, [(0, 1), (1, 0), (0, 2)]), 0)


def test_critical_group_requires_eulerian():
    g = DiGraph(2, [(0, 1), (1, 0), (0, 1)])  # indeg(1) = 2 but outdeg(1) = 1
    with pytest.raises(GraphError):
        critical_group(g)


def test_critical_group_examples():
    assert critical_group(debruijn(2, 2)) == AbelianGroup((2,))
    assert critical_group(kautz(2, 2)) == AbelianGroup((2, 6))
    assert critical_group(debruijn(2, 1)) == AbelianGroup(())


def test_critical_group_sink_independent():
    for g in (debruijn(2, 3), kautz(2, 2), kautz(3, 1)):
        group = critical_group(g)
        assert all(sandpile_group(g, sink) == group for sink in range(g.n))


def test_db_formula_instances():
    assert db_formula(2, 2).normalize() == AbelianGroup((2,))
    assert db_formula(3, 2).normalize() == AbelianGroup((3, 3, 3, 3, 9))
    assert db_formula(3, 2).normalize().order == 729 == group_order_db(3, 2)
    assert db_formula(2, 1).normalize() == AbelianGroup(())


def test_kautz_formula_instances():
    assert kautz_formula(2, 2).normalize() == AbelianGroup((2, 6))
    assert kautz_formula(2, 1).normalize() == AbelianGroup((3,))
    assert kautz_formula(4, 1).normalize() == AbelianGroup((5, 5, 5))


def test_formula_rejects_small_m():
    with pytest.raises(GraphError):
        db_formula(1, 2)
    with pytest.raises(GraphError):
        kautz_formula(1, 2)


def test_group_orders():
    assert group_order_db(2, 2) == 2
    assert group_order_kautz(2, 2) == 12
    assert group_order_db(2, 3) == 16


def test_tree_count_closed_forms():
    assert tree_count_db(2, 2) == 8 == count_trees(debruijn(2, 2))
    assert tree_count_kautz(2, 2) == 72 == count_trees(kautz(2, 2))
    # the uncorrected exponent overshoots by the factor seen here
    assert (2 + 1) ** 2 * 2 ** ((2 ** 2 - 1) * (2 + 1)) == 4608 != 72


@pytest.mark.parametrize("tree_count", [tree_count_db, tree_count_kautz])
@pytest.mark.parametrize("m,n,message", [
    (0, 2, "requires"), (2, 0, "requires"), (-1, 3, "requires"),  # m >= 1 and n >= 1
    (2, 14, "cap"), (3, 64, "cap"), (10 ** 6, 10 ** 6, "cap"),      # over MAX_ORDER_DIGITS
])
def test_tree_counts_refuse_bad_and_huge_inputs(tree_count, m, n, message):
    with pytest.raises(GraphError, match=message):
        tree_count(m, n)


@pytest.mark.parametrize("family", [db_formula, kautz_formula, group_order_db, group_order_kautz,
                                    tree_count_db, tree_count_kautz])
@pytest.mark.parametrize("m,n", [(2.5, 3), (2.0, 3), (2, 3.0), ("2", 3), (None, 3)])
def test_family_closed_forms_refuse_m_and_n_that_are_not_integers(family, m, n):
    # db_formula(2.5, 3) once gave "(Z_15.625)^0.5 + ..." and
    # tree_count_kautz(2.0, 3) the float 4608.0
    with pytest.raises(GraphError, match="integers m and n"):
        family(m, n)


@pytest.mark.parametrize("build", [
    lambda: AbelianGroup((2, 4.0)), lambda: AbelianGroup((2,), 1.5), lambda: AbelianGroup(("2",)),
    lambda: group_from_cyclic_orders([2.5]), lambda: group_from_cyclic_orders([4, None]),
    lambda: GroupFormula(((2.5, 1),)), lambda: GroupFormula(((2, 1.5),)),
    lambda: GroupFormula(((2, 1, 1),)), lambda: GroupFormula((2,)),
    lambda: mult_by_k(AbelianGroup((4,)), 2.5), lambda: mult_by_k(AbelianGroup((4,)), "2")])
def test_groups_refuse_orders_that_are_not_integers(build):
    # each once gave a group printed with Z_2.5 or Z_4.0, or a raw TypeError
    with pytest.raises(ValueError, match="integer"):
        build()


@pytest.mark.parametrize("factors,free", [((0, 4), 0), ((1, 2), 0), ((2,), -1)])
def test_abelian_group_refuses_factors_below_2_and_a_negative_free_rank(factors, free):
    # (0, 4) once raised ZeroDivisionError from the chain check, and a free
    # rank of -1 printed as the trivial group
    with pytest.raises(ValueError, match=">= 2"):
        AbelianGroup(factors, free)


def test_groups_take_their_orders_through_index():
    # a list and bools are stored as a tuple of plain ints
    group = AbelianGroup([2, 4], True)
    assert group == AbelianGroup((2, 4), 1) and type(group.free_rank) is int
    assert str(group) == "Z_2 + Z_4 + Z"
    assert GroupFormula([(4, True)]).summands == ((4, 1),)
    assert mult_by_k(AbelianGroup((4,)), True) == AbelianGroup((4,))


def test_mult_by_k():
    assert mult_by_k(group_from_cyclic_orders([4, 2]), 2) == AbelianGroup((2,))
    assert mult_by_k(group_from_cyclic_orders([3]), 2) == AbelianGroup((3,))
    assert mult_by_k(critical_group(debruijn(2, 3)), 2) == critical_group(debruijn(2, 2))


@given(st.lists(st.integers(1, 200), max_size=6), st.integers(0, 60))
def test_mult_by_k_matches_normalized_orders(orders, k):
    # the direct chain construction against normalizing the cyclic orders
    group = group_from_cyclic_orders(orders)
    factors = group.invariant_factors
    assert mult_by_k(group, k) == group_from_cyclic_orders([d // gcd(d, k) for d in factors])


# products of small powers of 2, 3 and 5, so that a list draws repeats,
# 1s and interleaved prime powers; and a few other orders
CYCLIC_ORDERS = st.lists(
    st.builds(lambda a, b, c: 2 ** a * 3 ** b * 5 ** c,
              st.integers(0, 7), st.integers(0, 4), st.integers(0, 3))
    | st.sampled_from([1, 7, 11 * 13, 2 ** 40]), max_size=40)


@given(CYCLIC_ORDERS)
@example([2 ** i for i in range(1, 9)] + [3 ** i for i in range(1, 9)] + [1, 1])
def test_chain_matches_both_former_normal_forms(orders):
    factors = _chain(orders)
    assert factors == trial_division_factors(orders)
    assert factors == [d for d in bubble_chain(sorted(orders)) if d != 1]
    assert group_from_cyclic_orders(orders).invariant_factors == tuple(factors)


def test_normalize_of_a_semiprime_within_bound():
    # trial division took 10.8 s to factor this order
    started = time.perf_counter()
    group = GroupFormula(((2147483647 * 99999989, 1),)).normalize()
    assert time.perf_counter() - started < 1.0
    assert group == AbelianGroup((2147483647 * 99999989,))


def test_snf_of_the_kautz_2_13_formula_diagonal_within_bound():
    # passes of adjacent gcd/lcm steps until none changed took 1.65 s on
    # these 6,144 interleaved powers of 2 and 3
    formula = kautz_formula(2, 13)
    orders = [mod for mod, mult in formula.summands for _ in range(mult)]
    started = time.perf_counter()
    diagonal = smith_normal_form([{i: d} for i, d in enumerate(orders)]).diagonal
    assert time.perf_counter() - started < 0.5
    assert group_from_diagonal(diagonal) == formula.normalize()


def test_group_normalization():
    assert group_from_cyclic_orders([2, 3]) == AbelianGroup((6,))
    assert group_from_cyclic_orders([2, 2, 3]) == AbelianGroup((2, 6))
    assert group_from_diagonal([1, 1, 2, 6, 0]) == AbelianGroup((2, 6), free_rank=1)
    with pytest.raises(ValueError):
        AbelianGroup((4, 6))  # 4 does not divide 6


@given(st.lists(st.integers(1, 30), max_size=5))
def test_group_normalization_properties(orders):
    group = group_from_cyclic_orders(orders)
    expected = 1
    for d in orders:
        expected *= d
    assert group.order == expected
    for a, b in zip(group.invariant_factors, group.invariant_factors[1:]):
        assert b % a == 0


def test_check_divbym_examples():
    report = check_divbym(kautz(2, 2))
    assert isinstance(report, DivisibilityReport)
    assert report.holds and report.class_count == 3
    assert report.diagonal == [1, 1, 1, 2, 6, 0]

    report = check_divbym(debruijn(2, 2))
    assert report.holds and report.class_count == 2
    assert all(d % 2 == 1 for d in report.diagonal[:2])
    assert all(d % 2 == 0 for d in report.diagonal[2:])

    report = check_divbym(debruijn(3, 2))
    assert report.holds and report.class_count == 3
    assert len(report.diagonal) == 9


def test_check_divbym_rejects():
    with pytest.raises(GraphError):
        check_divbym(DiGraph(2, [(0, 1), (1, 0)]))
    with pytest.raises(GraphError):
        check_divbym(debruijn(2, 1))


@pytest.mark.parametrize("make,formula,m,n", [
    (debruijn, db_formula, 2, 3),
    (debruijn, db_formula, 3, 2),
    (kautz, kautz_formula, 2, 3),
    (kautz, kautz_formula, 3, 2),
])
def test_snf_matches_formula(make, formula, m, n):
    assert critical_group(make(m, n)) == formula(m, n).normalize()


@pytest.mark.parametrize("make", [debruijn, kautz])
@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3)])
def test_group_order_is_rooted_tree_count(make, m, n):
    g = make(m, n)
    assert critical_group(g).order == count_trees_rooted(g, 0)
