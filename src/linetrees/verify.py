"""End-to-end verification suite: every headline claim checked at desk scale.

Each criterion is a function returning a :class:`CriterionResult`; the CLI
``verify-all`` subcommand and the acceptance tests both run these.  All
checks are exact (integer or multiset equality); the only tolerances are
wall-clock budgets on the heavyweight criteria.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from . import db_codec
from .arborescence import (count_trees, enumerate_trees, knuth_check,
                           verify_identity)
from .corpus import identity_corpus
from .crit_group import (check_divbym, critical_group, db_formula, group_order_db,
                         group_order_kautz, kautz_formula, mult_by_k,
                         tree_count_db, tree_count_kautz)
from .digraph import class_cycle, debruijn, kautz, label_isomorphic, line_graph
from .errors import integers
from .line_bijection import (LineContext, _pi, _sigma, enumerate_tree_arrays, shuffled_order,
                             tree_array_count)

DB_PARAMS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2)]
KAUTZ_PARAMS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)]

_FAMILIES = (("db", debruijn, db_formula, group_order_db, tree_count_db, DB_PARAMS),
            ("kautz", kautz, kautz_formula, group_order_kautz, tree_count_kautz, KAUTZ_PARAMS))

BIJECTION_ARRAY_CAP = 10 ** 4
ORDER_SEEDS = (1, 2, 3)


@dataclass
class CriterionResult:
    number: int
    label: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.label} ({self.detail}; {self.seconds:.1f}s)"


def _result(number: int, label: str, started: float, passed: bool, detail: str) -> CriterionResult:
    return CriterionResult(number, label, passed, detail, time.perf_counter() - started)


def criterion_1_identity() -> CriterionResult:
    started = time.perf_counter()
    graphs = identity_corpus()
    # the densest corpus entries need a larger candidate budget than the
    # library default; the comparison itself stays exact
    failures = sum(not verify_identity(g, bound=10 ** 8).holds for g in graphs)
    elapsed = time.perf_counter() - started
    passed = failures == 0 and elapsed < 60.0
    return _result(1, "generating-function identity, exact monomial multisets",
                   started, passed, f"{len(graphs)} graphs, {failures} failures")


def criterion_2_knuth() -> CriterionResult:
    started = time.perf_counter()
    graphs = identity_corpus()
    failures = sum(not knuth_check(g).holds for g in graphs)
    return _result(2, "tree-count product formula by determinants",
                   started, failures == 0, f"{len(graphs)} graphs, {failures} failures")


def criterion_3_bijection() -> CriterionResult:
    started = time.perf_counter()
    graphs = [g for g in identity_corpus() if tree_array_count(g) <= BIJECTION_ARRAY_CAP]
    checked = 0
    for g in graphs:
        ctx = LineContext(g)
        n, target = g.n, ctx.target
        arrays = list(enumerate_tree_arrays(g))
        # The bodies take and give line trees as (root, successors), and the
        # enumerations build valid input, so the bodies skip validation.
        line_trees = {(t.root, ctx.successors(t))
                      for t in enumerate_trees(ctx.line, bound=10 ** 8)}
        # sigma injective and onto, and pi(T) the array that sigma maps to
        # T for every T, give pi(sigma(A)) == A and sigma(pi(T)) == T
        for order in [range(g.m)] + [shuffled_order(g, seed) for seed in ORDER_SEEDS]:
            inv = {_sigma(n, target, a, order): a for a in arrays}
            if len(inv) != len(arrays):
                failure = "sigma is not injective"
            elif inv.keys() != line_trees:
                failure = "sigma is not onto the line-graph trees"
            elif any(_pi(n, target, *t, order) != inv[t] for t in line_trees):
                failure = "pi does not invert sigma"
            else:
                continue
            return _result(3, "tree-array bijection", started, False,
                           f"{failure} on a {g.n}-vertex graph")
        checked += len(arrays)
    return _result(3, "tree-array bijection under 4 edge orders", started, True,
                   f"{len(graphs)} graphs, {checked} arrays")


def criterion_4_codec() -> CriterionResult:
    started = time.perf_counter()
    for degree in (2, 3, 4):
        width = 2 ** (degree - 1)
        sequences = db_codec.enumerate_db_sequences(degree)
        if len(sequences) != 2 ** width:
            return _result(4, "sequence codec", started, False,
                           f"expected {2 ** width} sequences at degree {degree}")
        codes = [db_codec.encode(b, degree) for b in sequences]
        if sorted(codes) != [format(x, f"0{width}b") for x in range(2 ** width)]:
            return _result(4, "sequence codec", started, False,
                           f"encode is not onto all {width}-bit strings at degree {degree}")
        for bits, code in zip(sequences, codes):
            if db_codec.decode(code, degree) != bits:
                return _result(4, "sequence codec", started, False,
                               f"decode(encode({bits})) mismatch at degree {degree}")
            if db_codec.path_to_seq(db_codec.seq_to_path(bits, degree)) != bits:
                return _result(4, "sequence codec", started, False,
                               f"path_to_seq(seq_to_path({bits})) mismatch at degree {degree}")
    elapsed = time.perf_counter() - started
    return _result(4, "de Bruijn codec bijective for degrees 2-4", started,
                   elapsed < 60.0, "4 + 16 + 256 sequences, exhaustive")


def criterion_5_groups() -> CriterionResult:
    started = time.perf_counter()
    failures = [f"{name}({m},{n})" for name, make, formula, *_, params in _FAMILIES
                for m, n in params if critical_group(make(m, n)) != formula(m, n).normalize()]
    elapsed = time.perf_counter() - started
    passed = not failures and elapsed < 120.0
    return _result(5, "critical groups match the closed-form decompositions",
                   started, passed,
                   f"{len(DB_PARAMS) + len(KAUTZ_PARAMS)} graphs" +
                   (f", failures: {failures}" if failures else ""))


def criterion_6_orders() -> CriterionResult:
    started = time.perf_counter()
    failures = []
    for name, make, _, order, trees, params in _FAMILIES:
        for m, n in params:
            g = make(m, n)
            if critical_group(g).order != order(m, n):
                failures.append(f"{name}({m},{n}) order")
            if count_trees(g) != trees(m, n):
                failures.append(f"{name}({m},{n}) kappa")
    # the corrected Kautz tree-count exponent, pinned against brute force
    if count_trees(kautz(2, 2)) != 72 or tree_count_kautz(2, 2) != 72:
        failures.append("kappa(kautz(2,2)) != 72")
    if (2 + 1) ** 2 * 2 ** ((2 ** 2 - 1) * (2 + 1)) == 72:
        failures.append("variant exponent unexpectedly agrees")
    return _result(6, "group orders and tree counts match the closed forms",
                   started, not failures,
                   "incl. kappa(kautz(2,2)) = 72" + (f", failures: {failures}" if failures else ""))


def criterion_7_divisibility() -> CriterionResult:
    started = time.perf_counter()
    failures = []
    for make, params in ((debruijn, DB_PARAMS), (kautz, KAUTZ_PARAMS)):
        for m, n in params:
            if n < 2:
                continue
            if not check_divbym(make(m, n)).holds:
                failures.append(f"{make.__name__}({m},{n})")
    return _result(7, "full-Laplacian invariant-factor split mod m",
                   started, not failures,
                   "all family graphs with n >= 2" + (f", failures: {failures}" if failures else ""))


def criterion_8_homomorphism() -> CriterionResult:
    started = time.perf_counter()
    failures = []
    for make, params in ((debruijn, DB_PARAMS), (kautz, KAUTZ_PARAMS)):
        for m, n in params:
            g = make(m, n)
            lifted = make(m, n + 1)
            if not label_isomorphic(line_graph(g), lifted):
                failures.append(f"{make.__name__}({m},{n}) line graph mismatch")
                continue
            if mult_by_k(critical_group(lifted), m) != critical_group(g):
                failures.append(f"{make.__name__}({m},{n})")
    return _result(8, "multiplication by m maps K(LG) onto K(G)",
                   started, not failures,
                   "both families" + (f", failures: {failures}" if failures else ""))


def criterion_9_class_cycles() -> CriterionResult:
    started = time.perf_counter()
    count = 0
    for make in (debruijn, kautz):
        for m in (2, 3):
            for n in (2, 3):
                g = make(m, n)
                class_cycle(g)  # validates edges and class coverage
                count += 1
    return _result(9, "class-covering cycles in both families",
                   started, True, f"{count} graphs, edge- and class-validated")


CRITERIA: Sequence[Callable[[], CriterionResult]] = (
    criterion_1_identity, criterion_2_knuth, criterion_3_bijection,
    criterion_4_codec, criterion_5_groups, criterion_6_orders,
    criterion_7_divisibility, criterion_8_homomorphism, criterion_9_class_cycles,
)


def run(numbers: Sequence[int] | None = None) -> list[CriterionResult]:
    """Run and print the given criteria (all by default) in order; ValueError for unknown ones."""
    known = range(1, len(CRITERIA) + 1)
    wanted = sorted(set(integers(numbers or known, "criterion numbers must be integers")))
    if unknown := [x for x in wanted if x not in known]:
        raise ValueError(f"unknown criterion numbers {unknown}: the criteria are 1 to {known[-1]}")
    results = []
    for i in wanted:     # each line as soon as its criterion is done
        results.append(CRITERIA[i - 1]())
        print(results[-1].line())
    return results
