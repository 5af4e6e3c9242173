"""Laplacians, exact integer Smith normal form, and the critical groups of
the de Bruijn and Kautz families.

The Laplacian is the package's one builder, arborescence.out_laplacian:
L(G) = D(G) - A(G) with D = diag(outdeg) and A the adjacency matrix
(counting multiplicities, self-loops included), so a self-loop cancels on
the diagonal.  The paper's figure shows A - D, the negation; a cokernel
and a Smith normal form do not depend on the sign.  The sandpile group
with sink r is the cokernel of the reduced Laplacian (row and column of r
deleted); its order is the number of spanning trees rooted at r.  On a
balanced (indeg = outdeg) strongly connected graph the choice of sink does
not matter and the common group is the critical group.  smith_normal_form
checks its input for the body, _smith, which linetrees.elimination holds;
the sandpile group hands its reduced Laplacian straight to the body.

Closed forms implemented for the two families (m >= 2):

  K(DB_n(m))    = (Z_{m^n})^(m-2)  (+)  sum_{i=1}^{n-1} (Z_{m^i})^(m^(n-1-i) (m-1)^2)
  K(Kautz_n(m)) = (Z_{m+1})^(m-1) (+) (Z_{m^(n-1)})^(m^2-2)
                  (+) sum_{i=1}^{n-2} (Z_{m^i})^(m^(n-2-i) (m-1)^2 (m+1))

with orders m^(m^n - n - 1) and (m+1)^(m-1) m^(m^n + m^(n-1) - m - n).
The tree counts behind those orders are kappa(DB_n(m)) = m^(m^n - 1) and
kappa(Kautz_n(m)) = (m+1)^m m^((m^(n-1) - 1)(m+1)).  A published variant of
the Kautz tree count carries the exponent (m^n - 1)(m+1) instead; that form
is inconsistent with the group order above (divide by |V|) and with direct
counting -- kappa(Kautz_2(2)) is 72, not 9 * 2^9 -- so the corrected
exponent is the one implemented and tested here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd, inf, log10, prod
from operator import index
from typing import Mapping, Sequence

from .arborescence import out_laplacian
from .digraph import DiGraph, _vertex, detect_family, is_eulerian, is_strongly_connected
from .elimination import _chain, _checked_rows, _minor_in_place, _smith
from .errors import MAX_ORDER_DIGITS, GraphError, integer, integers


@dataclass
class SmithResult:
    diagonal: list[int]          # full diagonal, zeros included, d1 | d2 | ...


def smith_normal_form(rows: Sequence[Mapping[int, int]]) -> SmithResult:
    """Exact Smith normal form of a square integer matrix held as sparse rows.

    Row i is rows[i] as {col: value}; distinct keys, which must sort, name
    distinct columns (a key that holds 0 still names one), and there may be
    no more of them than rows: fewer leave zero columns.  The input is not
    changed; bad arguments raise ValueError.  The unit phase and the general
    loop split off a cyclic factor per pivot; the diagonal is those merged
    into the chain d1 | d2 | ..., then a zero for each of the len(rows)
    places the rank leaves.
    """
    sparse = _checked_rows(rows, "Smith form takes rows of {col: value} whose keys sort, "
                                 "and its entries must be integers")
    return SmithResult(_smith(sparse))


# --- finite abelian groups ---------------------------------------------------

@dataclass(frozen=True)
class AbelianGroup:
    """Invariant-factor form: d1 | d2 | ..., each >= 2, plus a free rank."""
    invariant_factors: tuple[int, ...]
    free_rank: int = 0

    def __post_init__(self):
        # stored as a tuple of ints, so that equal groups compare and print alike
        *factors, rank = integers(chain(self.invariant_factors, (self.free_rank,)),
                                  "invariant factors and free rank must be integers")
        object.__setattr__(self, "invariant_factors", tuple(factors))
        object.__setattr__(self, "free_rank", rank)
        if any(f < 2 for f in self.invariant_factors) or self.free_rank < 0:
            raise ValueError("factors must be >= 2 (units are dropped) and the free rank >= 0")
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors must form a chain: {a} | {b} fails")

    @property
    def order(self) -> int:
        if self.free_rank:
            raise ValueError("infinite group has no order")
        return prod(self.invariant_factors)

    def __str__(self) -> str:
        parts = [f"Z_{f}" for f in self.invariant_factors] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"


def group_from_diagonal(diagonal: Sequence[int]) -> AbelianGroup:
    return AbelianGroup(tuple(d for d in diagonal if d not in (0, 1)), list(diagonal).count(0))


def group_from_cyclic_orders(orders: Sequence[int]) -> AbelianGroup:
    """Normalize a direct sum of cyclic groups to invariant-factor form."""
    orders = integers(orders, "cyclic orders must be integers")
    if any(n < 1 for n in orders):
        raise ValueError("cyclic orders must be positive")
    return AbelianGroup(tuple(_chain(orders)))


@dataclass(frozen=True)
class GroupFormula:
    """Direct sum of (Z_modulus)^multiplicity summands, as written, whose
    order has at most MAX_ORDER_DIGITS digits."""
    summands: tuple[tuple[int, int], ...]

    def __post_init__(self):
        try:
            summands = tuple((index(mod), index(mult)) for mod, mult in self.summands)
        except (TypeError, ValueError):     # not pairs, or not integers
            raise ValueError("summands must be (modulus, multiplicity) pairs of integers") from None
        if any(mod < 1 or mult < 0 for mod, mult in summands):
            raise ValueError("moduli must be >= 1 and multiplicities >= 0")
        # a multiplicity past 2^16 puts a modulus >= 2 past the cap alone,
        # and capping it keeps the product a float
        if sum(log10(mod) * min(mult, 1 << 16) for mod, mult in summands) > MAX_ORDER_DIGITS:
            raise ValueError("summands give an order that exceeds the cap of "
                             f"{MAX_ORDER_DIGITS} decimal digits")
        object.__setattr__(self, "summands", summands)

    def normalize(self) -> AbelianGroup:
        return group_from_cyclic_orders(
            [mod for mod, mult in self.summands if mod > 1 for _ in range(mult)])

    def order(self) -> int:
        return prod(modulus ** mult for modulus, mult in self.summands)

    def __str__(self) -> str:
        parts = [f"(Z_{mod})^{mult}" for mod, mult in self.summands if mult > 0 and mod > 1]
        return " + ".join(parts) if parts else "0"


# The closed forms build the group order as an integer, and normalizing a
# formula builds a list with one entry per cyclic summand of modulus > 1,
# at most as many as the order has bits, that _chain merges.  Past
# MAX_ORDER_DIGITS decimal digits _family_args refuses the order before
# either is built, and GroupFormula refuses any formula past it when built.


def _family_args(m: int, n: int, kautz: bool, trees: bool = False) -> tuple[int, int]:
    """m and n through operator.index, or GraphError if either is not an
    integer, if n < 1 or m < 2 (m < 1 for a tree count, trees=True), or if
    the family's group order has over MAX_ORDER_DIGITS digits.

    The order is m^(m^n - n - 1) for de Bruijn graphs and
    (m+1)^(m-1) m^(m^n + m^(n-1) - m - n) for Kautz graphs; its digit count
    comes from logarithms, so nothing of the order's size is built.  With
    trees=True the bound is on the tree count, the order times |V|.
    """
    what, least = ("tree count", 1) if trees else ("group order", 2)
    m, n = integers((m, n), f"{what} requires integers m and n", GraphError)
    if m < least or n < 1:
        raise GraphError(f"{what} requires m >= {least} and n >= 1")
    if n * log10(m) > 300:  # m^n > 10^300: far past the cap, and past a float
        digits = inf
    else:
        x = float(m) ** n
        digits = ((x + x / m - m - n) * log10(m) + (m - 1) * log10(m + 1) if kautz
                  else (x - n - 1) * log10(m))
        if trees:  # |V| = (m+1)m^(n-1) or m^n
            digits += log10(x / m * (m + 1) if kautz else x)
    if digits > MAX_ORDER_DIGITS:
        raise GraphError(f"{what} exceeds the cap of {MAX_ORDER_DIGITS} decimal digits")
    return m, n


def db_formula(m: int, n: int) -> GroupFormula:
    """Critical group of DB_n(m), as a formula."""
    m, n = _family_args(m, n, kautz=False)
    summands = [(m ** n, m - 2)]
    summands += [(m ** i, m ** (n - 1 - i) * (m - 1) ** 2) for i in range(1, n)]
    return GroupFormula(tuple(summands))


def kautz_formula(m: int, n: int) -> GroupFormula:
    """Critical group of Kautz_n(m), as a formula."""
    m, n = _family_args(m, n, kautz=True)
    summands = [(m + 1, m - 1), (m ** (n - 1), m * m - 2)]
    summands += [(m ** i, m ** (n - 2 - i) * (m - 1) ** 2 * (m + 1)) for i in range(1, n - 1)]
    return GroupFormula(tuple(summands))


def group_order_db(m: int, n: int) -> int:
    m, n = _family_args(m, n, kautz=False)
    return m ** (m ** n - n - 1)


def group_order_kautz(m: int, n: int) -> int:
    m, n = _family_args(m, n, kautz=True)
    return (m + 1) ** (m - 1) * m ** (m ** n + m ** (n - 1) - m - n)


def tree_count_db(m: int, n: int) -> int:
    """kappa(DB_n(m)) = m^(m^n - 1)."""
    m, n = _family_args(m, n, kautz=False, trees=True)
    return m ** (m ** n - 1)


def tree_count_kautz(m: int, n: int) -> int:
    """kappa(Kautz_n(m)) = (m+1)^m m^((m^(n-1)-1)(m+1)); see the module notes."""
    m, n = _family_args(m, n, kautz=True, trees=True)
    return (m + 1) ** m * m ** ((m ** (n - 1) - 1) * (m + 1))


# --- sandpile / critical groups ----------------------------------------------

def sandpile_group(g: DiGraph, sink: int) -> AbelianGroup:
    """Cokernel of the reduced Laplacian; order = trees rooted at the sink."""
    sink = _vertex(g.n, sink, "sink")
    if not is_strongly_connected(g):
        raise GraphError("sandpile group requires a strongly connected graph")
    return _sandpile(g, sink)


def critical_group(g: DiGraph) -> AbelianGroup:
    """Sink-independent sandpile group of a balanced strongly connected graph."""
    if not is_eulerian(g):
        raise GraphError("critical group requires indeg = outdeg everywhere")
    if not is_strongly_connected(g):
        raise GraphError("critical group requires strong connectivity")
    return _sandpile(g, 0)  # a DiGraph has at least one vertex


def _sandpile(g: DiGraph, sink: int) -> AbelianGroup:
    """sandpile_group's body, on a strongly connected g and a sink in range."""
    group = group_from_diagonal(_smith(_minor_in_place(out_laplacian(g), sink)))
    if group.free_rank:
        raise GraphError("reduced Laplacian is singular")  # unreachable when strongly connected
    return group


def mult_by_k(group: AbelianGroup, k: int) -> AbelianGroup:
    """The subgroup k*K: each Z_d becomes Z_(d / gcd(d, k))."""
    if group.free_rank:
        raise ValueError("mult_by_k is defined for finite groups")
    k = integer(k, "mult_by_k takes an integer k")
    # d / gcd(d, k) takes each prime's exponent e in d to max(e - e_p(k), 0),
    # which keeps the exponents in order, so d1 | d2 | ... stays a chain
    orders = (d // gcd(d, k) for d in group.invariant_factors)
    return AbelianGroup(tuple(d for d in orders if d > 1))


@dataclass
class DivisibilityReport:
    family: str
    m: int
    n: int
    class_count: int
    diagonal: list[int]
    holds: bool


def check_divbym(g: DiGraph) -> DivisibilityReport:
    """Invariant-factor split of the full Laplacian of a family graph.

    For debruijn(m, n) or kautz(m, n) with n >= 2, the first c = |V|/m
    invariant factors must be coprime to m and the remaining |V| - c
    divisible by m (the trailing 0 counts as divisible).
    """
    family, m, length = detect_family(g)
    if length < 2:
        raise GraphError("divisibility split needs string length >= 2")
    c = g.n // m
    diag = smith_normal_form(out_laplacian(g)).diagonal
    holds = (all(gcd(d, m) == 1 for d in diag[:c])
             and all(d % m == 0 for d in diag[c:]))
    return DivisibilityReport(family, m, length, c, diag, holds)
