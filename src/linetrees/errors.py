"""Exception types shared across the package, the way their messages print
large counts, and the one check of integer input (README: Input contract)."""

from math import log10
from operator import index

# CPython's default limit on printing an int: str() of an int with more
# decimal digits raises ValueError.  The closed forms refuse group orders
# past it, and messages give counts past it by their logarithm.
MAX_ORDER_DIGITS = 4300
# The family generators refuse a graph past this many edges from m and n,
# before any label is built; db(2,19) is the largest binary one under it.
MAX_FAMILY_EDGES = 2 ** 20


class GraphError(ValueError):
    """Malformed graph input or an operation applied outside its domain."""


class UnsupportedFamilyError(GraphError):
    """Graph is not a recognized de Bruijn or Kautz graph."""


class InvalidTreeArrayError(ValueError):
    """Array of lists violates a tree-array invariant."""


class InvalidTreeError(ValueError):
    """Edge set is not an oriented spanning tree."""


class InvalidSequenceError(ValueError):
    """Bit string is not a de Bruijn sequence of the stated degree."""


class EnumerationBound(RuntimeError):
    """A brute-force enumeration would exceed its configured bound."""


def count_text(n: int) -> str:
    """A count for a message: in decimal while it has at most
    MAX_ORDER_DIGITS digits, past that as "about 10^x" from its logarithm
    (anything but an int as str() gives it)."""
    if not isinstance(n, int) or n < 10 ** MAX_ORDER_DIGITS:
        return str(n)
    return f"about 10^{log10(n):.1f}"


def integers(values, text: str, error: type[ValueError] = ValueError,
             count: int | None = None) -> list[int]:
    """The values through operator.index, as a list; error(text) if one is
    not an integer, or if they are not `count` of them when count is given."""
    try:
        values = list(map(index, values))
    except TypeError:
        raise error(text) from None
    if count is not None and len(values) != count:
        raise error(text)
    return values


def integer(value, text: str, error: type[ValueError] = ValueError) -> int:
    """integers' twin for one value."""
    return integers((value,), text, error)[0]
