"""Bijective codec between binary de Bruijn sequences of degree n and bit
strings of length 2^(n-1).

A de Bruijn sequence of degree n is a cyclic bit string of length 2^n whose
2^n cyclic windows of length n are pairwise distinct; read as a vertex
sequence those windows form a Hamiltonian path in DB_n(2), which is also an
oriented spanning tree of DB_n(2) rooted at its final vertex.  Since
DB_n(2) is the line graph of DB_{n-1}(2), the inverse tree-array map turns
that path into a tree array A_{n-1} of DB_{n-1}(2), whose last entries form
a spanning tree T_{n-1}; peeling repeatedly produces arrays A_k and trees
T_k all the way down to DB_1(2).  All orders are lexicographic on the edge
strings (which is edge-index order for the generators here).

Every list in these arrays has exactly two entries, because every vertex of
DB_k(2) has indegree 2.  The second entry is forced (the tree edge, or the
OMEGA sentinel at the root), so each array contributes one free bit per
vertex: whether the first entry is the vertex's "zero edge" (the out-edge
appending 0) or its "one edge".  The encoding is:

  bit 1                 root of T_1 (0 iff rooted at vertex "0");
  bits 2^k .. 2^(k+1)-1 first entries of A_k, vertices in lex order,
                        for 1 <= k <= n-2;
  bit 2^(n-1)           first entry of the root list of A_{n-1}.

That is 1 + (2 + 4 + ... + 2^(n-2)) + 1 = 2^(n-1) bits.  At the top level
only the root's bit is free: in a tree array whose image is a Hamiltonian
path every non-root list must contain two distinct edges, so the first
entry is forced to be the non-tree out-edge.  The root of A_{n-1} is the
vertex where the Eulerian walk of DB_{n-1}(2) described by the sequence
starts and ends, and its free bit records which of its two out-edges the
walk leaves by, which is exactly the remaining degree of freedom.

Decoding reverses the levels with the forward map: rebuild T_1 from bit 1,
assemble each A_k from its bits and T_k, apply the forward map to get
T_{k+1}, and finally assemble A_{n-1} (non-root lists [non-tree edge, tree
edge], root list [chosen edge, OMEGA]) whose image is the Hamiltonian path.

No graph is built and nothing is kept between calls.  The bodies of sigma
and pi read only a vertex count, the edge heads and the edge order, and
edge e of DB_k(2) ends at e mod 2^k, so level k runs on the heads
list(range(2^k)) * 2 in index order, range(2^(k+1)).  L(DB_k(2)) is
DB_{k+1}(2) index for index: the path enters the inverse map as
succ[a] = b for its steps a -> b, T_{k+1} as succ[v] = the head of v's
tree edge, and the line edge (e, f) that sigma gives back is the edge
2e + (f & 1) of DB_{k+1}(2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidSequenceError
from .line_bijection import OMEGA, Succ, TreeArray, _pi, _sigma


@dataclass(frozen=True)
class HamPath:
    """Hamiltonian path in DB_degree(2), as a vertex-id sequence."""
    degree: int
    vertices: tuple[int, ...]


def validate(bits: str, degree: int) -> bool:
    """True iff bits is a de Bruijn sequence of the given degree."""
    windows = _windows(bits, degree)
    return len(set(windows)) == len(windows)


def _windows(bits: str, degree: int) -> list[int]:
    """The cyclic windows of bits as integers, one rolling pass; checks shape."""
    if degree < 1:
        raise InvalidSequenceError("degree must be at least 1")
    if len(bits) != 2 ** degree:
        raise InvalidSequenceError(
            f"sequence of degree {degree} must have length {2 ** degree}, got {len(bits)}")
    if bits.strip("01"):
        raise InvalidSequenceError("sequence must consist of 0s and 1s")
    mask = (1 << degree) - 1
    # seeded with the first degree-1 bits, each further bit completes a window
    window = int(bits[:degree - 1] or "0", 2)
    windows = []
    for c in bits[degree - 1:] + bits[:degree - 1]:
        window = ((window << 1) & mask) | (c == "1")
        windows.append(window)
    return windows


def seq_to_path(bits: str, degree: int) -> HamPath:
    """Window i of the sequence becomes vertex i of the path."""
    windows = _windows(bits, degree)
    if len(set(windows)) != len(windows):
        raise InvalidSequenceError("not a de Bruijn sequence")
    return HamPath(degree, tuple(windows))


def path_to_seq(path: HamPath) -> str:
    """Inverse of seq_to_path: read one bit per window."""
    size = 2 ** path.degree
    try:
        if len(path.vertices) != size or len(set(path.vertices)) != size:
            raise InvalidSequenceError("path must visit every vertex exactly once")
        top = 2 ** (path.degree - 1)
        bits = "".join("1" if v >= top else "0" for v in path.vertices)
    except TypeError:   # a vertex that is unhashable or not a number
        raise InvalidSequenceError("path vertices must be integers") from None
    if _windows(bits, path.degree) != list(path.vertices):
        raise InvalidSequenceError("vertex sequence is not a Hamiltonian path")
    return bits


def _heads(k: int) -> list[int]:
    # edge e of DB_k(2) is the (k+1)-bit string e, from its first k bits to
    # its last k bits as in debruijn(2, k): the out-edges of v are 2v
    # (appending 0) and 2v + 1, and e ends at e mod 2^k
    return list(range(1 << k)) * 2


def _path_tree(path: HamPath) -> tuple[int, Succ]:
    """The path as a tree of DB_n(2) = L(DB_{n-1}(2)): root and successors."""
    succ: list[int | None] = [None] * len(path.vertices)
    for a, b in zip(path.vertices, path.vertices[1:]):
        succ[a] = b
    return path.vertices[-1], tuple(succ)


def _tree_path(succ: Succ, degree: int) -> HamPath:
    starts = set(range(len(succ))).difference(succ)
    if len(starts) != 1:
        raise InvalidSequenceError("tree is not a path")
    vertices = [starts.pop()]
    while (v := succ[vertices[-1]]) is not None:
        vertices.append(v)
    return HamPath(degree, tuple(vertices))


def encode(bits: str, degree: int | None = None) -> str:
    """Map a de Bruijn sequence of degree n to a bit string of length 2^(n-1)."""
    if degree is None:
        degree = (len(bits) - 1).bit_length()
    path = seq_to_path(bits, degree)
    if degree < 2:
        raise InvalidSequenceError("encoding requires degree >= 2")
    out = ["?"] * 2 ** (degree - 1)

    # The path tree comes from a validated sequence and each array from a
    # valid tree, so the levels run the unchecked body of pi.
    k = degree - 1
    array = _pi(1 << k, _heads(k), *_path_tree(path), range(2 << k))
    # Top level: only the root's first entry is a free bit.
    out[2 ** k - 1] = str(array.lists[array.root][0] & 1)

    for k in range(degree - 2, 0, -1):
        # T_{k+1} is the last entries of A_{k+1}; vertex v of DB_{k+1}(2) is
        # edge v of DB_k(2), and the head of its tree edge e, e mod 2^(k+1),
        # is v's successor in L(DB_k(2))
        mask = (2 << k) - 1
        succ = [None if v == array.root else entries[-1] & mask
                for v, entries in enumerate(array.lists)]
        array = _pi(1 << k, _heads(k), array.root, succ, range(2 << k))
        for v, entries in enumerate(array.lists):
            out[2 ** k - 1 + v] = str(entries[0] & 1)

    out[0] = "0" if array.root == 0 else "1"
    return "".join(out)


def decode(code: str, degree: int) -> str:
    """Inverse of encode: bit string of length 2^(n-1) -> de Bruijn sequence."""
    if degree < 2:
        raise InvalidSequenceError("decoding requires degree >= 2")
    if len(code) != 2 ** (degree - 1) or code.strip("01"):
        raise InvalidSequenceError(
            f"code for degree {degree} must be a bit string of length {2 ** (degree - 1)}")
    root = 0 if code[0] == "0" else 1
    # In DB_1(2) the non-root vertex's tree edge is forced: it must point
    # at the root, and edge 2v+w runs from v to w.
    tree: list[int | None] = [None, 2] if root == 0 else [1, None]

    # Every array below is a valid tree array for any code of the right
    # length (out-edges of each vertex, last entries a spanning tree), so
    # the levels run the unchecked body of sigma; path_to_seq still checks
    # the final sequence.  The line edge (e, f) of L(DB_k(2)) is the edge
    # 2e + (f & 1) of DB_{k+1}(2).
    for k in range(1, degree - 1):
        lists = tuple((2 * v + (code[2 ** k - 1 + v] == "1"), OMEGA if v == root else tree[v])
                      for v in range(2 ** k))
        root, succ = _sigma(1 << k, _heads(k), TreeArray(root, lists), range(2 << k))
        tree = [None if f is None else 2 * e + (f & 1) for e, f in enumerate(succ)]

    k = degree - 1
    # the root's first entry is free; every other list holds two distinct
    # entries, the second being the tree edge
    lists = tuple((2 * v + (code[-1] == "1"), OMEGA) if v == root else (tree[v] ^ 1, tree[v])
                  for v in range(2 ** k))
    _, succ = _sigma(1 << k, _heads(k), TreeArray(root, lists), range(2 << k))
    return path_to_seq(_tree_path(succ, degree))


def enumerate_db_sequences(degree: int) -> list[str]:
    """All de Bruijn sequences of the given degree, lexicographically.

    Exhaustive filter over all 2^(2^degree) candidates, so capped at
    degree 4 (65536 candidates).
    """
    if degree < 1:
        raise InvalidSequenceError("degree must be at least 1")
    if degree > 4:
        raise InvalidSequenceError("enumeration is capped at degree 4")
    size = 2 ** degree
    result = []
    for x in range(2 ** size):
        bits = format(x, f"0{size}b")
        if validate(bits, degree):
            result.append(bits)
    return result
