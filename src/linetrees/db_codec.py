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

That is 1 + (2 + 4 + ... + 2^(n-2)) + 1 = 2^(n-1) bits.  The top level
runs neither map.  The path is a tree of DB_n(2) with one leaf at each
step, so pi peels it in walk order: a vertex's list in A_{n-1} is its exits
in walk order.  The root, where the Eulerian walk of DB_{n-1}(2) described
by the sequence starts and ends, has one exit, its free bit; every other
list holds both out-edges, the tree edge last.  So encoding reads that bit
and T_{n-1} in one pass over the steps.  Every edge but the root's unchosen
one has one copy in A_{n-1}, so sigma has one candidate at each step, and
its image is the walk (the BEST construction of van Aardenne-Ehrenfest and
de Bruijn) that starts on that edge, leaves each vertex by its non-tree
edge first and its tree edge second, and leaves the root by the chosen
edge.  Decoding rebuilds T_1 from bit 1, applies sigma to each A_k,
assembled from its bits and T_k, to get T_{k+1}, and follows that walk,
writing the top bit of each edge it takes and refusing an edge repeat.

No graph is built and nothing is kept between calls.  The bodies of sigma
and pi read only a vertex count, the edge heads and the edge order, and
edge e of DB_k(2) ends at e mod 2^k, so level k runs on the heads
list(range(2^k)) * 2 in index order, range(2^(k+1)).  L(DB_k(2)) is
DB_{k+1}(2) index for index: T_{k+1} enters the inverse map as
succ[v] = the head of v's tree edge, and the line edge (e, f) that sigma
gives back is the edge 2e + (f & 1) of DB_{k+1}(2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, repeat
from operator import add, and_, itemgetter, sub

from .errors import InvalidSequenceError, count_text, integer
from .line_bijection import OMEGA, TreeArray, _pi, _sigma


@dataclass(frozen=True)
class HamPath:
    """Hamiltonian path in DB_degree(2), as a vertex-id sequence."""
    degree: int
    vertices: tuple[int, ...]


def validate(bits: str, degree: int) -> bool:
    """True iff bits is a de Bruijn sequence of the given degree."""
    windows = _windows(bits, degree)
    return len(set(windows)) == len(windows)


def _degree(degree: int, least: int = 1, text: str = "degree must be at least 1") -> int:
    # the one check of a degree from outside: an integer no less than least
    if type(degree) is not int:     # (the repr of a huge int would raise)
        degree = integer(degree, f"degree must be an integer, got {degree!r}", InvalidSequenceError)
    if degree < least:
        raise InvalidSequenceError(text)
    return degree


def _length(k: int) -> int | str:
    # 2^k, or past any possible length the text "2^k", which no length equals
    return 1 << k if k < 64 else f"2^{count_text(k)}"


def _windows(bits: str, degree: int) -> list[int]:
    """The cyclic windows of bits as integers, one rolling pass; checks shape."""
    degree = _degree(degree)
    if len(bits) != _length(degree):
        raise InvalidSequenceError(
            f"sequence of degree {count_text(degree)} must have length {_length(degree)}, "
            f"got {len(bits)}")
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
    degree, vertices = _degree(path.degree), path.vertices
    try:
        if len(vertices) != _length(degree) or len(set(vertices)) != len(vertices):
            raise InvalidSequenceError("path must visit every vertex exactly once")
        top = 1 << (degree - 1)
        bits = "".join("1" if v >= top else "0" for v in vertices)
    except TypeError:   # a vertex that is unhashable or not a number
        raise InvalidSequenceError("path vertices must be integers") from None
    if _windows(bits, degree) != list(vertices):
        raise InvalidSequenceError("vertex sequence is not a Hamiltonian path")
    return bits


def _heads(k: int) -> list[int]:
    # edge e of DB_k(2) is the (k+1)-bit string e, from its first k bits to
    # its last k bits as in debruijn(2, k): the out-edges of v are 2v
    # (appending 0) and 2v + 1, and e ends at e mod 2^k
    return list(range(1 << k)) * 2


def encode(bits: str, degree: int) -> str:
    """Map a de Bruijn sequence of degree n to a bit string of length 2^(n-1)."""
    walk = seq_to_path(bits, degree).vertices
    if degree < 2:
        raise InvalidSequenceError("encoding requires degree >= 2")
    out = bytearray(2 ** (degree - 1))
    # Top level: a step a -> b leaves vertex a & mask of DB_{n-1}(2) by
    # edge b, with head b & mask; the root's one exit holds the free bit.
    mask = len(out) - 1
    root, succ = walk[-1] & mask, [None] * len(out)
    for a, b in zip(walk, walk[1:]):
        succ[a & mask] = b & mask
    out[-1] = 48 | (succ[root] & 1)
    succ[root] = None
    del walk  # 2^n ints that the levels below have no use for
    # Each array comes from a valid tree, so the levels run the body of pi.
    for k in range(degree - 2, 0, -1):
        array = _pi(1 << k, _heads(k), root, succ, range(2 << k))
        # v's first entry, 2v + its bit, less 2v - 48 is the byte of the bit
        out[2 ** k - 1:2 ** (k + 1) - 1] = map(sub, map(itemgetter(0), array.lists), count(-48, 2))
        # T_k, the last entries of A_k: v's successor in L(DB_{k-1}(2)) is
        # the head of its tree edge e, e mod 2^k
        root, mask = array.root, mask >> 1
        succ = list(map(itemgetter(-1), array.lists))
        succ[root] = 0     # OMEGA, which has no head
        succ = list(map(and_, succ, repeat(mask)))
        succ[root] = None
    out[0] = 48 if root == 0 else 49
    return out.decode()


def decode(code: str, degree: int) -> str:
    """Inverse of encode: bit string of length 2^(n-1) -> de Bruijn sequence."""
    degree = _degree(degree, 2, "decoding requires degree >= 2")
    if len(code) != _length(degree - 1) or code.strip("01"):
        raise InvalidSequenceError(
            f"code for degree {count_text(degree)} must be a bit string of length "
            f"{_length(degree - 1)}")
    root = 0 if code[0] == "0" else 1
    # In DB_1(2) the non-root vertex's tree edge is forced: it must point
    # at the root, and edge 2v+w runs from v to w.
    tree = [OMEGA, 2] if root == 0 else [1, OMEGA]
    # Every array below is a valid tree array for any code of the right
    # length (out-edges of each vertex, last entries a spanning tree), so
    # the levels run sigma's unchecked body on the lists (byte of v's bit +
    # 2v - 48, tree[v]).  The line edge (e, f) of L(DB_k(2)) is 2e + (f & 1).
    for k in range(1, degree - 1):
        lists = tuple(zip(map(add, count(-48, 2), code[2 ** k - 1:2 ** (k + 1) - 1].encode()),
                          tree))
        root, succ = _sigma(1 << k, _heads(k), TreeArray(root, lists), range(2 << k))
        tree = [OMEGA if f is None else 2 * e + (f & 1) for e, f in enumerate(succ)]
        del lists, succ  # before the next, larger level is built
    # Top level: leave each vertex by tree[v] ^ 1 first, tree[v] after; the
    # root's tree edge is set to the start, its unchosen edge.  Each step takes
    # an out-edge, so 2^n distinct edges are an Eulerian circuit: the sequence.
    mask, start = len(code) - 1, 2 * root + (code[-1] == "0")
    tree[root], first = start, bytearray(b"\1") * len(code)
    bits, seen, e = bytearray(2 * len(code)), bytearray(2 * len(code)), start
    for i in range(len(bits)):
        if seen[e]:
            raise InvalidSequenceError("path must visit every vertex exactly once")
        seen[e], bits[i] = 1, 48 | (e >> (degree - 1))
        v = e & mask
        e = tree[v] ^ first[v]
        first[v] = 0
    return bits.decode()


def enumerate_db_sequences(degree: int) -> list[str]:
    """All de Bruijn sequences of the given degree, lexicographically.

    Exhaustive filter over all 2^(2^degree) candidates, so capped at
    degree 4 (65536 candidates).
    """
    degree = _degree(degree)
    if degree > 4:
        raise InvalidSequenceError("enumeration is capped at degree 4")
    size = 2 ** degree
    result = []
    for x in range(2 ** size):
        bits = format(x, f"0{size}b")
        if validate(bits, degree):
            result.append(bits)
    return result
