"""Directed multigraphs, line graphs, and the de Bruijn / Kautz families.

A :class:`DiGraph` is a finite directed multigraph: parallel edges and
self-loops are allowed, and every edge is a first-class record with its own
index.  The edge indices 0..m-1 are the default total order on edges, which
the tree-array machinery depends on; the family generators therefore insert
edges in lexicographic label order so that "edge index order" and
"lexicographic order on edge strings" coincide for those graphs.

The de Bruijn graph DB_n(m) has one vertex per length-n string over m
symbols and one edge per length-(n+1) string, the edge s0..sn running from
s0..s{n-1} to s1..sn.  The Kautz graph Kautz_n(m) is the same shift
construction restricted to strings over m+1 symbols with no two equal
adjacent symbols.  Both families are closed under the directed line graph:
the length-(n+1) strings labelling the edges of the level-n graph are
exactly the vertex labels of the level-(n+1) graph.
"""

from __future__ import annotations

from operator import index
from typing import Sequence

from .errors import MAX_FAMILY_EDGES, GraphError, UnsupportedFamilyError, integer, integers

SYMBOLS = "0123456789abcdefghijklmnopqrstuvwxyz"


class DiGraph:
    """Immutable directed multigraph with an ordered edge list."""

    __slots__ = ("n", "edges", "vertex_labels", "edge_labels",
                 "_out", "indeg", "outdeg")

    def __init__(self, n: int, edges: Sequence[tuple[int, int]],
                 vertex_labels: Sequence[str] | None = None,
                 edge_labels: Sequence[str] | None = None):
        try:
            n, edges = index(n), tuple([(index(s), index(t)) for s, t in edges])
        except TypeError:
            raise GraphError("vertex count and edge endpoints must be integers") from None
        except ValueError:      # an edge that does not unpack to two values
            raise GraphError("edges must be (source, target) pairs") from None
        if n <= 0:
            raise GraphError("graph must have at least one vertex")
        out: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for i, (s, t) in enumerate(edges):
            if not (0 <= s < n and 0 <= t < n):
                raise GraphError(f"edge endpoint out of range: ({s},{t}) with {n} vertices")
            out[s].append(i)
            indeg[t] += 1
        if vertex_labels is not None:
            vertex_labels = tuple(vertex_labels)
            if len(vertex_labels) != n:
                raise GraphError("vertex label count does not match vertex count")
            if len(set(vertex_labels)) != n:
                raise GraphError("vertex labels must be unique")
        if edge_labels is not None:
            edge_labels = tuple(edge_labels)
            if len(edge_labels) != len(edges):
                raise GraphError("edge label count does not match edge count")
        for what, labels in (("vertex", vertex_labels), ("edge", edge_labels)):
            if labels is not None and not all(isinstance(label, str) for label in labels):
                raise GraphError(f"{what} labels must be strings")
        self.n = n
        self.edges = edges
        self.vertex_labels = vertex_labels
        self.edge_labels = edge_labels
        self._out = tuple(map(tuple, out))
        self.outdeg = tuple(map(len, out))
        self.indeg = tuple(indeg)

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertex_label(self, v: int) -> str:
        v = _vertex(self.n, v, "vertex")
        return self.vertex_labels[v] if self.vertex_labels else str(v)

    def edge_label(self, e: int) -> str:
        e = _vertex(self.m, e, "edge")
        return self.edge_labels[e] if self.edge_labels else str(e)

    def __repr__(self) -> str:
        return f"DiGraph(n={self.n}, m={self.m})"


def line_graph(g: DiGraph) -> DiGraph:
    """Directed line graph: one vertex per edge of g, one edge per 2-path.

    Vertex i of the result is edge i of g, so no index map is needed.  Line
    edges are emitted in (e, then out-edges of t(e)) order, giving a
    deterministic edge list.  The edge labels of g become the vertex labels
    when they are distinct; otherwise the line graph is unlabelled.
    """
    if g.m == 0:
        raise GraphError("line graph of an edgeless graph has no vertices")
    lg_edges = [(e, f) for e, (_, t) in enumerate(g.edges) for f in g._out[t]]
    labels = g.edge_labels
    if labels is not None and len(set(labels)) < g.m:  # a repeated label names no vertex
        labels = None
    return DiGraph(g.m, lg_edges, vertex_labels=labels)


def _strings(m: int, length: int, kautz: bool) -> list[str]:
    """All length-`length` strings over the first alphabet symbols, lex order.

    With kautz=True the alphabet has m+1 symbols and adjacent symbols must
    differ; otherwise the alphabet has m symbols and strings are unrestricted.
    """
    k = m + 1 if kautz else m
    if k > len(SYMBOLS):
        raise GraphError(f"alphabet size {k} exceeds supported maximum {len(SYMBOLS)}")
    alphabet = SYMBOLS[:k]
    out = [""]
    for _ in range(length):
        out = [s + c for s in out for c in alphabet if not (kautz and s and s[-1] == c)]
    return out


def _check_family_size(m: int, n: int, kautz: bool) -> None:
    # m^(n+1) edges for de Bruijn, (m+1) m^n for Kautz: from m = 2 on past
    # the cap once n reaches its log2, so no larger power is taken.  At m = 1
    # the labels, n + 1 symbols, grow instead, and their build is quadratic.
    bits = MAX_FAMILY_EDGES.bit_length() - 1
    if n >= bits or ((m + 1) * m ** n if kautz else m ** (n + 1)) > MAX_FAMILY_EDGES:
        raise GraphError(f"family graph exceeds the cap of {MAX_FAMILY_EDGES} edges "
                         f"or {bits} symbols per label")


def _shift_graph(vertices: list[str], edge_strings: list[str]) -> DiGraph:
    index = {lbl: i for i, lbl in enumerate(vertices)}
    edges = [(index[w[:-1]], index[w[1:]]) for w in edge_strings]
    return DiGraph(len(vertices), edges, vertex_labels=vertices, edge_labels=edge_strings)


def _family(m: int, n: int, kautz: bool) -> DiGraph:
    # the one check of a family's m and n from outside: integers, both >= 1
    name = "Kautz" if kautz else "de Bruijn"
    m, n = integers((m, n), f"{name} graph requires integers m and n", GraphError)
    if m < 1 or n < 1:
        raise GraphError(f"{name} graph requires m >= 1 and n >= 1")
    _check_family_size(m, n, kautz)
    return _shift_graph(_strings(m, n, kautz), _strings(m, n + 1, kautz))


def debruijn(m: int, n: int) -> DiGraph:
    """de Bruijn graph DB_n(m): m^n string vertices, m^(n+1) string edges."""
    return _family(m, n, kautz=False)


def kautz(m: int, n: int) -> DiGraph:
    """Kautz graph Kautz_n(m): (m+1)m^(n-1) vertices, no self-loops."""
    return _family(m, n, kautz=True)


def is_eulerian(g: DiGraph) -> bool:
    """True iff indeg(v) == outdeg(v) for every vertex."""
    return g.indeg == g.outdeg


def _vertex(n: int, v, what: str) -> int:
    """v through operator.index, or GraphError naming `what` unless in range(n)."""
    v = integer(v, f"{what} must be an integer", GraphError)
    if not (0 <= v < n):
        raise GraphError(f"{what} out of range")
    return v


def _reach(adj: Sequence[Sequence[int]], start: int, seen: bytearray) -> bytearray:
    """Mark in `seen` the vertices that `start` reaches through unmarked
    ones (all it reaches, on a fresh array), and return `seen`."""
    seen[start] = 1
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = 1
                stack.append(w)
    return seen


def is_strongly_connected(g: DiGraph) -> bool:
    fwd = [[] for _ in range(g.n)]
    bwd = [[] for _ in range(g.n)]
    for s, t in g.edges:
        fwd[s].append(t)
        bwd[t].append(s)
    return 0 not in _reach(fwd, 0, bytearray(g.n)) and 0 not in _reach(bwd, 0, bytearray(g.n))


def detect_family(g: DiGraph) -> tuple[str, int, int]:
    """Recognize g as debruijn(m, n) or kautz(m, n) by its labels.

    Returns ("db"|"kautz", m, n) or raises UnsupportedFamilyError.  The
    comparison is exact: same vertex labels in the same order and the same
    edge list, i.e. the graph must be generator output (or equal to it).
    """
    if g.vertex_labels is None:
        raise UnsupportedFamilyError("graph has no vertex labels")
    length = len(g.vertex_labels[0])
    alphabet = sorted(set("".join(g.vertex_labels)))
    k = len(alphabet)
    if length < 1 or alphabet != list(SYMBOLS[:k]):
        raise UnsupportedFamilyError("labels do not use the canonical alphabet")
    # a candidate of the wrong vertex count is ruled out before it is built
    for name, make, m, size in (("db", debruijn, k, k ** length),
                                ("kautz", kautz, k - 1, k * (k - 1) ** (length - 1))):
        if m >= 1 and size == g.n:
            cand = make(m, length)
            if cand.vertex_labels == g.vertex_labels and cand.edges == g.edges:
                return name, m, length
    raise UnsupportedFamilyError("graph is not a de Bruijn or Kautz graph")


def eulerian_circuit(g: DiGraph) -> list[int]:
    """Edge sequence of an Eulerian circuit starting at vertex 0 (Hierholzer).

    Deterministic: at each vertex the unused out-edge with the smallest
    index is taken first.  Consecutive edges satisfy t(e_i) = s(e_{i+1}),
    cyclically.
    """
    if not is_eulerian(g) or not is_strongly_connected(g):
        raise GraphError("Eulerian circuit requires a balanced, strongly connected graph")
    ptr = [0] * g.n
    stack: list[tuple[int, int | None]] = [(0, None)]
    circuit: list[int] = []
    while stack:
        v, via = stack[-1]
        if ptr[v] < g.outdeg[v]:
            e = g._out[v][ptr[v]]
            ptr[v] += 1
            stack.append((g.edges[e][1], e))
        else:
            stack.pop()
            if via is not None:
                circuit.append(via)
    circuit.reverse()
    if len(circuit) != g.m:
        raise GraphError("graph has no Eulerian circuit")  # unreachable after the guards
    return circuit


def class_cycle(g: DiGraph) -> list[int]:
    """A cycle of length c = |V|/m through one vertex of each similarity class.

    g must be debruijn(m, n+1) or kautz(m, n+1) for some n >= 1.  The cycle
    comes from a Hamiltonian cycle of the predecessor graph (level n): the
    canonical rotation cycle of the complete graph when n = 1, otherwise the
    cycle induced by an Eulerian circuit of the level-(n-1) graph.  Writing
    the Hamiltonian cycle as a cyclic string and taking all length-(n+1)
    windows yields the cycle; the output is edge-validated before returning.
    """
    family, m, length = detect_family(g)
    if length < 2:
        raise UnsupportedFamilyError("class_cycle needs string length >= 2")
    make = debruijn if family == "db" else kautz
    pred = make(m, length - 1)
    if length - 1 == 1:
        ham = list(range(pred.n))  # rotation cycle of the complete graph
    else:
        grand = make(m, length - 2)
        # Edges of the level-(n-1) graph are the vertices of the level-n
        # graph, so an Eulerian circuit below is a Hamiltonian cycle here.
        ham = eulerian_circuit(grand)
    c = len(ham)
    s = pred.vertex_label(ham[0]) + "".join(pred.vertex_label(u)[-1] for u in ham[1:])
    # The cyclic string has period c; indices past c wrap around.
    windows = ["".join(s[(i + j) % c] for j in range(length)) for i in range(c)]
    index = {lbl: v for v, lbl in enumerate(g.vertex_labels)}
    try:
        cycle = [index[w] for w in windows]
    except KeyError as missing:
        raise GraphError(f"window {missing} is not a vertex of the graph") from None
    _check_class_cycle(g, m, cycle)
    return cycle


def _check_class_cycle(g: DiGraph, m: int, cycle: list[int]) -> None:
    pairs = {(s, t) for s, t in g.edges}
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if (a, b) not in pairs:
            raise GraphError(f"class cycle step {a}->{b} is not an edge")
    suffixes = {g.vertex_label(v)[1:] for v in cycle}
    if len(suffixes) != len(cycle) or len(cycle) != g.n // m:
        raise GraphError("class cycle does not cover each similarity class once")


def label_isomorphic(a: DiGraph, b: DiGraph) -> bool:
    """Same vertex labels and the same multiset of labelled edges.

    This is identity up to reordering, not graph isomorphism: the label
    correspondence is forced.  It is exactly what the family identities
    (the level-(n+1) graph is the line graph of the level-n graph) assert.
    """
    if a.vertex_labels is None or b.vertex_labels is None:
        raise GraphError("label isomorphism needs vertex labels on both graphs")
    if sorted(a.vertex_labels) != sorted(b.vertex_labels):
        return False
    pairs_a = sorted((a.vertex_label(s), a.vertex_label(t)) for s, t in a.edges)
    pairs_b = sorted((b.vertex_label(s), b.vertex_label(t)) for s, t in b.edges)
    return pairs_a == pairs_b


# --- text / JSON / DOT interfaces -------------------------------------------

def parse_edge_list(text: str) -> DiGraph:
    """Parse the one-edge-per-line format "SRC DST [LABEL]".

    '#' starts a comment.  Vertex names are arbitrary tokens and are
    numbered in order of first appearance; the names become vertex labels
    unless every name is its own appearance index, in which case the graph
    is left unlabelled.
    """
    index: dict[str, int] = {}     # name -> number, in order of first appearance
    edges: list[tuple[int, int]] = []
    labels: list[str | None] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphError(f"line {lineno}: expected 'SRC DST [LABEL]'")
        edges.append((index.setdefault(parts[0], len(index)),
                      index.setdefault(parts[1], len(index))))
        labels.append(parts[2] if len(parts) == 3 else None)
    if not index:
        raise GraphError("edge list is empty")
    names = list(index)
    edge_labels = None
    if any(lbl is not None for lbl in labels):
        edge_labels = tuple(lbl if lbl is not None else str(i) for i, lbl in enumerate(labels))
    vertex_labels = None if names == [str(i) for i in range(len(names))] else names
    return DiGraph(len(names), edges, vertex_labels=vertex_labels, edge_labels=edge_labels)


def format_edge_list(g: DiGraph) -> str:
    """g as edge-list text; GraphError if the reader would not read g back:
    a vertex with no edge, or a label that is empty or holds whitespace or '#'."""
    missing = set(range(g.n)) - {v for edge in g.edges for v in edge}
    if missing:
        raise GraphError(f"vertex {g.vertex_label(min(missing))!r} has no edge, so edge-list "
                         "text would lose it; use JSON output (--format json)")
    for label in (*(g.vertex_labels or ()), *(g.edge_labels or ())):
        if label.split() != [label] or "#" in label:
            raise GraphError(f"label {label!r} would not read back from edge-list text; "
                             "use JSON output (--format json)")
    lines = []
    for e in range(g.m):
        s, t = g.edges[e]
        fields = [g.vertex_label(s), g.vertex_label(t)]
        if g.edge_labels:
            fields.append(g.edge_label(e))
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def to_json_dict(g: DiGraph) -> dict:
    return {
        "vertices": [g.vertex_label(v) for v in range(g.n)],
        "edges": [[g.vertex_label(s), g.vertex_label(t), g.edge_label(e)]
                  for e, (s, t) in enumerate(g.edges)],
    }


def _dot_string(label: str) -> str:
    # a DOT quoted string ends at an unescaped '"'; '\\' escapes itself
    return label.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(g: DiGraph) -> str:
    lines = ["digraph G {"]
    for v in range(g.n):
        lines.append(f'  v{v} [label="{_dot_string(g.vertex_label(v))}"];')
    for e, (s, t) in enumerate(g.edges):
        lines.append(f'  v{s} -> v{t} [label="{_dot_string(g.edge_label(e))}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
