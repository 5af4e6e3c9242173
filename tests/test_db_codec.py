import gc
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from linetrees import db_codec, digraph
from linetrees.arborescence import validate_tree
from linetrees.db_codec import (HamPath, _heads, decode, encode, enumerate_db_sequences,
                                path_to_seq, seq_to_path, validate)
from linetrees.digraph import debruijn
from linetrees.errors import InvalidSequenceError
from linetrees.line_bijection import LineContext, validate_tree_array
from oracles import (array_tree, body_decode, body_encode, heap_pi, heap_sigma, path_tree,
                     top_array, walk_top)


def test_validate_degree2():
    assert validate("0011", 2)          # windows 00, 01, 11, 10
    assert not validate("0101", 2)      # window 01 repeats


def test_validate_degree3():
    windows = {"00010111"[i:i + 3] if i <= 5 else "00010111"[i:] + "00010111"[:i - 5]
               for i in range(8)}
    assert len(windows) == 8            # independent cyclic-window check
    assert validate("00010111", 3)


def test_validate_rejects_bad_shape():
    with pytest.raises(InvalidSequenceError):
        validate("0011", 3)
    with pytest.raises(InvalidSequenceError):
        validate("00a1", 2)


def test_seq_to_path_0011():
    path = seq_to_path("0011", 2)
    labels = [format(v, "02b") for v in path.vertices]
    assert labels == ["00", "01", "11", "10"]


def test_path_to_seq_inverts():
    assert path_to_seq(seq_to_path("0011", 2)) == "0011"
    for bits in enumerate_db_sequences(3):
        assert path_to_seq(seq_to_path(bits, 3)) == bits


def test_path_to_seq_rejects_non_path():
    with pytest.raises(InvalidSequenceError):
        path_to_seq(HamPath(2, (0, 1, 2, 2)))
    with pytest.raises(InvalidSequenceError):
        path_to_seq(HamPath(2, (0, 3, 1, 2)))  # 0 -> 3 is not an edge
    with pytest.raises(InvalidSequenceError):
        # its top bits read "0011", whose path is (0, 1, 3, 2)
        path_to_seq(HamPath(2, (1, 0, 3, 2)))


@pytest.mark.parametrize("vertices", [("a", "b", "c", "d"), (0, 1, 2, "3"), ([0], 1, 2, 3),
                                      (0, 1, None, 3)])
def test_path_to_seq_refuses_vertices_that_are_not_numbers(vertices):
    # set() hashes each vertex and the top-bit read compares it with an
    # int; a TypeError from either is refused as a bad path
    with pytest.raises(InvalidSequenceError, match="must be integers"):
        path_to_seq(HamPath(2, vertices))


def test_path_to_seq_accepts_exactly_the_paths_of_sequences():
    # exhaustive over degree 3: a vertex order is accepted iff it is the
    # path of the sequence returned
    paths = {seq_to_path(bits, 3).vertices for bits in enumerate_db_sequences(3)}
    accepted = set()
    for perm in itertools.permutations(range(8)):
        try:
            bits = path_to_seq(HamPath(3, perm))
        except InvalidSequenceError:
            continue
        assert seq_to_path(bits, 3).vertices == perm
        accepted.add(perm)
    assert accepted == paths and len(paths) == 16


def test_enumerate_counts():
    assert len(enumerate_db_sequences(2)) == 4
    assert len(enumerate_db_sequences(3)) == 16
    assert enumerate_db_sequences(2) == ["0011", "0110", "1001", "1100"]
    with pytest.raises(InvalidSequenceError):
        enumerate_db_sequences(5)


def test_encode_degree2_image():
    codes = {b: encode(b, 2) for b in enumerate_db_sequences(2)}
    assert set(codes.values()) == {"00", "01", "10", "11"}
    # pinned regression values for this codec (hand-traced)
    assert codes == {"0011": "01", "0110": "00", "1100": "10", "1001": "11"}


def test_encode_degree3_bijective():
    codes = [encode(b, 3) for b in enumerate_db_sequences(3)]
    assert sorted(codes) == [format(x, "04b") for x in range(16)]


def test_encode_rejects_invalid():
    with pytest.raises(InvalidSequenceError):
        encode("01010101", 3)
    with pytest.raises(InvalidSequenceError):
        encode("01", 1)


def test_decode_encode_roundtrip_small():
    assert decode(encode("0011", 2), 2) == "0011"
    for bits in enumerate_db_sequences(3):
        assert decode(encode(bits, 3), 3) == bits


def test_decode_all_codes_degree3():
    seen = set()
    for x in range(16):
        code = format(x, "04b")
        bits = decode(code, 3)
        assert validate(bits, 3)
        assert encode(bits, 3) == code
        seen.add(bits)
    assert len(seen) == 16


def test_decode_rejects_bad_shape():
    with pytest.raises(InvalidSequenceError):
        decode("001", 3)
    with pytest.raises(InvalidSequenceError):
        decode("0x11", 3)
    with pytest.raises(InvalidSequenceError):
        decode("01", 1)


@given(st.integers(0, 255))
def test_roundtrip_degree4_codes(x):
    code = format(x, "08b")
    bits = decode(code, 4)
    assert validate(bits, 4)
    assert encode(bits, 4) == code


def test_bit_budget_identity():
    # 1 + sum_{k=1}^{n-2} 2^k + 1 = 2^(n-1)
    for n in range(2, 12):
        assert 1 + sum(2 ** k for k in range(1, n - 1)) + 1 == 2 ** (n - 1)
    assert len(encode("0011", 2)) == 2
    assert len(encode("00010111", 3)) == 4


def test_top_level_arrays_have_distinct_entries():
    # for a Hamiltonian path, every non-root list of the top-level array
    # must hold two distinct edges, the second being the tree edge; the
    # codec's top-level walks rest on this, so it is checked on the array
    # that pi gives for the path as a line tree
    ctx = LineContext(debruijn(2, 2))
    for bits in enumerate_db_sequences(3):
        path = seq_to_path(bits, 3)
        array = ctx.pi(ctx.line_tree(*path_tree(path)))
        tree_edges = {v: entries[-1] for v, entries in enumerate(array.lists)
                      if v != array.root}
        for v, entries in enumerate(array.lists):
            if v != array.root:
                assert len(entries) == 2 and entries[0] != entries[1]
                assert entries[1] == tree_edges[v]


def test_large_degree_roundtrip_spot():
    # one long sequence via decode, then back; degree 7 means 64-bit codes
    code = format(0x5A5A_5A5A_5A5A_5A5A, "064b")
    bits = decode(code, 7)
    assert validate(bits, 7)
    assert encode(bits, 7) == code


@pytest.mark.parametrize("seed", range(4))
def test_internal_levels_match_public_maps(seed, monkeypatch):
    # The codec levels below the top call the unchecked bodies of sigma and
    # pi on bare edge heads.  Record every call at degree 9 and check it
    # against LineContext(debruijn(2, k)): its heads and edge order, each
    # input and output with the public validators, each output against the
    # public map, and each tree handed between levels against the array it
    # came from or goes to.  The top level calls neither body; its walks
    # are checked against the public maps of DB_8(2) at the end.
    degree = 9
    rng = random.Random(seed)
    code = "".join(rng.choice("01") for _ in range(2 ** (degree - 1)))
    calls = []
    body_sigma, body_pi = db_codec._sigma, db_codec._pi

    def record_sigma(n, target, a, order):
        root, succ = body_sigma(n, target, a, order)
        calls.append(("sigma", n, target, order, a, root, succ))
        return root, succ

    def record_pi(n, target, root, succ, order):
        a = body_pi(n, target, root, succ, order)
        calls.append(("pi", n, target, order, a, root, succ))
        return a

    monkeypatch.setattr(db_codec, "_sigma", record_sigma)
    monkeypatch.setattr(db_codec, "_pi", record_pi)
    bits = decode(code, degree)
    assert encode(bits, degree) == code
    monkeypatch.undo()
    assert [c[0] for c in calls] == ["sigma"] * (degree - 2) + ["pi"] * (degree - 2)
    contexts = {k: LineContext(debruijn(2, k)) for k in range(1, degree)}
    levels = [c[1].bit_length() - 1 for c in calls]
    assert levels == [*range(1, degree - 1), *range(degree - 2, 0, -1)]
    for (kind, n, target, order, a, root, succ), k in zip(calls, levels):
        ctx = contexts[k]
        assert n == ctx.g.n and list(target) == ctx.target and list(order) == list(range(ctx.g.m))
        validate_tree_array(ctx.g, a)
        tree = ctx.line_tree(root, succ)
        validate_tree(ctx.line, tree)
        assert ctx.successors(tree) == tuple(succ)  # every (e, succ[e]) is a line edge
        if kind == "sigma":
            assert ctx.sigma(a) == tree
        else:
            assert ctx.pi(tree) == a
    # L(DB_k(2)) is DB_{k+1}(2): the line tree of each level is the tree of
    # last entries of the array one level up, as decode and encode hand it on
    by_level = {(c[0], k): c for c, k in zip(calls, levels)}
    for kind in ("sigma", "pi"):
        for k in range(1, degree - 2):
            lower, upper = by_level[kind, k], by_level[kind, k + 1]
            assert (contexts[k].line_tree(lower[5], lower[6])
                    == array_tree(contexts[k + 1].g, upper[4]))
    # The top level against the public maps: encode's root bit is the first
    # entry of the root's list in ctx.pi of the path's line tree, and the
    # last-exit tree it hands to pi is that array's tree of last entries;
    # decode's path is ctx.sigma of the top array assembled from the code's
    # last bit and the tree sigma handed up.
    top, below = contexts[degree - 1], contexts[degree - 2]
    line_path = top.line_tree(*path_tree(seq_to_path(bits, degree)))
    array = top.pi(line_path)
    assert code[-1] == str(array.lists[array.root][0] & 1)
    first_pi = by_level["pi", degree - 2]
    assert below.line_tree(first_pi[5], first_pi[6]) == array_tree(top.g, array)
    last_sigma = by_level["sigma", degree - 2]
    tree = below.line_tree(last_sigma[5], last_sigma[6])
    assert top.sigma(top_array(code, tree.root, tree.out_edge)) == line_path


@pytest.mark.parametrize("degree", range(8, 13))
def test_codec_matches_heap_bodies(degree, monkeypatch):
    # the codec on the linear scans against the codec on the heap bodies
    rng = random.Random(degree)
    codes = ["".join(rng.choice("01") for _ in range(2 ** (degree - 1))) for _ in range(3)]
    fast = [decode(code, degree) for code in codes]
    assert [encode(bits, degree) for bits in fast] == codes
    monkeypatch.setattr(db_codec, "_sigma", heap_sigma)
    monkeypatch.setattr(db_codec, "_pi", heap_pi)
    assert [decode(code, degree) for code in codes] == fast
    assert [encode(bits, degree) for bits in fast] == codes


@pytest.mark.parametrize("degree", range(2, 14))
def test_codec_matches_all_bodies_oracle(degree):
    # the top level's one walk each way against the codec that runs the
    # bodies at every level: every code at degrees 2-4, seeded codes above
    if degree <= 4:
        codes = [format(x, f"0{2 ** (degree - 1)}b") for x in range(2 ** 2 ** (degree - 1))]
    else:
        rng = random.Random(degree)
        codes = ["".join(rng.choice("01") for _ in range(2 ** (degree - 1))) for _ in range(12)]
    for code in codes:
        bits = decode(code, degree)
        assert bits == body_decode(code, degree)
        assert encode(bits, degree) == body_encode(bits, degree) == code


@pytest.mark.parametrize("degree", [3, 6, 9])
def test_decode_walk_is_bounded_on_a_broken_tree(degree, monkeypatch):
    # The level below the top hands up a successor list with a cycle off
    # the root: a loop at 0...0 or 1...1, or the 2-cycle 0101... <->
    # 1010...  The walk built on it closes before it has taken every edge,
    # then goes round again; it stops at the first repeated edge, within
    # 2^degree steps.
    size = 2 ** (degree - 1)  # the vertices of DB_{degree-1}(2)
    alternating = int(("01" * degree)[:degree - 1], 2)
    cycles = [{0: 0}, {size - 1: size - 1},
              {alternating: alternating ^ (size - 1), alternating ^ (size - 1): alternating}]
    code = "".join(random.Random(degree).choice("01") for _ in range(size))
    # the root of T_{degree-1}, where the walk ends
    root = seq_to_path(decode(code, degree), degree).vertices[-1] % size
    cycles = [cycle for cycle in cycles if root not in cycle]
    assert len(cycles) >= 2
    body_sigma, made = db_codec._sigma, []

    class CountedWrites(bytearray):
        # the walk writes one entry of each 2^degree-long array per step
        def __init__(self, *args):
            super().__init__(*args)
            self.writes = 0
            made.append(self)

        def __setitem__(self, i, value):
            self.writes += 1
            super().__setitem__(i, value)

    monkeypatch.setattr(db_codec, "bytearray", CountedWrites, raising=False)
    for cycle in cycles:
        def sigma_with_cycle(n, target, a, order):
            root, succ = body_sigma(n, target, a, order)
            if 2 * n == size:
                succ = tuple(cycle.get(v, f) for v, f in enumerate(succ))
            return root, succ

        monkeypatch.setattr(db_codec, "_sigma", sigma_with_cycle)
        made.clear()
        with pytest.raises(InvalidSequenceError, match="visit every vertex exactly once"):
            decode(code, degree)
        steps = [array.writes for array in made if len(array) == 2 ** degree]
        assert len(steps) == 2 and steps[0] == steps[1]
        assert 0 < steps[0] < 2 ** degree


@pytest.mark.parametrize("degree", range(2, 6))
def test_decode_top_level_matches_the_walk_oracle(degree, monkeypatch):
    # Hand decode's top level the trees of last exits that sigma's last
    # level can: a root, the out-edge 2v or 2v + 1 of each other vertex v
    # (bit v of exits), and a start bit; every one at degrees 2-4, a seeded
    # sample at 5.  decode returns what path_to_seq returns on the walk
    # oracle, and refuses exactly what it refuses.
    size = 2 ** (degree - 1)  # the vertices of DB_{degree-1}(2)
    if degree == 2:  # no sigma level: the tree is forced by the root
        tables = [(0, 0b00), (1, 0b01)]
    else:
        every = range(size << size)
        if degree == 5:
            every = random.Random(degree).sample(every, 4096)
        tables = [(i % size, i // size) for i in every if not (i // size) >> (i % size) & 1]
    body_sigma, handed = db_codec._sigma, [None]

    def sigma_last(n, target, a, order):
        return handed[0] if 2 * n == size else body_sigma(n, target, a, order)

    monkeypatch.setattr(db_codec, "_sigma", sigma_last)
    accepted = 0
    for root, exits in tables:
        # the line edge (e, f) of L(DB_{degree-2}(2)), f leaving e's head
        handed[0] = root, tuple(None if e == root else 2 * (e & (size // 2 - 1)) + (exits >> e & 1)
                                for e in range(size))
        tree = [2 * e + (exits >> e & 1) for e in range(size)]
        for last in "01":
            code = str(root & 1) + "0" * (size - 2) + last
            try:
                expected = walk_top(code, root, tree, degree)
            except InvalidSequenceError as error:
                assert "exactly once" in str(error)
                with pytest.raises(InvalidSequenceError, match="visit every vertex exactly once"):
                    decode(code, degree)
            else:
                assert decode(code, degree) == expected
                accepted += 1
    # a sequence is the walk of one table: its first edge and the last exit
    # of every other vertex
    assert accepted == 2 ** size if degree < 5 else accepted > 0


@pytest.mark.parametrize("check, args", [
    (encode, ("00010111", 3.0)),
    (validate, ("0011", 2.0)),
    (seq_to_path, ("0011", 2.0)),
    (decode, ("0110", "3")),
    (path_to_seq, (HamPath(2.0, (0, 1, 3, 2)),)),
    (enumerate_db_sequences, (2.0,)),
], ids=["encode", "validate", "seq_to_path", "decode", "path_to_seq", "enumerate"])
def test_degree_that_is_not_an_int_is_refused(check, args):
    with pytest.raises(InvalidSequenceError, match="degree must be an integer"):
        check(*args)


def test_huge_degree_is_refused_without_its_power():
    # 2^(10^8) takes most of a second to build and cannot be printed, so
    # the length is decided without it and the message writes it as a
    # power; below 2^64 the length is written out as before
    huge = 10 ** 8
    sequence = f"sequence of degree {huge} must have length 2^{huge}, got 2"
    cases = [(decode, ("01", huge), f"code for degree {huge} must be a bit string "
                                    f"of length 2^{huge - 1}"),
             (validate, ("01", huge), sequence), (seq_to_path, ("01", huge), sequence),
             (encode, ("01", huge), sequence),
             (path_to_seq, (HamPath(huge, (0, 1)),), "path must visit every vertex exactly once"),
             (decode, ("01", 64), f"code for degree 64 must be a bit string of length {2 ** 63}"),
             (decode, ("01", 65), "code for degree 65 must be a bit string of length 2^64")]
    start = time.perf_counter()
    for check, args, message in cases:
        with pytest.raises(InvalidSequenceError) as info:
            check(*args)
        assert str(info.value) == message
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("bad", ["0120", " 011", "0_11", "0\uff1101"])
def test_non_binary_characters_refused_before_parsing(bad, monkeypatch):
    # int(..., 2) accepts spaces, underscores and other Unicode digits such
    # as the fullwidth one, so each is refused before any window is read
    def refuse(*args):
        raise AssertionError("int() reached")

    monkeypatch.setattr(db_codec, "int", refuse, raising=False)
    for check in (validate, seq_to_path, encode):
        with pytest.raises(InvalidSequenceError, match="must consist of 0s and 1s"):
            check(bad, 2)
    with pytest.raises(InvalidSequenceError, match="must be a bit string of length 4"):
        decode(bad, 3)


def test_codec_builds_no_line_graph(monkeypatch):
    # the levels run on edge heads alone, so no line graph, no graph and no
    # LineContext is built on the way
    def refuse(*args, **kwargs):
        raise AssertionError("graph built")

    monkeypatch.setattr(digraph, "line_graph", refuse)
    monkeypatch.setattr("linetrees.line_bijection.line_graph", refuse)
    monkeypatch.setattr(digraph.DiGraph, "__init__", refuse)
    monkeypatch.setattr(LineContext, "__init__", refuse)
    code = "".join(random.Random(9).choice("01") for _ in range(2 ** 8))
    assert encode(decode(code, 9), 9) == code


def test_codec_keeps_nothing_between_calls():
    # once a call returns, the memory its levels took is free again
    code = "".join(random.Random(12).choice("01") for _ in range(2 ** 11))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert encode(decode(code, 12), 12) == code
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024


def test_level_heads_match_debruijn_targets():
    # the codec's level k runs on the heads of debruijn(2, k), edge for edge
    for k in range(1, 13):
        assert _heads(k) == [t for _, t in debruijn(2, k).edges]


def test_windows_match_direct_reading():
    # the rolling windows against windows read directly, cyclically
    for degree in (1, 2, 3, 5, 7):
        size = 2 ** degree
        rng = random.Random(degree)
        samples = ["".join(rng.choice("01") for _ in range(size)) for _ in range(20)]
        if degree >= 2:  # de Bruijn sequences, which random strings rarely are
            samples += [decode("".join(rng.choice("01") for _ in range(size // 2)), degree)
                        for _ in range(5)]
        for bits in samples:
            direct = [int((bits + bits)[i:i + degree], 2) for i in range(size)]
            assert validate(bits, degree) == (len(set(direct)) == size)
            if len(set(direct)) == size:
                assert list(seq_to_path(bits, degree).vertices) == direct
            else:
                with pytest.raises(InvalidSequenceError, match="not a de Bruijn sequence"):
                    seq_to_path(bits, degree)
