"""Acceptance gate: one test per verification criterion.

Each test runs the corresponding check from linetrees.verify at full scale
and prints its pass/fail line; run with `pytest tests/test_acceptance.py -v -s`
(or `linetrees verify-all`) to see the per-criterion report.
"""

import pytest

from linetrees import verify
from linetrees.digraph import debruijn
from linetrees.line_bijection import enumerate_tree_arrays


def _run(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_1_identity_exact_on_corpus():
    result = _run(verify.criterion_1_identity)
    assert result.seconds < 60.0


def test_criterion_2_knuth_formula_on_corpus():
    _run(verify.criterion_2_knuth)


def test_criterion_3_bijection_roundtrips_all_orders():
    _run(verify.criterion_3_bijection)


def _break_bijection(monkeypatch, claim):
    # criterion 3 on DB_1(2) alone, with one body broken so that one claim
    # fails: sigma maps two arrays to one tree, misses a line tree, or pi
    # gives the wrong array for one tree
    g = debruijn(2, 1)
    arrays = list(enumerate_tree_arrays(g))
    sigma, pi = verify._sigma, verify._pi
    monkeypatch.setattr(verify, "identity_corpus", lambda: [g])
    if claim == "sigma is not injective":
        monkeypatch.setattr(verify, "_sigma", lambda n, target, a, order: sigma(
            n, target, arrays[0] if a == arrays[1] else a, order))
    elif claim == "sigma is not onto the line-graph trees":
        monkeypatch.setattr(verify, "_sigma", lambda n, target, a, order: (
            (-1, ()) if a == arrays[0] else sigma(n, target, a, order)))
    else:
        monkeypatch.setattr(verify, "_pi", lambda *args: (
            arrays[1] if pi(*args) == arrays[0] else pi(*args)))
    return verify.criterion_3_bijection()


@pytest.mark.parametrize("claim", ["sigma is not injective",
                                   "sigma is not onto the line-graph trees",
                                   "pi does not invert sigma"])
def test_criterion_3_names_each_broken_claim(monkeypatch, claim):
    result = _break_bijection(monkeypatch, claim)
    assert not result.passed
    assert result.detail == f"{claim} on a 2-vertex graph"


def test_criterion_4_codec_exhaustive_degrees_2_to_4():
    result = _run(verify.criterion_4_codec)
    assert result.seconds < 60.0


def test_criterion_4_checks_the_path_bijection(monkeypatch):
    # decode runs no path_to_seq, so the criterion checks it on its own
    monkeypatch.setattr(verify.db_codec, "path_to_seq", lambda path: "")
    result = verify.criterion_4_codec()
    assert not result.passed
    assert result.detail == "path_to_seq(seq_to_path(0011)) mismatch at degree 2"


def test_criterion_5_critical_groups_match_formulas():
    result = _run(verify.criterion_5_groups)
    assert result.seconds < 120.0


def test_criterion_6_orders_and_tree_counts():
    _run(verify.criterion_6_orders)


def test_criterion_7_invariant_factor_divisibility_split():
    _run(verify.criterion_7_divisibility)


def test_criterion_8_line_graph_group_homomorphism():
    _run(verify.criterion_8_homomorphism)


def test_criterion_9_class_covering_cycles():
    _run(verify.criterion_9_class_cycles)
