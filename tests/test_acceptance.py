"""Acceptance gate: one test per verification criterion.

Each test runs the corresponding check from linetrees.verify at full scale
and prints its pass/fail line; run with `pytest tests/test_acceptance.py -v -s`
(or `linetrees verify-all`) to see the per-criterion report.
"""

import pytest

from linetrees import verify


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
