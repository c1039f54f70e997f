"""Truncated-Hopf cobar engine: coalgebra axioms, d^2, collapse, p-fold bracket."""

import hashlib
import json

import pytest

from stab3.cohomology import ExteriorCohomology
from stab3.hopf_cobar import (
    CobarEngine,
    TruncatedHopf,
    b_class,
    collapse_check,
    p_fold_massey_check,
)

HOPF = TruncatedHopf(7)


def test_coassociativity_and_counit():
    assert HOPF.check_coassociativity()
    assert HOPF.check_counit()


def test_d_squared_on_generator_slots():
    for i in (1, 2, 3):
        for j in range(3):
            x = HOPF.gen_slot(i, j)
            assert x.d().d().is_zero()


def test_d_squared_on_powers():
    for e in (2, 3, 7, 8, 13):
        x = HOPF.t_power_slot(1, e)
        assert x.d().d().is_zero()
    assert HOPF.t_power_slot(2, 7).d().d().is_zero()


def test_b_classes_are_cocycles():
    for (level, k) in ((1, 0), (1, 1), (2, 0)):
        b = b_class(HOPF, level, k)
        assert not b.is_zero()
        assert b.d().is_zero(), (level, k)


def test_b_class_coefficient_oracle():
    # (1/p) C(p, i) mod p for p = 7: 1 3 5 5 3 1
    b = b_class(HOPF, 1, 0)
    coeffs = []
    for i in range(1, 7):
        key = (HOPF.power_monomial(1, i), HOPF.power_monomial(1, 7 - i))
        coeffs.append(b.terms.get(key, 0))
    assert coeffs == [1, 3, 5, 5, 3, 1]


def test_collapse_matches_exterior_low_weight():
    res = collapse_check(ExteriorCohomology(7), CobarEngine(7, weight_bound=3), smax=2)
    assert res["mismatches"] == []
    assert res["rows"]


def test_collapse_matches_exterior_up_to_weight_p_minus_1():
    # w <= p - 1 keeps the weight-p b-classes out of the range
    res = collapse_check(ExteriorCohomology(7), CobarEngine(7, weight_bound=6), smax=2)
    assert res["mismatches"] == []
    assert res["rows"]


def test_euler_equality_cobar():
    engine = CobarEngine(5, weight_bound=3)
    for row in engine.euler_report():
        assert row["equal"], row


@pytest.mark.parametrize("k", [0, 1])
def test_p_fold_bracket_equals_b_class(k):
    rep = p_fold_massey_check(5, k)
    assert rep["status"] == "pass"
    assert any(rep["coords"])


#: sha256 of p_fold_massey_check(7, k, CobarEngine(7, weight_bound=7)) as
#: json.dumps(result, sort_keys=True, separators=(",", ":"), default=repr)
P7_BRACKET_SHA256 = {
    0: "f29bc704998f8012981d1cce85f8ad658ccf5de5fe1c06a92199f0451e4f93d5",
    1: "3514976affb054911d7701806c16e93e3f53843f005566ff537c8acc388ad349",
}


@pytest.fixture(scope="module")
def cobar_p7():
    return CobarEngine(7, weight_bound=7)


@pytest.mark.parametrize("k", [0, 1])
def test_p_fold_bracket_at_p7_is_pinned(cobar_p7, k):
    rep = p_fold_massey_check(7, k, cobar_p7)
    assert rep["status"] == "pass"
    assert any(rep["coords"])
    text = json.dumps(rep, sort_keys=True, separators=(",", ":"), default=repr)
    assert hashlib.sha256(text.encode()).hexdigest() == P7_BRACKET_SHA256[k]
