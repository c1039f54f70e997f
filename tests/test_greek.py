"""Greek-letter bookkeeping: bidegrees, r-images, product classification."""

import hashlib
import json

import pytest

from stab3 import greek
from stab3.cohomology import ExteriorCohomology
from stab3.named import NamedClasses

NC = NamedClasses(p=7)


def test_bidegree_oracles():
    p = 7
    assert greek.bidegree(greek.alpha(1), p) == (1, 2 * (p - 1))
    assert greek.bidegree(greek.beta(1), p) == (2, 2 * (p**2 - 1) - 2 * (p - 1))
    # direct formula checks
    n, tA = greek.bidegree(greek.gamma(2), p)
    assert n == 3
    assert tA == 2 * 2 * (p**3 - 1) - 2 * (1 * 0 + 1 * (p - 1) + 1 * (p**2 - 1))


def test_spec_validation():
    with pytest.raises(ValueError):
        greek.GreekSpec((1, 0), "bad")
    with pytest.raises(ValueError):
        greek.GreekSpec((1,), "too-short")
    with pytest.raises(ValueError):
        greek.GreekSpec((1, 1, 1, 1, 1), "too-long")


def test_r_image_table():
    assert (greek.r_image(greek.alpha(1), NC).image - NC["h0"]).is_zero()
    assert (greek.r_image(greek.beta(1, 1), NC).image + NC["b0"]).is_zero()
    assert (greek.r_image(greek.beta(2, 1), NC).image - 2 * NC["k0"]).is_zero()
    assert (greek.r_image(greek.beta(7, 7), NC).image + NC["b1"]).is_zero()


def test_r_image_gamma_coefficients():
    p = 7
    for t in (2, 3, 5):
        img = greek.r_image(greek.gamma(t), NC).image
        expected = ((-t * (t**2 - 1)) % p) * NC["l"] + ((-t * (t - 1)) % p) * (
            NC["k1"] * NC["zeta3"]
        )
        assert (img - expected).is_zero()


def test_r_image_unsupported():
    with pytest.raises(greek.UnsupportedGreekError):
        greek.r_image(greek.beta(3, 2), NC)


def test_degree_coherence_p7():
    rows = greek.degree_coherence(NC)
    assert len(rows) == 4 + 49
    assert all(r["status"] in ("coherent", "zero-image") for r in rows)


def test_classification_no_disagreements_p7():
    rows = greek.classify_products(7, nc=NC)
    assert len(rows) == 49
    assert greek.classification_disagreements(rows) == []


@pytest.mark.parametrize("p", [11, 13])
def test_classification_no_disagreements_larger_primes(p):
    rows = greek.classify_products(p)
    assert len(rows) == p**2
    assert greek.classification_disagreements(rows) == []


def test_predicates_match_number_theory():
    p = 7
    rows = greek.classify_products(p, t_range=range(1, 2 * p + 1), nc=NC)
    for row in rows:
        t = row["t"]
        assert row["predicate_full"] == (t * (t**2 - 1) % p != 0)
        assert row["predicate_pair"] == (t * (t - 1) % p != 0)


def test_gamma1_expansion_exact():
    rep = greek.gamma1_expansion_check(NC)
    assert rep["status"] == "exact"


#: sha256 of json.dumps([dims_table(), euler_report(), duality_report(),
#: classify_products(31, range(1, 32))], sort_keys=True, separators=(",", ":"),
#: default=repr) for the exterior engine at p = 31.
EXTERIOR_P31_SHA256 = "9af983b7d684004a7320f14954507e788c1b877a39f73bee32bc0129513abe27"


def test_exterior_tables_pinned_at_p31():
    e = ExteriorCohomology(31)
    record = [e.dims_table(), e.euler_report(), e.duality_report(),
              greek.classify_products(31, range(1, 32), nc=NamedClasses(e))]
    text = json.dumps(record, sort_keys=True, separators=(",", ":"), default=repr)
    assert hashlib.sha256(text.encode()).hexdigest() == EXTERIOR_P31_SHA256
