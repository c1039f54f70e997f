"""Greek-letter bookkeeping: bidegrees, r-images, product classification."""

import json
import random

import pytest

import pins
from stab3 import greek
from stab3.cohomology import ExteriorCohomology, NotCocycleError
from stab3.named import NamedClasses

NC = NamedClasses(ExteriorCohomology(7))


def test_bidegree_oracles():
    p = 7
    assert greek.bidegree(greek.alpha(1), p) == (1, 2 * (p - 1))
    assert greek.bidegree(greek.beta(1), p) == (2, 2 * (p**2 - 1) - 2 * (p - 1))
    # direct formula checks
    n, tA = greek.bidegree(greek.gamma(2), p)
    assert n == 3
    assert tA == 2 * 2 * (p**3 - 1) - 2 * (1 * 0 + 1 * (p - 1) + 1 * (p**2 - 1))


def test_spec_validation():
    with pytest.raises(ValueError, match=r"^sequence entries must be positive: \(1, 0\)$"):
        greek.GreekSpec((1, 0), "bad")
    with pytest.raises(ValueError, match="^sequence length 1 unsupported$"):
        greek.GreekSpec((1,), "too-short")
    with pytest.raises(ValueError, match="^sequence length 5 unsupported$"):
        greek.GreekSpec((1, 1, 1, 1, 1), "too-long")


def test_spec_is_an_immutable_value():
    spec = greek.beta(7, 7)
    assert spec == greek.GreekSpec((1, 7, 7), "beta_7/7") and hash(spec) == hash(greek.beta(7, 7))
    assert spec != greek.beta(7) and spec != greek.GreekSpec((1, 7, 7), "other")
    assert repr(greek.alpha(1)) == "GreekSpec(A=(1, 1), name='alpha_1')"
    for field in ("A", "name", "extra"):
        with pytest.raises(AttributeError):
            setattr(spec, field, None)
    assert spec.A == (1, 7, 7) and spec.name == "beta_7/7"


def test_r_image_table():
    assert (greek.r_image(greek.alpha(1), NC) - NC["h0"]).is_zero()
    assert (greek.r_image(greek.beta(1, 1), NC) + NC["b0"]).is_zero()
    assert (greek.r_image(greek.beta(2, 1), NC) - 2 * NC["k0"]).is_zero()
    assert (greek.r_image(greek.beta(7, 7), NC) + NC["b1"]).is_zero()


def test_r_image_gamma_coefficients():
    p = 7
    for t in (2, 3, 5):
        img = greek.r_image(greek.gamma(t), NC)
        expected = ((-t * (t**2 - 1)) % p) * NC["l"] + ((-t * (t - 1)) % p) * (
            NC["k1"] * NC["zeta3"]
        )
        assert (img - expected).is_zero()


def test_gamma_coeffs_is_the_r_image_table():
    for p in (7, 11):
        nc = NC if p == 7 else NamedClasses(ExteriorCohomology(p))
        for t in range(1, 2 * p + 2):
            c_l, c_k = greek.gamma_coeffs(t, p)
            assert (c_l, c_k) == ((-t * (t**2 - 1)) % p, (-t * (t - 1)) % p)
            img = greek.r_image(greek.gamma(t), nc)
            assert img == c_l * nc["l"] + c_k * (nc["k1"] * nc["zeta3"])


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


def test_exterior_tables_pinned_at_p31():
    assert pins.digest(pins.exterior_record(31)) == pins.EXTERIOR_P31_SHA256


# -- oracle: the per-t classifier the linear one replaced ---------------------


def _per_t_rows(p, t_range, nc):
    """Reduce F * r(gamma_t) for every t and each of the five products."""
    eng = nc.engine
    tbl = nc.table
    alpha1, beta2, beta1 = (greek.r_image(s, nc)
                            for s in (greek.alpha(1), greek.beta(2), greek.beta(1)))
    factors = {
        "alpha1*gamma_t": [alpha1],
        "beta2*gamma_t": [beta2],
        "beta1*gamma_t": [beta1],
        "alpha1*b2*beta1*gamma_t": [alpha1, tbl["b2"], beta1],
        "h1*gamma_t": [tbl["h1"]],
    }
    rows = []
    for t in t_range:
        rgamma = greek.r_image(greek.gamma(t), nc)
        row = {"t": t, "products": {}, "agree": True}
        verdicts = {}
        for name in greek.PRODUCT_NAMES:
            x = rgamma
            for f in factors[name]:
                x = f * x
            if x.is_zero():
                verdicts[name] = False
                row["products"][name] = {"nonzero": False, "certificate": "zero cochain"}
                continue
            cls = eng.reduce(x)
            verdicts[name] = not cls.is_zero()
            row["products"][name] = {
                "nonzero": not cls.is_zero(),
                "sector": tuple(cls.sector),
                "certificate": list(cls.coords),
            }
        full_pred = (t * (t**2 - 1)) % p != 0
        pair_pred = (t * (t - 1)) % p != 0
        row["predicate_full"] = full_pred
        row["predicate_pair"] = pair_pred
        all_five = all(verdicts.values())
        pair_nonzero = verdicts["beta1*gamma_t"] and verdicts["h1*gamma_t"]
        row["agree"] = (all_five == full_pred) and (pair_nonzero == pair_pred)
        rows.append(row)
    return rows


def _as_json(rows):
    return [json.dumps(row) for row in rows]


@pytest.mark.parametrize("p", [7, 11, 31])
def test_linear_rows_match_per_t_oracle(p):
    nc = NC if p == 7 else NamedClasses(ExteriorCohomology(p))
    ts = range(1, p**2 + 1)
    assert _as_json(greek.classify_products(p, ts, nc=nc)) == _as_json(_per_t_rows(p, ts, nc))


def test_linear_rows_match_per_t_oracle_sampled_p13():
    p = 13
    nc = NamedClasses(ExteriorCohomology(p))
    ts = random.Random(2012).sample(range(1, p**3 + 1), 300)
    assert _as_json(greek.classify_products(p, ts, nc=nc)) == _as_json(_per_t_rows(p, ts, nc))


def test_rows_do_not_share_certificates():
    rows = greek.classify_products(7, [2, 9, 16], nc=NC)
    certs = [row["products"]["h1*gamma_t"]["certificate"] for row in rows]
    assert certs[0] == certs[1] == certs[2] and any(certs[0])
    certs[0].append("tampered")
    assert certs[1] == certs[2] and "tampered" not in certs[1]


def test_nonpositive_t_is_rejected():
    for ts in ([0], [3, -1]):
        with pytest.raises(ValueError, match="sequence entries must be positive"):
            greek.classify_products(7, ts, nc=NC)


def test_classes_at_another_prime_are_refused():
    # mod-7 classes against mod-11 predicates would read as 11 agreeing rows
    with pytest.raises(ValueError, match=r"^product table at p = 11 asked of classes at p = 7$"):
        greek.classify_products(11, range(1, 12), nc=NC)


def test_product_table_reduces_each_product_twice(monkeypatch):
    calls = []
    reduce = ExteriorCohomology.reduce

    def counting(self, x):
        calls.append(x)
        return reduce(self, x)

    monkeypatch.setattr(ExteriorCohomology, "reduce", counting)
    greek.classify_products(11)
    assert len(calls) <= 10


def test_non_cocycle_factor_is_caught(monkeypatch):
    r_image = greek.r_image

    def patched(spec, nc):
        if spec == greek.beta(2):
            return nc["h20"]
        return r_image(spec, nc)

    monkeypatch.setattr(greek, "r_image", patched)
    with pytest.raises(NotCocycleError):
        greek.classify_products(7, nc=NC)
