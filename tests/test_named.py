"""Named classes: cocycle table, nonvanishing certificates, exact relations."""

import pytest

from stab3.cohomology import ExteriorCohomology
from stab3.exterior import GEN_NAMES, GENERATORS, gen_index
from stab3.named import NamedClasses

NC = NamedClasses(ExteriorCohomology(7))

#: table entries that are cocycles (the degree-1 h_{2j}, h_{3j} symbols
#: are building blocks and b20 a block image, not classes)
CLASS_NAMES = ("h0", "h1", "h2", "k0", "k1", "b0", "b1", "b2", "zeta3", "l", "lprime")


def _all_cocycles(nc):
    return all(nc[n].d().is_zero() for n in CLASS_NAMES)


def test_all_named_classes_are_cocycles():
    assert _all_cocycles(NC)


def test_generator_suite_certificates():
    report = {r["name"]: r for r in NC.verify_generators()}
    assert set(report) == {
        "h1*k1*zeta3",
        "b0*k1*zeta3",
        "h0*l",
        "k0*l",
        "h0*b0*b2*l",
        "h1*l",
    }
    assert report["h0*b0*b2*l"]["certificate"] == {
        "kind": "top-pairing",
        "partner": "zeta3",
        "value": -2,
    }
    assert report["k0*l"]["certificate"] == {
        "kind": "top-pairing",
        "partner": "lprime*zeta3",
        "value": 1,
    }
    for r in report.values():
        assert r["status"] == "nonzero"


def test_vanishing_products_with_bounding_cochains():
    report = NC.verify_relations()
    names = [r["name"] for r in report]
    assert names == ["h0*k1", "k0*k1", "k1*h30 = -l"]
    for r in report[:2]:
        assert r["status"] == "coboundary"
        assert r["bounding_cochain"]


def test_bounding_cochains_actually_bound():
    for name, x in (("h0*k1", NC["h0"] * NC["k1"]), ("k0*k1", NC["k0"] * NC["k1"])):
        y = NC.engine.bounding_cochain(x)
        assert y is not None and (y.d() - x).is_zero(), name


def test_b1_identity_exact():
    report = NC.verify_b1_identity()
    assert all(r["status"] == "exact" for r in report)
    # internal degree of b1 at p = 7: 2(p-1)p^2 = 588
    assert report[-1]["value"] == 588


def test_k1_h30_equals_minus_l():
    assert (NC["k1"] * NC["h30"] + NC["l"]).is_zero()


def test_shift_cycle():
    report = NC.verify_shift_cycle()
    assert [r["name"] for r in report[:3]] == [
        "shift(b0) = b1",
        "shift(b1) = b2",
        "shift(b2) = b0",
    ]
    assert report[-1]["value"] == "equal"


def test_b_classes_distinct():
    assert not (NC["b0"] - NC["b1"]).is_zero()
    assert not (NC["b1"] - NC["b2"]).is_zero()


def test_other_prime_engine():
    nc11 = NamedClasses(ExteriorCohomology(11))
    assert _all_cocycles(nc11)
    rep = {r["name"]: r for r in nc11.verify_generators()}
    assert rep["h0*b0*b2*l"]["certificate"]["value"] == -2
    assert rep["k0*l"]["certificate"]["value"] == 1


def test_the_prime_comes_from_the_engine_alone():
    with pytest.raises(TypeError):
        NamedClasses(ExteriorCohomology(7), p=11)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_degree_one_classes_are_their_generators(p):
    # x2 or x-1 of h20, h22 or h31, and x-1 of h1, fail no verify suite
    # (each is another basis element), so the table is pinned here
    table = NamedClasses(ExteriorCohomology(p)).table
    for name, (i, j) in zip(GEN_NAMES, GENERATORS):
        assert table[name].terms == {1 << gen_index(i, j): 1}, name
