"""Acceptance gate: one test per criterion, each printing a pass line and
enforcing the stated time budget where one applies."""

import time

from stab3.cli import main as cli_main
from stab3 import bp_cobar, greek
from stab3.cohomology import ExteriorCohomology
from stab3.hopf_cobar import CobarEngine, collapse_check, p_fold_massey_check
from stab3.massey import class_in_coset, massey_product
from stab3.named import NamedClasses
from stab3.reports import _Context, suite_exterior_dga

ENGINE = ExteriorCohomology(7)
NC = NamedClasses(ENGINE)


def _pass(n, msg):
    print(f"PASS criterion {n:02d}: {msg}")


def _timed(fn, budget):
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    assert dt < budget, f"time budget exceeded: {dt:.2f}s >= {budget}s"
    return out, dt


def test_criterion_01_exhaustive_differential():
    cert, dt = _timed(lambda: suite_exterior_dga(_Context(7)), 1.0)
    assert cert["monomials"] == 512 and cert["leibniz_pairs"] == 512 * 9
    _pass(1, f"d^2 = 0 and Leibniz on all 512 monomials x 9 generators in {dt:.2f}s")


def test_criterion_02_nonzero_classes_with_certificates():
    report, dt = _timed(NC.verify_generators, 1.0)
    by_name = {r["name"]: r for r in report}
    assert set(by_name) == {
        "h1*k1*zeta3", "b0*k1*zeta3", "h0*l", "k0*l", "h0*b0*b2*l", "h1*l",
    }
    assert all(r["status"] == "nonzero" for r in report)
    assert by_name["h0*b0*b2*l"]["certificate"]["value"] == -2
    assert by_name["k0*l"]["certificate"]["value"] == 1
    _pass(2, f"six nonzero classes, pairing certificates -2 and +1, in {dt:.2f}s")


def test_criterion_03_vanishing_products_with_cochains():
    report = NC.verify_relations()
    for r in report:
        if r["name"] in ("h0*k1", "k0*k1"):
            assert r["status"] == "coboundary"
            assert r["bounding_cochain"]
            print(f"  {r['name']} = d({r['bounding_cochain']})")
    for name, x in (("h0*k1", NC["h0"] * NC["k1"]), ("k0*k1", NC["k0"] * NC["k1"])):
        y = ENGINE.bounding_cochain(x)
        assert y is not None and (y.d() - x).is_zero(), name
    _pass(3, "h0*k1 and k0*k1 bound; explicit bounding cochains verified")


def test_criterion_04_b1_cochain_identity():
    report = NC.verify_b1_identity()
    assert all(r["status"] == "exact" for r in report)
    _pass(4, "-(h21*h30 + h31*h21)*h2 + h21*b1 = -3l - k1*zeta3, exact")


def test_criterion_05_product_table_three_primes():
    t0 = time.perf_counter()
    for p in (7, 11, 13):
        rows = greek.classify_products(p, nc=NC if p == 7 else None)
        assert len(rows) == p**2
        assert greek.classification_disagreements(rows) == []
    dt = time.perf_counter() - t0
    assert dt < 30.0, f"time budget exceeded: {dt:.2f}s"
    _pass(5, f"product table vs predicates, p in (7, 11, 13), t <= p^2, "
             f"zero disagreements in {dt:.2f}s")


def test_criterion_06_degree_coherence():
    rows = greek.degree_coherence(NC)
    assert rows and all(r["status"] in ("coherent", "zero-image") for r in rows)
    _pass(6, f"internal degrees of all {len(rows)} r-images match t(A)")


def test_criterion_07_massey_products():
    res = massey_product(ENGINE, [NC["h0"], NC["h1"], NC["h2"], NC["h0"]])
    cls = ENGINE.reduce(NC["b2"])
    plus = class_in_coset(cls.coords, res, 7)
    minus = class_in_coset(tuple((-c) % 7 for c in cls.coords), res, 7)
    assert plus or minus
    cobar_p5 = CobarEngine(5, weight_bound=5)
    for k in (0, 1):
        rep = p_fold_massey_check(5, k, cobar_p5)
        assert rep["status"] == "pass"
    sign = "+" if plus else "-"
    _pass(7, f"{sign}b2 in <h0,h1,h2,h0> mod indeterminacy (model: {ENGINE.name}); "
             "p-fold bracket equals b_(1,k) at p = 5, k = 0, 1")


def test_criterion_08_cobar_collapse():
    res, dt = _timed(
        lambda: collapse_check(ExteriorCohomology(7), CobarEngine(7, weight_bound=3)),
        120.0)
    assert res["mismatches"] == []
    _pass(8, f"cobar dims match the exterior model (s <= 2, w <= 3, p = 7) "
             f"across {len(res['rows'])} sectors in {dt:.1f}s")


def test_criterion_09_bp_suite():
    st = bp_cobar.BPStructure(7)
    basics = bp_cobar.verify_d_basics(st)
    dd = bp_cobar.verify_dd(st)
    assert all(r["status"] in ("exact", "pass") for r in basics + dd)
    chains = bp_cobar.delta_chain_displays(NC, st)
    assert [c["image"] for c in chains] == ["h0", "-b0", "2*k0 - 2*v2*b0", "-b1"]
    beta = bp_cobar.verify_beta_chain(st)
    gamma = bp_cobar.verify_gamma_chain(NC, st)
    assert beta["status"] == "pass" and gamma["status"] == "pass"
    _pass(9, "BP-level identities, four connecting chains, and the symbolic "
             f"beta_t / gamma_t chains; gamma_t image: {gamma['result']}")


def test_criterion_10_gamma1_expansion():
    rep = greek.gamma1_expansion_check(NC)
    assert rep["status"] == "exact"
    _pass(10, "h0*(2k0 - 2v2*b0)*(2v2^(p-3)*k0 + v2^(p-2)*b0) expansion exact")


def test_criterion_11_euler_characteristics():
    ext = ENGINE.euler_report()
    cob = CobarEngine(7, weight_bound=3).euler_report()
    assert all(r["equal"] for r in ext + cob)
    _pass(11, f"Euler characteristics agree in all {len(ext)} exterior and "
              f"{len(cob)} cobar sectors")


def test_criterion_12_deterministic_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert cli_main(["verify", "--prime", "7", "--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _pass(12, "two full `verify --prime 7` runs produce byte-identical JSON")
