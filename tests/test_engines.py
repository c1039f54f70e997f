"""The shared sector-engine contract and the certificates that rest on it."""

from collections import Counter

import pytest

import oracles
import pins
from stab3.cohomology import ExteriorCohomology, SectorEngine, Trigrade
from stab3.exterior import ExteriorAlgebra
from stab3.hopf_cobar import CobarEngine, TruncatedHopf
from stab3.named import NamedClasses
from stab3.reports import run_suites

P = 7

#: the suites of `verify` that the engine layer serves, in report order
ENGINE_SUITES = ("generator-classes", "trivial-lemma", "massey-fourfold", "massey-p-fold",
                 "cobar-collapse", "euler", "duality")


def test_engine_certificates_are_pinned():
    # run on their own, the engine suites give the records of the whole p = 7 report
    report = run_suites(P, suites=ENGINE_SUITES)
    pinned = pins.suite_pins(P)
    assert ({rec["name"]: pins.digest(rec) for rec in report["checks"]}
            == {name: pinned[name] for name in ENGINE_SUITES})


def test_cobar_table_at_p7_is_pinned(written):
    # the table of the benchmark's cobar-p7 workload
    command = "table --model cobar --format json --prime 7 --may-bound 6 --max-s 2"
    message = pins.mismatch(command, written(command))
    assert message is None, message


@pytest.mark.parametrize(
    "engine",
    [ExteriorCohomology(5), CobarEngine(5, weight_bound=3)],
    ids=["exterior", "cobar"],
)
def test_sector_engine_contract(engine):
    assert isinstance(engine, SectorEngine)
    p = engine.p
    for (t, w) in engine.sector_keys():
        tower = engine.tower(t, w)
        for s in tower.degrees:
            sector = Trigrade(s, t, w)
            n = engine.dim(sector)
            vec = [(3 * i + 1) % p for i in range(n)]
            x = engine.from_vec(vec, sector)
            assert engine.to_vec(x, sector) == vec
            if not x.is_zero():
                assert x.grade_of() == sector
            for i in range(n):
                unit = [int(i == j) for j in range(n)]
                e = engine.from_vec(unit, sector)
                assert len(e.terms) == 1
                assert engine.to_vec(e, sector) == unit
    report = engine.euler_report()
    assert report and all(row["equal"] for row in report)


# each engine's shift orbits and sectors; its tables build one tower per orbit
@pytest.mark.parametrize("make, orbits, sectors", [
    *[pytest.param(lambda p=p, bound=bound: CobarEngine(p, weight_bound=bound), orbits, sectors,
                   id=f"cobar-p{p}-W{bound}")
      for p, bound, orbits, sectors in [(5, 5, 20, 56), (7, 6, 26, 72), (7, 7, 33, 91),
                                        (11, 3, 8, 20), (13, 5, 20, 56)]],
    *[pytest.param(lambda p=p: ExteriorCohomology(p), 37, 97, id=f"exterior-p{p}")
      for p in (7, 11, 13, 17, 19, 23, 29, 31)],
])
def test_orbit_tables_equal_the_per_sector_loop(make, orbits, sectors):
    engine = make()
    low = engine.dims_table(2)
    assert (len(engine._towers), len(engine.sector_keys())) == (orbits, sectors)
    tables = engine.dims_table(), engine.euler_report()
    assert len(engine._towers) == orbits
    # the loop then builds the towers of the other sectors in the same engine;
    # the representatives' towers it reuses are the ones it would build
    assert low == oracles.dims_rows(engine, 2)
    assert len(engine._towers) == sectors
    assert tables == (oracles.dims_rows(engine), oracles.euler_rows(engine))


def test_one_named_classes_per_report(monkeypatch):
    built = Counter()
    for cls in (NamedClasses, ExteriorCohomology, CobarEngine):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    report = run_suites(P)
    assert all(rec["status"] == "pass" for rec in report["checks"])
    assert built["NamedClasses"] == 1
    assert built["ExteriorCohomology"] == 1
    assert built["CobarEngine"] == 2  # (5, 5) for the p-fold bracket, (7, 3) shared


@pytest.mark.parametrize("p", [9, 3, 4])
def test_a_bad_prime_is_refused_before_any_suite(p):
    # a report would read as a failed verification, not as bad input: at
    # p = 9 two suites pass, one fails and fourteen raise
    with pytest.raises(ValueError, match=rf"^prime required: p must be a prime > 3, got {p}$"):
        run_suites(p)
    with pytest.raises(ValueError, match="prime required"):
        run_suites(p, suites=["massey-p-fold"])


def test_an_empty_suite_selection_runs_no_suite():
    assert run_suites(P, suites=[])["checks"] == []


def test_elements_of_two_complexes_do_not_mix():
    ext = ExteriorAlgebra(P).gen(1, 0)
    cob = TruncatedHopf(P).t_power_slot(1, 1)
    for a, b in ((cob, ext), (ext, cob)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
        with pytest.raises(TypeError):
            a * b
        assert a != b
