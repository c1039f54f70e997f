"""The shared sector-engine contract and the certificates that rest on it."""

import hashlib
import json
from collections import Counter

import pytest

from stab3.cli import main
from stab3.cohomology import ExteriorCohomology, SectorEngine, Trigrade
from stab3.exterior import ExteriorAlgebra
from stab3.hopf_cobar import CobarEngine, TruncatedHopf
from stab3.named import NamedClasses
from stab3.reports import run_suites

P = 7

#: sha256 of each record of `verify --prime 7` served by the engine layer,
#: serialized as json.dumps(record, sort_keys=True, separators=(",", ":")).
ENGINE_RECORD_SHA256 = {
    "generator-classes": "484e6c35afca4edd27679b18e819557ed0790d2b4d192da119a1386778db5c97",
    "trivial-lemma": "32c3b6a5caedd86f2da86cf4456dca5be02c0ac9ba984bfa28c2c2cca92bfdad",
    "massey-fourfold": "eb7ca338b78cb7b59979b2567753364dffa18739a48d899699306ae5d52c5076",
    "massey-p-fold": "710e710d7472b9e82001ee8771a5c09dfb2583611ab60510490af01f5e02f536",
    "cobar-collapse": "56f61011a7f7f6b08f906745a76fcfd7de56718aa52778639a2f202036b678ba",
    "euler": "2af1fb2ab0d8bb6d0607a8c895c291a9bf2629bbe897c1fd16fbdd15e4c4a67c",
    "duality": "a312a81539c19545370d8f2117b16c0f1d41735c41d1d1ee3ebe1f1db248d080",
}

#: sha256 of `stab3 table --model cobar --prime 5 --may-bound 3 --max-s 2 --format json`
COBAR_TABLE_SHA256 = "f2850a2bbf366fd0b25515ba654eb5e13d7e3c72942302ffcba1da2d6a76634f"

#: the same at --prime 7 --may-bound 6, the table of the benchmark's cobar-p7
#: workload (its digest in `perfbench/golden.json`)
COBAR_TABLE_P7_SHA256 = "bcc961d94aa97ce9e0593f999d26b8adaa4330d46730d79687027aed5d4551a6"


def test_engine_certificates_are_pinned():
    report = run_suites(P, suites=list(ENGINE_RECORD_SHA256))
    digests = {
        rec["name"]: hashlib.sha256(
            json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        for rec in report["checks"]
    }
    assert digests == ENGINE_RECORD_SHA256


def _cobar_table_digest(tmp_path, prime, bound):
    out = tmp_path / "table.json"
    argv = ["table", "--model", "cobar", "--prime", str(prime), "--may-bound", str(bound),
            "--max-s", "2", "--format", "json", "--output", str(out)]
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_cobar_table_is_pinned(tmp_path):
    assert _cobar_table_digest(tmp_path, 5, 3) == COBAR_TABLE_SHA256


def test_cobar_table_at_p7_is_pinned(tmp_path):
    assert _cobar_table_digest(tmp_path, 7, 6) == COBAR_TABLE_P7_SHA256


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
