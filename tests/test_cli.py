"""CLI: subcommands, formats, exit codes, env-var prime, determinism."""

import hashlib
import json

import pytest

from stab3 import __version__
from stab3.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_exterior_human(capsys):
    code, out, _ = run(capsys, "table", "--prime", "7")
    assert code == 0
    assert "dim_cohomology" in out
    # ten rows of data plus header
    assert len(out.strip().splitlines()) == 11


def test_table_csv_header(capsys):
    code, out, _ = run(capsys, "table", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "s,dim_cochains,dim_cohomology,nonzero_sectors"


def test_table_cobar(capsys):
    code, out, _ = run(capsys, "table", "--model", "cobar", "--prime", "5",
                       "--max-s", "2", "--may-bound", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "s,t,w,dim_cochains,dim_cohomology"
    assert len(out.splitlines()) > 1


def test_verify_subset_json(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code = main(["verify", "--prime", "7", "--suite", "generator-classes",
                 "--suite", "trivial-lemma", "--output", str(out_file)])
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["meta"]["prime"] == 7
    assert all(c["status"] == "pass" for c in report["checks"])
    names = {c["name"] for c in report["checks"]}
    assert names == {"generator-classes", "trivial-lemma"}


def test_verify_human_format(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "shift-cycle", "--format", "human")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2
    assert "unknown suite" in err


def test_verify_deterministic_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["verify", "--prime", "7", "--suite", "generator-classes",
                     "--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_greek_table(capsys):
    code, out, _ = run(capsys, "greek", "--prime", "7", "--t-range", "1..14",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("t,bidegree_n,bidegree_tA,")
    assert len(lines) == 15
    assert all(line.endswith("agree") for line in lines[1:])


def test_greek_bidegree(capsys):
    code, out, _ = run(capsys, "greek", "--prime", "7", "--bidegree", "1,1,1,2")
    assert code == 0
    assert out.strip() == "(3, 1260)"
    code, out, _ = run(capsys, "greek", "--prime", "7", "--bidegree", "1,1,1,2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "meta": {"prime": 7, "version": __version__, "command": "greek"},
        "header": ["bidegree_n", "bidegree_tA"],
        "rows": [[3, 1260]],
    }
    code, out, _ = run(capsys, "greek", "--prime", "7", "--bidegree", "1,1,1,2",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["bidegree_n,bidegree_tA", "3,1260"]


COBAR_CAP_ARGS = ("table", "--model", "cobar", "--prime", "5", "--may-bound", "3")


@pytest.mark.parametrize("cap, message", [
    ("5", "internal error: SectorCapError: sector (0, 3) degree 1 has 7 basis tensors (cap 5)\n"),
    ("11", "internal error: SectorCapError: sector (0, 3) degree 2 has 12 basis tensors (cap 11)\n"),
])
def test_cobar_sector_cap_exceeded(capsys, cap, message):
    # the cap names the first oversize sector in enumeration order
    code, out, err = run(capsys, *COBAR_CAP_ARGS, "--sector-cap", cap)
    assert (code, out, err) == (1, "", message)


def test_cobar_sector_cap_at_largest_sector(capsys):
    code, out, err = run(capsys, *COBAR_CAP_ARGS, "--sector-cap", "12")
    assert (code, err) == (0, "")
    assert out == run(capsys, *COBAR_CAP_ARGS)[1]


def test_greek_p5_warning(capsys):
    code, _, err = run(capsys, "greek", "--prime", "5", "--t-range", "1..5")
    assert "not guaranteed" in err


def test_bad_prime_is_usage_error(capsys, monkeypatch):
    # main checks the prime once, from --prime or else STAB3_PRIME, before
    # any subcommand runs
    monkeypatch.setenv("STAB3_PRIME", "9")
    for argv in (("table",), ("verify",), ("verify", "--suite", "massey-p-fold"),
                 ("greek", "--t-range", "1..2"), ("greek", "--bidegree", "1,1,1,2")):
        for bad in ("4", "3", "9", None):
            flag = ("--prime", bad) if bad else ()
            assert run(capsys, *argv, *flag) == (
                2, "", f"error: prime required: p must be a prime > 3, got {bad or 9}\n")


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "table", "--bogus")
    assert code == 2


def test_env_var_prime_default(capsys, monkeypatch):
    monkeypatch.setenv("STAB3_PRIME", "11")
    code, out, _ = run(capsys, "greek", "--t-range", "1..1", "--format", "json")
    assert code == 0
    assert json.loads(out)["meta"]["prime"] == 11
    # explicit flag wins over the environment
    code, out, _ = run(capsys, "greek", "--prime", "7", "--t-range", "1..1",
                       "--format", "json")
    assert json.loads(out)["meta"]["prime"] == 7


def test_env_var_prime_malformed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("STAB3_PRIME", "abc")
    code, out, err = run(capsys, "table")
    assert code == 2
    assert out == ""
    assert err == "error: STAB3_PRIME must be an integer, got 'abc'\n"
    # an explicit flag wins, so the malformed variable is never read
    code, _, _ = run(capsys, "table", "--prime", "7")
    assert code == 0


@pytest.mark.parametrize("bad", ["abc", "5..1", "0..3", ""])
def test_bad_t_range_is_usage_error(capsys, bad):
    code, out, err = run(capsys, "greek", "--prime", "7", "--t-range", bad)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --t-range")


def test_verify_t_range_below_one_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "product-table", "--t-range", "0..3")
    assert code == 2
    assert out == ""
    assert err == "error: --t-range values must be >= 1, got '0..3'\n"
    # an empty value is a bad range, not an absent flag
    code, out, err = run(capsys, "verify", "--suite", "product-table", "--t-range", "")
    assert code == 2
    assert out == ""
    assert err == "error: --t-range must be N or A..B in integers, got ''\n"


def test_verify_rejects_csv_format(capsys):
    code, out, err = run(capsys, "verify", "--suite", "shift-cycle", "--format", "csv")
    assert code == 2
    assert out == ""
    assert "invalid choice: 'csv'" in err


def test_greek_has_no_sector_cap_option(capsys):
    # --sector-cap bounds cobar sectors; greek builds none, so it is not an option there
    code, out, err = run(capsys, "greek", "--bidegree", "1,1", "--sector-cap", "5")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --sector-cap 5" in err


def test_verify_has_no_sector_cap_option(capsys):
    # verify's cobar engines have fixed weight bounds, whose sectors stay far below any cap
    code, out, err = run(capsys, "verify", "--suite", "euler", "--sector-cap", "0")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --sector-cap 0" in err


@pytest.mark.parametrize("argv, message", [
    (["table", "--model", "cobar", "--may-bound", "-1"], "--may-bound: must be an integer >= 0"),
    (["table", "--model", "cobar", "--max-s", "-3"], "--max-s: must be an integer >= 0"),
    (["table", "--sector-cap", "0"], "--sector-cap: must be an integer >= 1"),
    (["table", "--sector-cap", "-5"], "--sector-cap: must be an integer >= 1"),
    # the exterior table has no degree, weight or sector bound to apply them to
    (["table", "--max-s", "1"], "error: --max-s: only for --model cobar"),
    (["table", "--may-bound", "0"], "error: --may-bound: only for --model cobar"),
    (["table", "--model", "exterior", "--sector-cap", "20000"],
     "error: --sector-cap: only for --model cobar"),
    (["table", "--prime", "7", "--max-s", "1", "--may-bound", "0", "--sector-cap", "1"],
     "error: --max-s, --may-bound, --sector-cap: only for --model cobar"),
], ids=["may-bound-negative", "max-s-negative", "sector-cap-zero", "sector-cap-negative",
        "exterior-max-s", "exterior-may-bound", "exterior-sector-cap", "exterior-all-three"])
def test_bad_numeric_bound_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "greek", "--bidegree", "1,1", "--output", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert not path.exists()


def test_verify_unwritable_output_fails_before_any_suite(capsys, monkeypatch, tmp_path):
    from stab3 import reports

    def refuse(*args, **kwargs):
        raise AssertionError("run_suites called")

    monkeypatch.setattr(reports, "run_suites", refuse)
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "verify", "--prime", "11", "--output", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")


@pytest.mark.parametrize("argv, engine", [
    (["table"], "stab3.cohomology.ExteriorCohomology"),
    (["table", "--model", "cobar"], "stab3.hopf_cobar.CobarEngine"),
    (["greek", "--t-range", "1..3"], "stab3.named.ExteriorCohomology"),
], ids=["table-exterior", "table-cobar", "greek"])
def test_unwritable_output_fails_before_any_engine(capsys, monkeypatch, tmp_path, argv, engine):
    def refuse(*args, **kwargs):
        raise AssertionError("engine built")

    monkeypatch.setattr(engine, refuse)
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, "--output", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "euler"],
    ["table"],
    ["greek", "--bidegree", "1,1"],
], ids=["verify", "table", "greek"])
def test_empty_output_path_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--output", "")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write : ")


@pytest.mark.parametrize("t_range", ["abc", "1..3"])
def test_bidegree_rejects_t_range(capsys, t_range):
    # --bidegree prints one bidegree and reads no t values
    code, out, err = run(capsys, "greek", "--bidegree", "1,1,1,2", "--t-range", t_range)
    assert code == 2
    assert out == ""
    assert "error: --t-range: not with --bidegree" in err


@pytest.mark.parametrize("bad", ["1,x", "0,1", ""])
def test_bad_bidegree_is_usage_error(capsys, bad):
    code, out, err = run(capsys, "greek", "--bidegree", bad)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --bidegree")


@pytest.mark.parametrize("bad", ["1,,2", "1,x", "", "1.5"])
def test_unparsable_bidegree_states_the_format(capsys, bad):
    code, out, err = run(capsys, "greek", "--bidegree", bad)
    assert code == 2
    assert out == ""
    assert err == f"error: --bidegree must be comma-separated integers, e.g. 1,1,1,2, got {bad!r}\n"


def test_computation_failure_exits_1(capsys, monkeypatch):
    from stab3.cohomology import ExteriorCohomology
    from stab3.massey import MasseyError

    def broken(self):
        raise MasseyError("no defining system")

    monkeypatch.setattr(ExteriorCohomology, "dims_table", broken)
    code, out, err = run(capsys, "table", "--prime", "7")
    assert code == 1
    assert out == ""
    assert "MasseyError: no defining system" in err


def test_crashed_suite_is_recorded_and_the_rest_still_run(capsys, monkeypatch):
    from stab3 import reports
    from stab3.massey import MasseyError

    def crash(ctx):
        raise MasseyError("no defining system")

    suites = tuple(
        (name, crash if name == "shift-cycle" else fn, ref) for name, fn, ref in reports.SUITES
    )
    monkeypatch.setattr(reports, "SUITES", suites)
    code, out, err = run(capsys, "verify", "--prime", "7", "--suite", "generator-classes",
                         "--suite", "shift-cycle", "--suite", "b1-identity")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert list(checks) == ["generator-classes", "b1-identity", "shift-cycle"]
    assert checks["generator-classes"]["status"] == "pass"
    assert checks["b1-identity"]["status"] == "pass"
    assert checks["shift-cycle"]["status"] == "error"
    assert checks["shift-cycle"]["certificate"] == "MasseyError: no defining system"
    assert err.startswith("FAILED shift-cycle")


#: sha256 of the whole `stab3 verify --prime 7` JSON report: every suite
#: record, the suite order and `meta`.
VERIFY_P7_SHA256 = "c83492158915d1d7c171d92057becf5a12f45fc00803bdefbfa01b9efc78bce7"

#: the same for `stab3 verify --prime 11`.
VERIFY_P11_SHA256 = "8b82130c9965ac23b2052d8f301fa6d260c107a98ee697473b8b228cb772914b"

#: the same for `stab3 verify --prime 13`.
VERIFY_P13_SHA256 = "cad6bd90e0cc97777be75a8758dead5fbe3224c4f5028b2ac8418c3e40dc9c2b"

#: the same for `stab3 verify --prime 17`, the first prime with large BP
#: cross products: d^2([t2^p]) expands 373 184 of them.
VERIFY_P17_SHA256 = "c474d317c2cc00eac913ee4e4af8190ceae4528f8534344cf0362b27744b69ab"

#: the same for `stab3 verify --prime 19`, which reads the binomials
#: C(a, i) of Delta(t1)^a up to a = 3p^2 = 1083.
VERIFY_P19_SHA256 = "24c27ce954a7a3da25f0a9156df633743f6d7ce86ee6e093270ff491fd6de7d3"

#: the same for `stab3 verify --prime 23`.  Checked by CI only, under
#: `python -O` (.github/workflows/tests.yml): the run takes about 8 s, too
#: slow for the test suite.
VERIFY_P23_SHA256 = "bb216176ace793f5527b81c1c8af11f7e19dd38124d32692c513d4ca03d3912b"


def _verify_digest(tmp_path, prime):
    path = tmp_path / "report.json"
    assert main(["verify", "--prime", str(prime), "--output", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_verify_p7_report_is_pinned(tmp_path):
    assert _verify_digest(tmp_path, 7) == VERIFY_P7_SHA256


def test_verify_p11_report_is_pinned(tmp_path):
    assert _verify_digest(tmp_path, 11) == VERIFY_P11_SHA256


def test_verify_p13_report_is_pinned(tmp_path):
    assert _verify_digest(tmp_path, 13) == VERIFY_P13_SHA256


def test_verify_p17_report_is_pinned(tmp_path):
    assert _verify_digest(tmp_path, 17) == VERIFY_P17_SHA256


def test_verify_p19_report_is_pinned(tmp_path):
    assert _verify_digest(tmp_path, 19) == VERIFY_P19_SHA256


#: sha256 of `stab3 table --model cobar --format json` at
#: `--prime 7 --may-bound 6 --max-s 2`, the table of the cobar-p7 benchmark;
#: CI also checks it under `python -O` (.github/workflows/tests.yml).
COBAR_TABLE_P7_SHA256 = "bcc961d94aa97ce9e0593f999d26b8adaa4330d46730d79687027aed5d4551a6"

#: the same at `--prime 11` with the default weight bound and degrees.
COBAR_TABLE_P11_SHA256 = "3e9ee75c2369b01fd97d099e9b12a09c60b73a6a7e2098cc5b4ae35a282d12e3"

#: the same at `--prime 13 --may-bound 5`.
COBAR_TABLE_P13_SHA256 = "a6ac76962505f1d8d98f8fa2a6779076fbb1347d6953daa9c17f799aeae6cb6a"


@pytest.mark.parametrize("flags, expected", [
    (["--prime", "7", "--may-bound", "6", "--max-s", "2"], COBAR_TABLE_P7_SHA256),
    (["--prime", "11"], COBAR_TABLE_P11_SHA256),
    (["--prime", "13", "--may-bound", "5"], COBAR_TABLE_P13_SHA256),
], ids=["p7-W6", "p11", "p13-W5"])
def test_cobar_table_is_pinned(tmp_path, flags, expected):
    path = tmp_path / "table.json"
    argv = ["table", "--model", "cobar", "--format", "json", *flags, "--output", str(path)]
    assert main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected
