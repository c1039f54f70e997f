"""CLI: subcommands, formats, exit codes, env-var prime, determinism, and
the pinned output files."""

import json
from pathlib import Path

import pytest

import pins
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


#: `verify --prime 23` takes about 8 s, too slow for the test suite; CI
#: checks its pins under `python -O` (.github/workflows/tests.yml).
CI_ONLY = {"verify --prime 23"}

VERIFY_COMMANDS = [c for c in pins.FILE_SHA256 if pins.verify_prime(c) and c not in CI_ONLY]
COBAR_TABLES = {
    "p5-W3": "table --model cobar --format json --prime 5 --may-bound 3 --max-s 2",
    "p7-W6": "table --model cobar --format json --prime 7 --may-bound 6 --max-s 2",
    "p11": "table --model cobar --format json --prime 11",
    "p13-W5": "table --model cobar --format json --prime 13 --may-bound 5",
}
JSON_OUTPUTS = {
    "table-p7": "table --prime 7 --format json",
    "greek-p7": "greek --prime 7 --format json",
}


def test_every_pinned_file_is_checked():
    checked = {*VERIFY_COMMANDS, *COBAR_TABLES.values(), *JSON_OUTPUTS.values(), *CI_ONLY}
    assert checked == set(pins.FILE_SHA256)


VERIFY_P7 = "verify --prime 7"
OTHER_VERIFY_COMMANDS = [c for c in VERIFY_COMMANDS if c != VERIFY_P7]


def test_verify_p7_report_is_pinned(written):
    # the whole file and each suite record: a failure names the suites that moved
    message = pins.mismatch(VERIFY_P7, written(VERIFY_P7))
    assert message is None, message


@pytest.mark.parametrize("command", OTHER_VERIFY_COMMANDS,
                         ids=[f"p{pins.verify_prime(c)}" for c in OTHER_VERIFY_COMMANDS])
def test_verify_report_is_pinned(written, command):
    message = pins.mismatch(command, written(command))
    assert message is None, message


@pytest.mark.parametrize("command", COBAR_TABLES.values(), ids=COBAR_TABLES)
def test_cobar_table_is_pinned(written, command):
    message = pins.mismatch(command, written(command))
    assert message is None, message


@pytest.mark.parametrize("command", JSON_OUTPUTS.values(), ids=JSON_OUTPUTS)
def test_json_output_is_pinned(written, command):
    message = pins.mismatch(command, written(command))
    assert message is None, message


def _flip_duality(report):
    rec, = (rec for rec in report["checks"] if rec["name"] == "duality")
    rec["certificate"]["symmetric"] = not rec["certificate"]["symmetric"]


def _bump_version(report):
    report["meta"]["version"] += ".1"


@pytest.mark.parametrize("alter, moved", [
    (None, None),
    (_flip_duality, "suite records moved: duality"),
    (_bump_version, "the file moved but no suite record did, "
                    "so `meta`, the suite order or the formatting changed"),
], ids=["unaltered", "duality", "meta"])
def test_a_pin_mismatch_names_what_moved(capsys, written, tmp_path, alter, moved):
    # the p = 7 report, rewritten as `verify` writes it, with one change
    command = VERIFY_P7
    report = json.loads(written(command).read_text())
    if alter:
        alter(report)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    message = moved and f"stab3 {command}: {moved}"
    assert pins.mismatch(command, path) == message
    # the check that CI runs: `python tests/pins.py FILE COMMAND...`
    assert pins.main([str(path), *command.split()]) == (1 if moved else 0)
    assert capsys.readouterr().out == f"{message or f'{path}: OK'}\n"


def test_the_pins_are_in_the_layout_that_re_recording_prints():
    suites = {p: pins.suite_pins(p) for p in map(pins.verify_prime, pins.FILE_SHA256) if p}
    text = pins.render(pins.FILE_SHA256, suites, pins.BRACKET_SHA256, pins.EXTERIOR_P31_SHA256)
    assert text in Path(pins.__file__).read_text(encoding="utf-8")
