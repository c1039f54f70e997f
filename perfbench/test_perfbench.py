"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args, cwd=ROOT, python=()):
    proc = subprocess.run([sys.executable, *python, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result_of(lines):
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def bench_copy(tmp_path):
    """BENCHMARK.json and perfbench/ copied into tmp_path, without stab3's sources."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    return tmp_path


def load(name):
    with open(os.path.join(ROOT, name) if name == "BENCHMARK.json" else os.path.join(HERE, name),
              encoding="utf-8") as fh:
        return json.load(fh)


def test_tracer_rebinds_every_alias_and_uninstalls():
    tr = tracer.Tracer().install()
    try:
        from stab3 import cohomology, fplinalg, massey, reports

        assert tr.unwrapped() == []
        for alias in (massey.rref, massey.solve, massey.kernel_basis, cohomology.kernel_basis):
            assert hasattr(alias, "__wrapped__")
        assert massey.rref is fplinalg.rref
        assert all(hasattr(fn, "__wrapped__") for _, fn, _ in reports.SUITES)
        assert reports.suite_euler is dict((n, f) for n, f, _ in reports.SUITES)["euler"]
    finally:
        tr.uninstall()
    assert not hasattr(massey.rref, "__wrapped__")
    assert not any(hasattr(fn, "__wrapped__") for _, fn, _ in reports.SUITES)


def test_unwrapped_reports_a_missed_alias():
    tr = tracer.Tracer().install()
    try:
        from stab3 import massey

        wrapper = massey.solve
        massey.solve = wrapper.__wrapped__
        assert tr.unwrapped() == ["stab3.massey.solve"]
        massey.solve = wrapper
    finally:
        tr.uninstall()


def test_self_time_subtracts_child_spans():
    tr = tracer.Tracer()
    outer = tr._span_wrapper("outer", lambda: inner(), None)
    inner = tr._span_wrapper("inner", lambda: sum(range(20000)), None)
    outer()
    m = tr.metrics()
    assert m["outer.calls"] == m["inner.calls"] == 1
    assert abs(m["outer.self_s"] - (m["outer.s"] - m["inner.s"])) < 1e-12
    assert m["inner.self_s"] == m["inner.s"]
    assert list(tr.span_parent) == [-1, 0]


def test_failing_counter_is_recorded_and_billed_to_its_span():
    tr = tracer.Tracer()

    def broken_stat(tr, args, kwargs, result):
        time.sleep(0.01)
        raise AttributeError("no such field")

    assert tr._span_wrapper("f", lambda x: x + 1, broken_stat)(1) == 2
    assert tr.stat_errors == {"f": "AttributeError: no such field"}
    assert tr.metrics()["f.self_s"] >= 0.01


def test_speed_probe_samples_around_and_during_a_phase():
    for loop in (child.cpu_loop, child.fault_loop):
        with child.SpeedProbe(0.01, loop) as probe:
            end = time.perf_counter() + 0.05
            while time.perf_counter() < end:
                pass
        assert len(probe.samples) >= 4 and probe.spent > 0
        assert 0 < probe.elapsed < 0.05 and probe.ref > 0
    with child.SpeedProbe(0) as timer:
        time.sleep(0.01)
    assert timer.samples == [] and timer.elapsed >= 0.01 and timer.ref is None


def test_check_counts_mismatch_problem_and_missing():
    observed = {"a": ("x", None), "b": ("y", None), "c": (None, "exit code 1")}
    failures = workloads.check(["a", "b", "c", "d"], observed, {"a": "x", "b": "z"})
    assert [op for op, _ in failures] == ["b", "c", "d"]


def test_row_check_uses_the_predicates():
    p, t = 7, 8  # 7 | t(t^2 - 1) and 7 | t(t - 1)
    row = {"t": t, "predicate_full": False, "predicate_pair": False, "agree": True,
           "products": {n: {"nonzero": n == "alpha1*gamma_t"} for n in workloads.PRODUCT_NAMES}}
    assert workloads._row_problem(row, t, p) is None
    row["products"]["beta1*gamma_t"]["nonzero"] = True
    row["products"]["h1*gamma_t"]["nonzero"] = True
    assert "pair verdict" in workloads._row_problem(row, t, p)


def test_seeds_change_greek_samples_but_not_row_count():
    wl = workloads.WORKLOADS["greek-exterior"]
    golden = load("golden.json")[wl.name]
    a, b = wl.inputs(1), wl.inputs(2)
    assert a == wl.inputs(1)
    assert a != b
    for p in workloads.GREEK_PRIMES:
        for sample in (a, b):
            ts = sample["t_samples"][str(p)]
            assert len(ts) == len(set(ts)) == p * p
            assert all(1 <= t <= p**3 for t in ts)
            assert sorted(t % p for t in ts) == sorted(list(range(p)) * p)
    assert len(wl.expected_ops(a, golden)) == len(wl.expected_ops(b, golden))


def test_sabotaged_golden_counts_failed_ops(tmp_path):
    root = bench_copy(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), root / "src")
    path = root / "perfbench" / "golden.json"
    golden = json.loads(path.read_text())
    golden["greek-exterior"]["p7.dims"] = "0" * 64
    path.write_text(json.dumps(golden))
    rc, lines = run_bench("--workload", "greek-exterior", "--seconds", "1", cwd=str(root))
    assert rc == 0
    res = result_of(lines)
    assert res["correct"] is False
    assert 0 < res["failed"] < res["attempted"]
    assert any("p7.dims: digest" in line for line in lines)


def test_program_failing_in_setup_is_incorrect_not_an_error(tmp_path):
    root = bench_copy(tmp_path)
    shutil.copytree(os.path.join(ROOT, "src"), root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(root / "src" / "stab3" / "hopf_cobar.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef _broken(self, *args, **kwargs):\n"
                 "    raise RuntimeError('broken set-up')\n\n\n"
                 "CobarEngine.__init__ = _broken\n")
    rc, lines = run_bench("--workload", "cobar-p7", "--seconds", "1", cwd=str(root))
    assert rc == 0
    res = result_of(lines)
    assert res["correct"] is False and res["metrics"] == {}
    assert res["failed"] == res["attempted"] >= 3 * 3  # three ops in each of >= 3 runs
    assert any("RuntimeError: broken set-up" in line for line in lines)


def test_traced_run_matches_golden_and_reports_every_layer_metric():
    rc, lines = run_bench("--workload", "greek-exterior", "--seconds", "1", "--trace", "1")
    assert rc == 0
    res = result_of(lines)
    assert res["correct"] is True and res["failed"] == 0
    spec = load("BENCHMARK.json")
    assert list(res["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert res["metrics"]["greek.classify_products.rows"]["value"] == sum(
        p * p for p in workloads.GREEK_PRIMES)


def test_refuses_optimized_interpreter():
    rc, lines = run_bench("--workload", "greek-exterior", "--seconds", "1", python=("-O",))
    assert rc != 0 and not lines
    proc = subprocess.run([sys.executable, "-O", os.path.join(HERE, "child.py")],
                          input="{}", capture_output=True, text=True, timeout=60)
    assert proc.returncode == child.REFUSED and not proc.stdout


def test_fails_without_the_program(tmp_path):
    rc, lines = run_bench("--workload", "verify-p7", "--seconds", "1", cwd=str(bench_copy(tmp_path)))
    assert rc != 0 and not lines
