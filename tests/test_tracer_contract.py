"""The benchmark's tracer wraps stab3 functions by name; they must stay there.

`perfbench/tracer.py` lists its targets in `TARGETS` and looks each one up
in its module's or class's `__dict__`; the benchmark's own tests also check
that named aliases (`massey.rref`, `cohomology.kernel_basis`, ...) are
wrapped.  These tests check that every target resolves, that the traced
`fplinalg.rref` takes dense list rows (its counter calls `row.count(0)`),
that traced BP, exterior and cobar runs feed every counter without an
error (the `delta_t2_power` counter reads its positional arguments, the
tower counter a tower's `bases` at construction), and run the
benchmark's alias test, so a refactor that breaks any of these fails in
the tier-1 suite and not only in `python3 -m pytest perfbench`.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(filename, name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_module():
    return _load("tracer.py", "perfbench_tracer")


def test_every_traced_target_resolves():
    tracer = _tracer_module()
    assert tracer.TARGETS
    for modname, qualname, *_ in tracer.TARGETS:
        owner = importlib.import_module(f"stab3.{modname}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = owner.__dict__[part]
        assert callable(owner.__dict__.get(attr)), f"stab3.{modname}.{qualname}"


def test_traced_rref_takes_dense_rows():
    tracer = _tracer_module()
    tr = tracer.Tracer().install()
    try:
        assert tr.unwrapped() == []
        fplinalg = importlib.import_module("stab3.fplinalg")
        ech, pivots = fplinalg.rref([[1, 2, 0], [0, 0, 0], [2, 4, 3]], 3, 7)
        assert (ech, pivots) == ([[1, 2, 0], [0, 0, 1]], [0, 2])
        assert tr.stat_errors == {}
        assert tr.counters["fplinalg.rref.cells"] == 9
        assert tr.counters["fplinalg.rref.nnz"] == 5
    finally:
        tr.uninstall()
    assert not hasattr(fplinalg.rref, "__wrapped__")


def test_benchmark_alias_test_passes(monkeypatch):
    # test_perfbench.py puts perfbench/ on sys.path and imports its modules
    # by their bare names; undo both afterwards.
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    try:
        bench_tests = _load("test_perfbench.py", "perfbench_test_perfbench")
        bench_tests.test_tracer_rebinds_every_alias_and_uninstalls()
    finally:
        for name in set(sys.modules) - before:
            if name in ("child", "tracer", "workloads"):
                del sys.modules[name]


def test_traced_bp_suite_feeds_every_counter():
    # `_delta_t2_stat` reads BPStructure.delta_t2_power's positional
    # (b, ctx); a keyword call would land in stat_errors
    tracer = _tracer_module()
    reports = importlib.import_module("stab3.reports")
    bp_cobar = importlib.import_module("stab3.bp_cobar")
    tr = tracer.Tracer().install()
    try:
        assert hasattr(bp_cobar.BPStructure.delta_t2_power, "__wrapped__")
        report = reports.run_suites(5, suites=["bp-basics"])
        assert tr.stat_errors == {}
    finally:
        tr.uninstall()
    assert [rec["status"] for rec in report["checks"]] == ["pass"]
    assert tr.metrics()["bp_cobar.BPStructure.delta_t2_power.calls"] > 0


def test_traced_exterior_suites_feed_every_counter():
    # exterior towers, like cobar ones, start with an empty `bases` Memo,
    # which `_tower_stat` reads at SectorTower construction
    tracer = _tracer_module()
    reports = importlib.import_module("stab3.reports")
    tr = tracer.Tracer().install()
    try:
        report = reports.run_suites(7, suites=["generator-classes", "duality"])
        assert tr.stat_errors == {}
    finally:
        tr.uninstall()
    assert [rec["status"] for rec in report["checks"]] == ["pass", "pass"]
    assert tr.metrics()["cohomology.towers_built"] > 0


def test_traced_cobar_bracket_feeds_every_counter():
    # `_tower_stat` reads SectorTower's positional `bases` and
    # `_tensors_stat` the engine's `_sector_bases` after construction; both
    # are mappings of sized bases, empty until a basis is asked for
    tracer = _tracer_module()
    hopf_cobar = importlib.import_module("stab3.hopf_cobar")
    tr = tracer.Tracer().install()
    try:
        rep = hopf_cobar.p_fold_massey_check(5, 0, hopf_cobar.CobarEngine(5, weight_bound=5))
        assert tr.stat_errors == {}
    finally:
        tr.uninstall()
    assert rep["status"] == "pass"
    metrics = tr.metrics()
    assert metrics["cohomology.towers_built"] > 0
    assert metrics["hopf_cobar.CobarEngine.__init__.calls"] == 1
