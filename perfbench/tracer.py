"""Span tracer for the stab3 benchmark.

The tracer wraps public functions and methods of the `stab3` package from
outside it; the package itself is not edited.  Every call of a wrapped
function records one span (name, start, end, parent span) in compact arrays
kept in memory.  Three constructors get counter wrappers instead, which
count instances and their sizes without a span.  After the run,
`metrics` derives per-layer totals: calls, inclusive seconds, and self
seconds (a span's duration minus the part its child spans cover), plus the
named counters.  A counter that raises is recorded in `stat_errors` and
never reaches the program.  `write_spans` writes the spans out at the end.

A function is often bound under several names, for example `rref` in
`stab3.fplinalg` and again in `stab3.massey`, and the suite functions sit in
`stab3.reports.SUITES` as well as in the module.  `install` rebinds every
such alias in every stab3 module, and `unwrapped` reports any place where an
original is still reachable, so no call can bypass the tracer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import pkgutil
import time
import weakref
from array import array


def import_all():
    """Import the stab3 package and every module in it; return the modules."""
    pkg = importlib.import_module("stab3")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"stab3.{info.name}"))
    return mods


# -- counters computed from a wrapped call's arguments and result -----------


def _rref_stat(tr, args, kwargs, result):
    rows, ncols = args[0], args[1]
    cells = len(rows) * ncols
    c = tr.counters
    c["fplinalg.rref.cells"] += cells
    c["fplinalg.rref.nnz"] += sum(len(r) - r.count(0) for r in rows)
    c["fplinalg.rref.max_cells"] = max(c["fplinalg.rref.max_cells"], cells)


def _tower_stat(tr, args, kwargs, result):
    bases = args[2]
    c = tr.counters
    c["cohomology.towers_built"] += 1
    dims = [len(b) for b in bases.values()]
    c["cohomology.basis_dim_max"] = max([c["cohomology.basis_dim_max"], *dims])


def _mul_stat(tr, args, kwargs, result):
    n = len(args[0].terms)
    other = args[1]
    if hasattr(other, "terms"):
        n += len(other.terms)
    tr.counters["exterior.ExteriorElement.__mul__.terms_in"] += n


def _kernel_dim_stat(tr, args, kwargs, result):
    tr.counters["massey.massey_product.kernel_dim"] += result["kernel_dim"]


def _rows_stat(tr, args, kwargs, result):
    tr.counters["greek.classify_products.rows"] += len(result)


def _tensors_stat(tr, args, kwargs, result):
    engine = args[0]
    tr.counters["hopf_cobar.CobarEngine.__init__.tensors"] += sum(
        len(basis) for bucket in engine._sector_bases.values() for basis in bucket.values()
    )


def _len_stat(counter, attr=None):
    def stat(tr, args, kwargs, result):
        tr.counters[counter] += len(getattr(result, attr) if attr else result)

    return stat


def _bp_instance_stat(tr, args, kwargs, result):
    tr.counters["bp_cobar.BPStructure.instances"] += 1
    tr._bp_serial[args[0]] = tr.counters["bp_cobar.BPStructure.instances"]


def _delta_t2_stat(tr, args, kwargs, result):
    # A key already expanded by another BPStructure instance is work that a
    # structure shared per prime would have answered from its cache.
    structure, b, ctx = args[0], args[1], args[2]
    key = (structure.p, b, ctx.gens)
    owner = tr._bp_serial.get(structure)
    owners = tr._t2_owners.setdefault(key, set())
    if owners and owner not in owners:
        tr.counters["bp_cobar.BPStructure.delta_t2_power.repeat_keys"] += 1
    owners.add(owner)


def _count_stat(counter):
    def stat(tr, args, kwargs, result):
        tr.counters[counter] += 1

    return stat


SPAN, COUNT = "span", "count"

#: (module, qualified name, kind, stat, counters the stat writes)
TARGETS = (
    ("fplinalg", "rref", SPAN, _rref_stat,
     ("fplinalg.rref.cells", "fplinalg.rref.nnz", "fplinalg.rref.max_cells")),
    ("fplinalg", "solve", SPAN, None, ()),
    ("fplinalg", "kernel_basis", SPAN, None, ()),
    ("fplinalg", "coordinates", SPAN, None, ()),
    ("cohomology", "SectorTower.__init__", COUNT, _tower_stat,
     ("cohomology.towers_built", "cohomology.basis_dim_max")),
    ("cohomology", "SectorTower.dmat", SPAN, None, ()),
    ("cohomology", "SectorTower.cocycle_vectors", SPAN, None, ()),
    ("cohomology", "SectorTower.h_reps", SPAN, None, ()),
    ("cohomology", "SectorTower.reduce_vec", SPAN, None, ()),
    ("cohomology", "SectorTower.bound_vec", SPAN, None, ()),
    ("cohomology", "ExteriorCohomology.reduce", SPAN, None, ()),
    ("exterior", "ExteriorElement.__mul__", SPAN, _mul_stat,
     ("exterior.ExteriorElement.__mul__.terms_in",)),
    ("exterior", "ExteriorElement.d", SPAN, None, ()),
    ("massey", "massey_product", SPAN, _kernel_dim_stat, ("massey.massey_product.kernel_dim",)),
    ("massey", "massey_from_system", SPAN, None, ()),
    ("named", "NamedClasses.verify_generators", SPAN, None, ()),
    ("named", "NamedClasses.verify_relations", SPAN, None, ()),
    ("named", "NamedClasses.verify_b1_identity", SPAN, None, ()),
    ("named", "NamedClasses.verify_shift_cycle", SPAN, None, ()),
    ("greek", "classify_products", SPAN, _rows_stat, ("greek.classify_products.rows",)),
    ("hopf_cobar", "CobarEngine.__init__", SPAN, _tensors_stat,
     ("hopf_cobar.CobarEngine.__init__.tensors",)),
    ("hopf_cobar", "CobarElement.d", SPAN, None, ()),
    ("hopf_cobar", "TruncatedHopf.coproduct", SPAN, None, ()),
    ("hopf_cobar", "p_fold_massey_check", SPAN, None, ()),
    ("bp_cobar", "b20", SPAN, _len_stat("bp_cobar.b20.terms", "terms"), ("bp_cobar.b20.terms",)),
    ("bp_cobar", "BPStructure.__init__", COUNT, _bp_instance_stat,
     ("bp_cobar.BPStructure.instances",)),
    ("bp_cobar", "BPStructure.delta_bar", SPAN, _len_stat("bp_cobar.BPStructure.delta_bar.terms"),
     ("bp_cobar.BPStructure.delta_bar.terms",)),
    ("bp_cobar", "BPStructure.eta_power", SPAN, None, ()),
    ("bp_cobar", "BPStructure.delta_t2_power", SPAN, _delta_t2_stat,
     ("bp_cobar.BPStructure.delta_t2_power.repeat_keys",)),
    ("bp_cobar", "d_cobar", SPAN, _len_stat("bp_cobar.d_cobar.terms_out", "terms"),
     ("bp_cobar.d_cobar.terms_out",)),
    ("bp_cobar", "BPElement.__add__", SPAN, None, ()),
    ("bp_cobar", "BPElement.__init__", COUNT, _count_stat("bp_cobar.BPElement.constructions"),
     ("bp_cobar.BPElement.constructions",)),
    ("cli", "main", SPAN, None, ()),
)


class Tracer:
    """Wraps stab3 in place, records spans and counters for one run."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = {}
        self.stat_errors = {}  # wrapped name -> first error of its counter
        self._stack = []
        self._wrappers = {}  # id(original) -> (original, wrapper)
        self._patched = []  # (owner, attribute, previous value), for uninstall
        self._modules = []
        self._bp_serial = weakref.WeakKeyDictionary()
        self._t2_owners = {}

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn, stat):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if stat is not None:  # inside the span: its cost is this function's
                    self._stat(name, stat, args, kwargs, result)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            return result

        return traced

    def _count_wrapper(self, name, fn, stat):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._stat(name, stat, args, kwargs, result)
            return result

        return counted

    def _stat(self, name, stat, args, kwargs, result):
        """Run a counter; one that fails is recorded, never raised into stab3."""
        try:
            stat(self, args, kwargs, result)
        except Exception as exc:
            self.stat_errors.setdefault(name, f"{type(exc).__name__}: {exc}")

    def _register(self, original, wrapper):
        self._wrappers[id(original)] = (original, wrapper)

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        """Wrap every target and rebind every alias of it in stab3."""
        self._modules = import_all()
        for modname, qualname, kind, stat, counters in TARGETS:
            for counter in counters:
                self.counters[counter] = 0
            owner = importlib.import_module(f"stab3.{modname}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            name = f"{modname}.{qualname}"
            if kind == SPAN:
                wrapper = self._span_wrapper(name, original, stat)
            else:
                wrapper = self._count_wrapper(name, original, stat)
            self._register(original, wrapper)
        reports = importlib.import_module("stab3.reports")
        for name, fn, _ in reports.SUITES:
            self._register(fn, self._span_wrapper(f"suite.{name}", fn, None))
        for owner, attr, value in self._bindings():
            new = self._swap(value)
            if new is not value:
                self._patched.append((owner, attr, value))
                setattr(owner, attr, new)
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def _bindings(self):
        """(owner, attribute, value) for every module and class attribute of stab3."""
        out = []
        for mod in self._modules:
            for attr, value in list(vars(mod).items()):
                out.append((mod, attr, value))
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for cattr, cvalue in list(vars(value).items()):
                        out.append((value, cattr, cvalue))
        return out

    def _swap(self, value, depth=0):
        """value with every wrapped original replaced by its wrapper."""
        hit = self._wrappers.get(id(value))
        if hit is not None and hit[0] is value:
            return hit[1]
        if depth < 3 and isinstance(value, (tuple, list)):
            items = [self._swap(v, depth + 1) for v in value]
            if any(a is not b for a, b in zip(items, value)):
                return type(value)(items)
        if depth < 3 and isinstance(value, dict):
            items = {k: self._swap(v, depth + 1) for k, v in value.items()}
            if any(items[k] is not value[k] for k in value):
                return items
        return value

    def _holds_original(self, value, depth=0):
        hit = self._wrappers.get(id(value))
        if hit is not None and hit[0] is value:
            return True
        if depth < 3 and isinstance(value, (tuple, list)):
            return any(self._holds_original(v, depth + 1) for v in value)
        if depth < 3 and isinstance(value, dict):
            return any(self._holds_original(v, depth + 1) for v in value.values())
        return False

    def unwrapped(self):
        """Names in stab3 that still reach an unwrapped original."""
        return sorted(
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, value in self._bindings()
            if self._holds_original(value)
        )

    # -- results ---------------------------------------------------------------

    def metrics(self):
        """calls, s and self_s per span name, plus counters and the span count."""
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        covered = [0.0] * n
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                covered[parent] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            dur = ends[i] - starts[i]
            calls[nid] += 1
            total[nid] += dur
            self_s[nid] += dur - covered[i]
        out = dict(self.counters)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.s"] = total[nid]
            out[f"{name}.self_s"] = self_s[nid]
        out["trace.spans"] = n
        return out

    def write_spans(self, path, header):
        """Write every span as CSV, gzip-compressed, after a comment header."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(f"# {header}\n")
            fh.write("run_id,span_id,parent_id,name,start_s,end_s\n")
            names = self.names
            for i, nid in enumerate(self.span_name):
                fh.write(
                    f"{self.run_id},{i},{self.span_parent[i]},{names[nid]},"
                    f"{self.span_start[i]!r},{self.span_end[i]!r}\n"
                )
