"""The three benchmark workloads: inputs from a seed, timed calls, checks.

Each workload turns its seed into inputs (`inputs`, run in the parent), lists
the operations a run must complete (`expected_ops`), builds its engines
(`setup`, timed as set-up), and runs and observes the program (`run`, timed
as the run; the checks are part of it).  An operation is a verify suite, a
bracket, a table or report, or one product-table row.  `run` returns, per
operation, a digest of its output and a problem string or None; `check`
compares that against the golden digests recorded from the seed commit.
Nothing here imports stab3 at module level, so the parent process never
loads the program it times.

Why these workloads (see README.md for the layer map):

- verify-p7: the command users run.  The BP layer does about 90% of its
  work and linear algebra under 5%, so BP gains show here and F_p
  elimination changes should not.
- cobar-p7: the p-fold bracket at p = 7 and the cobar H^{s<=2} table at
  weight bound 6.  A few large sparse matrices, so dense `rref` dominates;
  sparse elimination and echelon caches show here.  No BP code runs.
- greek-exterior: exterior tables, product classification and small
  suites over p = 7..31.  Thousands of tiny dense reductions and exterior
  products, so a change that taxes small matrices shows here.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import traceback

GREEK_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31)
GREEK_SUITES = ("massey-fourfold", "exterior-dga")
PRODUCT_NAMES = (
    "alpha1*gamma_t",
    "beta2*gamma_t",
    "beta1*gamma_t",
    "alpha1*b2*beta1*gamma_t",
    "h1*gamma_t",
)
VERIFY_ARGV = ["verify", "--prime", "7"]
TABLE_ARGV = ["table", "--model", "cobar", "--prime", "7", "--may-bound", "6",
              "--max-s", "2", "--format", "json"]
BRACKET_KS = (0, 1)


def digest(obj) -> str:
    """sha256 of canonical JSON (sorted keys; tuples as lists)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _error(exc) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1:]
    where = f" at {frame[0].filename.rsplit('/', 1)[-1]}:{frame[0].lineno}" if frame else ""
    return f"{type(exc).__name__}: {exc}{where}"


def check(expected, observed, golden):
    """Failures [(op, reason)] of one run.

    Every expected operation must be observed, report no problem, and match
    its golden digest where one is recorded (product rows have none: their
    inputs depend on the seed, so they are checked against the predicates).
    """
    failures = []
    for op in expected:
        if op not in observed:
            failures.append((op, "missing"))
            continue
        dig, problem = observed[op]
        if problem:
            failures.append((op, problem))
        elif golden.get(op) is not None and dig != golden[op]:
            failures.append((op, f"digest {str(dig)[:16]} != golden {golden[op][:16]}"))
    return failures


class VerifyP7:
    """`stab3 verify --prime 7`: all suites, JSON report written to a file."""

    name = "verify-p7"

    def inputs(self, seed):
        return {}

    def expected_ops(self, inputs, golden):
        return sorted(golden)

    def setup(self, inputs):
        return None

    def run(self, state, inputs, tmp):
        from stab3 import cli

        out = os.path.join(tmp, "verify.json")
        rc = cli.main(VERIFY_ARGV + ["--output", out])
        observed = {}
        if rc != 0:
            observed["report"] = (None, f"exit code {rc}")
        if not os.path.exists(out):
            return observed
        observed.setdefault("report", (file_digest(out), None))
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        for rec in report["checks"]:
            problem = None if rec["status"] == "pass" else f"status {rec['status']}"
            observed[f"suite.{rec['name']}"] = (digest(rec), problem)
        return observed


class CobarP7:
    """p-fold bracket at p = 7 (k = 0, 1) and the cobar table at W = 6."""

    name = "cobar-p7"

    def inputs(self, seed):
        return {}

    def expected_ops(self, inputs, golden):
        return [f"bracket.k{k}" for k in BRACKET_KS] + ["table"]

    def setup(self, inputs):
        from stab3.hopf_cobar import CobarEngine

        return CobarEngine(7, weight_bound=7)

    def run(self, engine, inputs, tmp):
        from stab3 import cli, hopf_cobar

        observed = {}
        for k in BRACKET_KS:
            try:
                res = hopf_cobar.p_fold_massey_check(7, k, engine)
            except Exception as exc:  # a crashing bracket is a failed operation
                observed[f"bracket.k{k}"] = (None, _error(exc))
                continue
            problem = None if res.get("status") == "pass" else f"status {res.get('status')}"
            observed[f"bracket.k{k}"] = (digest(res), problem)
        out = os.path.join(tmp, "table.json")
        rc = cli.main(TABLE_ARGV + ["--output", out])
        if rc != 0 or not os.path.exists(out):
            observed["table"] = (None, f"exit code {rc}")
        else:
            observed["table"] = (file_digest(out), None)
        return observed


def _row_problem(row, t, p):
    """Compare a product-table row with the predicates p | t(t^2-1), p | t(t-1)."""
    if row.get("t") != t:
        return f"row for t={row.get('t')}, expected t={t}"
    full = (t * (t * t - 1)) % p != 0
    pair = (t * (t - 1)) % p != 0
    nonzero = {name: bool(row["products"][name]["nonzero"]) for name in PRODUCT_NAMES}
    if all(nonzero.values()) != full:
        return f"five-product verdict {all(nonzero.values())} vs predicate {full}"
    if (nonzero["beta1*gamma_t"] and nonzero["h1*gamma_t"]) != pair:
        return f"pair verdict vs predicate {pair}"
    if (row["predicate_full"], row["predicate_pair"], row["agree"]) != (full, pair, True):
        return "reported predicate columns disagree"
    return None


class GreekExterior:
    """Exterior tables, product classification and two suites, p = 7..31."""

    name = "greek-exterior"

    def inputs(self, seed):
        # The r-image of gamma_t, and so the work of a row, depends only on
        # t mod p.  Drawing p values from each residue class keeps the work
        # of every seed the same while the t-values change.
        rng = random.Random(seed)
        samples = {}
        for p in GREEK_PRIMES:
            ts = []
            for r in range(p):
                ts += rng.sample(range(r or p, p**3 + 1, p), p)
            rng.shuffle(ts)
            samples[str(p)] = ts
        return {"t_samples": samples}

    def expected_ops(self, inputs, golden):
        ops = sorted(golden)
        for p in GREEK_PRIMES:
            ops += [f"p{p}.t{t}" for t in inputs["t_samples"][str(p)]]
        return ops

    def setup(self, inputs):
        from stab3.cohomology import ExteriorCohomology
        from stab3.named import NamedClasses

        return {p: NamedClasses(ExteriorCohomology(p)) for p in GREEK_PRIMES}

    def run(self, named, inputs, tmp):
        from stab3 import greek, reports

        observed = {}
        for p in GREEK_PRIMES:
            nc = named[p]
            eng = nc.engine
            for op, fn in (("dims", eng.dims_table), ("euler", eng.euler_report),
                           ("duality", eng.duality_report)):
                try:
                    res = fn()
                except Exception as exc:  # a crashing table is a failed operation
                    observed[f"p{p}.{op}"] = (None, _error(exc))
                    continue
                problem = None
                if op == "euler" and not all(r["equal"] for r in res):
                    problem = "Euler characteristics differ"
                observed[f"p{p}.{op}"] = (digest(res), problem)
            ts = inputs["t_samples"][str(p)]
            try:
                rows = greek.classify_products(p, ts, nc=nc)
            except Exception as exc:  # a crash fails every row of this prime
                observed.update({f"p{p}.t{t}": (None, _error(exc)) for t in ts})
                rows = []
            for row, t in zip(rows, ts):
                try:
                    observed[f"p{p}.t{t}"] = (None, _row_problem(row, t, p))
                except (KeyError, TypeError) as exc:
                    observed[f"p{p}.t{t}"] = (None, _error(exc))
            try:
                report = reports.run_suites(p, suites=list(GREEK_SUITES))
            except Exception as exc:  # a crash fails both suites
                observed.update({f"p{p}.suite.{n}": (None, _error(exc)) for n in GREEK_SUITES})
                continue
            for rec in report["checks"]:
                problem = None if rec["status"] == "pass" else f"status {rec['status']}"
                observed[f"p{p}.suite.{rec['name']}"] = (digest(rec), problem)
        return observed


WORKLOADS = {w.name: w for w in (VerifyP7(), CobarP7(), GreekExterior())}
