"""Aggregated verification suites with JSON-serializable certificates.

Each suite runs one coherent batch of checks and returns a check record
{name, ref, status, certificate}, with status "pass", "fail" (a check
failed) or "error" (the suite raised another exception); `run_suites`
assembles the full report with stable ordering and deterministic content,
so two runs with the same configuration serialize to byte-identical JSON.
"""

from __future__ import annotations

from functools import cached_property

from . import __version__
from .cohomology import ExteriorCohomology
from .exterior import dga_identities_over_z
from .fplinalg import check_prime
from .massey import class_in_coset, massey_product
from .named import NamedClasses
from . import bp_cobar
from . import greek
from .hopf_cobar import collapse_check, CobarEngine, p_fold_massey_check


def jsonable(x):
    """Recursively convert a certificate to JSON-friendly data."""
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (int, str)) or x is None:
        return x
    return repr(x)


class _Context:
    """Shared lazily-built engines for one report run: one exterior engine,
    one `NamedClasses` and one cobar engine per (p, weight bound), kept to the end."""

    def __init__(self, p: int, t_range=None):
        self.p = p
        self.t_range = t_range
        self._cobar = {}

    @cached_property
    def engine(self) -> ExteriorCohomology:
        return ExteriorCohomology(self.p)

    @cached_property
    def named(self) -> NamedClasses:
        return NamedClasses(self.engine)

    def cobar(self, p: int, weight_bound: int) -> CobarEngine:
        if (p, weight_bound) not in self._cobar:
            self._cobar[p, weight_bound] = CobarEngine(p, weight_bound)
        return self._cobar[p, weight_bound]


# --------------------------------------------------------------------------
# suites
# --------------------------------------------------------------------------


def suite_exterior_dga(ctx: _Context):
    """d^2 = 0 on all monomials and the Leibniz rule against every generator,
    checked once per process over Z on the kernels whose output each F_p
    element reduces, so the certificate holds at every prime."""
    return dga_identities_over_z()


def suite_generator_classes(ctx: _Context):
    """Six nonzero product classes with top-pairing / rank certificates."""
    return ctx.named.verify_generators()


def suite_trivial_products(ctx: _Context):
    """h0*k1 and k0*k1 bound, with cochains; k1*h30 = -l exactly."""
    return ctx.named.verify_relations()


def suite_b1_identity(ctx: _Context):
    return ctx.named.verify_b1_identity()


def suite_shift_cycle(ctx: _Context):
    return ctx.named.verify_shift_cycle()


def suite_degree_coherence(ctx: _Context):
    rows = greek.degree_coherence(ctx.named, ctx.t_range)
    return {"rows": len(rows), "statuses": sorted({r["status"] for r in rows})}


def suite_product_table(ctx: _Context):
    rows = greek.classify_products(ctx.p, ctx.t_range, nc=ctx.named)
    bad = greek.classification_disagreements(rows)
    if bad:
        raise AssertionError(f"predicate disagreement at t = {bad}")
    return {"rows": len(rows), "disagreements": []}


def suite_gamma1_expansion(ctx: _Context):
    return greek.gamma1_expansion_check(ctx.named)


def suite_massey_fourfold(ctx: _Context):
    eng = ctx.engine
    nc = ctx.named
    p = ctx.p
    cert = {"model": eng.name}
    for label, reps, target in (
        ("<h0,h1,h2,h0>", ["h0", "h1", "h2", "h0"], "b2"),
        ("<h1,h2,h0,h1>", ["h1", "h2", "h0", "h1"], "b0"),
    ):
        res = massey_product(eng, [nc[n] for n in reps])
        cls = eng.reduce(nc[target])
        if tuple(cls.sector) != tuple(res["value_sector"]):
            raise AssertionError(f"{label}: sector mismatch")
        plus = class_in_coset(cls.coords, res, p)
        minus = class_in_coset(tuple((-c) % p for c in cls.coords), res, p)
        if not (plus or minus):
            raise AssertionError(f"{label}: {target} not in value coset")
        cert[label] = {
            "value_coords": list(res["value_coords"]),
            "indeterminacy": [list(v) for v in res["indeterminacy"]],
            "contains": f"+{target}" if plus else f"-{target}",
        }
    res3 = massey_product(eng, [nc["h0"], nc["h0"], nc["h0"]])
    if any(res3["value_coords"]):
        raise AssertionError("<h0,h0,h0> has nonzero value")
    cert["<h0,h0,h0>"] = {"value_coords": list(res3["value_coords"])}
    return cert


def suite_massey_p_fold(ctx: _Context):
    """p-fold bracket at p = 5 (the smallest tractable case), k = 0 and 1."""
    out = {}
    engine = ctx.cobar(5, 5)
    for k in (0, 1):
        out[f"k={k}"] = p_fold_massey_check(5, k, engine)
    return out


def suite_cobar_collapse(ctx: _Context):
    res = collapse_check(ctx.engine, ctx.cobar(ctx.p, 3))
    if res["mismatches"]:
        raise AssertionError(f"collapse mismatches: {res['mismatches']}")
    return {"sectors": len(res["rows"]), "mismatches": []}


def suite_euler(ctx: _Context):
    ext = ctx.engine.euler_report()
    bad = [r for r in ext if not r["equal"]]
    cob = ctx.cobar(ctx.p, 3).euler_report()
    bad += [r for r in cob if not r["equal"]]
    if bad:
        raise AssertionError(f"Euler characteristic mismatch: {bad[:3]}")
    return {"exterior_sectors": len(ext), "cobar_sectors": len(cob)}


def suite_duality(ctx: _Context):
    return ctx.engine.duality_report()


def suite_bp_basics(ctx: _Context):
    return bp_cobar.verify_d_basics(ctx.p) + bp_cobar.verify_dd(ctx.p)


def suite_delta_chains(ctx: _Context):
    return bp_cobar.delta_chain_displays(ctx.named)


def suite_beta_chain(ctx: _Context):
    return bp_cobar.verify_beta_chain(ctx.p)


def suite_gamma_chain(ctx: _Context):
    return bp_cobar.verify_gamma_chain(ctx.named)


SUITES = (
    ("exterior-dga", suite_exterior_dga, "differential squares to zero; Leibniz rule"),
    ("generator-classes", suite_generator_classes, "six nonzero product classes with certificates"),
    ("trivial-lemma", suite_trivial_products, "vanishing products with bounding cochains"),
    ("b1-identity", suite_b1_identity, "exact cochain identity pinning b1"),
    ("shift-cycle", suite_shift_cycle, "index shift permutes b0, b1, b2"),
    ("degree-coherence", suite_degree_coherence, "internal degrees of r-images match t(A)"),
    ("product-table", suite_product_table, "gamma_t product nonvanishing vs predicates"),
    ("gamma1-expansion", suite_gamma1_expansion, "exact expansion in the v2-coefficient ring"),
    ("massey-fourfold", suite_massey_fourfold, "4-fold products contain +-b2, +-b0"),
    ("massey-p-fold", suite_massey_p_fold, "p-fold bracket equals the b-class (p = 5)"),
    ("cobar-collapse", suite_cobar_collapse, "cobar dims match exterior model, low weight"),
    ("euler", suite_euler, "per-sector Euler characteristics agree"),
    ("duality", suite_duality, "dimension symmetry across the top class"),
    ("bp-basics", suite_bp_basics, "BP-level differential identities and d^2 checks"),
    ("delta-chains", suite_delta_chains, "four worked connecting-map chains"),
    ("beta-chain", suite_beta_chain, "symbolic v2^t chain normal form"),
    ("gamma-chain", suite_gamma_chain, "symbolic v3^t chain lands on the r-image"),
)

SUITE_NAMES = tuple(name for name, _, _ in SUITES)


def run_suites(p: int, suites=None, t_range=None):
    """Run the suites named in `suites` (all when it is None); returns the report dict.
    A p that is not a prime > 3 is bad input, not a failed check, so it
    raises ValueError before any suite runs, as an unknown suite does."""
    check_prime(p)
    ctx = _Context(p, t_range=t_range)
    selected = set(SUITE_NAMES if suites is None else suites)
    unknown = selected - set(SUITE_NAMES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    checks = []
    for name, fn, ref in SUITES:
        if name not in selected:
            continue
        try:
            cert = fn(ctx)
            checks.append(
                {"name": name, "ref": ref, "status": "pass", "certificate": jsonable(cert)}
            )
        except AssertionError as exc:
            checks.append(
                {"name": name, "ref": ref, "status": "fail", "certificate": str(exc)}
            )
        except Exception as exc:  # a crashed suite is recorded; the others still run
            checks.append({"name": name, "ref": ref, "status": "error",
                           "certificate": f"{type(exc).__name__}: {exc}"})
    return {
        "meta": {"prime": p, "version": __version__, "command": "verify"},
        "checks": checks,
    }
