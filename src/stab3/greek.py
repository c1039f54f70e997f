"""Greek-letter bookkeeping: bidegrees, r-images, and the product classifier.

A Greek-letter element is named by a sequence A = (a_0, ..., a_n) of positive
integers; its bidegree is (n, t(A)) with

    t(A) = 2 a_n (p^n - 1) - 2 * sum_{i=0}^{n-1} a_i (p^i - 1).

The r-image table covers alpha_1, beta_1, beta_2, beta_{p/p} and gamma_t;
the product classifier computes the five detecting products of gamma_t in
cohomology (rank-derived verdicts) and cross-checks them against the number
theoretic predicates p | t(t^2-1) and p | t(t-1).
"""

from __future__ import annotations

from itertools import zip_longest
from typing import NamedTuple

from .cohomology import ExteriorCohomology
from .exterior import term_repr
from .named import NamedClasses


class GreekSpec(NamedTuple("GreekSpec", [("A", tuple), ("name", str)])):
    __slots__ = ()

    def __new__(cls, A, name):
        if not A or any(a <= 0 for a in A):
            raise ValueError(f"sequence entries must be positive: {A}")
        if len(A) - 1 not in (1, 2, 3):
            raise ValueError(f"sequence length {len(A)} unsupported")
        return super().__new__(cls, A, name)


def alpha(t: int) -> GreekSpec:
    return GreekSpec((1, t), f"alpha_{t}")


def beta(s: int, j: int = 1) -> GreekSpec:
    name = f"beta_{s}" if j == 1 else f"beta_{s}/{j}"
    return GreekSpec((1, j, s), name)


def gamma(t: int) -> GreekSpec:
    return GreekSpec((1, 1, 1, t), f"gamma_{t}")


def bidegree(spec: GreekSpec, p: int):
    """(cohomological degree n, internal degree t(A)); stem = t(A) - n."""
    A = spec.A
    n = len(A) - 1
    tA = 2 * A[n] * (p**n - 1) - 2 * sum(A[i] * (p**i - 1) for i in range(n))
    return n, tA


class UnsupportedGreekError(ValueError):
    pass


#: (c_l, c_k) of r(gamma_t) = c_l * l + c_k * k1*zeta3, each as
#: {degree in t: coefficient}: c_l = -t^3 + t, c_k = -t^2 + t.  The product
#: table evaluates them and `bp_cobar.verify_gamma_chain` checks them.
GAMMA_COEFFS = ({3: -1, 1: 1}, {2: -1, 1: 1})


def gamma_coeffs(t: int, p: int):
    """(c_l, c_k) of `GAMMA_COEFFS` at t, mod p."""
    return tuple(sum(c * t**d for d, c in poly.items()) % p for poly in GAMMA_COEFFS)


def r_image(spec: GreekSpec, nc: NamedClasses):
    """Table of r-images, as exterior elements; gamma_t coefficients reduced
    mod p."""
    p = nc.p
    t = nc.table
    A = spec.A
    if A == (1, 1):
        img = t["h0"]
    elif A == (1, 1, 1):
        img = -1 * t["b0"]
    elif A == (1, 1, 2):
        img = 2 * t["k0"]
    elif A == (1, p, p):
        img = -1 * t["b1"]
    elif len(A) == 4 and A[:3] == (1, 1, 1):
        c_l, c_k = gamma_coeffs(A[3], p)
        img = c_l * t["l"] + c_k * (t["k1"] * t["zeta3"])
    else:
        raise UnsupportedGreekError(f"no r-image on record for {spec.name} with A={A}")
    return img


def _t_values(p: int, t_range):
    """The t of the gamma_t rows: t_range, or 1..p^2 when it is None."""
    return range(1, p**2 + 1) if t_range is None else t_range


def degree_coherence(nc: NamedClasses, t_range=None):
    """Check internal degree of every r-image against t(A) mod 2(p^3-1)."""
    p = nc.p
    tmod = nc.engine.alg.tmod
    specs = [alpha(1), beta(1), beta(2), beta(p, p)] + [gamma(t) for t in _t_values(p, t_range)]
    rows = []
    for spec in specs:
        img = r_image(spec, nc)
        n, tA = bidegree(spec, p)
        if img.is_zero():
            rows.append({"name": spec.name, "status": "zero-image", "tA_mod": tA % tmod})
            continue
        grade = img.grade_of()
        ok = grade.t == tA % tmod and grade.s == n
        if not ok:
            raise AssertionError(
                f"{spec.name}: image grade {tuple(grade)} vs expected ({n}, {tA % tmod})"
            )
        rows.append({"name": spec.name, "status": "coherent", "sector": tuple(grade)})
    return rows


PRODUCT_NAMES = (
    "alpha1*gamma_t",
    "beta2*gamma_t",
    "beta1*gamma_t",
    "alpha1*b2*beta1*gamma_t",
    "h1*gamma_t",
)


def classify_products(p: int, t_range=None, nc: NamedClasses | None = None):
    """Rank-computed nonvanishing table for the five gamma_t products.

    Each row reports, per product, the class verdict with its certificate,
    plus the predicate cross-check columns.  The verdicts come from the
    cohomology engine; the predicates are only compared afterwards.

    The table is linear in r(gamma_t) = c_l * l + c_k * k1*zeta3 (see
    `gamma_coeffs`): for each product F the cochains X = F*l and
    Y = F*k1*zeta3 are formed and reduced once (`eng.reduce` checks that
    both are cocycles, hence so is every combination), and the row of t is
    the cochain c_l X + c_k Y with class c_l [X] + c_k [Y] mod p.  Rows
    depend only on (c_l, c_k), so each distinct pair is classified once.
    """
    if nc is None:
        nc = NamedClasses(ExteriorCohomology(p))
    elif nc.p != p:
        raise ValueError(f"product table at p = {p} asked of classes at p = {nc.p}")
    eng = nc.engine
    tbl = nc.table
    alpha1, beta2, beta1 = (r_image(s, nc) for s in (alpha(1), beta(2), beta(1)))
    factors = {
        "alpha1*gamma_t": [alpha1],
        "beta2*gamma_t": [beta2],
        "beta1*gamma_t": [beta1],
        "alpha1*b2*beta1*gamma_t": [alpha1, tbl["b2"], beta1],
        "h1*gamma_t": [tbl["h1"]],
    }
    # name -> [(X, [X]), (Y, [Y])] with X = F*l, Y = F*k1*zeta3
    reduced = {}
    for name in PRODUCT_NAMES:
        reduced[name] = []
        for x in (tbl["l"], tbl["k1"] * tbl["zeta3"]):
            for f in factors[name]:
                x = f * x
            reduced[name].append((x, eng.reduce(x)))

    def entries(coeffs):
        """name -> (sector, class coordinates) of the cochain, or None if it is 0."""
        out = {}
        for name, pieces in reduced.items():
            live = [(c, y, cls) for c, (y, cls) in zip(coeffs, pieces) if c]
            x = sum((c * y for c, y, _ in live), eng.zero())
            if x.is_zero():
                out[name] = None
                continue
            # every nonzero c*x here lies in the sector of the homogeneous sum
            coords = ()
            for c, _, cls in live:
                coords = [(a + c * b) % p for a, b in zip_longest(coords, cls.coords, fillvalue=0)]
            out[name] = (tuple(x.grade_of()), coords)
        return out

    coeffs_of = [gamma_coeffs(r, p) for r in range(p)]  # (c_l, c_k) depend on t mod p
    by_coeffs = {}
    rows = []
    for t in _t_values(p, t_range):
        gamma(t)  # the spec check rejects t <= 0
        coeffs = coeffs_of[t % p]
        if coeffs not in by_coeffs:
            by_coeffs[coeffs] = entries(coeffs)
        row = {"t": t, "products": {}, "agree": True}
        verdicts = {}
        for name, entry in by_coeffs[coeffs].items():
            if entry is None:
                verdicts[name] = False
                row["products"][name] = {"nonzero": False, "certificate": "zero cochain"}
                continue
            sector, coords = entry
            verdicts[name] = any(coords)
            row["products"][name] = {
                "nonzero": verdicts[name],
                "sector": sector,
                "certificate": list(coords),
            }
        full_pred = (t * (t**2 - 1)) % p != 0
        pair_pred = (t * (t - 1)) % p != 0
        row["predicate_full"] = full_pred
        row["predicate_pair"] = pair_pred
        all_five = all(verdicts.values())
        pair_nonzero = verdicts["beta1*gamma_t"] and verdicts["h1*gamma_t"]
        row["agree"] = (all_five == full_pred) and (pair_nonzero == pair_pred)
        rows.append(row)
    return rows


def classification_disagreements(rows):
    return [row["t"] for row in rows if not row["agree"]]


def _v2_times(a, b):
    """Product in Lambda[v2] of {v2 exponent: ExteriorElement} dicts (v2 is
    central and even); zero coefficients are dropped."""
    out = {}
    for ea, xa in a.items():
        for eb, xb in b.items():
            e = ea + eb
            out[e] = out.get(e, xa.alg.zero()) + xa * xb
    return {e: x for e, x in out.items() if not x.is_zero()}


def _v2_repr(x) -> str:
    terms = []
    for e, elem in sorted(x.items()):
        v2 = () if e == 0 else ("v2" if e == 1 else f"v2^{e}",)
        terms += [term_repr(c, mask, v2) for mask, c in sorted(elem.terms.items())]
    return " + ".join(terms) or "0"


def gamma1_expansion_check(nc: NamedClasses):
    """Exact expansion in the v2-coefficient ring:
    h0*(2k0 - 2 v2 b0)*(2 v2^(p-3) k0 + v2^(p-2) b0)
      = -2 v2^(p-2) h0 k0 b0 - 2 v2^(p-1) h0 b0^2."""
    p = nc.p
    t = nc.table
    lhs = _v2_times(_v2_times({0: t["h0"]}, {0: 2 * t["k0"], 1: -2 * t["b0"]}),
                    {p - 3: 2 * t["k0"], p - 2: t["b0"]})
    rhs = _v2_times({0: t["h0"]}, {p - 2: -2 * (t["k0"] * t["b0"]),
                                   p - 1: -2 * (t["b0"] * t["b0"])})
    if lhs != rhs:
        raise AssertionError(f"expansion mismatch: {_v2_repr(lhs)} vs {_v2_repr(rhs)}")
    k0sq = t["k0"] * t["k0"]
    if not k0sq.is_zero():
        raise AssertionError("k0^2 should vanish monomial-wise")
    return {
        "name": "gamma1-expansion",
        "status": "exact",
        "normal_form": _v2_repr(lhs),
    }
