"""Mutant table: each row corrupts one datum where it is defined and names
the `verify` suites that must then fail at p = 7.

Faults tested elsewhere and not repeated here:
- the exterior d table `_D` and the product sign `_sign`, and the integral
  kernels `_z_d`, `_z_mul`: `tests/test_exterior.py`
  (`test_corrupted_d_table_fails_at_every_prime`,
  `test_sign_fault_fails_only_the_product_check`,
  `test_differential_kernel_fault_fails_at_every_prime`,
  `test_product_kernel_fault_fails_at_every_prime`);
- unit multiples of the r-image table:
  `tests/test_bp_cobar.py::test_chains_land_on_the_r_image_table`.

Some unit multiples of a degree-1 generator fail no suite: x2 or x-1 of
h20, h22 or h31, and x-1 of h1.  Each is another valid basis element, so
no verdict can see it; the table leaves them out.  The pinned report
digest (`tests/test_cli.py::test_verify_p7_report_is_pinned`) sees them at
p = 7, and `tests/test_named.py::test_degree_one_classes_are_their_generators`
pins every degree-1 entry to its generator at p = 5, 7, 11 and 13.
"""

import pytest

import oracles
from stab3 import bp_cobar, fplinalg, greek, hopf_cobar
from stab3.exterior import gen_index
from stab3.named import NamedClasses
from stab3.reports import run_suites

P = 7


def _flip_ck(monkeypatch):
    c_k = greek.GAMMA_COEFFS[1]  # in place, so bp_cobar's imported name sees it
    for d, c in list(c_k.items()):
        monkeypatch.setitem(c_k, d, -c)


def _double_cl(monkeypatch):
    c_l = greek.GAMMA_COEFFS[0]
    for d, c in list(c_l.items()):
        monkeypatch.setitem(c_l, d, 2 * c)


def _b_class_shift(level, shift):
    """b_class_terms with `shift(p)` added to the first coefficient of every
    b-class of `level`, patched where both models import it."""
    def mutate(monkeypatch):
        def terms(p, lv, k):
            out = fplinalg.b_class_terms(p, lv, k)
            if lv == level:
                (left, right, c), *rest = out
                out = [(left, right, c + shift(p)), *rest]
            return out

        monkeypatch.setattr(bp_cobar, "b_class_terms", terms)
        monkeypatch.setattr(hopf_cobar, "b_class_terms", terms)
    return mutate


def _double_one_coproduct_term(monkeypatch):
    reduced = hopf_cobar.TruncatedHopf.reduced_coproduct

    def doubled(self, m):
        out = dict(reduced(self, m))
        if out:
            key = next(iter(out))
            out[key] = 2 * out[key] % self.p
        return out

    monkeypatch.setattr(hopf_cobar.TruncatedHopf, "reduced_coproduct", doubled)


def _drop_middle_coproduct_term(i, j):
    """Delta(g_{i,j}) without its term g_{1,j} (x) g_{i-1,j+1}, for i >= 2;
    the coproduct memo is emptied for the mutant and restored after it."""
    def mutate(monkeypatch):
        init = hopf_cobar.TruncatedHopf.__init__

        def dropped(self, p):
            init(self, p)
            del self._gen_coproduct[gen_index(i, j)][1]

        monkeypatch.setattr(hopf_cobar.TruncatedHopf, "__init__", dropped)
        monkeypatch.setattr(hopf_cobar, "_COPRODUCT_MEMO", {})
    return mutate


def _scale_named(name, unit):
    def mutate(monkeypatch):
        init = NamedClasses.__init__

        def scaled(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.table[name] = unit * self.table[name]

        monkeypatch.setattr(NamedClasses, "__init__", scaled)
    return mutate


_NAMED_ROWS = {
    "k0": ("generator-classes", "delta-chains"),
    "h0": ("generator-classes", "delta-chains"),
    "k1": ("gamma-chain",),
    "b1": ("gamma-chain",),
    "b20": ("gamma-chain",),
    "zeta3": ("gamma-chain",),
    "l": ("gamma-chain",),
    "b0": ("shift-cycle",),
    "b2": ("shift-cycle",),
    "lprime": ("generator-classes",),
}

MUTANTS = [
    ("c_k-sign-flip", _flip_ck, ("gamma-chain",)),
    ("c_l-doubled", _double_cl, ("gamma-chain",)),
    ("level-2-plus-p", _b_class_shift(2, lambda p: p), ("bp-basics",)),
    ("level-1-plus-p", _b_class_shift(1, lambda p: p), ("bp-basics",)),
    ("level-1-plus-1", _b_class_shift(1, lambda p: 1),
     ("bp-basics", "delta-chains", "beta-chain", "gamma-chain", "massey-p-fold")),
    ("coproduct-term-doubled", _double_one_coproduct_term, ("cobar-collapse",)),
    ("coproduct-g21-middle-dropped", _drop_middle_coproduct_term(2, 1),
     ("cobar-collapse", "euler")),
] + [
    (f"{name}-x{unit}", _scale_named(name, unit), suites)
    for name, suites in _NAMED_ROWS.items() for unit in (2, -1)
]


@pytest.mark.parametrize("mutate, suites", [row[1:] for row in MUTANTS],
                         ids=[row[0] for row in MUTANTS])
def test_mutant_fails_its_suite(monkeypatch, mutate, suites):
    mutate(monkeypatch)
    status = {c["name"]: c["status"] for c in run_suites(P)["checks"]}
    assert all(status[s] != "pass" for s in suites), status


def test_dropped_coproduct_term_breaks_the_shift_premise(monkeypatch):
    # the cobar tables copy cohomology along shift orbits; a coproduct that
    # is not shift-equivariant must fail the premise check that licenses it
    _drop_middle_coproduct_term(2, 1)(monkeypatch)
    engine = hopf_cobar.CobarEngine(P, weight_bound=3)
    assert oracles.shift_premise_failures(engine, 3)
