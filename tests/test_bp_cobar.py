"""Congruence-tracking cobar calculator: arithmetic, d-identities, chains."""

import functools
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pins
from stab3 import bp_cobar, greek
from stab3.bp_cobar import (
    BPElement,
    BPStructure,
    Ideal,
    InsufficientPrecisionError,
    MON_ONE,
    TPoly,
    V_ZERO,
    ZERO_IDEAL,
    BLOCKS,
    b20,
    b_cochain,
    d_cobar,
    delta_chain_displays,
    ideal,
    masks_diff_mod_p,
    project_to_exterior,
    t1_mon,
    t2_mon,
    t3_mon,
    tpoly_binom,
    verify_beta_chain,
    verify_d_basics,
    verify_dd,
    verify_gamma_chain,
)
from stab3.cohomology import ExteriorCohomology
from stab3.exterior import GEN_NAMES, GENERATORS, ExteriorAlgebra
from stab3.greek import alpha, beta
from stab3.named import NamedClasses
from stab3.reports import run_suites

P = 7
NC = NamedClasses(ExteriorCohomology(P))

#: the suites that run on the BP layer, in report order
BP_SUITES = ("bp-basics", "delta-chains", "beta-chain", "gamma-chain")


# -- TPoly -------------------------------------------------------------------


def _tconst(c):
    """The constant TPoly c, which compares equal to c."""
    return TPoly({0: Fraction(c)})


def _eval_at(q, t):
    """The TPoly q at the integer t."""
    return sum((c * t**d for d, c in q.coeffs.items()), Fraction(0))


def _val(c, p):
    """The oracle: p-adic valuation of a nonzero int or Fraction, the least
    over the coefficients of a TPoly."""
    if type(c) is TPoly:
        return min(_val(x, p) for x in c.coeffs.values())
    c, v = Fraction(c), 0
    while c.numerator % p == 0:
        c, v = c / p, v + 1
    while c.denominator % p == 0:
        c, v = c * p, v - 1
    return v


def _modulus(p, f):
    """p^f as `Ideal.modulus` writes it: a Fraction when f < 0."""
    return p**f if f >= 0 else Fraction(1, p**-f)


def test_tpoly_arithmetic_and_valuation():
    t = TPoly.t()
    q = t * t - 3 * t + _tconst(2)
    assert _eval_at(q, 1) == 0 and _eval_at(q, 5) == 12
    for c, v in ((_tconst(Fraction(49, 3)), 2), (_tconst(Fraction(3, 7)), -1),
                 (7 * t + _tconst(Fraction(1, 49)), -2), (q, 0)):
        assert _val(c, 7) == v
        assert bp_cobar._divisible(c, _modulus(7, v), 7)
        assert not bp_cobar._divisible(c, _modulus(7, v + 1), 7)
    assert not (q - q) and q


_COEFFS = st.dictionaries(
    st.integers(0, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    max_size=5,
)


def _assert_exact(q, reference):
    assert q.coeffs == reference.coeffs
    assert all(type(c) is Fraction and c for c in q.coeffs.values())


# scalar operands: 0, negative ints, and Fractions with 7 in the denominator
_SCALARS = st.one_of(
    st.just(0), st.integers(-60, -1), st.integers(1, 60),
    st.builds(Fraction, st.integers(-60, 60).filter(bool), st.sampled_from([7, 14, 49, 3])),
)


@settings(max_examples=200, deadline=None)
@given(_COEFFS, _COEFFS, st.sets(st.integers(0, 4)), _SCALARS)
def test_tpoly_exact_arithmetic_matches_coercing_constructor(a, b, negate, k):
    # keys in `negate` copy -a into b, so sums cancel there
    b = {**b, **{d: -a[d] for d in negate if d in a}}
    x, y = TPoly(a), TPoly(b)
    total = {d: x.coeffs.get(d, 0) + y.coeffs.get(d, 0) for d in set(a) | set(b)}
    _assert_exact(x + y, TPoly(total))
    _assert_exact(x - y, TPoly({d: x.coeffs.get(d, 0) - y.coeffs.get(d, 0) for d in total}))
    _assert_exact(-x, TPoly({d: -c for d, c in a.items()}))
    conv = {}
    for d1, c1 in x.coeffs.items():
        for d2, c2 in y.coeffs.items():
            conv[d1 + d2] = conv.get(d1 + d2, 0) + c1 * c2
    _assert_exact(x * y, TPoly(conv))
    _assert_exact(x * 3, TPoly({d: 3 * c for d, c in a.items()}))
    for product in (x * k, k * x):
        _assert_exact(product, TPoly({d: k * c for d, c in a.items()}))
    assert (x * 0).coeffs == {} and not x * Fraction(0)


def test_tpoly_binom_matches_binomials():
    # concrete exponent: C(10, 3) as an int; also C(-2, 3) = -4 and C(5, 0)
    for c, k, value in ((10, 3, comb(10, 3)), (-2, 3, -4), (5, 0, 1)):
        got = tpoly_binom((c, 0), k)
        assert type(got) is int and got == value
    # symbolic exponent t: evaluate C(t, 2) at several integers
    c = tpoly_binom((0, 1), 2)
    assert type(c) is TPoly
    for t in range(2, 9):
        assert _eval_at(c, t) == comb(t, 2)


_NUMBERS = st.one_of(
    st.integers(-60, 60), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)
_OPERANDS = st.one_of(_NUMBERS, _COEFFS.map(TPoly))


def _lift(x):
    return x if type(x) is TPoly else _tconst(x)


@settings(max_examples=300, deadline=None)
@given(_OPERANDS, _OPERANDS, st.sampled_from([2, 3, 7]))
def test_mixed_coefficients_match_the_all_tpoly_ring(a, b, p):
    # numbers and TPolys mix on either side; a TPoly operand promotes
    x, y = _lift(a), _lift(b)
    promoted = TPoly in (type(a), type(b))
    for got, ref in ((a + b, x + y), (a - b, x - y), (a * b, x * y), (-a, -x)):
        assert _lift(got).coeffs == ref.coeffs and bool(got) == bool(ref)
        assert got == ref and ref == got
    for got in (a + b, a - b, a * b):
        assert (type(got) is TPoly) == promoted
    for c, ref in ((a, x), (b, y)):
        for f in (-1, 0, 1) if c else ():
            q = _modulus(p, f)
            assert bp_cobar._divisible(c, q, p) == bp_cobar._divisible(ref, q, p) == (
                _val(c, p) >= f)


_UNITS = st.sampled_from([1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-5, 3), Fraction(4, 9)])


@st.composite
def _prime_and_coefficient(draw):
    """(p, c): c a nonzero int, Fraction or TPoly whose coefficients carry
    p^-3 .. p^3 times a number that may itself be divisible by p."""
    p = draw(st.sampled_from([2, 3, 7]))

    def number():
        c = draw(_UNITS) * Fraction(p ** draw(st.integers(0, 3)), p ** draw(st.integers(0, 3)))
        return c.numerator if c.denominator == 1 else c

    if draw(st.booleans()):
        return p, number()
    return p, TPoly({d: number() for d in range(draw(st.integers(1, 3)))})


@settings(max_examples=400, deadline=None)
@given(_prime_and_coefficient(), st.integers(-2, 3))
def test_divisible_reads_the_valuation(pc, f):
    # the one membership and mod-p test: c / p^f is p-integral
    p, c = pc
    assert bp_cobar._divisible(c, _modulus(p, f), p) == (_val(c, p) >= f)
    if type(c) is int:
        assert bp_cobar._pval(c, p) == _val(c, p)


# -- Ideals ------------------------------------------------------------------


def _v(e1=0, e2=0):
    return ((e1, 0), (e2, 0), (0, 0))


def test_ideal_membership_and_containment():
    i1 = ideal((1, 0, 0), (0, 2, 0))
    assert i1.contains(P, _v(), P)
    assert i1.contains(P, _v(3), 1)
    assert not i1.contains(P, _v(1, 5), 1)
    assert (i1.floor(0, 0), i1.floor(3, 0), i1.floor(1, 5)) == (1, 0, 1)
    i2 = ideal((2, 0, 0), (0, 2, 1))
    assert i1.contains_ideal(i2)
    assert not i2.contains_ideal(i1)
    assert not ZERO_IDEAL.contains(P, _v(9, 9), P**9)
    assert ZERO_IDEAL.floor(9, 9) is None and repr(ZERO_IDEAL) == "(0)"


# The generator-by-generator rule that `Ideal.floor` replaced, kept as the
# oracle: a term's (p-valuation, v1, v2) profile, a symbolic exponent read as
# 0, lies above some generator.
def _term_profile(p, vexp, coeff):
    (c1, m1), (c2, m2) = vexp[0], vexp[1]
    return _val(coeff, p), 0 if m1 else c1, 0 if m2 else c2


def _contains_profile(gens, pval, v1e, v2e):
    return any(pval >= a and v1e >= b and v2e >= c for (a, b, c) in gens)


_GENS = st.one_of(
    st.just(()),
    st.just(((0, 0, 0),)),
    # p-exponents down to -2: a negative floor is a Fraction modulus
    st.lists(st.tuples(st.integers(-2, 3), st.integers(0, 3), st.integers(0, 3)),
             max_size=5).map(tuple),
)
_EXP = st.tuples(st.integers(-2, 5), st.sampled_from([0, 1]))
_VEXP = st.tuples(_EXP, _EXP, _EXP)
# numerators and denominators carrying powers of 7: valuations -3..3
_PADIC = st.builds(
    lambda u, a, b: u * Fraction(7**a, 7**b),
    st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]),
    st.integers(0, 3), st.integers(0, 3),
)
_MEMBER_COEFFS = st.one_of(
    _PADIC.map(lambda c: c.numerator if c.denominator == 1 else c),
    st.dictionaries(st.integers(0, 3), _PADIC, min_size=1, max_size=3).map(TPoly),
)


@settings(max_examples=300, deadline=None)
@given(_GENS, _GENS, st.lists(st.tuples(_VEXP, _MEMBER_COEFFS), min_size=1, max_size=6))
def test_floor_agrees_with_the_generator_by_generator_rule(gens, other, terms):
    # several terms per ideal, so the memoised floors are read back too
    ctx = Ideal(gens)
    for vexp, coeff in terms + terms:
        assert ctx.contains(P, vexp, coeff) == _contains_profile(
            gens, *_term_profile(P, vexp, coeff))
    assert ctx.contains_ideal(Ideal(other)) == all(
        _contains_profile(gens, *g) for g in other)


def test_drop_terms_skips_zeros_and_audits_in_input_order():
    ctx = ideal((1, 0, 0), (0, 2, 0))
    terms = {
        (_v(3), (t1_mon(1),)): 0,  # cancelled: a zero is skipped, never tested
        (_v(2), (t1_mon(2),)): 5,
        (_v(), (t1_mon(3),)): 3,
        (_v(), (t1_mon(4),)): Fraction(P, 2),
        (_v(1), (t1_mon(5),)): 0,
        (_v(1), (t1_mon(6),)): TPoly({0: 1, 1: P}),
    }
    audit = []
    kept = bp_cobar._drop_terms(P, terms, ctx, audit, "why")
    assert kept == {(_v(), (t1_mon(3),)): 3, (_v(1), (t1_mon(6),)): TPoly({0: 1, 1: P})}
    assert audit == [
        {"dropped": "(5)*v1^(2)*[t1^2]", "ideal": "(p, v1^2)", "reason": "why"},
        {"dropped": "(7/2)*[t1^4]", "ideal": "(p, v1^2)", "reason": "why"},
    ]
    assert [list(e) for e in audit] == [["dropped", "ideal", "reason"]] * 2
    assert bp_cobar._drop_terms(P, terms, ZERO_IDEAL, audit) == {
        k: c for k, c in terms.items() if c
    }
    assert len(audit) == 2


# -- BPElement ---------------------------------------------------------------


def _degrees(x):
    """Set of (constant, t-coefficient) internal degrees of the terms of x."""
    dv = [2 * (x.p**i - 1) for i in (1, 2, 3)]
    out = set()
    for vexp, slots in x.terms:
        const = sum(dv[i] * c for i, (c, _) in enumerate(vexp))
        tco = sum(dv[i] * m for i, (_, m) in enumerate(vexp))
        for mon in slots:
            const += sum(d * a for d, a in zip(dv, mon))
        out.add((const, tco))
    return out


def _is_homogeneous(x):
    return len(_degrees(x)) <= 1


def test_element_ring_ops_and_homogeneity():
    x = BPElement.cochain(P, t1_mon(1))
    y = BPElement.cochain(P, t1_mon(P))
    z = x.concat(y)
    assert list(z.terms) == [(V_ZERO, (t1_mon(1), t1_mon(P)))]
    assert (x + y - x - y).is_zero()
    assert _is_homogeneous(x) and not _is_homogeneous(x + y)


def test_element_coefficients_stay_numbers():
    keys = [(V_ZERO, (t1_mon(i),)) for i in range(1, 5)]
    x = BPElement(P, dict(zip(keys, (2, Fraction(1, 2), _tconst(3)))))
    assert x.terms == {keys[0]: 2, keys[1]: Fraction(1, 2), keys[2]: 3}
    # a sum drops the terms that cancel and keeps the order of the rest
    y = x + BPElement(P, {keys[3]: 1, keys[0]: -2})
    assert list(y.terms) == [keys[1], keys[2], keys[3]]
    assert x.terms == {
        keys[0]: _tconst(2), keys[1]: _tconst(Fraction(1, 2)), keys[2]: _tconst(3)
    }
    assert [type(c) for c in x.terms.values()] == [int, Fraction, TPoly]
    assert [type(c) for c in x.scale(2).terms.values()] == [int, Fraction, TPoly]
    assert x.scale(2) == x.scale(_tconst(2)) == x + x
    assert x.scale(0).is_zero() and x.scale(_tconst(0)).is_zero()
    assert (-x) == x.scale(-1) == BPElement(P, {k: -c for k, c in x.terms.items()})
    assert (-x).terms and all((-x).terms.values()) and x - x == BPElement(P)


def _profile(vexp, coeff, a, b, c):
    """Whether membership reads the term's (p-valuation, v1, v2) profile as
    exactly (a, b, c): it lies in (p^a v1^b v2^c) and in no ideal one step
    smaller."""
    inside = ideal((a, b, c)).contains(P, vexp, coeff)
    finer = ((a + 1, b, c), (a, b + 1, c), (a, b, c + 1))
    return inside and not any(ideal(g).contains(P, vexp, coeff) for g in finer)


def test_membership_reads_symbolic_exponents_as_zero():
    vexp = ((2, 0), (-1, 1), (0, 0))  # v1^2 v2^(t-1)
    assert _profile(vexp, _tconst(P * P), 2, 2, 0)
    assert _profile(((0, 1), (3, 0), (0, 0)), _tconst(Fraction(1, P)), -1, 0, 3)
    ctx = ideal((2, 2, 0), (0, 0, 1))
    assert ctx.floor(2, 0) == 2 and ctx.floor(2, 1) == 0
    assert ctx.contains(P, vexp, P * P) and not ctx.contains(P, vexp, P)


def test_divide_v_requires_exponent():
    x = BPElement.v_power(P, e1=2)
    assert x.divide_v(1, 2).terms == BPElement.v_power(P).terms
    with pytest.raises(InsufficientPrecisionError):
        x.divide_v(1, 3)


def test_reduce_mod_records_audit():
    x = BPElement.v_power(P, e1=1).scale(P) + BPElement.cochain(P, t1_mon(1))
    audit = []
    r = x.reduce_mod(ideal((1, 1, 0)), audit, "test")
    assert len(r.terms) == 1 and len(audit) == 1
    assert audit[0]["reason"] == "test"


def _eval_t(x, t):
    """x with the formal parameter specialised to the integer t."""
    out = {}
    for (vexp, slots), c in x.terms.items():
        key = (tuple((cc + mm * t, 0) for cc, mm in vexp), slots)
        out[key] = out.get(key, 0) + (_eval_at(c, t) if type(c) is TPoly else c)
    return BPElement(x.p, {k: c for k, c in out.items() if c})


def test_symbolic_v_exponent_binomials():
    # d(v2^t) mod (p, v1^3) has coefficients t and C(t, 2)
    st = BPStructure(P)
    dx = d_cobar(BPElement.v_power(P, e2=(0, 1)), ideal((1, 0, 0), (0, 3, 0)), st)
    coeffs = sorted(repr(c) for c in dx.terms.values())
    assert "1*t^1" in coeffs
    # specialize at t = 3 and compare with d(v2^3)
    concrete = d_cobar(BPElement.v_power(P, e2=3), ideal((1, 0, 0), (0, 3, 0)), st)
    diff = _eval_t(dx, 3) - concrete
    assert diff.reduce_mod(ideal((1, 0, 0), (0, 3, 0))).is_zero()


def test_symbolic_exponents_promote_to_tpoly():
    dx = d_cobar(BPElement.v_power(P, e2=(0, 1)), ideal((1, 0, 0), (0, 3, 0)), BPStructure(P))
    assert dx.terms and all(type(c) is TPoly for c in dx.terms.values())
    assert TPoly.t() in dx.terms.values()


def test_term_repr_prints_coefficients_with_str():
    # repr(Fraction(1, 2)) is "Fraction(1, 2)"; certificates print "1/2"
    key = (V_ZERO, (t1_mon(1), t1_mon(2 * P)))
    assert bp_cobar._term_repr(key, Fraction(1, 2)) == "(1/2)*[t1|t1^14]"
    assert bp_cobar._term_repr(key, _tconst(Fraction(1, 2))) == "(1/2)*[t1|t1^14]"
    assert repr(BPElement(P, {key: Fraction(-1, 2), (V_ZERO, ()): 3})) == "(3) + (-1/2)*[t1|t1^14]"


# -- b-classes ---------------------------------------------------------------


def test_bp_tables_hold_no_tpolys():
    st = BPStructure(P)
    tables = [table for table, _ in st.D.values()] + [
        st.delta_mon(t1_mon(P), ZERO_IDEAL), st.delta_t2_power(P, ZERO_IDEAL),
        b_cochain(P, 1, 0).terms, b_cochain(P, 1, 1).terms, b20(P, st).terms,
    ]
    for table in tables:
        assert table and all(type(c) is int for c in table.values())


def test_b1k_coefficients_and_cocycle():
    b = b_cochain(P, 1, 0)
    key = (V_ZERO, (t1_mon(1), t1_mon(P - 1)))
    assert b.terms[key] == _tconst(Fraction(comb(P, 1), P))
    assert d_cobar(b, ideal((1, 0, 0)), BPStructure(P)).reduce_mod(
        ideal((1, 0, 0))
    ).is_zero()


def test_b20_is_p_integral_and_matches_multinomial_form():
    x = b20(P, BPStructure(P))
    for c in x.terms.values():
        assert _val(c, P) >= 0
    assert x.reduce_mod(ideal((0, 1, 0))) == b_cochain(P, 2, 0)


def test_b20_refuses_a_coefficient_with_p_in_its_denominator(monkeypatch):
    corner = bp_cobar._corner_v1p_b11
    stray = BPElement.cochain(P, t1_mon(1), t1_mon(2))
    monkeypatch.setattr(bp_cobar, "_corner_v1p_b11", lambda p: corner(p) + stray)
    with pytest.raises(InsufficientPrecisionError,
                       match=r"not p-integral at \(1/7\)\*\[t1\|t1\^2\]"):
        b20(P, BPStructure(P))


# -- differential identities -------------------------------------------------


def test_d_basics_report():
    report = verify_d_basics(P)
    assert len(report) == 9
    assert all(r["status"] in ("exact", "pass") for r in report)


def test_dd_report():
    report = verify_dd(P)
    assert len(report) == 7
    assert all(r["status"] == "pass" for r in report)


def test_dd_fails_on_a_broken_coproduct(monkeypatch):
    # doubling the first term of every reduced coproduct breaks
    # coassociativity, so a d^2 row must fail, by its own name
    delta_bar = BPStructure.delta_bar

    def doubled(self, mon, ctx):
        out = delta_bar(self, mon, ctx)
        for key in list(out)[:1]:
            out[key] *= 2
        return out

    monkeypatch.setattr(BPStructure, "delta_bar", doubled)
    with pytest.raises(AssertionError, match=r"^d\^2\("):
        verify_dd(5)


def test_delta_bar_refuses_a_coproduct_without_mon_tensor_one(monkeypatch):
    delta_mon = BPStructure.delta_mon

    def dropped(self, mon, ctx):
        out = delta_mon(self, mon, ctx)
        del out[V_ZERO, mon, MON_ONE]
        return out

    monkeypatch.setattr(BPStructure, "delta_mon", dropped)
    with pytest.raises(ArithmeticError, match=r"^Delta\(t1\^2\) holds 0 at t1\^2 \(x\) 1, not 1$"):
        BPStructure(P).delta_bar(t1_mon(2), ZERO_IDEAL)


def _check_d_v1_mod_p2(coeff):
    row = ("d(v1) mod p^2", "pass", BPElement.v_power(P, e1=1), ideal((2, 0, 0)),
           BPElement.cochain(P, t1_mon(1), coeff=coeff))
    return bp_cobar._check_d(BPStructure(P), [row])


def test_check_d_passes_a_row_equal_only_mod_its_context():
    # d(v1) = p[t1] and (p + p^2)[t1] differ by -p^2[t1]: `==` fails, the
    # reduction mod (p^2) passes
    assert _check_d_v1_mod_p2(P + P**2) == [{"name": "d(v1) mod p^2", "status": "pass"}]


def test_check_d_names_what_is_left_mod_its_context():
    with pytest.raises(AssertionError, match=r"^d\(v1\) mod p\^2: off by \(-7\)\*\[t1\]$"):
        _check_d_v1_mod_p2(2 * P)


def test_d_t2p_exact_identity():
    st = BPStructure(P)
    x = BPElement(P, {(V_ZERO, (t2_mon(P),)): 1})
    dx = d_cobar(x, ZERO_IDEAL, st)
    v1p = ((P, 0), (0, 0), (0, 0))
    expected = BPElement(P, {(V_ZERO, (t1_mon(P), t1_mon(P**2))): -1})
    for key, c in b_cochain(P, 1, 1).terms.items():
        expected = expected + BPElement(P, {(v1p, key[1]): c})
    expected = expected - b20(P, st).scale(P)
    assert (dx - expected).is_zero()


def test_validity_guard_raises_on_fine_context():
    # eta_R(v3) is not granted exactly; a zero context must be rejected
    with pytest.raises(InsufficientPrecisionError):
        d_cobar(BPElement.v_power(P, e3=1), ZERO_IDEAL, BPStructure(P))


def test_tables_claim_only_what_they_hold():
    # no coproduct of t3 is on record, and eta_R(v3) keeps no term in p*v1
    st = BPStructure(P)
    with pytest.raises(InsufficientPrecisionError, match=r"no coproduct of t3 on record"):
        st.delta_bar(t3_mon(1), ideal((0, 1, 0), (0, 0, 1)))
    with pytest.raises(InsufficientPrecisionError, match=r"eta_R\(v3\) is only valid mod"):
        st.eta_power(3, (1, 0), ideal((2, 0, 0), (0, 3, 0), (0, 2, 1), (0, 0, P)))
    table, validity = st.D[3]
    assert len(table) == 3 and (1, 1, 0) in validity.gens


# -- closed-form coproduct powers against the iterated product ---------------


def _iterated_powers(st, base, ctx, n):
    """The oracle: [base^0, ..., base^n] by repeated products of the
    expansion `base`, each reduced mod ctx after every factor."""
    out = [{(V_ZERO, MON_ONE, MON_ONE): _tconst(1)}]
    for _ in range(n):
        out.append(st._mul(out[-1], base, ctx))
    return out


def _delta_t2_powers(st, ctx, n):
    """Oracle Delta(t2)^b for b <= n, Delta(t2) = t2|1 + t1|t1^p + 1|t2 - v1 b10."""
    p = st.p
    base = {(V_ZERO, left, right): _tconst(1) for left, right in (
        (t2_mon(1), MON_ONE), (t1_mon(1), t1_mon(p)), (MON_ONE, t2_mon(1)))}
    v1 = ((1, 0), (0, 0), (0, 0))
    for (_, (left, right)), c in b_cochain(p, 1, 0).terms.items():
        base[(v1, left, right)] = -c
    return _iterated_powers(st, base, ctx, n)


def _as_element(p, expansion):
    return BPElement(p, {(vexp, tuple(slots)): c for (vexp, *slots), c in expansion.items()})


def _suite_t2_keys(p):
    """The (b, ctx.gens) on which the BP suites expand Delta(t2)^b."""
    mod_p2_v1_v2 = ((2, 0, 0), (0, 1, 0), (0, 0, 1))
    quadratic = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    return {
        (p, ()), (1, ((2, 0, 0), (1, 1, 0))), (1, ((1, 0, 0), (0, 1, 0))),
        (p, ((1, 0, 0), (0, 2, 0), (0, 1, 1), (0, 0, 2))), (p, quadratic), (2 * p, quadratic),
        *((b, mod_p2_v1_v2) for b in range(1, p + 1)),
    }


@pytest.mark.parametrize("p", [5, 7])
def test_suites_expand_delta_t2_on_the_listed_keys(monkeypatch, p):
    seen = set()
    power = BPStructure.delta_t2_power

    def recorded(self, b, ctx):
        seen.add((b, ctx.gens))
        return power(self, b, ctx)

    monkeypatch.setattr(BPStructure, "delta_t2_power", recorded)
    report = run_suites(p, suites=BP_SUITES)
    assert all(rec["status"] == "pass" for rec in report["checks"])
    assert seen == _suite_t2_keys(p)


@pytest.mark.parametrize("p", [5, 7])
def test_no_element_holds_a_zero_coefficient_on_any_verify_call(monkeypatch, p):
    # BPElement adopts its terms as is: each site whose sum can cancel drops
    # its own zeros, b20's corner t1^p (x) t1^(p^2) among them
    built, zeros = [], []
    init = BPElement.__init__

    def checked(self, *args):
        init(self, *args)
        built.append(len(self.terms))
        zeros.extend(key for key, c in self.terms.items() if not c)

    monkeypatch.setattr(BPElement, "__init__", checked)
    report = run_suites(p)
    assert all(rec["status"] == "pass" for rec in report["checks"])
    assert built
    assert zeros == []


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_delta_mon_output_is_reduced_on_every_verify_call(monkeypatch, p):
    # delta_bar leans on this: it passes on every key but the two it pops
    calls = []
    delta_mon = BPStructure.delta_mon

    def checked(self, mon, ctx):
        out = delta_mon(self, mon, ctx)
        bad = [(key, c) for key, c in out.items() if not c or ctx.contains(self.p, key[0], c)]
        calls.append((mon, ctx.gens, bad))
        return out

    monkeypatch.setattr(BPStructure, "delta_mon", checked)
    report = run_suites(p)
    assert all(rec["status"] == "pass" for rec in report["checks"])
    assert calls
    assert [call for call in calls if call[2]] == []


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_d_cobar_output_has_no_unit_slot_on_every_bp_suite_call(monkeypatch, p):
    # d_cobar splices in every eta_R term with c != 0 and every delta_bar
    # term as they come: no eta_R term besides v^e itself lacks a t-monomial,
    # and delta_bar removes the only two terms with a unit side
    calls = []

    def checked(x, ctx, structure, audit=None):
        out = d_cobar(x, ctx, structure, audit)
        calls.append([key for key in out.terms if MON_ONE in key[1]])
        return out

    monkeypatch.setattr(bp_cobar, "d_cobar", checked)
    report = run_suites(p, suites=BP_SUITES)
    assert calls
    assert [bad for bad in calls if bad] == []
    assert [rec["status"] for rec in report["checks"]] == ["pass"] * 4


@pytest.mark.parametrize("p", [5, 7])
def test_inexact_d_cobar_agrees_with_the_exact_sum_on_every_bp_suite_call(monkeypatch, p):
    # a call without an audit leaves out terms in ctx; on every such call
    # the keys are those of the exact sum, which an audit asks for, and the
    # values agree mod ctx
    calls = []

    def recorded(x, ctx, structure, audit=None):
        if audit is None:
            calls.append((x, ctx, structure))
        return d_cobar(x, ctx, structure, audit)

    monkeypatch.setattr(bp_cobar, "d_cobar", recorded)
    run_suites(p, suites=BP_SUITES)
    assert any(ctx.gens for _, ctx, _ in calls)
    for x, ctx, st in calls:
        got, ref = d_cobar(x, ctx, st), d_cobar(x, ctx, st, [])
        assert (got - ref).reduce_mod(ctx).is_zero() and set(got.terms) == set(ref.terms)


_MOD_P2_V1_V2 = ((2, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize("p, terms, gens, moved", [
    # p-multiples whose coproduct terms fall into p^2 on their own; in the
    # first case some keys also get terms outside ctx, so values move
    (5, {((1, 1, 0), (5, 1, 0)): 5, ((2, 0, 0), (0, 5, 0)): 1, ((0, 2, 0), (6, 0, 0)): 3},
     _MOD_P2_V1_V2, True),
    (7, {((7, 1, 0),): 1, ((1, 7, 0),): 7, ((3, 2, 0), (14, 0, 0)): 14}, _MOD_P2_V1_V2, False),
    (5, {((5, 1, 0), (1, 0, 0)): 5, ((0, 2, 0),): 1}, ((2, 0, 0), (1, 1, 0)), False),
    (5, {((5, 2, 0),): 3}, (), False),
], ids=["p5-two-slots", "p7-mixed", "p5-p2-pv1", "zero-ideal"])
def test_inexact_d_cobar_agrees_mod_ctx(p, terms, gens, moved):
    # leaving out the terms that lie in ctx on their own keeps every key and
    # the class of every value mod ctx; only representatives and order move
    st, ctx = BPStructure(p), Ideal(gens)
    x = BPElement(p, {(V_ZERO, slots): c for slots, c in terms.items()})
    exact, loose = d_cobar(x, ctx, st, []), d_cobar(x, ctx, st)
    assert exact.terms and set(loose.terms) == set(exact.terms)
    assert (loose - exact).reduce_mod(ctx).is_zero()
    assert (list(loose.terms.items()) != list(exact.terms.items())) == moved


@pytest.mark.parametrize("p", [5, 7, 11])
def test_delta_t2_power_matches_the_iterated_product(p):
    # same terms, same values, same order: reduce_mod audits in dict order
    st = BPStructure(p)
    by_ctx = {}
    for b, gens in _suite_t2_keys(p):
        by_ctx.setdefault(gens, []).append(b)
    for gens, bs in by_ctx.items():
        ctx = Ideal(gens)
        oracle = _delta_t2_powers(st, ctx, max(bs))
        for b in bs:
            assert list(st.delta_t2_power(b, ctx).items()) == list(oracle[b].items()), (b, ctx)


@pytest.mark.parametrize("gens", [
    ((2, 0, 0), (1, 1, 0)), ((1, 0, 0), (0, 2, 0)), ((3, 0, 0), (1, 2, 0), (0, 3, 0)), ((0, 0, 0),),
], ids=["p2-pv1", "p-v1^2", "p3-pv1^2-v1^3", "unit"])
def test_delta_t2_power_off_the_suites_path_agrees_mod_ctx(gens):
    # with a p-power generator the iterated product's representative depends
    # on where it truncated, so only the class mod ctx is fixed
    p = 5
    st = BPStructure(p)
    ctx = Ideal(gens)
    for b, expected in enumerate(_delta_t2_powers(st, ctx, 2 * p)):
        got = _as_element(p, st.delta_t2_power(b, ctx))
        assert (got - _as_element(p, expected)).reduce_mod(ctx).is_zero(), b
        assert got.reduce_mod(ctx) == got, b


def test_closed_forms_multiply_no_expansions(monkeypatch):
    def refuse(*args):
        raise AssertionError("BPStructure._mul called")

    st = BPStructure(P)
    monkeypatch.setattr(BPStructure, "_mul", refuse)
    assert st.delta_t2_power(2 * P, ZERO_IDEAL)
    # cross products whose Delta(t2)^b is v1-free
    assert st.delta_mon((P, P, 0), ideal((0, 1, 0)))
    assert st.delta_mon((3, 2, 0), ideal((2, 0, 0), (0, 1, 0), (0, 0, 1)))


def _suite_delta_mon_calls(monkeypatch, p):
    """Every (mon, ctx) on which the BP suites expand a coproduct, in order."""
    seen = {}
    delta_mon = BPStructure.delta_mon

    def recorded(self, mon, ctx):
        seen.setdefault((mon, ctx.gens), ctx)
        return delta_mon(self, mon, ctx)

    monkeypatch.setattr(BPStructure, "delta_mon", recorded)
    report = run_suites(p, suites=BP_SUITES)
    monkeypatch.undo()
    assert all(rec["status"] == "pass" for rec in report["checks"])
    return [(mon, ctx) for (mon, _), ctx in seen.items()]


@functools.cache
def _delta_t1_power_over_z(p, a):
    """Delta(t1)^a by `_mul` modulo the zero ideal: Delta(t1) = [1|t1] + [t1|1]
    multiplied a times, so the terms [t1^i | t1^(a-i)] come i ascending."""
    if not a:
        return {(V_ZERO, MON_ONE, MON_ONE): 1}
    base = {(V_ZERO, MON_ONE, t1_mon(1)): 1, (V_ZERO, t1_mon(1), MON_ONE): 1}
    return BPStructure(p)._mul(_delta_t1_power_over_z(p, a - 1), base, ZERO_IDEAL)


def _delta_t1_power(st, a, ctx):
    """The oracle Delta(t1)^a mod ctx: the power over Z, then reduced."""
    return bp_cobar._drop_terms(st.p, _delta_t1_power_over_z(st.p, a), ctx)


def _delta_mon_by_mul(st, mon, ctx):
    """The oracle: Delta(t1)^a * Delta(t2)^b through the general `_mul`."""
    a, b, _ = mon
    if a and b:
        return st._mul(_delta_t1_power(st, a, ctx), st.delta_t2_power(b, ctx), ctx)
    return st.delta_t2_power(b, ctx) if b else _delta_t1_power(st, a, ctx)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_delta_mon_closed_form_matches_the_product_on_every_suite_call(monkeypatch, p):
    # same terms, same values, same order: d_cobar's audits are in dict order
    calls = _suite_delta_mon_calls(monkeypatch, p)
    assert any(mon[0] and mon[1] for mon, _ in calls)
    st = BPStructure(p)
    for mon, ctx in calls:
        assert list(st.delta_mon(mon, ctx).items()) == list(
            _delta_mon_by_mul(st, mon, ctx).items()), (mon, ctx)


@pytest.mark.parametrize("mon, gens", [
    ((2, 1, 0), ()), ((3, 5, 0), ()), ((4, 1, 0), ((2, 0, 0), (1, 1, 0))),
    ((4, 2, 0), ((2, 0, 0), (1, 1, 0), (0, 2, 0))),
])
def test_delta_mon_merges_colliding_v1_keys(mon, gens):
    # v1 b10 = v1 sum_e d_e [t1^e | t1^(p-e)] times [t1^i | t1^(a-i)] meets
    # one key for every (e, i) with the same e + i, so the closed form must
    # sum those products and then test the sums against ctx: at
    # (4, 1, 0) mod (p^2, p v1), 20 products meet on 8 keys, 2 of whose sums
    # lie in the context
    p = 5
    st = BPStructure(p)
    ctx = Ideal(gens)
    t1, t2 = _delta_t1_power(st, mon[0], ctx), st.delta_t2_power(mon[1], ctx)
    expected = _delta_mon_by_mul(st, mon, ctx)
    v1_products = sum(1 for key in t2 if key[0][0][0]) * len(t1)
    assert v1_products > sum(1 for key in expected if key[0][0][0])
    assert list(st.delta_mon(mon, ctx).items()) == list(expected.items())


def _digit_sum(n, p):
    s = 0
    while n:
        n, d = divmod(n, p)
        s += d
    return s


@pytest.mark.parametrize("p", [5, 7])
def test_multinomial_valuations_follow_kummer(p):
    # Kummer: v_p((n; e)) is the number of carries in adding the parts of e
    # in base p, (sum of the parts' digit sums - digit sum of n) / (p - 1).
    # The multinomials (n; i, j, n-i-j) are C(n, i) C(n-i, j).
    for n in range(3 * p):
        for i in range(n + 1):
            for j in range(n - i + 1):
                e, c = (i, j, n - i - j), comb(n, i) * comb(n - i, j)
                kummer = (sum(_digit_sum(x, p) for x in e) - _digit_sum(n, p)) // (p - 1)
                assert bp_cobar._pval(c, p) == kummer, (e, c)
                assert c % p**kummer == 0 and c % p ** (kummer + 1) != 0, (e, c)


# -- projection to the exterior model ----------------------------------------


def _masks(elem, coeff=1):
    """{(mask, 0): coeff * c} over the terms of an exterior element."""
    return {(mask, 0): coeff * c for mask, c in elem.terms.items()}


def test_projection_of_b10_block():
    alg = ExteriorAlgebra(P)
    h = {name: alg.gen(i, j) for name, (i, j) in zip(GEN_NAMES, GENERATORS)}
    b0_ext = h["h1"] * h["h32"] + h["h21"] * h["h20"] + h["h31"] * h["h1"]
    img = project_to_exterior(-b_cochain(P, 1, 0), NC)
    assert not masks_diff_mod_p(img, _masks(-b0_ext), P)


def _between_slots(p, block, unit=3):
    """unit * [t2^(p^2)] (x) block (x) [t3]: a block between two generator slots."""
    return (BPElement.cochain(p, t2_mon(p * p), coeff=unit).concat(block)
            .concat(BPElement.cochain(p, t3_mon(1))))


@pytest.mark.parametrize("p", [7, 11])
@pytest.mark.parametrize("name, level, k", BLOCKS, ids=[name for name, _, _ in BLOCKS])
def test_projection_of_each_block_between_generator_slots(p, name, level, k):
    nc = NamedClasses(ExteriorCohomology(p))
    alg = nc.engine.alg
    expected = alg.gen(2, 2) * nc[name] * alg.gen(3, 0)
    assert not expected.is_zero()
    img = project_to_exterior(_between_slots(p, b_cochain(p, level, k)), nc)
    assert not masks_diff_mod_p(img, _masks(expected, 3), p)
    assert masks_diff_mod_p(img, _masks(expected, 4), p)


@pytest.mark.parametrize("name, level, k", BLOCKS, ids=[name for name, _, _ in BLOCKS])
def test_projection_rejects_a_block_with_one_coefficient_changed(name, level, k):
    block = b_cochain(P, level, k)
    key = [key for key, c in block.terms.items() if c % P][-1]  # not the first, the anchor
    block.terms[key] += 1
    with pytest.raises(InsufficientPrecisionError, match="not proportional"):
        project_to_exterior(_between_slots(P, block), NC)


def test_projection_drops_an_unclassified_term_of_positive_valuation_unaudited():
    x = BPElement.cochain(P, (2, 1, 0), coeff=P)  # not a generator, not a known block
    audit = []
    assert project_to_exterior(x, NC, audit) == {}
    assert audit == []


def test_projection_rejects_v1_content():
    with pytest.raises(InsufficientPrecisionError):
        project_to_exterior(BPElement.v_power(P, e1=1), NC)


def test_projection_audits_junk():
    x = BPElement.cochain(P, (2, 1, 0))  # not a generator, not a known block
    audit = []
    img = project_to_exterior(x, NC, audit)
    assert img == {}
    assert len(audit) == 1


# -- chains ------------------------------------------------------------------


def test_delta_chain_displays():
    chains = delta_chain_displays(NC)
    assert [c["name"] for c in chains] == ["alpha_1", "beta_1", "beta_2", "beta_p/p"]
    assert [c["image"] for c in chains] == ["h0", "-b0", "2*k0 - 2*v2*b0", "-b1"]
    for c in chains:
        assert c["steps"]


@pytest.mark.parametrize("spec", [alpha(1), beta(1), beta(2), beta(P, P)],
                         ids=["alpha_1", "beta_1", "beta_2", "beta_p_p"])
def test_chains_land_on_the_r_image_table(monkeypatch, spec):
    # a sign change in greek.r_image must fail the chain that lands on it
    def flipped(s, nc):
        img = greek.r_image(s, nc)
        return -1 * img if s == spec else img

    monkeypatch.setattr(bp_cobar, "r_image", flipped)
    with pytest.raises(AssertionError, match="exterior image is not"):
        delta_chain_displays(NC)


def test_beta_chain_symbolic():
    rep = verify_beta_chain(P)
    assert rep["status"] == "pass"
    assert "t(t-1)" in rep["result"]


def test_gamma_chain_symbolic():
    rep = verify_gamma_chain(NC)
    assert rep["status"] == "pass"
    assert rep["result"].startswith("-t(t^2-1)*l - t(t-1)*k1*zeta3")
    assert rep["projection_audit"]


# -- certificates ------------------------------------------------------------

def test_bp_certificates_are_pinned():
    # run on their own, the BP suites give the records of the whole p = 7 report
    report = run_suites(P, suites=BP_SUITES)
    pinned = pins.suite_pins(P)
    assert ({rec["name"]: pins.digest(rec) for rec in report["checks"]}
            == {name: pinned[name] for name in BP_SUITES})


_SABOTAGED_SUITE = """
import json, sys
from stab3 import bp_cobar, greek
from stab3.reports import run_suites

{sabotage}
check, = run_suites(7, suites=[{suite!r}])["checks"]
print(json.dumps({{"optimize": sys.flags.optimize, "check": check}}))
"""

#: (sabotage, suite that must fail, start of its certificate)
_SABOTAGES = [
    # doubling every differential breaks the first identity, d(v1) = p[t1]
    ("""d_cobar = bp_cobar.d_cobar
bp_cobar.d_cobar = lambda *args, **kwargs: d_cobar(*args, **kwargs).scale(2)""",
     "bp-basics", "d(v1) = "),
    # the sign of c_k in r(gamma_t), flipped in place
    ("""c_k = greek.GAMMA_COEFFS[1]
c_k.update({d: -c for d, c in c_k.items()})""",
     "gamma-chain", "gamma_t exterior image mismatch"),
    # p added to one coefficient of b_{2,0}
    ("""terms = bp_cobar.b_class_terms
def shifted(p, level, k):
    (left, right, c), *rest = terms(p, level, k)
    return [(left, right, c + p if level == 2 else c), *rest]
bp_cobar.b_class_terms = shifted""",
     "bp-basics", "b20 mod v1 is not the multinomial form"),
    # one coefficient of d(h20) off by one in the integral table every prime reads
    ("""from stab3 import exterior
for mask in range(exterior.FULL_MASK + 1):
    exterior._D[mask]
h20 = 1 << exterior.gen_index(2, 0)
(m, c), *rest = exterior._D[h20]
exterior._D[h20] = ((m, c + 1), *rest)""",
     "exterior-dga", "Leibniz fails on mask 4 * gen (2,0)"),
]


def test_bp_checks_bite_under_python_O():
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    for sabotage, suite, certificate in _SABOTAGES:
        proc = subprocess.run(
            [sys.executable, "-O", "-c",
             _SABOTAGED_SUITE.format(sabotage=sabotage, suite=suite)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["optimize"] == 1
        assert out["check"]["status"] == "fail", suite
        assert out["check"]["certificate"].startswith(certificate)
