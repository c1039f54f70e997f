"""Truncated-Hopf cobar engine: coalgebra axioms, d^2, collapse, p-fold bracket."""

import functools
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import pins
from stab3.cohomology import ExteriorCohomology
from stab3.exterior import GENERATORS, ExteriorAlgebra, gen_index
from stab3.hopf_cobar import (
    UNIT,
    CobarElement,
    CobarEngine,
    TruncatedHopf,
    b_class,
    collapse_check,
    p_fold_massey_check,
)

HOPF = TruncatedHopf(7)


def _nonzero(terms):
    return {k: c for k, c in terms.items() if c}


def test_coassociativity_and_counit():
    # the generator g_{i,j} is t_i^(p^j)
    p = HOPF.p
    for i, j in GENERATORS:
        g = HOPF.power_monomial(i, p**j)
        lhs, rhs, left, right = {}, {}, {}, {}
        for (a, b), c in HOPF.coproduct(g).items():
            for (a1, a2), c2 in HOPF.coproduct(a).items():
                lhs[a1, a2, b] = (lhs.get((a1, a2, b), 0) + c * c2) % p
            for (b1, b2), c2 in HOPF.coproduct(b).items():
                rhs[a, b1, b2] = (rhs.get((a, b1, b2), 0) + c * c2) % p
            if a == UNIT:
                left[b] = (left.get(b, 0) + c) % p
            if b == UNIT:
                right[a] = (right.get(a, 0) + c) % p
        assert _nonzero(lhs) == _nonzero(rhs), (i, j)
        assert _nonzero(left) == {g: 1} and _nonzero(right) == {g: 1}, (i, j)


def encode(p, m):
    """The engine's code of the exponent 9-tuple m, written out here so that
    the oracles below do not read the engine's own encoding: the digits of
    m in base p, g_{1,0}'s exponent the highest."""
    code = 0
    for e in m:
        code = code * p + e
    return code


def decode(p, code):
    """The exponent 9-tuple of a monomial code, inverse to `encode`."""
    m = []
    for _ in range(9):
        code, e = divmod(code, p)
        m.append(e)
    return tuple(reversed(m))


ONE = (0,) * 9  # the unit as an exponent tuple


@pytest.mark.parametrize("p", [5, 7, 11, 31])
def test_monomial_codes_keep_the_exponent_tuple_order(p):
    hopf = TruncatedHopf(p)
    exponents = st.tuples(*[st.integers(0, p - 1)] * 9)

    @given(exponents, exponents, st.integers(0, p**9 - 1), st.integers(0, p**9 - 1))
    def check(a, b, x, y):
        assert (encode(p, a) < encode(p, b)) == (a < b)
        assert hopf.digits(encode(p, a)) == a and decode(p, x) == hopf.digits(x)
        assert (x < y) == (hopf.digits(x) < hopf.digits(y))

    @given(st.sampled_from((1, 2, 3)), st.integers(0, p**3 - 1))
    def check_power(row, e):
        expected, rest = [0] * 9, e
        for j in range(3):
            rest, expected[gen_index(row, j)] = divmod(rest, p)
        assert hopf.digits(hopf.power_monomial(row, e)) == tuple(expected)

    check()
    check_power()
    assert UNIT == encode(p, ONE) == 0


def test_bad_rows_and_exponent_counts_are_refused():
    for row in (0, 4):
        with pytest.raises(ValueError, match=rf"^row index {row} must be 1, 2 or 3$"):
            HOPF.power_monomial(row, 8)
        with pytest.raises(ValueError, match=rf"^row index {row} must be 1, 2 or 3$"):
            HOPF.t_power_slot(row, 7)
    for exps in ((1, 2), (1, 2, 0, 0)):
        with pytest.raises(ValueError, match=r"^t_monomial takes three exponents"):
            HOPF.t_monomial(exps)
    assert HOPF.t_monomial((1, 2, 0)) == encode(7, (1, 0, 0, 2, 0, 0, 0, 0, 0))


def fold_coproduct(hopf, m):
    """Delta(m) for the exponent 9-tuple m, as the product over generators g
    of Delta(g^e), each power folded from Delta(g) one factor at a time, on
    exponent tuples, then keyed by `encode`: the oracle of the memoised
    recursion, which multiplies codes by one generator at a time."""
    p = hopf.p

    def mon_mul(a, b):
        out = tuple(x + y for x, y in zip(a, b))
        return None if any(e >= p for e in out) else out

    def tensor_mul(A, B):
        out = {}
        for (l1, r1), c1 in A.items():
            for (l2, r2), c2 in B.items():
                l, r = mon_mul(l1, l2), mon_mul(r1, r2)
                if l is not None and r is not None:
                    out[l, r] = out.get((l, r), 0) + c1 * c2
        return {k: v % p for k, v in out.items() if v % p}

    def gen(i, j):
        return tuple(int(n == gen_index(i, j)) for n in range(9))

    out = {(ONE, ONE): 1}
    for (i, j), e in zip(GENERATORS, m):
        delta_g = {(ONE if k == 0 else gen(k, j), ONE if k == i else gen(i - k, k + j)): 1
                   for k in range(i + 1)}
        power = {(ONE, ONE): 1}
        for _ in range(e):
            power = tensor_mul(power, delta_g)
        out = tensor_mul(out, power)
    return {(encode(p, l), encode(p, r)): c for (l, r), c in out.items()}


@pytest.mark.parametrize("p", [5, 7])
def test_coproduct_equals_the_generator_power_fold(p):
    hopf = TruncatedHopf(p)
    monomials = [m for mons in CobarEngine(p, weight_bound=7)._monomials.values() for m in mons]
    assert len(monomials) == len(set(monomials)) > 100
    for m in monomials:
        expected = fold_coproduct(hopf, decode(p, m))
        assert hopf.coproduct(m) == expected, m
        for key in ((m, UNIT), (UNIT, m)):
            expected[key] = (expected.get(key, 0) - 1) % p
        assert hopf.reduced_coproduct(m) == _nonzero(expected), m


def test_coproducts_are_memoised_once_per_prime():
    a, b = TruncatedHopf(7), TruncatedHopf(7)
    m = a.t_monomial((9, 1, 0))
    assert a.coproduct(m) is b.coproduct(m)
    assert a.reduced_coproduct(m) is b.reduced_coproduct(m)
    assert TruncatedHopf(5).coproduct(UNIT) is not a.coproduct(UNIT)


def test_reduced_coproduct_leaves_the_coproduct_unchanged():
    hopf = TruncatedHopf(7)
    m = hopf.t_monomial((10, 0, 1))
    hopf._reduced.pop(m, None)  # so that the reduced form is built here
    before = dict(hopf.coproduct(m))
    assert before[m, UNIT] == before[UNIT, m] == 1
    reduced = hopf.reduced_coproduct(m)
    assert (m, UNIT) not in reduced and (UNIT, m) not in reduced
    assert hopf.coproduct(m) == before


def test_d_squared_on_generator_slots():
    for i in (1, 2, 3):
        for j in range(3):
            x = HOPF.t_power_slot(i, HOPF.p**j)
            assert x.d().d().is_zero()


def test_d_squared_on_powers():
    for e in (2, 3, 7, 8, 13):
        x = HOPF.t_power_slot(1, e)
        assert x.d().d().is_zero()
    assert HOPF.t_power_slot(2, 7).d().d().is_zero()


def slot_loop_d(hopf, terms):
    """Cobar d of {tensor: coeff}, reduced mod p, by the per-slot loop that
    `CobarElement.d` ran before it read `TruncatedHopf.d_tensor`: the oracle
    of both."""
    p = hopf.p
    out = {}
    for slots, coeff in terms.items():
        for i, m in enumerate(slots):
            sign = -1 if i % 2 == 0 else 1  # (-1)^(i+1) for 1-based slot i+1
            for (a, b), c in hopf.reduced_coproduct(m).items():
                key = slots[:i] + (a, b) + slots[i + 1 :]
                out[key] = out.get(key, 0) + sign * coeff * c
    return {k: v % p for k, v in out.items() if v % p}


@pytest.mark.parametrize("p", [5, 7])
def test_d_tensor_equals_the_slot_loop_on_every_small_basis_tensor(p):
    engine = CobarEngine(p, weight_bound=5)
    hopf = engine.alg
    seen = 0
    for t, w in engine.sector_keys():
        bases = engine._sector(t, w)
        for s in range(4):
            for key in bases[s]:
                expected = slot_loop_d(hopf, {key: 1})
                got = engine._d_of(s, key)
                assert got == hopf.d_tensor(key)
                assert {k: c % p for k, c in got.items() if c % p} == expected, key
                assert CobarElement(hopf, {key: 1}).d().terms == expected, key
                seen += 1
    assert seen == sum(sum(level.values()) for level in engine._counts[:4])


@pytest.mark.parametrize("p, bound", [(5, 5), (7, 6), (11, 3), (13, 3), (17, 3), (19, 3),
                                      (23, 3)])
def test_index_shift_maps_every_small_sector_onto_its_image(p, bound):
    # the premise of the cobar tables, which copy one sector's cohomology
    # along its shift orbit: sigma permutes the sectors' bases and commutes with d
    engine = CobarEngine(p, weight_bound=bound)
    assert oracles.shift_premise_failures(engine, 3) == []


def test_cobar_d_of_an_element_is_linear_in_its_terms():
    engine = CobarEngine(7, weight_bound=5)
    hopf, counts = engine.alg, engine._counts[2]
    basis = engine._sector(*max(counts, key=counts.get))[2]
    terms = {key: 3 * i + 1 for i, key in enumerate(basis[:40])}
    assert len(terms) == 40
    assert CobarElement(hopf, terms).d().terms == slot_loop_d(hopf, terms)


def test_b_classes_are_cocycles():
    for (level, k) in ((1, 0), (1, 1), (2, 0)):
        b = b_class(HOPF, level, k)
        assert not b.is_zero()
        assert b.d().is_zero(), (level, k)


def test_b_class_coefficient_oracle():
    # (1/p) C(p, i) mod p for p = 7: 1 3 5 5 3 1
    b = b_class(HOPF, 1, 0)
    coeffs = []
    for i in range(1, 7):
        key = (HOPF.power_monomial(1, i), HOPF.power_monomial(1, 7 - i))
        coeffs.append(b.terms.get(key, 0))
    assert coeffs == [1, 3, 5, 5, 3, 1]


def test_collapse_matches_exterior_low_weight():
    res = collapse_check(ExteriorCohomology(7), CobarEngine(7, weight_bound=3))
    assert res["mismatches"] == []
    assert res["rows"]


def test_collapse_matches_exterior_up_to_weight_p_minus_1():
    # w <= p - 1 keeps the weight-p b-classes out of the range
    res = collapse_check(ExteriorCohomology(7), CobarEngine(7, weight_bound=6))
    assert res["mismatches"] == []
    assert res["rows"]


def test_collapse_check_reports_both_kinds_of_mismatch(monkeypatch):
    # a dim_h row dropped on the cobar side leaves the prediction alone; a
    # dim_h changed on the exterior side is met by the cobar's own
    ext, cob = ExteriorCohomology(7), CobarEngine(7, weight_bound=3)
    ext_rows, cob_rows = ext.dims_table(2), cob.dims_table(2)
    before = collapse_check(ext, cob)
    dropped = next(row for row in cob_rows if row[0] == 1 and row[4])
    changed = next(row for row in ext_rows if row[0] == 2 and row[2] <= 3 and row[4])
    monkeypatch.setattr(cob, "dims_table", lambda max_s: [r for r in cob_rows if r != dropped])
    monkeypatch.setattr(ext, "dims_table", lambda max_s: [
        (*r[:4], r[4] + 1) if r == changed else r for r in ext_rows])
    res = collapse_check(ext, cob)
    assert res["mismatches"] == [(*dropped[:3], 0, dropped[4]),
                                 (*changed[:3], changed[4], changed[4] + 1)]
    keys = [(row["s"], row["t"], row["w"]) for row in before["rows"]]
    assert dropped[:3] in keys and changed[:3] in keys
    assert res["rows"] == [{**row, "predicted": changed[4] + 1} if key == changed[:3] else row
                           for key, row in zip(keys, before["rows"]) if key != dropped[:3]]


def test_euler_equality_cobar():
    engine = CobarEngine(5, weight_bound=3)
    for row in engine.euler_report():
        assert row["equal"], row


@pytest.mark.parametrize("k", [0, 1])
def test_p_fold_bracket_equals_b_class(k):
    rep = p_fold_massey_check(5, k, CobarEngine(5, weight_bound=5))
    assert rep["status"] == "pass"
    assert any(rep["coords"])


def test_p_fold_bracket_refuses_an_engine_at_another_prime():
    # left to run, the mismatch surfaces only as a failed defining-system identity
    with pytest.raises(ValueError, match=r"^p-fold bracket at p = 7 asked of an engine at p = 5$"):
        p_fold_massey_check(7, 0, CobarEngine(5, weight_bound=5))


@pytest.fixture(scope="module")
def bracket_engine():
    """CobarEngine(p, weight_bound=p), built once per p in this module."""
    return functools.cache(lambda p: CobarEngine(p, weight_bound=p))


@pytest.mark.parametrize("p, k", pins.BRACKET_SHA256,
                         ids=[f"p{p}-k{k}" for p, k in pins.BRACKET_SHA256])
def test_p_fold_bracket_is_pinned(bracket_engine, p, k):
    rep = p_fold_massey_check(p, k, bracket_engine(p))
    assert rep["status"] == "pass"
    assert any(rep["coords"])
    assert pins.digest(rep) == pins.BRACKET_SHA256[p, k]


def test_weight_bound_rejects_heavier_sectors():
    engine = CobarEngine(5, weight_bound=3)
    g10_4 = engine.alg.t_power_slot(1, 4)  # weight 4
    for ask in (lambda: engine.tower(0, 4), lambda: engine.class_coords(g10_4)):
        with pytest.raises(ValueError, match=r"^sector weight 4 exceeds bound 3$"):
            ask()


def test_engine_builds_no_basis_at_construction():
    # every tensor of weight <= 13 at p = 13 would be 4.3 billion
    start = time.perf_counter()
    engine = CobarEngine(13, weight_bound=13)
    assert time.perf_counter() - start < 1
    assert engine._sector_bases == {}


def eager_sector_bases(p, bound):
    """(t, w) -> {s: sorted tensors} from every tensor of total weight <=
    bound, enumerated by increasing length on exponent 9-tuples and sorted
    as tuples of them, then each monomial replaced by its `encode` code:
    the oracle of the engine's on-demand bases and of their order."""
    hopf = TruncatedHopf(p)
    monw = {}  # weight -> [(monomial, internal degree)]

    def rec(idx, m, w):
        if idx == 9:
            if w:
                tdeg = sum(e * d for e, d in zip(m, hopf.gen_tdeg)) % hopf.tmod
                monw.setdefault(w, []).append((tuple(m), tdeg))
            return
        row = hopf.gen_weight[idx]
        for e in range(min(p - 1, (bound - w) // row) + 1):
            m[idx] = e
            rec(idx + 1, m, w + e * row)
        m[idx] = 0

    rec(0, [0] * 9, 0)
    sectors = {}
    frontier = [((), 0, 0)]  # (slots, tdeg, weight)
    while frontier:
        nxt = []
        for slots, t, w in frontier:
            sectors.setdefault((t, w), {}).setdefault(len(slots), []).append(slots)
            for dw, mons in monw.items():
                if w + dw <= bound:
                    nxt.extend((slots + (m,), (t + dt) % hopf.tmod, w + dw) for m, dt in mons)
        frontier = nxt
    for bases in sectors.values():
        for s, keys in bases.items():
            keys.sort()
            bases[s] = [tuple(encode(p, m) for m in slots) for slots in keys]
    return sectors


def eager_exterior_bases(p):
    """(t, w) -> {s: ascending masks}, bucketed from every mask's grade: the
    oracle of the exterior engine's bases."""
    grade = ExteriorAlgebra(p).mask_grade
    sectors = {}
    for mask in range(512):
        s, t, w = grade[mask]
        sectors.setdefault((t, w), {}).setdefault(s, []).append(mask)
    return sectors


def _on_demand_bases(engine, t, w):
    """{s: basis} of the nonempty degrees of sector (t, w), asked for one
    degree at a time, one past each end included."""
    bases = {s: engine._sector_basis(t, w, s) for s in range(-1, w + 2)}
    assert engine._degrees(t, w) == [s for s, b in bases.items() if b]
    return {s: b for s, b in bases.items() if b}


@pytest.mark.parametrize("p, bound", [(5, 5), (7, 6), (5, None), (7, None)])
def test_on_demand_bases_match_eager_enumeration(p, bound):
    # no bound: the exterior engine, against a bucketing of its 512 masks
    if bound is None:
        eager, engine = eager_exterior_bases(p), ExteriorCohomology(p)
        assert len(eager) == 97
    else:
        eager, engine = eager_sector_bases(p, bound), CobarEngine(p, weight_bound=bound)
    assert engine.sector_keys() == sorted(eager)
    for (t, w), bases in eager.items():
        assert _on_demand_bases(engine, t, w) == bases, (t, w)


def test_bracket_sectors_at_p7_match_eager_enumeration(bracket_engine):
    eager = eager_sector_bases(7, 7)
    for t in (84, 588):  # the (t, w) of the k = 0 and k = 1 bracket values
        assert _on_demand_bases(bracket_engine(7), t, 7) == eager[(t, 7)], t
