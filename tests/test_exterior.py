"""Exterior DGA: exhaustive differential checks, signs, grading, shift."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stab3 import exterior
from stab3.exterior import (
    FULL_MASK,
    NGEN,
    GEN_NAMES,
    GENERATORS,
    ExteriorAlgebra,
    ExteriorElement,
    InhomogeneousError,
    Trigrade,
    gen_index,
)
from stab3.reports import run_suites

ALG = ExteriorAlgebra(7)


def _monomial(alg, mask):
    return ExteriorElement(alg, {mask: 1})


# -- oracles: the bit-loop kernel the tabulated one replaced -----------------


def _merge_sign(a: int, b: int) -> int:
    """Parity sign of merging two disjoint sorted generator words a, b."""
    sign = 1
    rest = b
    while rest:
        low = rest & -rest
        pos = low.bit_length() - 1
        if bin(a >> (pos + 1)).count("1") % 2:
            sign = -sign
        rest ^= low
    return sign


def _build_differential_table(p):
    table = []
    for (i, j) in GENERATORS:
        terms = {}
        for s in range(1, i):
            a = gen_index(s, j)
            b = gen_index(i - s, s + j)
            if a == b:
                continue
            sign = 1 if a < b else -1
            key = (1 << a) | (1 << b)
            terms[key] = (terms.get(key, 0) + sign) % p
        table.append({k: v for k, v in terms.items() if v})
    return tuple(table)


def _oracle_d(x):
    """d as a derivation, re-derived bit by bit for every monomial."""
    p = x.alg.p
    dgen = _build_differential_table(p)
    out = {}
    for mask, coeff in x.terms.items():
        rest = mask
        sign = 1  # (-1)^(number of generators to the left)
        while rest:
            low = rest & -rest
            pos = low.bit_length() - 1
            lower = mask & (low - 1)
            upper = mask & ~((low << 1) - 1)
            for dmask, dcoeff in dgen[pos].items():
                if dmask & (mask ^ low):
                    continue
                s = sign * _merge_sign(lower, dmask) * _merge_sign(lower | dmask, upper)
                key = (mask ^ low) | dmask
                out[key] = (out.get(key, 0) + s * coeff * dcoeff) % p
            sign = -sign
            rest ^= low
    return {k: v for k, v in out.items() if v}


def _oracle_mul(x, y):
    p = x.alg.p
    out = {}
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            if ma & mb:
                continue
            key = ma | mb
            out[key] = (out.get(key, 0) + _merge_sign(ma, mb) * ca * cb) % p
    return {k: v for k, v in out.items() if v}


def _oracle_grade(alg, mask):
    t = w = 0
    rest = mask
    while rest:
        low = rest & -rest
        t += alg.gen_tdeg[low.bit_length() - 1]
        w += alg.gen_weight[low.bit_length() - 1]
        rest ^= low
    return Trigrade(bin(mask).count("1"), t % alg.tmod, w)


@pytest.mark.parametrize("p", [5, 7, 11, 31])
def test_d_matches_bit_loop_oracle(p):
    alg = ExteriorAlgebra(p)
    for mask in range(FULL_MASK + 1):
        got = _monomial(alg, mask).d().terms
        want = _oracle_d(_monomial(alg, mask))
        assert list(got.items()) == list(want.items()), (p, mask)


def test_product_sign_matches_merge_sign():
    pairs = 0
    for a in range(FULL_MASK + 1):
        for b in range(FULL_MASK + 1):
            if a & b:
                continue
            prod = _monomial(ALG, a) * _monomial(ALG, b)
            assert prod.terms == {a | b: _merge_sign(a, b) % 7}, (a, b)
            pairs += 1
    assert pairs == 3**9


def test_multiterm_products_match_oracle():
    rng = random.Random(2012)

    def element():
        terms = {}
        for _ in range(rng.randint(1, 8)):
            terms[rng.randrange(FULL_MASK + 1)] = rng.randrange(1, 7)
        return ALG.element(ALG, terms)

    for _ in range(300):
        x, y = element(), element()
        assert list((x * y).terms.items()) == list(_oracle_mul(x, y).items())
        assert list((x * y).d().terms.items()) == list(_oracle_d(x * y).items())


def test_products_with_zero_and_scalars():
    from stab3.hopf_cobar import TruncatedHopf

    x = ALG.gen(1, 0) * ALG.gen(2, 1) + 3 * ALG.gen(3, 2)
    zero = ALG.zero()
    for prod in (x * zero, zero * x, zero * zero, x * ExteriorElement(ALG, {1: 7})):
        assert prod.is_zero() and type(prod) is type(x) and prod.alg is ALG
    assert (x * 3).terms == (3 * x).terms == {k: 3 * v % 7 for k, v in x.terms.items()}
    assert (x * 0).is_zero()
    cobar_zero = TruncatedHopf(7).t_power_slot(1, 1) * 0
    for other in (cobar_zero, 2.5, "h0", None):
        with pytest.raises(TypeError):
            x * other
        with pytest.raises(TypeError):
            zero * other


@pytest.mark.parametrize("p", [5, 7, 31])
def test_key_grade_matches_bit_loop_grade(p):
    alg = ExteriorAlgebra(p)
    for mask in range(FULL_MASK + 1):
        assert alg.key_grade(mask) == _oracle_grade(alg, mask)


def test_gen_index_layout():
    assert [GEN_NAMES[gen_index(i, j)] for (i, j) in GENERATORS] == list(GEN_NAMES)


# The two exhaustive element-path checks below are the oracle for the
# `exterior-dga` suite, which proves the identities once over Z on the same kernels.


@pytest.mark.parametrize("p", [7, 31])
def test_d_squared_exhaustive(p):
    alg = ExteriorAlgebra(p)
    for mask in range(FULL_MASK + 1):
        assert _monomial(alg, mask).d().d().is_zero(), f"d^2 on mask {mask}"


@pytest.mark.parametrize("p", [7, 31])
def test_leibniz_exhaustive_against_generators(p):
    alg = ExteriorAlgebra(p)
    for mask in range(FULL_MASK + 1):
        x = _monomial(alg, mask)
        s = bin(mask).count("1")
        for (i, j) in GENERATORS:
            g = alg.gen(i, j)
            lhs = (x * g).d()
            rhs = x.d() * g + ((-1) ** s) * (x * g.d())
            assert (lhs - rhs).is_zero(), f"Leibniz at mask {mask}, gen ({i},{j})"


def test_anticommutativity_of_generators():
    for a in GENERATORS:
        for b in GENERATORS:
            ga, gb = ALG.gen(*a), ALG.gen(*b)
            if a == b:
                assert (ga * gb).is_zero()
            else:
                assert (ga * gb + gb * ga).is_zero()


def test_generator_grades():
    for (i, j) in GENERATORS:
        g = ALG.gen(i, j)
        grade = g.grade_of()
        assert grade.s == 1
        assert grade.w == i
        assert grade.t == (2 * (7**i - 1) * 7**j) % ALG.tmod


def test_differential_of_degree_one_generators_vanishes():
    for j in range(3):
        assert ALG.gen(1, j).d().is_zero()


def test_differential_of_higher_generators():
    # d(h20) = h0*h1 up to sign convention; check it is a sum of products
    # of strictly lower-row generators and is d-closed.
    for i in (2, 3):
        for j in range(3):
            dg = ALG.gen(i, j).d()
            assert not dg.is_zero()
            assert dg.grade_of().s == 2
            assert dg.d().is_zero()


def test_shift_is_dga_automorphism():
    # the exterior tables copy each shift orbit's cohomology from one sector,
    # which needs the shift to commute with d and send (s, t, w) to (s, p t, w)
    p = ALG.p
    for mask in range(FULL_MASK + 1):
        x = _monomial(ALG, mask)
        assert (x.shift(1).d() - x.d().shift(1)).is_zero()
        assert (x.shift(3) - x).is_zero()
        s, t, w = x.grade_of()
        assert x.shift(1).grade_of() == Trigrade(s, p * t % ALG.tmod, w), mask


def test_inhomogeneous_grade_raises():
    x = ALG.gen(1, 0) + ALG.gen(2, 0)
    with pytest.raises(InhomogeneousError):
        x.grade_of()


def test_top_monomial_unique():
    top = _monomial(ALG, FULL_MASK)
    assert top.grade_of().s == 9
    assert top.d().is_zero()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, FULL_MASK), st.integers(0, FULL_MASK))
def test_sign_rule_via_double_product(a, b):
    x, y = _monomial(ALG, a), _monomial(ALG, b)
    prod = x * y
    if a & b:
        assert prod.is_zero()
    else:
        sa, sb = bin(a).count("1"), bin(b).count("1")
        swapped = y * x
        assert (prod - ((-1) ** (sa * sb)) * swapped).is_zero()


# -- the exterior-dga suite: the identities once over Z, on the kernels of every prime --

GREEK_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31)

EXTERIOR_DGA_RECORD = [{
    "name": "exterior-dga",
    "ref": "differential squares to zero; Leibniz rule",
    "status": "pass",
    "certificate": {"monomials": 512, "leibniz_pairs": 4608},
}]


def _exterior_dga_check(p):
    check, = run_suites(p, suites=["exterior-dga"])["checks"]
    return check


def test_exterior_dga_record_is_the_same_at_every_greek_prime():
    for p in GREEK_PRIMES:
        assert run_suites(p, suites=["exterior-dga"])["checks"] == EXTERIOR_DGA_RECORD, p


@pytest.mark.parametrize("gen, message", [
    ((3, 0), "d^2 != 0 on mask 64"),
    ((2, 0), "Leibniz fails on mask 4 * gen (2,0)"),
], ids=["d-squared", "leibniz"])
def test_corrupted_d_table_fails_at_every_prime(monkeypatch, gen, message):
    exterior.dga_identities_over_z()  # the real table's certificate is cached
    table = exterior._DMemo({0: ()})
    for mask in range(FULL_MASK + 1):
        table[mask]
    mask = 1 << gen_index(*gen)
    (m, c), *rest = table[mask]
    table[mask] = ((m, c + 1), *rest)  # one coefficient of d(gen) is off by one
    monkeypatch.setattr(exterior, "_D", table)
    monkeypatch.setattr(exterior, "_dga_over_z", None)
    for p in (7, 11, 13):
        check = _exterior_dga_check(p)
        assert check["status"] == "fail", p
        assert check["certificate"] == message, p
        assert exterior._dga_over_z is None


def _fails_at_every_prime(monkeypatch, message):
    """Run the suite at p = 7, 11, 13 in turn on an empty memo: it fails with
    `message` each time and keeps no certificate."""
    monkeypatch.setattr(exterior, "_dga_over_z", None)
    for p in (7, 11, 13):
        check = _exterior_dga_check(p)
        assert check["status"] == "fail", p
        assert check["certificate"] == message, p
        assert exterior._dga_over_z is None


def test_product_kernel_fault_fails_at_every_prime(monkeypatch):
    z_mul = exterior._z_mul

    def faulty(x, y):
        """`_z_mul` with the sign of the pair h1*h2 times h0 flipped."""
        out = z_mul(x, y)
        if 0b110 in x and 0b1 in y:
            out[0b111] -= 2 * exterior._sign(0b110, 0b1) * x[0b110] * y[0b1]
        return out

    monkeypatch.setattr(exterior, "_z_mul", faulty)
    for p in (7, 11):  # every F_p product runs the faulty kernel
        alg = ExteriorAlgebra(p)
        assert (_monomial(alg, 0b110) * alg.gen(1, 0)).terms == {0b111: -exterior._sign(0b110, 0b1) % p}
    _fails_at_every_prime(monkeypatch, "Leibniz fails on mask 16 * gen (1,0)")


def test_differential_kernel_fault_fails_at_every_prime(monkeypatch):
    z_d = exterior._z_d

    def faulty(x):
        """`_z_d` with the sign of its h0*h1 coefficient flipped."""
        out = z_d(x)
        if 0b11 in out:
            out[0b11] = -out[0b11]
        return out

    monkeypatch.setattr(exterior, "_z_d", faulty)
    for p in (7, 11):  # every F_p d runs the faulty kernel
        alg = ExteriorAlgebra(p)
        assert alg.gen(2, 0).d().terms == {m: -c % p for m, c in exterior._D[0b1000]}
    _fails_at_every_prime(monkeypatch, "Leibniz fails on mask 0 * gen (2,0)")


@pytest.mark.parametrize("a, b, message", [
    (0b110, 0b1, "on mask 6 * gen (1,0)"),  # h1*h2 times the generator h0
    (0b1, 0b110, "on mask 1 * gen (2,1)"),  # h0 times h1*h2, the monomial of d(h21)
], ids=["generator", "monomial-of-d-gen"])
def test_sign_fault_fails_only_the_product_check(monkeypatch, a, b, message):
    for mask in range(FULL_MASK + 1):
        exterior._D[mask]  # `_D` is filled with the true sign
    sign = exterior._sign

    def faulty(x, f):
        """`_sign` with the pair a * b flipped."""
        return -sign(x, f) if (x, f) == (a, b) else sign(x, f)

    monkeypatch.setattr(exterior, "_sign", faulty)
    _fails_at_every_prime(monkeypatch, "product sign fails " + message)


def _first_leibniz_failure():
    """The per-pair loop the suite replaced: three `_z_mul` calls and one
    `_z_d` call for each (monomial, generator) pair, in mask order and then
    generator order.  Returns the first failing (mask, (i, j)), or None."""
    for mask in range(FULL_MASK + 1):
        x, dx = {mask: 1}, dict(exterior._D[mask])
        sign = -1 if mask.bit_count() & 1 else 1
        for k, gen in enumerate(GENERATORS):
            g = {1 << k: 1}
            rhs = exterior._z_mul(dx, g)
            for m, c in exterior._z_mul(x, dict(exterior._D[1 << k])).items():
                rhs[m] = rhs.get(m, 0) + sign * c
            lhs = exterior._z_d(exterior._z_mul(x, g))
            if {m: c for m, c in lhs.items() if c} != {m: c for m, c in rhs.items() if c}:
                return mask, gen
    return None


def _oracle_message():
    """The suite's failure message as the d^2 loop and the per-pair oracle
    name it."""
    for mask in range(FULL_MASK + 1):
        if any(exterior._z_d(dict(exterior._D[mask])).values()):
            return f"d^2 != 0 on mask {mask}"
    mask, (i, j) = _first_leibniz_failure()
    return f"Leibniz fails on mask {mask} * gen ({i},{j})"


def _suite_agrees_with_oracle(monkeypatch):
    """Run the suite on an empty certificate memo; it fails, with the
    oracle's message.  Returns the message."""
    monkeypatch.setattr(exterior, "_dga_over_z", None)
    check = _exterior_dga_check(7)
    assert check["status"] == "fail"
    assert check["certificate"] == _oracle_message()
    return check["certificate"]


def test_one_coefficient_corruptions_are_named_as_by_the_per_pair_oracle(monkeypatch):
    real = exterior._DMemo({0: ()})
    for mask in range(FULL_MASK + 1):
        real[mask]
    others = [m for m in range(FULL_MASK + 1) if real[m] and m.bit_count() > 1]
    generators = [1 << k for k in range(NGEN)]
    messages = {}
    for mask in generators + random.Random(29).sample(others, 20):
        for delta in (1, -1, 2):
            table = exterior._DMemo(real)
            if real[mask]:
                (m, c), *rest = real[mask]
                table[mask] = ((m, c + delta), *rest)
            else:  # d(h_{1,j}) = 0: the corruption adds the other two h_{1,*}
                table[mask] = ((0b111 ^ mask, delta),)
            monkeypatch.setattr(exterior, "_D", table)
            messages[mask, delta] = _suite_agrees_with_oracle(monkeypatch)
    leibniz = {key for key, message in messages.items() if message.startswith("Leibniz")}
    # d^2 = 0 holds for the corrupted d(h_{1,j}) and d(h_{2,j}): the Leibniz pass
    # names them, and it names corruptions elsewhere too
    assert {(1 << k, delta) for k in range(6) for delta in (1, -1, 2)} < leibniz
    assert len(messages) > len(leibniz)


def test_product_kernel_fault_seen_only_by_h32_names_it(monkeypatch):
    z_mul = exterior._z_mul
    h32 = 1 << gen_index(3, 2)

    def faulty(x, y):
        """`_z_mul` with the sign of h0 times h32 flipped, bilinear as every
        kernel fault is: the wrong term scales with both coefficients."""
        out = z_mul(x, y)
        if 0b1 in x and h32 in y:
            out[0b1 | h32] -= 2 * exterior._sign(0b1, h32) * x[0b1] * y[h32]
        return out

    monkeypatch.setattr(exterior, "_z_mul", faulty)
    assert _first_leibniz_failure() == (1, (3, 2))
    assert _suite_agrees_with_oracle(monkeypatch) == "Leibniz fails on mask 1 * gen (3,2)"


def test_negative_lowest_failing_digit_names_its_generator(monkeypatch):
    h0_h21 = 0b1 | 1 << gen_index(2, 1)
    # h0*h21 is a term of both d(h30) and d(h31), with opposite signs
    assert dict(exterior._D[1 << gen_index(3, 0)])[h0_h21] == 1
    assert dict(exterior._D[1 << gen_index(3, 1)])[h0_h21] == -1
    z_d = exterior._z_d

    def faulty(x):
        """`_z_d` with the sign of its h0*h21 coefficient flipped.  At x = 1
        that coefficient of the tagged difference is -2 in the digit of h30
        and +2 in the digit of h31: negative in its lowest failing digit,
        positive as a whole."""
        out = z_d(x)
        if h0_h21 in out:
            out[h0_h21] = -out[h0_h21]
        return out

    monkeypatch.setattr(exterior, "_z_d", faulty)
    assert _suite_agrees_with_oracle(monkeypatch) == "Leibniz fails on mask 0 * gen (3,0)"


def test_leibniz_pass_makes_one_kernel_pass_per_monomial(monkeypatch):
    calls = {"_z_mul": 0, "_z_d": 0}

    def counting(name):
        kernel = getattr(exterior, name)

        def counted(*args):
            calls[name] += 1
            return kernel(*args)
        return counted

    monkeypatch.setattr(exterior, "_D", exterior._DMemo({0: ()}))
    monkeypatch.setattr(exterior, "_dga_over_z", None)
    for name in calls:
        monkeypatch.setattr(exterior, name, counting(name))
    assert exterior.dga_identities_over_z() == {"monomials": 512, "leibniz_pairs": 4608}
    assert calls["_z_mul"] < 512 * NGEN  # not one call per (monomial, generator) pair
    assert calls["_z_d"] <= 2 * 512


def test_import_fills_no_integral_table():
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = ("import stab3.cli, stab3.reports\n"
            "from stab3 import exterior\n"
            "print(dict(exterior._D), exterior._dga_over_z)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "{0: ()} None"
