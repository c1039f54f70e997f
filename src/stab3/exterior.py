"""Exterior complex on the nine odd generators h_{i,j}, i in {1,2,3}, j in Z/3.

Monomials are 9-bit masks over the canonical order
h_{1,0} < h_{1,1} < h_{1,2} < h_{2,0} < ... < h_{3,2}.  The Koszul sign of
a product a * b is the parity of the bits of b that lie below an odd number
of bits of a: `_odd_above(a)` marks those positions by a prefix xor, so
each pair costs one `bit_count`.  The differential is

    d(h_{i,j}) = sum_{s=1}^{i-1} h_{s,j} h_{i-s, s+j}

extended as a derivation (d(ab) = d(a)b + (-1)^{deg a} a d(b)).  Its value
on each monomial is memoised in `_D` on first use, with integer
coefficients, so one memo serves every prime.  There is one product
kernel, `_z_mul`, and one differential kernel, `_z_d` (one lookup per
term), both over Z; an F_p element reduces their output once, in its
constructor.  So d^2 = 0 and the Leibniz rule are proved once over Z, on
the code every prime runs (`dga_identities_over_z`).

Gradings: cohomological degree s = word length; internal degree
2(p^i - 1)p^j summed and reduced mod 2(p^3 - 1); weight i summed.
"""

from __future__ import annotations

from typing import NamedTuple

from .fplinalg import check_prime

NGEN = 9
GENERATORS = tuple((i, j) for i in (1, 2, 3) for j in (0, 1, 2))
GEN_NAMES = ("h0", "h1", "h2", "h20", "h21", "h22", "h30", "h31", "h32")
FULL_MASK = (1 << NGEN) - 1


def gen_index(i: int, j: int) -> int:
    if i not in (1, 2, 3):
        raise ValueError(f"row index {i} must be 1, 2 or 3")
    return 3 * (i - 1) + (j % 3)


class Trigrade(NamedTuple):
    s: int
    t: int
    w: int


class InhomogeneousError(ValueError):
    """Raised by grade_of on elements mixing several trigrades."""

    def __init__(self, grades):
        self.grades = sorted(grades)
        super().__init__(f"inhomogeneous element with trigrades {self.grades}")


def _odd_above(a: int) -> int:
    """Bit k is set iff the 9-bit mask a has an odd number of bits above k."""
    x = a >> 1
    x ^= x >> 1
    x ^= x >> 2
    x ^= x >> 4
    return x


def _sign(a: int, b: int) -> int:
    """Koszul sign of the product of disjoint monomials a * b."""
    return -1 if (b & _odd_above(a)).bit_count() & 1 else 1


class _DMemo(dict):
    """mask -> integer d of the monomial as ((mask', coeff), ...), filled on
    first use by d(g * rest) = d(g) rest - g d(rest), g the lowest generator.
    The coefficients are integers, so one memo serves every prime; a key
    whose coefficients cancel stays in its entry, so output key order does
    not depend on p."""

    def __missing__(self, mask):
        low = mask & -mask
        rest = mask ^ low
        i, j = GENERATORS[low.bit_length() - 1]
        out = {}
        for s in range(1, i):
            a, b = 1 << gen_index(s, j), 1 << gen_index(i - s, s + j)
            if not (a | b) & rest:
                out[a | b | rest] = _sign(a, b) * _sign(a | b, rest)
        for m, c in self[rest]:
            if not m & low:
                out[low | m] = out.get(low | m, 0) - c * _sign(low, m)
        self[mask] = entry = tuple(out.items())
        return entry


_D = _DMemo({0: ()})


def _z_mul(x: dict, y: dict) -> dict:
    """Integral product of two {mask: int} elements (zero entries may stay)."""
    out = {}
    for ma, ca in x.items():
        odd = _odd_above(ma)
        for mb, cb in y.items():
            if not ma & mb:
                key, c = ma | mb, ca * cb
                out[key] = out.get(key, 0) + (-c if (mb & odd).bit_count() & 1 else c)
    return out


def _z_d(x: dict) -> dict:
    """Integral d of a {mask: int} element, read from `_D` (zero entries may stay)."""
    out = {}
    for mask, c in x.items():
        for m, e in _D[mask]:
            out[m] = out.get(m, 0) + c * e
    return out


def _nonzero(x: dict) -> dict:
    return {k: v for k, v in x.items() if v}


_dga_over_z = None


def dga_identities_over_z() -> dict:
    """Check d^2 = 0 on every monomial and d(x g) = d(x) g + (-1)^|x| x d(g)
    on every (monomial x, generator g) pair over Z, with the kernels every
    F_p element runs; returns the certificate.  `_D` is built with `_sign`,
    and `_z_mul` is checked against `_sign` on x * f for every monomial x
    and every right factor f of the Leibniz rule (a generator or a monomial
    of its d); (sum of all monomials) * f checks every x at once.  The
    check runs on the first call of a process and its certificate is kept;
    a failure raises AssertionError and keeps nothing."""
    global _dga_over_z
    if _dga_over_z is None:
        for mask in range(FULL_MASK + 1):
            if any(_z_d(dict(_D[mask])).values()):
                raise AssertionError(f"d^2 != 0 on mask {mask}")
        pairs = 0
        for mask in range(FULL_MASK + 1):
            x, dx = {mask: 1}, dict(_D[mask])
            sign = -1 if mask.bit_count() & 1 else 1
            for k, (i, j) in enumerate(GENERATORS):
                g = {1 << k: 1}
                rhs = _z_mul(dx, g)
                for m, c in _z_mul(x, dict(_D[1 << k])).items():
                    rhs[m] = rhs.get(m, 0) + sign * c
                if _nonzero(_z_d(_z_mul(x, g))) != _nonzero(rhs):
                    raise AssertionError(f"Leibniz fails on mask {mask} * gen ({i},{j})")
                pairs += 1
        factors = {}  # right factor -> index of the first generator g with it in g + d(g)
        for k in range(NGEN):
            for f in [1 << k] + [m for m, _ in _D[1 << k]]:
                factors.setdefault(f, k)
        all_monomials = dict.fromkeys(range(FULL_MASK + 1), 1)
        for f, k in factors.items():
            got = _z_mul(all_monomials, {f: 1})
            want = {x | f: _sign(x, f) for x in range(FULL_MASK + 1) if not x & f}
            if got != want:  # name the failing x * f of smallest product mask
                mask = min(key for key in got.keys() | want.keys() if got.get(key) != want.get(key)) ^ f
                i, j = GENERATORS[k]
                raise AssertionError(f"product sign fails on mask {mask} * gen ({i},{j})")
        _dga_over_z = {"monomials": FULL_MASK + 1, "leibniz_pairs": pairs}
    return dict(_dga_over_z)


class FpAlgebra:
    """Generator degrees at a prime p > 3, shared by the exterior and cobar
    models: (i, j) has internal degree 2(p^i - 1)p^j mod 2(p^3 - 1), weight i.
    A subclass sets its `element` class and defines `key_grade(key)`."""

    element = None

    def __init__(self, p: int):
        check_prime(p)
        self.p = p
        self.tmod = 2 * (p**3 - 1)
        self.gen_tdeg = tuple(
            (2 * (p**i - 1) * p**j) % self.tmod for (i, j) in GENERATORS
        )
        self.gen_weight = tuple(i for (i, _) in GENERATORS)

    def zero(self):
        return self.element(self, {})


class FpElement:
    """F_p-linear combination {basis key: coeff mod p, zeros dropped} over an
    `FpAlgebra`; sums and equality hold only between elements of one type."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: FpAlgebra, terms):
        self.alg = alg
        p = alg.p
        self.terms = {k: r for k, v in terms.items() if (r := v % p)}

    def _plus(self, other, scale):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + scale * v
        return type(self)(self.alg, out)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return type(self)(self.alg, {k: -v for k, v in self.terms.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, int):
            return type(self)(self.alg, {k: scalar * v for k, v in self.terms.items()})
        return NotImplemented

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.alg.p == other.alg.p
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def grades(self):
        return {self.alg.key_grade(k) for k in self.terms}

    def grade_of(self) -> Trigrade:
        gs = self.grades()
        if len(gs) != 1:
            raise InhomogeneousError(gs)
        return next(iter(gs))


def term_repr(coeff: int, mask: int, prefix=()) -> str:
    """'coeff*prefix*h..' for one term; a coefficient 1 is dropped unless
    nothing else is printed."""
    names = list(prefix)
    rest = mask
    while rest:
        low = rest & -rest
        names.append(GEN_NAMES[low.bit_length() - 1])
        rest ^= low
    if coeff != 1 or not names:
        names.insert(0, str(coeff))
    return "*".join(names)


class ExteriorElement(FpElement):
    """F_p-linear combination of sorted exterior monomials, keyed by mask."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        if not isinstance(other, ExteriorElement):
            return NotImplemented
        if not (self.terms and other.terms):
            return self.alg.zero()
        return ExteriorElement(self.alg, _z_mul(self.terms, other.terms))

    # -- differential -------------------------------------------------------

    def d(self) -> "ExteriorElement":
        return ExteriorElement(self.alg, _z_d(self.terms))

    # -- misc ---------------------------------------------------------------

    def shift(self, delta: int) -> "ExteriorElement":
        """Index-shift automorphism h_{i,j} -> h_{i,j+delta} (a DGA map)."""
        out = self.alg.zero()
        for mask, coeff in sorted(self.terms.items()):
            gens = [(i, j + delta) for g, (i, j) in enumerate(GENERATORS) if mask >> g & 1]
            out = out + coeff * self.alg.gen_product(gens)
        return out

    def coefficient(self, mask: int) -> int:
        return self.terms.get(mask, 0)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(term_repr(c, mask) for mask, c in sorted(self.terms.items()))


class ExteriorAlgebra(FpAlgebra):
    """Shared immutable data at a fixed prime: degrees and the trigrade of
    every monomial, `mask_grade[mask]`."""

    element = ExteriorElement

    def __init__(self, p: int):
        super().__init__(p)
        grade = [Trigrade(0, 0, 0)]
        for mask in range(1, FULL_MASK + 1):
            s, t, w = grade[mask & (mask - 1)]
            g = (mask & -mask).bit_length() - 1
            grade.append(Trigrade(s + 1, (t + self.gen_tdeg[g]) % self.tmod, w + self.gen_weight[g]))
        self.mask_grade = tuple(grade)

    # -- constructors -------------------------------------------------------

    def one(self) -> ExteriorElement:
        return ExteriorElement(self, {0: 1})

    def gen(self, i: int, j: int) -> ExteriorElement:
        return ExteriorElement(self, {1 << gen_index(i, j): 1})

    def gen_product(self, gens) -> ExteriorElement:
        """The product of the generators (i, j) of `gens`, in order."""
        elem = self.one()
        for g in gens:
            elem = elem * self.gen(*g)
        return elem

    # -- grading -----------------------------------------------------------

    def key_grade(self, mask: int) -> Trigrade:
        return self.mask_grade[mask]
