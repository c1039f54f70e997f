"""Congruence-tracking symbolic calculator for a BP-style cobar complex.

Terms are exact-rational multiples of v1^e1 v2^e2 v3^e3 [m1 | ... | ms],
where each slot m is a monomial t1^a t2^b t3^c with plain integer exponents
and the v-exponents may be symbolic of the form c + m*t (m in {0,1}) for the
family computations.  A coefficient is an int or a Fraction, and a TPoly (a
polynomial in the formal parameter t with Fraction coefficients) only where t
occurs; an operation with a TPoly operand gives a TPoly.  Localization at p
is tracked exactly: a coefficient's p-adic order is read by divisibility.

Right-unit and coproduct formulas are stored with validity ideals; every use
inside a context checks that the formula's validity ideal is contained in
the context, otherwise an InsufficientPrecisionError names the entry.
Context ideals are monomial in (p, v1, v2), so a term's membership depends
only on its v-part and its p-valuation; `Ideal.floor` is the one membership
rule, `Ideal.modulus` (p^floor) and `_divisible` the one membership and mod-p
test, and `_drop_terms` the one routine that drops (and audits) terms.  A
valuation is computed only where it is carried: `delta_mon` prunes a product
term by the sum of its factors' valuations (`_pval`), and `d_cobar` without
an audit expands a term's coproducts modulo its context lowered by the
valuation of the term's coefficient (`_coeff_pval`, `Ideal.lowered`).

The delta chains divide cobar differentials by the exact invariant factors
(powers of p, v1, v2) and record an audit trail: every dropped term is
justified by membership in a declared residual ideal.  Their b-classes are
the cochains `b_cochain` of `fplinalg.b_class_terms`, and each chain ends in
the comparison map `project_to_exterior` onto generators and `BLOCKS` images.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .exterior import GENERATORS
from .fplinalg import b_class_terms
from .greek import GAMMA_COEFFS, alpha, beta, r_image
from .named import NamedClasses

# ---------------------------------------------------------------------------
# polynomials in the formal parameter t over Q
# ---------------------------------------------------------------------------


class TPoly:
    """Polynomial in t with Fraction coefficients: the coefficient of a term
    in which t occurs.  Numbers mix on either side and promote to TPoly, and
    TPoly({0: c}) == c."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        out = {}
        for d, c in (coeffs or {}).items():
            c = Fraction(c)
            if c:
                out[d] = c
        self.coeffs = out

    @classmethod
    def _exact(cls, coeffs):
        """Adopt {degree: Fraction} as is: every value exact and nonzero."""
        out = object.__new__(cls)
        out.coeffs = coeffs
        return out

    @classmethod
    def t(cls):
        return cls({1: Fraction(1)})

    def __add__(self, other):
        out = dict(self.coeffs)
        for d, c in _tcoeffs(other).items():
            s = out.get(d)
            if s is None:
                out[d] = c
            else:
                s += c
                if s:
                    out[d] = s
                else:
                    del out[d]
        return TPoly._exact(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return TPoly._exact({d: -c for d, c in self.coeffs.items()})

    def __mul__(self, other):
        if type(other) is not TPoly:
            # a Fraction times a nonzero int or Fraction is exact and nonzero
            if not other:
                return TPoly._exact({})
            return TPoly._exact({d: c * other for d, c in self.coeffs.items()})
        out = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d, c = d1 + d2, c1 * c2
                out[d] = out[d] + c if d in out else c
        return TPoly._exact({d: c for d, c in out.items() if c})

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, (TPoly, int, Fraction)) and self.coeffs == _tcoeffs(other)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*t^{d}" if d else f"{c}" for d, c in sorted(self.coeffs.items()))


def _tcoeffs(x):
    """{degree: Fraction} of a TPoly or a number."""
    return x.coeffs if type(x) is TPoly else ({0: Fraction(x)} if x else {})


def _pval(n, p):
    """p-adic valuation of a nonzero int."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _coeff_pval(c, p):
    """v_p of a nonzero coefficient; for a TPoly, the least over its
    coefficients."""
    if type(c) is int:
        return _pval(c, p)
    if type(c) is TPoly:
        return min(_coeff_pval(x, p) for x in c.coeffs.values())
    return _pval(c.numerator, p) - _pval(c.denominator, p)


def _divisible(c, q, p):
    """Whether v_p(c) >= f for a nonzero coefficient c and q = p^f (an int
    for f >= 0, else a Fraction), that is whether c/q is p-integral: one %
    when c and q are ints.  A TPoly needs every coefficient."""
    if type(q) is int:
        if type(c) is int:
            return c % q == 0
        if type(c) is Fraction:
            return c.denominator % p != 0 and c.numerator % q == 0
    if type(c) is TPoly:
        return all(_divisible(x, q, p) for x in c.coeffs.values())
    return Fraction(c, q).denominator % p != 0


def _over(c, q):
    """c / q for a coefficient c: an int when the quotient is one."""
    if type(c) is int and c % q == 0:
        return c // q
    if type(c) is TPoly:
        return c * Fraction(1, q)
    c = Fraction(c, q)
    return c.numerator if c.denominator == 1 else c


def tpoly_binom(exp, k: int):
    """C(exp, k) where exp = (c, m) means c + m*t: an int when m = 0,
    otherwise an exact polynomial in t."""
    c, m = exp
    out = 1
    for r in range(k):
        out = out * (TPoly({0: c - r, 1: m}) if m else c - r)
    return _over(out, factorial(k))


# ---------------------------------------------------------------------------
# monomial ideals in (p, v1, v2)
# ---------------------------------------------------------------------------


class InsufficientPrecisionError(ArithmeticError):
    pass


class Ideal:
    """Monomial ideal generated by terms p^a v1^b v2^c."""

    def __init__(self, gens):
        self.gens = tuple(gens)
        self.name = "(" + (", ".join(
            "*".join(
                ([f"p^{a}" if a > 1 else "p"] if a else [])
                + ([f"v1^{b}" if b > 1 else "v1"] if b else [])
                + ([f"v2^{c}" if c > 1 else "v2"] if c else [])
            )
            or "1"
            for (a, b, c) in gens
        ) or "0") + ")"

    def floor(self, v1e, v2e):
        """Least a with p^a v1^v1e v2^v2e in the ideal, None when no generator
        divides v1^v1e v2^v2e: the one membership rule."""
        return min((a for a, b, c in self.gens if b <= v1e and c <= v2e), default=None)

    def modulus(self, p, vexp):
        """p^floor for the v-part vexp, 0 when no p-power puts it in the
        ideal; a symbolic exponent reads as 0, so membership claims nothing
        from it."""
        (c1, m1), (c2, m2) = vexp[0], vexp[1]
        f = self.floor(0 if m1 else c1, 0 if m2 else c2)
        if f is None:
            return 0
        return p**f if f >= 0 else Fraction(1, p**-f)

    def contains(self, p, vexp, coeff) -> bool:
        """Whether the term coeff * v^vexp (coeff nonzero) lies in the ideal."""
        q = self.modulus(p, vexp)
        return bool(q) and _divisible(coeff, q, p)

    def lowered(self, v: int) -> "Ideal":
        """The ideal with every p-exponent lowered by v, to 0 at least: for
        v_p(c) = v and a p-integral x, c x lies in self exactly when x lies
        in the lowered ideal."""
        return Ideal((max(a - v, 0), b, c) for a, b, c in self.gens)

    def contains_ideal(self, other: "Ideal") -> bool:
        return all((f := self.floor(b, c)) is not None and f <= a for a, b, c in other.gens)

    def __repr__(self):
        return self.name


ZERO_IDEAL = Ideal(())


def ideal(*gens):
    return Ideal(gens)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

V_ZERO = ((0, 0), (0, 0), (0, 0))
MON_ONE = (0, 0, 0)


def _vexp_add(a, b):
    """a + b; a zero summand returns the other one itself, so the many keys
    with an unchanged v-part share one tuple."""
    if b == V_ZERO:
        return a
    if a == V_ZERO:
        return b
    return tuple((ca + cb, ma + mb) for (ca, ma), (cb, mb) in zip(a, b))


def _vexp_concrete(vexp, which):
    """Concrete exponent of v_which (1-based); raises when symbolic."""
    c, m = vexp[which - 1]
    if m:
        raise InsufficientPrecisionError(f"v{which} exponent {c}+{m}t is symbolic")
    return c


def _mon_mul(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _acc(out, key, c):
    """out[key] += c on a {key: coefficient} table; a new key stores c itself."""
    s = out.get(key)
    out[key] = c if s is None else s + c


def _drop_terms(p, terms, ctx, audit=None, reason=""):
    """The nonzero terms of {(vexp, ...): coefficient} that lie outside ctx;
    the ones inside are appended to `audit`, in input order, when it is given.
    The modulus p^floor is looked up once per v-part (`Ideal.modulus`), so a
    term's test is one divisibility check of its coefficient."""
    if not ctx.gens:
        return {k: c for k, c in terms.items() if c}
    moduli = {}
    out = {}
    for key, c in terms.items():
        if not c:
            continue
        vexp = key[0]
        q = moduli.get(vexp)
        if q is None:
            q = moduli[vexp] = ctx.modulus(p, vexp)
        if not (q and _divisible(c, q, p)):
            out[key] = c
        elif audit is not None:
            audit.append({"dropped": _term_repr(key, c), "ideal": repr(ctx), "reason": reason})
    return out


class BPElement:
    """terms: {(vexp, slots): coefficient}; slots a tuple of t-monomials."""

    __slots__ = ("p", "terms")

    def __init__(self, p, terms=None):
        """Adopts `terms` as is: every coefficient must be nonzero."""
        self.p = p
        self.terms = terms or {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def v_power(cls, p, e1=(0, 0), e2=(0, 0), e3=(0, 0)):
        e1 = e1 if isinstance(e1, tuple) else (e1, 0)
        e2 = e2 if isinstance(e2, tuple) else (e2, 0)
        e3 = e3 if isinstance(e3, tuple) else (e3, 0)
        return cls(p, {((e1, e2, e3), ()): 1})

    @classmethod
    def cochain(cls, p, *slot_mons, coeff=1):
        return cls(p, {(V_ZERO, tuple(slot_mons)): coeff})

    # -- ring ops ------------------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, c)
        return BPElement(self.p, {k: c for k, c in out.items() if c})

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return BPElement(self.p, {k: -c for k, c in self.terms.items()})

    def scale(self, c):
        if not c:
            return BPElement(self.p)
        return BPElement(self.p, {k: v * c for k, v in self.terms.items()})

    def concat(self, other):
        out = {}
        for (va, sa), ca in self.terms.items():
            for (vb, sb), cb in other.terms.items():
                _acc(out, (_vexp_add(va, vb), sa + sb), ca * cb)
        return BPElement(self.p, {k: c for k, c in out.items() if c})

    def is_zero(self):
        return not self.terms

    # -- reduction and audit -------------------------------------------------

    def reduce_mod(self, ctx: Ideal, audit=None, reason=""):
        """Drop terms lying in ctx; optionally record them in the audit list."""
        return BPElement(self.p, _drop_terms(self.p, self.terms, ctx, audit, reason))

    def divide_p(self):
        return BPElement(self.p, {k: _over(c, self.p) for k, c in self.terms.items()})

    def divide_v(self, which, a=1):
        out = {}
        for (vexp, slots), c in self.terms.items():
            e = _vexp_concrete(vexp, which)
            if e < a:
                raise InsufficientPrecisionError(
                    f"term {_term_repr((vexp, slots), c)} not divisible by v{which}^{a}"
                )
            new = list(vexp)
            new[which - 1] = (e - a, 0)
            out[(tuple(new), slots)] = c
        return BPElement(self.p, out)

    def set_v3_one(self):
        out = {}
        for (vexp, slots), c in self.terms.items():
            _acc(out, ((vexp[0], vexp[1], (0, 0)), slots), c)
        return BPElement(self.p, {k: c for k, c in out.items() if c})

    def __eq__(self, other):
        return isinstance(other, BPElement) and self.p == other.p and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(_term_repr(k, c) for k, c in sorted(self.terms.items()))


def _mon_repr(mon):
    parts = [f"t{i+1}^{a}" if a > 1 else f"t{i+1}" for i, a in enumerate(mon) if a]
    return "*".join(parts) if parts else "1"


def _term_repr(key, coeff):
    vexp, slots = key
    bits = [f"({coeff})"]
    for i, (c, m) in enumerate(vexp):
        if c or m:
            e = f"{c}+{m}t" if m else f"{c}"
            bits.append(f"v{i+1}^({e})")
    if slots:
        bits.append("[" + "|".join(_mon_repr(m) for m in slots) + "]")
    return "*".join(bits)


# ---------------------------------------------------------------------------
# structure table
# ---------------------------------------------------------------------------


def t1_mon(e):
    return (e, 0, 0)


def t2_mon(e):
    return (0, e, 0)


def t3_mon(e):
    return (0, 0, e)


def _b10_powers(p: int, mmax: int):
    """[b10^m for m = 0..mmax], b10^m as {e: d} for its terms
    d t1^e (x) t1^(mp - e), in the iterated product's order (e ascending)."""
    b10 = [(left[0], c) for left, _, c in b_class_terms(p, 1, 0)]
    powers = [{0: 1}]
    for _ in range(mmax):
        out = {}
        for e, d in powers[-1].items():
            for a, c in b10:
                out[e + a] = out.get(e + a, 0) + d * c
        powers.append(out)
    return powers


class BPStructure:
    """Right-unit and coproduct formulas with validity ideals, at a prime."""

    def __init__(self, p: int):
        self.p = p
        # eta_R(v_i) - v_i as {(vexp, mon): int}, plus validity ideal
        self.D = {
            1: ({(V_ZERO, t1_mon(1)): p}, ZERO_IDEAL),
            2: (
                {
                    (((1, 0), (0, 0), (0, 0)), t1_mon(p)): 1,
                    (V_ZERO, t2_mon(1)): p,
                    (((p, 0), (0, 0), (0, 0)), t1_mon(1)): -1,
                },
                ideal((2, 0, 0), (1, 1, 0)),
            ),
            3: (
                {
                    (((0, 0), (1, 0), (0, 0)), t1_mon(p**2)): 1,
                    (((1, 0), (0, 0), (0, 0)), t2_mon(p)): 1,
                    (V_ZERO, t3_mon(1)): p,
                },
                # The table is granted mod (p^2, p*v1, v1^2, v2^p): it keeps no
                # term in p*v1.  Mod p the v2-free part extends further for
                # free: a correction v1^2*F mod (p, v2) must have F primitive
                # (else d^2(v3) fails mod (p, v1^3, v2)), so F is spanned by
                # v1^a t1^(p^j), and homogeneity in degree 2(p^3-1) forces
                # total v1-exponent 2+a = p^2+p+1-p^j >= p+1.
                ideal((2, 0, 0), (1, 1, 0), (0, 3, 0), (0, 2, 1), (0, 0, p)),
            ),
        }
        self._delta_t2_cache = {}
        self._eta_cache = {}

    # -- products of expansions ---------------------------------------------

    def _mul(self, A, B, ctx):
        """Product of two expansions {(vexp, mon, ...): coefficient}, one monomial
        per tensor factor (multiplied slot by slot), modulo ctx."""
        out = {}
        for ka, ca in A.items():
            va, ma = ka[0], ka[1:]
            for kb, cb in B.items():
                key = (_vexp_add(va, kb[0]), *map(_mon_mul, ma, kb[1:]))
                c = out.get(key)
                out[key] = ca * cb if c is None else c + ca * cb
        return _drop_terms(self.p, out, ctx)

    # -- coefficient (eta) expansions ---------------------------------------

    def eta_power(self, which: int, exp, ctx: Ideal):
        """eta_R(v_which)^(c+mt), exp = (c, m), as {(vexp, mon): coefficient}
        modulo ctx."""
        D, validity = self.D[which]
        if not ctx.contains_ideal(validity):
            raise InsufficientPrecisionError(
                f"eta_R(v{which}) is only valid mod {validity}, context {ctx} is finer"
            )
        c, m = exp
        base = [(c, m) if i == which - 1 else (0, 0) for i in range(3)]
        out = {}
        Dk = {(V_ZERO, MON_ONE): 1}
        k = 0
        while True:
            Dk = _drop_terms(self.p, Dk, ctx)
            if k > 0 and not Dk:
                break
            if m == 0 and k > max(c, 0):
                break
            binom = tpoly_binom((c, m), k)
            if binom:
                vk = [(cc - k, mm) if i == which - 1 else (cc, mm)
                      for i, (cc, mm) in enumerate(base)]
                for (vexp, mon), coeff in Dk.items():
                    _acc(out, (_vexp_add(tuple(vk), vexp), mon), binom * coeff)
            k += 1
            if k > 4 * self.p:
                raise InsufficientPrecisionError(
                    f"eta_R(v{which})^exp expansion does not terminate in context {ctx}"
                )
            Dk = self._mul(Dk, D, ZERO_IDEAL)
        return _drop_terms(self.p, out, ctx)

    def eta_v(self, vexp, ctx: Ideal):
        """eta_R applied to v1^e1 v2^e2 v3^e3, modulo ctx.  Each power is
        expanded once per (which, exp, ctx.gens) and kept; a lone power is
        returned as kept, so callers only read the result."""
        out = None
        for which in (1, 2, 3):
            exp = vexp[which - 1]
            if exp != (0, 0):
                key = (which, exp, ctx.gens)
                power = self._eta_cache.get(key)
                if power is None:
                    power = self._eta_cache[key] = self.eta_power(which, exp, ctx)
                out = power if out is None else self._mul(out, power, ctx)
        return {(V_ZERO, MON_ONE): 1} if out is None else out

    # -- coproducts ----------------------------------------------------------

    def delta_t2_power(self, b: int, ctx: Ideal):
        """Delta(t2)^b modulo ctx, in closed form.

        Delta(t2) = t2 (x) 1 + t1 (x) t1^p + 1 (x) t2 - v1 b10 has four
        commuting summands, so Delta(t2)^b is the sum over i + j + k + m = b of
        (b; i, j, k, m) (-v1)^m b10^m [t2^i t1^j | t1^(pj) t2^k], the
        multinomial C(b, i) C(b-i, j) C(b-i-j, k).  Terms come in the order
        of the iterated product (i, j, k descending, then b10^m's own order),
        which the audit trails of reduce_mod depend on.
        """
        key = (b, ctx.gens)
        if key in self._delta_t2_cache:
            return self._delta_t2_cache[key]
        p = self.p
        vexps = [V_ZERO] + [((m, 0), (0, 0), (0, 0)) for m in range(1, b + 1)]
        moduli = [ctx.modulus(p, vexp) for vexp in vexps]
        mmax = moduli.index(1) - 1 if 1 in moduli else b
        powers = _b10_powers(p, mmax)
        out = {}
        for i in range(b, -1, -1):
            ci = comb(b, i)
            for j in range(b - i, -1, -1):
                n = b - i - j
                cij = ci * comb(b - i, j)
                for k in range(n, max(n - mmax, 0) - 1, -1):
                    m = n - k
                    c, q = cij * comb(n, k), moduli[m]
                    if q and _divisible(c, q, p):
                        continue
                    vexp = vexps[m]
                    sign = -1 if m % 2 else 1
                    for e, d in powers[m].items():
                        coeff = sign * c * d
                        if not (q and _divisible(coeff, q, p)):
                            out[(vexp, (j + e, i, 0), (p * (j + m) - e, k, 0))] = coeff
        self._delta_t2_cache[key] = out
        return out

    def delta_mon(self, mon, ctx: Ideal):
        """Delta(t1^a t2^b) mod ctx, in closed form.  Delta(t1)^a is
        sum_i C(a, i) [t1^i | t1^(a-i)], i ascending, less the terms whose
        binomial lies in ctx; with a = 0 it is Delta(t2)^b; otherwise the
        product Delta(t1)^a * Delta(t2)^b.  The binomials come from
        C(a, i+1) = C(a, i) (a-i)/(i+1), one small product per term: the
        suites ask for a up to 3p^2, where `math.comb` per term costs about
        15 times as much.

        When Delta(t2)^b is v1-free, each of its terms gives a different key
        for each i, so no two products merge: they are emitted in the order
        `_mul` would give (i outer, Delta(t2)^b's terms inner), and each is
        kept or pruned by v_p C(a, i) + v_p(its coefficient), the factors'
        valuations, against ctx.floor(0, 0).  `d_cobar` passes a context
        lowered by its outer coefficient's valuation, so that floor counts
        the outer coefficient too.  A v1-carrying term
        (v1^m b10^m, m >= 1) can meet another on one key, so then the
        product is left to `_mul`.  The dict returned is the caller's own.
        No suite applies d to a t3 slot, so no coproduct of t3 is on record."""
        if mon[2]:
            raise InsufficientPrecisionError(f"no coproduct of {_mon_repr(mon)} on record")
        a, b = mon[0], mon[1]
        p = self.p
        q = ctx.modulus(p, V_ZERO)
        t1 = {}
        c = 1
        for i in range(a + 1):
            if not (q and _divisible(c, q, p)):
                t1[(V_ZERO, t1_mon(i), t1_mon(a - i))] = c
            c = c * (a - i) // (i + 1)
        if not b:
            return t1
        t2 = self.delta_t2_power(b, ctx)
        if not a:
            return dict(t2)
        if any(vexp != V_ZERO for vexp, _, _ in t2):
            return self._mul(t1, t2, ctx)
        f = ctx.floor(0, 0)
        terms = [(l1, l2, r1, r2, c, _pval(c, p))
                 for (_, (l1, l2, _), (r1, r2, _)), c in t2.items()]
        out = {}
        for (_, (i, _, _), (ai, _, _)), ca in t1.items():
            room = None if f is None else f - _pval(ca, p)
            for l1, l2, r1, r2, cb, vb in terms:
                if room is None or vb < room:
                    out[(V_ZERO, (i + l1, l2, 0), (ai + r1, r2, 0))] = ca * cb
        return out

    def delta_bar(self, mon, ctx: Ideal):
        """Delta(mon) - mon (x) 1 - 1 (x) mon mod ctx.  Both keys hold
        exactly 1 in `delta_mon`'s output, as C(a, 0) = C(a, a) = 1,
        (b; b,0,0,0) = (b; 0,0,b,0) = 1 and no context has a unit generator;
        so both are popped, and one that holds anything else raises."""
        out = self.delta_mon(mon, ctx)
        for key in ((V_ZERO, mon, MON_ONE), (V_ZERO, MON_ONE, mon)):
            c = out.pop(key, 0)
            if c != 1:
                side = " (x) ".join(map(_mon_repr, key[1:]))
                raise ArithmeticError(f"Delta({_mon_repr(mon)}) holds {c} at {side}, not 1")
        return out


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------


def d_cobar(x: BPElement, ctx: Ideal, structure: BPStructure, audit=None) -> BPElement:
    """Cobar differential modulo ctx.

    d(c [m1|...|ms]) = (eta_R(c) - c) spliced in as a new first slot, plus
    sum_i (-1)^i [... reduced-coproduct(m_i) ...], Leibniz-compatible with
    concatenation.

    A call that keeps an audit sums exactly: the audit lists every term of
    the exact sum that lies in ctx.  Without an audit, a term that lies in
    ctx on its own is left out, so the result has the exact sum's keys, but
    its values agree only mod ctx and its order may differ.  Such a call
    also expands the coproducts of a term with v_p(coefficient) = v > 0
    modulo ctx.lowered(v), so no product that the outer coefficient alone
    puts in ctx is built; where that context holds 1 on the v-free part,
    every product of the term's slots lies in ctx, and none is expanded.
    """
    exact = audit is not None
    p = x.p
    out = {}
    get = out.get
    lowered = {}  # v -> ctx.lowered(v)
    for (vexp, slots), coeff in x.terms.items():
        # coefficient differential
        eta = structure.eta_v(vexp, ctx)
        for (v2exp, mon), c in eta.items():
            if (v2exp, mon) == (vexp, MON_ONE):
                c = c - 1
            c = coeff * c
            if c and (exact or not ctx.contains(p, v2exp, c)):
                _acc(out, (v2exp, (mon,) + slots), c)
        # the context of the slots' coproducts, lowered by v_p(coeff)
        sctx = ctx
        if not exact and slots and ctx.gens:
            val = _coeff_pval(coeff, p)
            if val > 0:
                sctx = lowered.get(val)
                if sctx is None:
                    sctx = lowered[val] = ctx.lowered(val)
                if sctx.floor(0, 0) == 0:
                    continue
        # slot insertions; runs of delta_bar's terms share their v-part
        # object, so the summed v-part (and, without an audit, its modulus)
        # is kept across a run
        for i, mon in enumerate(slots):
            head, tail = slots[:i], slots[i + 1:]
            scale = -coeff if i % 2 == 0 else coeff
            last = None
            for (dv, ml, mr), c in structure.delta_bar(mon, sctx).items():
                if dv is not last:
                    last, v = dv, _vexp_add(vexp, dv)
                    q = 0 if exact else ctx.modulus(p, v)
                c = scale * c
                if q and _divisible(c, q, p):
                    continue
                key = (v, head + (ml, mr) + tail)
                s = get(key)
                out[key] = c if s is None else s + c
    return BPElement(p, _drop_terms(p, out, ctx, audit, "d_cobar context"))

# ---------------------------------------------------------------------------
# b-classes at the BP level
# ---------------------------------------------------------------------------


def b_cochain(p: int, level: int, k: int) -> BPElement:
    """The 2-cochain of `fplinalg.b_class_terms(p, level, k)`: b_{1,k} at
    level 1, and at level 2, k = 0 exactly the v1-free part of `b20`."""
    return BPElement(p, {(V_ZERO, (l, r)): c for l, r, c in b_class_terms(p, level, k)})


def _corner_v1p_b11(p: int) -> BPElement:
    """-t1^p (x) t1^(p^2) + v1^p b_{1,1}: the part of d(t2^p) besides -p b20."""
    v1p = ((p, 0), (0, 0), (0, 0))
    terms = {(V_ZERO, (t1_mon(p), t1_mon(p**2))): -1}
    terms.update(((v1p, slots), c) for (_, slots), c in b_cochain(p, 1, 1).terms.items())
    return BPElement(p, terms)


def b20(p: int, structure: BPStructure) -> BPElement:
    """b_{2,0} = (1/p)(Delta-bar(t2^p) - t1^p (x) t1^(p^2) + v1^p b_{1,1}),
    that is d(t2^p) = -t1^p (x) t1^(p^2) + v1^p b_{1,1} - p b_{2,0}.

    Read from the exact d[t2^p] = -Delta-bar(t2^p), whose terms are turned
    into b_{2,0}'s in place; the p-integrality of every coefficient is
    asserted (this is the content of the construction).
    """
    terms = d_cobar(BPElement.cochain(p, t2_mon(p)), ZERO_IDEAL, structure).terms
    for key, c in _corner_v1p_b11(p).terms.items():
        _acc(terms, key, -c)
    zeros = []
    for key, c in terms.items():
        if not c:  # the corner t1^p (x) t1^(p^2) cancels
            zeros.append(key)
            continue
        terms[key] = c = _over(c, -p)
        if c.denominator % p == 0:
            raise InsufficientPrecisionError(
                f"b20 coefficient not p-integral at {_term_repr(key, c)}"
            )
    for key in zeros:
        del terms[key]
    return BPElement(p, terms)


# ---------------------------------------------------------------------------
# differential identities and d^2 checks
# ---------------------------------------------------------------------------


def _check_d(st: BPStructure, rows):
    """Check d(x) = expected mod ctx on each row (name, status, x, ctx,
    expected), trying `==` first; returns the records {name, status}.  A
    generator of rows builds each expected value only when it is reached."""
    report = []
    for name, status, x, ctx, expected in rows:
        dx = d_cobar(x, ctx, st)
        if dx != expected:
            off = (dx - expected).reduce_mod(ctx)
            if not off.is_zero():
                raise AssertionError(f"{name}: off by {off!r}")
        report.append({"name": name, "status": status})
    return report


def verify_d_basics(st: BPStructure):
    """d(v1) = p[t1]; d(t1^(p^k)) = -p b_{1,k-1}; d(t2^p) = -t1^p (x) t1^(p^2)
    + v1^p b11 - p b20; d(v_k) = p[t_k] mod I((2,1,1),k).  The d(t2^p) row is
    `b20`'s definition: d[t2^p] is read once, into b20, and the row holds
    when every coefficient of b20 is p-integral."""
    p = st.p

    def rows():
        yield ("d(v1) = p[t1]", "exact", BPElement.v_power(p, e1=1), ZERO_IDEAL,
               BPElement.cochain(p, t1_mon(1), coeff=p))
        for k in (1, 2):
            yield (f"d(t1^(p^{k})) = -p*b_(1,{k-1})", "exact",
                   BPElement.cochain(p, t1_mon(p**k)), ZERO_IDEAL,
                   (-b_cochain(p, 1, k - 1)).scale(p))
        # b20 mod v1, its v1-free terms, is the multinomial form
        v1_free = {key: c for key, c in b20(p, st).terms.items() if key[0][0] == (0, 0)}
        if v1_free != b_cochain(p, 2, 0).terms:
            raise AssertionError("b20 mod v1 is not the multinomial form")
        gens = ((2, 0, 0), (0, 1, 0), (0, 0, 1))
        for k, mon in enumerate((t1_mon(1), t2_mon(1), t3_mon(1)), 1):
            ctx = Ideal(gens[:k])
            yield (f"d(v{k}) = p[t{k}] mod I((2,1,1),{k}) = {ctx}", "pass",
                   BPElement.v_power(p, **{f"e{k}": 1}), ctx, BPElement.cochain(p, mon, coeff=p))

    report = _check_d(st, rows())
    # d(t2^p) and b20's records follow the d(t1^(p^k)) rows, as b20's checks do in rows()
    report[3:3] = [{"name": "d(t2^p) = -t1^p(x)t1^(p^2) + v1^p*b11 - p*b20", "status": "exact"},
                   {"name": "b20 p-integrality", "status": "exact"},
                   {"name": "b20 mod (p,v1) multinomial form", "status": "exact"}]
    return report


def verify_dd(st: BPStructure):
    """d(d(x)) = 0 modulo each context for the whitelisted input family."""
    p = st.p
    cases = [
        ("v1", BPElement.v_power(p, e1=1), ZERO_IDEAL),
        ("v2", BPElement.v_power(p, e2=1), ideal((2, 0, 0), (1, 1, 0))),
        ("v2^t", BPElement.v_power(p, e2=(0, 1)), ideal((1, 0, 0), (0, 3, 0))),
        ("v3^t", BPElement.v_power(p, e3=(0, 1)),
         ideal((1, 0, 0), (0, 2, 0), (0, 1, 1), (0, 0, 2))),
        ("[t1^p]", BPElement.cochain(p, t1_mon(p)), ZERO_IDEAL),
        ("[t1^(p^2)]", BPElement.cochain(p, t1_mon(p**2)), ZERO_IDEAL),
        # dropping the v1*b10 coproduct correction breaks coassociativity
        # only at order p^2, so the residue ideal needs the p^2 generator
        ("[t2^p]", BPElement.cochain(p, t2_mon(p)),
         ideal((2, 0, 0), (0, 1, 0), (0, 0, 1))),
    ]
    # only whether d^2(x) vanishes mod ctx counts, so neither d keeps the
    # terms that lie in ctx on their own
    return _check_d(st, (
        (f"d^2({name}) = 0 mod {ctx}", "pass", d_cobar(x, ctx, st), ctx, BPElement(p))
        for name, x, ctx in cases
    ))

# ---------------------------------------------------------------------------
# comparison map to the exterior model
# ---------------------------------------------------------------------------


#: The b-blocks of the comparison map: each `NamedClasses` image with the
#: (level, k) of its b-class in `b_cochain`.
BLOCKS = (("b0", 1, 0), ("b1", 1, 1), ("b20", 2, 0))


def project_to_exterior(x: BPElement, nc: NamedClasses, audit=None):
    """Associated-graded comparison map into the exterior model.

    Slots t_i^(p^j) map to the exterior generator (i, j) of
    `exterior.GENERATORS`; a contiguous pair of slots in the support of a
    b-block of `BLOCKS` (b_{1,0}, b_{1,1}, b_{2,0} mod (p, v1), read from
    `b_cochain`) maps to the block's image `nc[name]`, the whole support
    required to appear with a single proportionality factor mod p; every
    other tensor monomial lies above the comparison filtration and maps to
    zero, audited unless its valuation is >= 1.

    Input terms must be free of v1 and v3 (concrete v2 powers are carried
    through).  Returns {(mask, v2exp): coefficient}, to be compared mod p.
    """
    p = nc.p
    alg = nc.engine.alg
    gen_of = {tuple(p**j if r == i else 0 for r in (1, 2, 3)): (i, j) for i, j in GENERATORS}
    supports = {
        name: {slots: c % p for (_, slots), c in b_cochain(p, level, k).terms.items() if c % p}
        for name, level, k in BLOCKS
    }
    out = {}
    groups = {}
    for (vexp, slots), coeff in x.terms.items():
        if vexp[0] != (0, 0) or vexp[2] != (0, 0) or vexp[1][1]:
            raise InsufficientPrecisionError(
                f"term {_term_repr((vexp, slots), coeff)} has v1/v3 or symbolic v2 content"
            )
        v2e = vexp[1][0]
        gens = tuple(gen_of.get(m) for m in slots)
        if None not in gens:
            _add_ext(out, alg.gen_product(gens), coeff, v2e)
            continue
        placed = next(((name, pos) for pos in range(len(slots) - 1)
                       if None not in gens[:pos] + gens[pos + 2:]
                       for name, supp in supports.items() if slots[pos:pos + 2] in supp), None)
        if placed:
            name, pos = placed
            key = (name, gens[:pos], gens[pos + 2:], v2e)
            _acc(groups.setdefault(key, {}), slots[pos:pos + 2], coeff)
        elif not _divisible(coeff, p, p):
            if audit is None:
                raise InsufficientPrecisionError(
                    f"unclassified term {_term_repr((vexp, slots), coeff)}"
                )
            audit.append(
                {
                    "dropped": _term_repr((vexp, slots), coeff),
                    "reason": "above comparison filtration, maps to zero",
                }
            )
    for (name, left, right, v2e), pairs in groups.items():
        supp = supports[name]
        anchor = next(iter(supp))
        lam = pairs.get(anchor, 0) * pow(supp[anchor], p - 2, p)
        for pr, c in supp.items():
            diff = pairs.get(pr, 0) - lam * c
            if diff and not _divisible(diff, p, p):
                raise InsufficientPrecisionError(
                    f"{name} block at slot {len(left)} is not proportional to the "
                    f"block pattern (pair {pr})"
                )
        elem = alg.gen_product(left) * nc[name] * alg.gen_product(right)
        _add_ext(out, elem, lam, v2e)
    return {k: v for k, v in out.items() if v}


def _add_ext(out, elem, coeff, v2e=0):
    """out += coeff * v2^v2e * elem on a {(mask, v2exp): coefficient} table; returns out."""
    for mask, c in elem.terms.items():
        _acc(out, (mask, v2e), coeff * c)
    return out


def masks_diff_mod_p(a, b, p):
    """Keys where the two {(mask, v2exp): coefficient} tables differ mod p."""
    bad = []
    for key in set(a) | set(b):
        d = a.get(key, 0) - b.get(key, 0)
        if d and not _divisible(d, p, p):
            bad.append((key, str(d)))
    return bad

# ---------------------------------------------------------------------------
# delta chains
# ---------------------------------------------------------------------------

MOD_P = ideal((1, 0, 0))
MOD_P_V1 = ideal((1, 0, 0), (0, 1, 0))


class _Chain:
    """The displayed steps of one connecting-map chain.

    Terms that a step's reduction drops go to `audit` when the chain keeps
    one list for all its steps, otherwise into that step's own entry.
    """

    def __init__(self, name, st: BPStructure, nc: NamedClasses | None = None, audit=None):
        self.name = name
        self.st = st
        self.nc = nc
        self.audit = audit
        self.steps = []

    def step(self, desc, value, dropped=()):
        entry = {"desc": desc, "value": repr(value)}
        if self.audit is not None:
            self.audit.extend(dropped)
        elif dropped:
            entry["audit"] = dropped
        self.steps.append(entry)
        return value

    def d(self, desc, x, ctx):
        """Step: d(x) mod ctx."""
        dropped = []
        return self.step(desc, d_cobar(x, ctx, self.st, dropped), dropped)

    def p_part(self, desc, x, ctx, final=None, v3_one=False):
        """Steps: d(x) mod ctx, whose valuation-zero part must cancel, then its
        p-part, reduced mod `final` (and v3 set to 1) when `final` is given."""
        X = self.d(desc, x, ctx)
        if not X.reduce_mod(MOD_P).is_zero():
            raise AssertionError("valuation-zero part must cancel")
        if final is None:
            return self.step("divide by p", X.divide_p())
        dropped = []
        R = X.divide_p().reduce_mod(final, dropped, "final reduction")
        if v3_one:
            return self.step(f"divide by p, reduce mod {final}, set v3 = 1",
                             R.set_v3_one(), dropped)
        return self.step(f"divide by p, reduce mod {final}", R, dropped)

    def lands_on(self, x, expected, label, audit=None):
        """Last step: x projects to the exterior image `expected` (a
        {(mask, v2exp): coefficient} table) mod p; returns the chain's record."""
        p = self.st.p
        if masks_diff_mod_p(project_to_exterior(x, self.nc, audit), expected, p):
            raise AssertionError(f"{self.name} exterior image is not {label}")
        entry = {"desc": "exterior image", "value": label}
        if audit is not None:
            entry["audit"] = audit
        self.steps.append(entry)
        return {"name": self.name, "steps": self.steps, "image": label}

    def record(self, **fields):
        """The passing suite record of a symbolic chain."""
        return {"name": self.name, "steps": self.steps, "audit": self.audit, **fields,
                "status": "pass"}


def _v2_power_zigzag(chain: _Chain, e, name):
    """v2^e --d, mod (p, v1^3)--> beta-bar --/v1--> rep --d, /p--> mod (p, v1),
    for e = (c, m) meaning c + m*t.  beta-bar must be the normal form
    e v1 v2^(e-1)[t1^p] + C(e,2) v1^2 v2^(e-2)[t1^(2p)]."""
    p = chain.st.p
    c, m = e
    dx = chain.d(f"d({name}) mod (p, v1^3)", BPElement.v_power(p, e2=e),
                 ideal((1, 0, 0), (0, 3, 0)))
    expected_bar = BPElement(p, {
        (((j, 0), (c - j, m), (0, 0)), (t1_mon(j * p),)): tpoly_binom(e, j) for j in (1, 2)
    })
    if not (dx - expected_bar).is_zero():
        raise AssertionError(f"beta-bar normal form: {dx!r}")
    rep = chain.step("divide by v1", dx.divide_v(1))
    return chain.p_part("d(rep) mod (p^2, p*v1, v1^2)", rep,
                        ideal((2, 0, 0), (1, 1, 0), (0, 2, 0)), final=MOD_P_V1)


def _beta_1k_chain(nc: NamedClasses, st: BPStructure, k: int):
    """beta_1 (k = 0) and beta_{p/p} (k = 1), with q = p^k:
    v2^q --d, mod p--> v1^q[t1^(pq)] - v1^(pq)[t1^q] --/v1^q--> rep
    --d, /p--> -b_{1,k} ~ -b_k."""
    p = nc.p
    q = p**k
    name, v2q, label, spec = (
        ("beta_1", "v2", "-b0", beta(1)) if k == 0 else ("beta_p/p", "v2^p", "-b1", beta(p, p))
    )
    chain = _Chain(name, st, nc)
    dx = chain.d(f"d({v2q}) mod (p)", BPElement.v_power(p, e2=q), MOD_P)
    if dx != BPElement(p, {
        (((q, 0), (0, 0), (0, 0)), (t1_mon(p * q),)): 1,
        (((p * q, 0), (0, 0), (0, 0)), (t1_mon(q),)): -1,
    }):
        raise AssertionError(f"d({v2q}) mod (p) = {dx!r}")
    rep = chain.step("divide by v1" if k == 0 else f"divide by v1^{q}", dx.divide_v(1, q))
    R = chain.p_part("d(rep) mod (p^2, p*v1)", rep, ideal((2, 0, 0), (1, 1, 0)))
    if not (R + b_cochain(p, 1, k)).reduce_mod(MOD_P).is_zero():
        raise AssertionError(f"{name}: p-part is not -b1{k} mod p")
    image = _add_ext({}, r_image(spec, nc), 1)
    return chain.lands_on(R.reduce_mod(MOD_P_V1), image, label)


def delta_chain_displays(nc: NamedClasses, st: BPStructure):
    """Four worked connecting-map chains with every step displayed:
    alpha_1, beta_1, beta_2 and beta_{p/p}.  Each chain divides the cobar
    differential by the exact invariant factors and ends with the exterior
    image of the leading term, checked against `greek.r_image`."""
    p = nc.p

    # alpha_1: v1 --d--> p[t1] --/p--> [t1] ~ h0
    alpha_1 = _Chain("alpha_1", st, nc)
    dx = alpha_1.step("d(v1), exact", d_cobar(BPElement.v_power(p, e1=1), ZERO_IDEAL, st))
    if dx != BPElement.cochain(p, t1_mon(1), coeff=p):
        raise AssertionError(f"d(v1) = {dx!r}")
    rep = alpha_1.step("divide by p", dx.divide_p())
    chains = [alpha_1.lands_on(rep, _add_ext({}, r_image(alpha(1), nc), 1), "h0")]

    chains.append(_beta_1k_chain(nc, st, 0))

    # beta_2: the v2^t zigzag at t = 2; answer 2*k0 - 2*v2*b0 mod (p, v1)
    beta_2 = _Chain("beta_2", st, nc)
    R = _v2_power_zigzag(beta_2, (2, 0), "v2^2")
    image = _add_ext(_add_ext({}, r_image(beta(2), nc), 1), nc["b0"], -2, v2e=1)
    chains.append(beta_2.lands_on(R, image, "2*k0 - 2*v2*b0", audit=[]))

    chains.append(_beta_1k_chain(nc, st, 1))
    return chains


def verify_beta_chain(st: BPStructure):
    """Symbolic zigzag for the v2^t family (t a formal parameter).

    d(v2^t)/(p, v1^3) = t v1 v2^(t-1)[t1^p] + C(t,2) v1^2 v2^(t-2)[t1^(2p)];
    dividing by v1 and applying d again, the valuation-zero part cancels and
    the p-part reduces, mod (p, v1), to

        t(t-1) v2^(t-2) ([t2|t1^p] + 1/2 [t1|t1^(2p)]) - t v2^(t-1) b10,

    whose two summands are cocycle representatives for k0 and b0.
    """
    p = st.p
    chain = _Chain("beta_t-chain", st, audit=[])
    R = _v2_power_zigzag(chain, (0, 1), "v2^t")

    k0_rep = BPElement(
        p,
        {
            (V_ZERO, (t2_mon(1), t1_mon(p))): 1,
            (V_ZERO, (t1_mon(1), t1_mon(2 * p))): Fraction(1, 2),
        },
    )
    if not d_cobar(k0_rep, MOD_P_V1, st).is_zero():
        raise AssertionError("k0 witness cocycle")
    expected = (
        BPElement.v_power(p, e2=(-2, 1)).concat(k0_rep).scale(TPoly({2: 1, 1: -1}))  # t(t-1)
        - BPElement.v_power(p, e2=(-1, 1)).concat(b_cochain(p, 1, 0)).scale(TPoly.t())
    )
    diff = (R - expected).reduce_mod(MOD_P_V1)
    if not diff.is_zero():
        raise AssertionError(f"beta_t normal form mismatch: {diff!r}")
    return chain.record(result="t(t-1)*v2^(t-2)*k0_rep - t*v2^(t-1)*b10  mod (p, v1)")


def verify_gamma_chain(nc: NamedClasses, st: BPStructure):
    """Symbolic zigzag for the v3^t family, ending in the exterior model.

    Stage A (mod (p, v1, v2^4)): d(v3^t) is divisible by v2; the quotient is
      t v3^(t-1)[t1^(p^2)] + C(t,2) v2 v3^(t-2)[t1^(2p^2)]
        + C(t,3) v2^2 v3^(t-3)[t1^(3p^2)].
    Stage B (mod (p, v1^3, v1^2 v2, v1 v2^2, v2^3)): the v1-free part of the
      differential cancels through the identities 2C(t,2) = t(t-1),
      (t-2)C(t,2) = 3C(t,3) = tC(t-1,2); divide by v1.
    Stage C (mod (p^2, p v1, p v2, v1^2, v1 v2, v2^2)): the valuation-zero
      part cancels; the p-part, reduced past the v-filtration and projected
      to the exterior model, equals c_l l + c_k k1 zeta3 mod p, with
      (c_l, c_k) = `greek.GAMMA_COEFFS` = (-t(t^2-1), -t(t-1)).
    """
    p = nc.p
    chain = _Chain("gamma_t-chain", st, audit=[])

    dx = chain.d("d(v3^t) mod (p, v1, v2^4)", BPElement.v_power(p, e3=(0, 1)),
                 ideal((1, 0, 0), (0, 1, 0), (0, 0, 4)))
    gamma_bar = chain.step("divide by v2", dx.divide_v(2))
    expected_bar = BPElement(p, {
        (((0, 0), (j - 1, 0), (-j, 1)), (t1_mon(j * p**2),)): tpoly_binom((0, 1), j)
        for j in (1, 2, 3)
    })
    if not (gamma_bar - expected_bar).is_zero():
        raise AssertionError(f"gamma-bar normal form: {gamma_bar!r}")

    Y = chain.d("d(gamma-bar) mod (p, v1^3, v1^2 v2, v1 v2^2, v2^3)", gamma_bar,
                ideal((1, 0, 0), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3)))
    v1_free = BPElement(p, {k: c for k, c in Y.terms.items() if k[0][0] == (0, 0)})
    if not v1_free.is_zero():
        raise AssertionError(f"v1-free part must cancel exactly: {v1_free!r}")
    gamma_prime = chain.step("divide by v1", Y.divide_v(1))

    R0 = chain.p_part(
        "d(gamma') mod (p^2, p v1, p v2, v1^2, v1 v2, v2^2)", gamma_prime,
        ideal((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)),
        final=ideal((1, 0, 0), (0, 1, 0), (0, 0, 1)), v3_one=True,
    )

    paudit = []
    img = project_to_exterior(R0, nc, paudit)
    c_l, c_k = map(TPoly, GAMMA_COEFFS)
    expected = _add_ext(_add_ext({}, nc["l"], c_l), nc["k1"] * nc["zeta3"], c_k)
    bad = masks_diff_mod_p(img, expected, p)
    if bad:
        raise AssertionError(f"gamma_t exterior image mismatch at {bad}")
    return chain.record(projection_audit=paudit,
                        result="-t(t^2-1)*l - t(t-1)*k1*zeta3  (exterior, mod p)")
