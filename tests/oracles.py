"""Plain forms of computations the package does another way, for the tests
to check it against.

`SectorEngine.dims_table` builds one tower per orbit of the index shift
sigma: g_{i,j} -> g_{i,j+1} and copies its cohomology to the orbit's other
sectors, and `euler_report` is a fold of its rows.  `dims_rows` and
`euler_rows` are the loop they replace, one tower per sector.
`shift_premise_failures` checks, key by key, that sigma is an isomorphism
of the cobar complex that maps sector (t, w) onto sector
(p t mod 2(p^3 - 1), w), which is what the copying rests on.
"""


def dims_rows(engine, max_s=None):
    """`engine.dims_table(max_s)`, built from every sector's own tower."""
    rows = []
    for (t, w) in engine.sector_keys():
        tower = engine.tower(t, w)
        for s in tower.degrees:
            if max_s is None or s <= max_s:
                rows.append((s, t, w, tower.dim(s), tower.dim_h(s)))
    rows.sort()
    return rows


def euler_rows(engine):
    """`engine.euler_report()`, built from every sector's own tower."""
    out = []
    for (t, w) in engine.sector_keys():
        tower = engine.tower(t, w)
        chi_c = sum((-1) ** s * tower.dim(s) for s in tower.degrees)
        chi_h = sum((-1) ** s * tower.dim_h(s) for s in tower.degrees)
        out.append({"t": t, "w": w, "chi_cochains": chi_c, "chi_cohomology": chi_h,
                    "equal": chi_c == chi_h})
    return out


def shift_code(hopf, m):
    """sigma of the monomial code m: the exponent of g_{i,j} moves to
    g_{i,j+1}, so each row's three base-p digits rotate by one place."""
    e = hopf.digits(m)
    rotated = [e[3 * row + (j - 1) % 3] for row in range(3) for j in range(3)]
    return sum(x * q for x, q in zip(rotated, hopf.place))


def shift_premise_failures(engine, max_s):
    """The failures of the shift premise on the cobar engine's sectors in
    degrees s <= max_s: sigma must map the s-basis of sector (t, w) onto
    that of (p t, w), and d(sigma key) = sigma d(key) mod p on every key.
    Returns (what, s, t, w, key) per failure; key is None for a basis."""
    hopf, p = engine.alg, engine.p

    def sigma(key):
        return tuple(shift_code(hopf, m) for m in key)

    def d_mod_p(key):
        return {k: c % p for k, c in hopf.d_tensor(key).items() if c % p}

    failures = []
    for t, w in engine.sector_keys():
        image = engine._sector(t * p % hopf.tmod, w)
        for s in range(max_s + 1):
            basis = engine._sector(t, w)[s]
            if sorted(map(sigma, basis)) != image[s]:
                failures.append(("basis", s, t, w, None))
            for key in basis:
                if d_mod_p(sigma(key)) != {sigma(k): c for k, c in d_mod_p(key).items()}:
                    failures.append(("d", s, t, w, key))
    return failures
