"""Catalog of operator identities with deterministic or randomized
verification.

Identity checking over QQ coefficient fields is randomized (Schwartz-Zippel
evaluation over a 61-bit prime field, failure probability reported); over
prime fields, and in symbolic mode, the comparison is exact."""

from dataclasses import dataclass, field as dc_field
import random

from sympy import GF, QQ
from sympy.polys.fields import field as frac_field

from .ore import OreAlgebra, subs_gen
from .series import TruncSeries, _madd, _mmul, _mscale

P61 = (1 << 61) - 1  # prime
DEG_BOUND = 64  # conservative total-degree bound for the catalog's coefficients


@dataclass
class Report:
    case: str
    verdict: str  # 'equal' or 'counterexample'
    p_fail: float
    details: list = dc_field(default_factory=list)

    @property
    def ok(self):
        return self.verdict == "equal"

    @property
    def p_fail_str(self):
        if self.p_fail == 0.0:
            return "0"
        return "<2^-40" if self.p_fail < 2 ** -40 else "%g" % self.p_fail

    def summary(self):
        p = self.p_fail_str
        return "%s  p_fail%s" % (self.verdict, p if p.startswith("<") else "=" + p)


def _fr_eq(a, b):
    # FracElement equality is structural (unit factors are not cancelled);
    # compare by subtraction instead
    return not (a - b)


def _coeff_mod(c, P):
    num = getattr(c, "numerator", None)
    if num is None:
        return int(c) % P
    return int(c.numerator) % P * pow(int(c.denominator) % P, P - 2, P) % P


def _eval_poly_mod(poly, vals, P):
    total = 0
    for monom, coeff in poly.terms():
        t = _coeff_mod(coeff, P)
        for v, k in zip(vals, monom):
            if k:
                t = t * pow(v, k, P) % P
        total = (total + t) % P
    return total


def _eval_frac_mod(g, vals, P):
    """Value of a FracElement at integer points mod P, or None when the
    denominator vanishes."""
    den = _eval_poly_mod(g.denom, vals, P)
    if den == 0:
        return None
    num = _eval_poly_mod(g.numer, vals, P)
    return num * pow(den, P - 2, P) % P


def identity_check(lhs, rhs, trials=2, seed=0, symbolic=False):
    """Compare two operators; returns (verdict, p_fail, witness)."""
    diff = lhs - rhs
    F = lhs.alg.F
    exact = symbolic or not F.domain.is_QQ
    if exact:
        if diff.is_zero():
            # only advertise an exact verdict when asked for one; by default
            # report the same (true, weaker) randomized-style bound
            p = 0.0 if symbolic else (DEG_BOUND / P61) ** max(trials, 1)
            return "equal", p, None
        k = diff.support()[0]
        return "counterexample", 0.0, (k, diff.coeff(k))
    rng = random.Random(seed)
    ngens = len(F.gens)
    for k in diff.support():
        c = diff.coeff(k)
        for _ in range(trials):
            for _retry in range(20):
                vals = [rng.randrange(2, P61) for _ in range(ngens)]
                v = _eval_frac_mod(c, vals, P61)
                if v is not None:
                    break
            else:
                raise RuntimeError("could not find a nondegenerate evaluation point")
            if v != 0:
                return "counterexample", 0.0, (k, vals)
    return "equal", (DEG_BOUND / P61) ** trials, None


def _combine(case, checks):
    """checks: list of (name, verdict, p_fail, witness)."""
    verdict = "equal" if all(v == "equal" for _, v, _, _ in checks) else "counterexample"
    p_fail = max((p for _, _, p, _ in checks), default=0.0)
    details = [
        "%s: %s%s" % (name, v, "" if w is None else " witness=%r" % (w,))
        for name, v, p, w in checks
    ]
    return Report(case, verdict, p_fail, details)


def _check(name, lhs, rhs, trials, seed, symbolic):
    v, p, w = identity_check(lhs, rhs, trials=trials, seed=seed, symbolic=symbolic)
    return (name, v, p, w)


# ---------------------------------------------------------------- cases


def _case_qweyl(prime, trials, seed, symbolic):
    F, z, qs = frac_field("z, qs", QQ)
    alg = OreAlgebra(F, "qshift", step=qs)
    T, X = alg.S(1), alg.mult(z)
    return _combine(
        "qweyl", [_check("T.z = qs.z.T", T * X, (X * T).scale(qs), trials, seed, symbolic)]
    )


def _case_qweyl_affine(prime, trials, seed, symbolic):
    F, z, qs = frac_field("z, qs", QQ)
    alg = OreAlgebra(F, "qshift", step=qs)
    x = alg.mult(z)
    y = alg.op({0: 1 / z, 1: -1 / z})  # z^{-1}(1 - T)
    lhs = y * x
    rhs = (x * y).scale(qs) + alg.mult(1 - qs)
    return _combine(
        "qweyl_affine",
        [_check("y.x = qs.x.y + (1-qs)", lhs, rhs, trials, seed, symbolic)],
    )


def _case_additive_pair(prime, trials, seed, symbolic):
    F, z = frac_field("z", QQ)
    alg = OreAlgebra(F, "ashift", step=F.one)
    x = alg.mult(z)
    y = alg.mult(z) + alg.S(1)
    return _combine(
        "additive_pair",
        [_check("[y,x] = y-x", y * x - x * y, y - x, trials, seed, symbolic)],
    )


def _case_mellin_pair(prime, trials, seed, symbolic):
    F, z = frac_field("z", QQ)
    sh = OreAlgebra(F, "ashift", step=F.one)
    x1, y1 = sh.mult(z), sh.S(1)
    Ft, t = frac_field("t", QQ)
    df = OreAlgebra(Ft, "diff")
    x2 = (df.mult(t) * df.S(1)).scale(-Ft.one)  # -t D
    y2 = df.mult(t)
    return _combine(
        "mellin_pair",
        [
            _check("shift rep: [y,x] = y", y1 * x1 - x1 * y1, y1, trials, seed, symbolic),
            _check("diff rep: [y,x] = y", y2 * x2 - x2 * y2, y2, trials, seed + 1, symbolic),
        ],
    )


def _case_weyl(prime, trials, seed, symbolic):
    F, z = frac_field("z", QQ)
    alg = OreAlgebra(F, "diff")
    D, X = alg.S(1), alg.mult(z)
    one = alg.one()
    return _combine(
        "weyl",
        [
            _check("[D,z] = 1", D * X - X * D, one, trials, seed, symbolic),
            _check("[z,-D] = 1", X * (-D) - (-D) * X, one, trials, seed + 1, symbolic),
        ],
    )


def _case_middle_convolution(prime, trials, seed, symbolic):
    F, z, u = frac_field("z, u", QQ)
    alg = OreAlgebra(F, "diff")
    D = alg.S(1)
    M = alg.mult(z - u)
    checks = []
    for n in range(0, 7):
        lhs = D ** (n + 1) * M
        rhs = (M * D + alg.mult(F.one * (n + 1))) * D ** n
        checks.append(_check("n=%d" % n, lhs, rhs, trials, seed + n, symbolic))
    return _combine("middle_convolution", checks)


def _rand_ratfunc(F, z, rng, p):
    while True:
        num = sum(F.one * rng.randrange(p) * z ** k for k in range(4))
        den = sum(F.one * rng.randrange(p) * z ** k for k in range(3))
        if den:
            return num / den


def _case_frobenius_power(prime, trials, seed, symbolic):
    p = prime or 5
    F, z = frac_field("z", GF(p))
    alg = OreAlgebra(F, "diff")
    D = alg.S(1)
    rng = random.Random(seed)
    checks = []
    for i in range(max(trials, 1)):
        f = _rand_ratfunc(F, z, rng, p)
        lhs = (D + alg.mult(f)) ** p
        rhs = D ** p + alg.mult(f ** p + alg.delta(f, p - 1))
        checks.append(_check("f #%d" % i, lhs, rhs, trials, seed, symbolic))
    return _combine("frobenius_power", checks)


def _case_tau_invariance(prime, trials, seed, symbolic):
    p = prime or 3
    F, u = frac_field("u", GF(p))
    alg = OreAlgebra(F, "diff")
    D = alg.S(1)
    rng = random.Random(seed)
    # tau(g du) in coordinate u: (g^p + D^{p-1} g) d(u^p)
    A = D ** (p - 1)
    # in coordinate u~ = u + u^2: D~ = (1+2u)^{-1} D, and d(u~^p)/d(u^p) = 1 + 2u^p
    At = (alg.mult(1 / (1 + 2 * u)) * D) ** (p - 1)
    checks = []
    for i in range(max(trials, 1)):
        g = _rand_ratfunc(F, u, rng, p)
        tau_u = g ** p + A.apply(g)
        h = g / (1 + 2 * u)
        tau_ut = (h ** p + At.apply(h)) * (1 + 2 * u ** p)
        checks.append(("coordinate change #%d" % i, "equal" if _fr_eq(tau_u, tau_ut) else "counterexample", 0.0, None))
        f = _rand_ratfunc(F, u, rng, p)
        exact_df = alg.delta(alg.delta(f), p - 1) if p > 1 else F.zero
        checks.append(
            ("tau(df) = d(f^p) #%d" % i, "equal" if not exact_df else "counterexample", 0.0, None)
        )
        g2 = _rand_ratfunc(F, u, rng, p)
        add_lhs = (g + g2) ** p + A.apply(g + g2)
        add_rhs = g ** p + A.apply(g) + g2 ** p + A.apply(g2)
        checks.append(("additivity #%d" % i, "equal" if _fr_eq(add_lhs, add_rhs) else "counterexample", 0.0, None))
    return _combine("tau_invariance", checks)


def _case_additive_product(prime, trials, seed, symbolic):
    p = prime or 3
    rng = random.Random(seed)
    checks = []
    for n in (1, 2, 3):
        for i in range(max(trials, 1)):
            coeffs = {0: tuple(tuple(1 if a == b else 0 for b in range(n)) for a in range(n))}
            for k in range(1, p + 1):
                coeffs[k] = tuple(
                    tuple(rng.randrange(p) for _ in range(n)) for _ in range(n)
                )
            B = TruncSeries(p, n, p, coeffs)
            prod = TruncSeries.one(p, n, p)
            for j in range(p - 1, -1, -1):
                prod = prod * B.shift(j)
            B0 = coeffs[1]
            Bp = B0
            for _ in range(p - 1):
                Bp = _mmul(Bp, B0, p)
            expect = TruncSeries(
                p, n, p, {0: coeffs[0], p: _madd(Bp, _mscale(-1, B0, p), p)}
            )
            ok = prod == expect
            checks.append(("%dx%d #%d" % (n, n, i), "equal" if ok else "counterexample", 0.0, None))
    return _combine("additive_product", checks)


# -------- span4_qdiff: direct modular arithmetic on composition coefficients


def _inv(x, P=P61):
    return pow(x, P - 2, P)


def _m_u(z, u, P=P61):
    return (z + _inv(z) - u - _inv(u)) % P


def _dq_coeffs(z, c, v, P=P61):
    """(coefficient of T^{1/2}, coefficient of T^{-1/2}) of D_q(c v^{+-1})."""
    plus = (c * z + _inv(c * z % P) - v - _inv(v)) % P * _inv((_inv(z) - z) % P) % P
    minus = (c * _inv(z) + z * _inv(c) - v - _inv(v)) % P * _inv((z - _inv(z)) % P) % P
    return plus, minus


def _rank_mod(rows, P=P61):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    r = 0
    while r < len(rows) and col < ncols:
        piv = next((i for i in range(r, len(rows)) if rows[i][col] % P), None)
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = _inv(rows[r][col] % P, P)
        rows[r] = [a * inv % P for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] % P:
                fac = rows[i][col] % P
                rows[i] = [(a - fac * b) % P for a, b in zip(rows[i], rows[r])]
        r += 1
        col += 1
        rank += 1
    return rank


def _case_span4_qdiff(prime, trials, seed, symbolic):
    rng = random.Random(seed)
    P = P61
    checks = []
    for t in range(max(trials, 1)):
        r, c, u1, u2, v1, v2 = (rng.randrange(2, P) for _ in range(6))
        zs = [rng.randrange(2, P) for _ in range(6)]
        famA = []
        famB = []
        for v in (v1, v2):
            for u in (u1, u2):
                rowA = []
                rowB = []
                for z in zs:
                    # A: D_q(c v^{+-1}) composed after multiplication by m_u
                    pl, mi = _dq_coeffs(z, c, v, P)
                    rowA.append(pl * _m_u(r * z % P, u, P) % P)
                    rowA.append(mi * _m_u(z * _inv(r, P) % P, u, P) % P)
                    # B: multiplication by m_u composed after D_q(r c v^{+-1})
                    pl2, mi2 = _dq_coeffs(z, r * c % P, v, P)
                    rowB.append(_m_u(z, u, P) * pl2 % P)
                    rowB.append(_m_u(z, u, P) * mi2 % P)
                famA.append(rowA)
                famB.append(rowB)
        ra = _rank_mod(famA, P)
        rb = _rank_mod(famB, P)
        rab = _rank_mod(famA + famB, P)
        ok = ra == rb == rab == 4
        checks.append(
            (
                "draw #%d" % t,
                "equal" if ok else "counterexample",
                (DEG_BOUND / P) ** 2,
                None if ok else (ra, rb, rab),
            )
        )
    return _combine("span4_qdiff", checks)


def _case_lowering_degree(prime, trials, seed, symbolic):
    F, z, r = frac_field("z, r", QQ)
    checks = []

    def lower(g):
        up = subs_gen(F, g, 0, r * z)
        dn = subs_gen(F, g, 0, z / r)
        return (up - dn) / (1 / z - z)

    ok0 = _fr_eq(lower(F.one), F.zero)
    checks.append(("L.1 = 0", "equal" if ok0 else "counterexample", 0.0, None))
    for n in range(1, 7):
        got = lower(z ** n + 1 / z ** n)
        expect = -(r ** n - 1 / r ** n) * sum(
            z ** (n - 1 - 2 * k) if n - 1 - 2 * k >= 0 else 1 / z ** (2 * k + 1 - n)
            for k in range(n)
        )
        ok = _fr_eq(got, expect)
        checks.append(("n=%d" % n, "equal" if ok else "counterexample", 0.0, None))
    return _combine("lowering_degree", checks)


CASES = {
    "qweyl": _case_qweyl,
    "qweyl_affine": _case_qweyl_affine,
    "additive_pair": _case_additive_pair,
    "mellin_pair": _case_mellin_pair,
    "weyl": _case_weyl,
    "middle_convolution": _case_middle_convolution,
    "frobenius_power": _case_frobenius_power,
    "tau_invariance": _case_tau_invariance,
    "additive_product": _case_additive_product,
    "span4_qdiff": _case_span4_qdiff,
    "lowering_degree": _case_lowering_degree,
}


def run_case(case_id, prime=None, trials=2, seed=0, symbolic=False):
    if case_id not in CASES:
        raise KeyError(
            "unknown case %r (have: %s)" % (case_id, ", ".join(sorted(CASES)))
        )
    return CASES[case_id](prime, trials, seed, symbolic)
