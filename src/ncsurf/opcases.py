"""Catalog of operator identities and their verification.

An identity between two operators is checked exactly: `ore` keeps every
coefficient as a numerator over an unreduced denominator, so the zero test of
the difference decides it, and the reported failure probability is 0.  Only
`span4_qdiff` is randomized: it compares ranks at random points mod a 61-bit
prime."""

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
import random

from sympy import GF, QQ, isprime
from sympy.polys.fields import field as frac_field

from .ore import OreAlgebra, _add, _equal, _mul, _pow
from .series import TruncSeries

P61 = (1 << 61) - 1  # prime


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
    # compare by cross-multiplication instead, which takes no gcd
    return a.numer * b.denom == b.numer * a.denom


def _inv(x, P=P61):
    return pow(x, -1, P)


def identity_check(lhs, rhs):
    """Compare two operators exactly; returns (verdict, p_fail, witness), the
    witness being the first nonzero coefficient (k, c_k) of lhs - rhs."""
    diff = lhs - rhs
    if diff.is_zero():
        return "equal", 0.0, None
    k = diff.support()[0]
    return "counterexample", 0.0, (k, diff.coeff(k))


def _combine(case, checks):
    """checks: list of (name, verdict, p_fail, witness)."""
    verdict = "equal" if all(v == "equal" for _, v, _, _ in checks) else "counterexample"
    p_fail = max((p for _, _, p, _ in checks), default=0.0)
    details = [
        "%s: %s%s" % (name, v, "" if w is None else " witness=%r" % (w,))
        for name, v, p, w in checks
    ]
    return Report(case, verdict, p_fail, details)


def _check(name, lhs, rhs):
    return (name, *identity_check(lhs, rhs))


# ---------------------------------------------------------------- cases


def _case_qweyl(prime, trials, seed):
    F, z, qs = frac_field("z, qs", QQ)
    alg = OreAlgebra(F, "qshift", step=qs)
    T, X = alg.S(1), alg.mult(z)
    return _combine("qweyl", [_check("T.z = qs.z.T", T * X, (X * T).scale(qs))])


def _case_qweyl_affine(prime, trials, seed):
    F, z, qs = frac_field("z, qs", QQ)
    alg = OreAlgebra(F, "qshift", step=qs)
    x = alg.mult(z)
    y = alg.op({0: 1 / z, 1: -1 / z})  # z^{-1}(1 - T)
    lhs = y * x
    rhs = (x * y).scale(qs) + alg.mult(1 - qs)
    return _combine("qweyl_affine", [_check("y.x = qs.x.y + (1-qs)", lhs, rhs)])


def _case_additive_pair(prime, trials, seed):
    F, z = frac_field("z", QQ)
    alg = OreAlgebra(F, "ashift", step=F.one)
    x = alg.mult(z)
    y = alg.mult(z) + alg.S(1)
    return _combine("additive_pair", [_check("[y,x] = y-x", y * x - x * y, y - x)])


def _case_mellin_pair(prime, trials, seed):
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
            _check("shift rep: [y,x] = y", y1 * x1 - x1 * y1, y1),
            _check("diff rep: [y,x] = y", y2 * x2 - x2 * y2, y2),
        ],
    )


def _case_weyl(prime, trials, seed):
    F, z = frac_field("z", QQ)
    alg = OreAlgebra(F, "diff")
    D, X = alg.S(1), alg.mult(z)
    one = alg.one()
    return _combine(
        "weyl",
        [
            _check("[D,z] = 1", D * X - X * D, one),
            _check("[z,-D] = 1", X * (-D) - (-D) * X, one),
        ],
    )


def _case_middle_convolution(prime, trials, seed):
    F, z, u = frac_field("z, u", QQ)
    alg = OreAlgebra(F, "diff")
    D = alg.S(1)
    M = alg.mult(z - u)
    checks = []
    for n in range(0, 7):
        lhs = D ** (n + 1) * M
        rhs = (M * D + alg.mult(F.one * (n + 1))) * D ** n
        checks.append(_check("n=%d" % n, lhs, rhs))
    return _combine("middle_convolution", checks)


@lru_cache(maxsize=16)
def _gf_diff_algebra(p, name):
    """d/dz over GF(p)(name) and its D, built once per prime and name."""
    alg = OreAlgebra(frac_field(name, GF(p))[0], "diff")
    return alg, alg.S(1)


def _rand_ratfunc(alg, rng, p):
    """(deg <= 3) / (deg <= 2 and nonzero), coefficients uniform in GF(p)."""
    while True:
        num = [rng.randrange(p) for _ in range(4)]
        den = [rng.randrange(p) for _ in range(3)]
        if any(den):
            return alg._quo(num, den)


def _same(x, y):
    """Compare localised values (the GF(p) cases cancel nothing)."""
    return "equal" if _equal(x, y) else "counterexample"


def _tau(A, g, p):
    """g^p + A(g) for A = D^(p-1): tau(g du) over d(u^p), localised."""
    return _add(_pow(g, p), A._apply(g))


def _tau_tilde(At, inv, jac, g, p):
    """tau(g du) over d(u^p), from u~ with D~ = inv D, At = D~^(p-1), d(u~^p) = jac d(u^p)."""
    return _mul(_tau(At, _mul(g, inv), p), jac)


def _frobenius_rhs(alg, D, f, p):
    """D^p + f^p + D^(p-1)(f), the p-th power of D + f."""
    return D ** p + alg.mult(_add(_pow(f, p), alg._chain(f, p - 1)[-1]))


def _case_frobenius_power(prime, trials, seed):
    p = 5 if prime is None else prime
    alg, D = _gf_diff_algebra(p, "z")
    rng = random.Random(seed)
    checks = []
    for i in range(max(trials, 1)):
        f = _rand_ratfunc(alg, rng, p)
        lhs = (D + alg.mult(f)) ** p
        checks.append(_check("f #%d" % i, lhs, _frobenius_rhs(alg, D, f, p)))
    return _combine("frobenius_power", checks)


def _case_tau_invariance(prime, trials, seed):
    p = 3 if prime is None else prime
    alg, D = _gf_diff_algebra(p, "u")
    rng = random.Random(seed)
    # tau(g du) in coordinate u: (g^p + D^{p-1} g) d(u^p)
    A = D ** (p - 1)
    # in coordinate u~ = u + u^2: D~ = (1+2u)^{-1} D, and d(u~^p)/d(u^p) = 1 + 2u^p
    inv = alg._quo([1], [1, 2])
    At = (alg.mult(inv) * D) ** (p - 1)
    jac = alg._quo([1] + [0] * (p - 1) + [2], [1])
    zero = alg._quo([0], [1])
    checks = []
    for i in range(max(trials, 1)):
        g = _rand_ratfunc(alg, rng, p)
        checks.append(("coordinate change #%d" % i, _same(_tau(A, g, p), _tau_tilde(At, inv, jac, g, p)), 0.0, None))
        f = _rand_ratfunc(alg, rng, p)
        checks.append(("tau(df) = d(f^p) #%d" % i, _same(alg._chain(f, p)[-1], zero), 0.0, None))
        g2 = _rand_ratfunc(alg, rng, p)
        add_rhs = _add(_tau(A, g, p), _tau(A, g2, p))
        checks.append(("additivity #%d" % i, _same(_tau(A, _add(g, g2), p), add_rhs), 0.0, None))
    return _combine("tau_invariance", checks)


def _case_additive_product(prime, trials, seed):
    p = 3 if prime is None else prime
    rng = random.Random(seed)
    checks = []
    for n in (1, 2, 3):
        for i in range(max(trials, 1)):
            one = TruncSeries.one(p, n, p)
            Bk = {k: [[rng.randrange(p) for _ in range(n)] for _ in range(n)] for k in range(1, p + 1)}
            B, prod = one + TruncSeries(p, n, p, Bk), one
            for j in range(p - 1, -1, -1):
                prod = prod * B.shift(j)
            # 1 + (B_1^p - B_1) z^{-p}, where B_1^p z^{-p} = (B_1 z^{-1})^p
            expect = one + TruncSeries(p, n, p, {1: Bk[1]}) ** p - TruncSeries(p, n, p, {p: Bk[1]})
            ok = prod == expect
            checks.append(("%dx%d #%d" % (n, n, i), "equal" if ok else "counterexample", 0.0, None))
    return _combine("additive_product", checks)


# -------- span4_qdiff: direct modular arithmetic on composition coefficients


def _m_u(x, ix, u, iu, P=P61):
    """m_u(x) = x + 1/x - u - 1/u, given ix = 1/x and iu = 1/u."""
    return (x + ix - u - iu) % P


def _dq_coeffs(z, iz, w, c, ic, v, iv, P=P61):
    """(coefficient of T^{1/2}, coefficient of T^{-1/2}) of D_q(c v^{+-1}),
    given the inverses iz, ic, iv of z, c, v and w = 1/(1/z - z)."""
    plus = (c * z + ic * iz - v - iv) * w % P
    minus = (c * iz + z * ic - v - iv) * (P - w) % P
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


# Schwartz-Zippel: a draw reports (DEG_BOUND / P)^2 with DEG_BOUND a total
# degree bound for the minors that decide its ranks.  The bound is assumed,
# not derived from those minors.
DEG_BOUND = 64


def _case_span4_qdiff(prime, trials, seed):
    rng = random.Random(seed)
    P = P61
    checks = []
    for t in range(max(trials, 1)):
        r, c, u1, u2, v1, v2 = (rng.randrange(2, P) for _ in range(6))
        zs = [rng.randrange(2, P) for _ in range(6)]
        # every inverse the draw needs, each computed once
        inv = {x: _inv(x, P) for x in (r, c, u1, u2, v1, v2, *zs)}
        ir, ic = inv[r], inv[c]
        rc, irc = r * c % P, ir * ic % P
        ws = {z: _inv((inv[z] - z) % P, P) for z in zs}
        famA = []
        famB = []
        for v in (v1, v2):
            for u in (u1, u2):
                rowA = []
                rowB = []
                for z in zs:
                    iz, w = inv[z], ws[z]
                    # A: D_q(c v^{+-1}) composed after multiplication by m_u
                    pl, mi = _dq_coeffs(z, iz, w, c, ic, v, inv[v], P)
                    rowA.append(pl * _m_u(r * z % P, ir * iz % P, u, inv[u], P) % P)
                    rowA.append(mi * _m_u(z * ir % P, r * iz % P, u, inv[u], P) % P)
                    # B: multiplication by m_u composed after D_q(r c v^{+-1})
                    pl2, mi2 = _dq_coeffs(z, iz, w, rc, irc, v, inv[v], P)
                    m = _m_u(z, iz, u, inv[u], P)
                    rowB.append(m * pl2 % P)
                    rowB.append(m * mi2 % P)
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


def _case_lowering_degree(prime, trials, seed):
    F, z, r = frac_field("z, r", QQ)
    qs = OreAlgebra(F, "qshift", step=r)
    checks = []

    def lower(g):
        # sigma^(+-1) substitutes z -> r z and z -> z / r
        return (qs.sigma(g, 1) - qs.sigma(g, -1)) / (1 / z - z)

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


def check_args(case_id, prime=None, trials=2):
    """Raise KeyError for an unknown case and ValueError for a prime that is
    not a prime number or a negative trial count."""
    if case_id not in CASES:
        raise KeyError(
            "unknown case %r (have: %s)" % (case_id, ", ".join(sorted(CASES)))
        )
    if prime is not None and not (isinstance(prime, int) and isprime(prime)):
        raise ValueError("prime must be a prime number, not %r" % (prime,))
    if not isinstance(trials, int) or trials < 0:
        raise ValueError("trials must be a nonnegative integer, not %r" % (trials,))


def run_case(case_id, prime=None, trials=2, seed=0):
    check_args(case_id, prime, trials)
    return CASES[case_id](prime, trials, seed)
