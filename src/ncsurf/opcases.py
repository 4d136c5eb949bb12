"""Catalog of operator identities and their verification.

Every verdict is exact.  An operator identity is decided by the zero test of
the difference (`ore` keeps every coefficient as a numerator over an
unreduced denominator), and `span4_qdiff` by ranks over Q(r, c), eliminating
on ints that each pack one entry of Z[r, c] (see `_rank`).  Only the
`SEEDED` cases read `prime`, and draw `trials` random inputs from `seed`.
Every case runs on `ore`'s native polynomials, built from variable names,
and on ints: none imports sympy, which `ore` reads only when a FracElement
crosses its boundary (here, only in a counterexample's witness)."""

from functools import lru_cache, reduce
import random

from .lattice import InvariantViolation, _Record
from .ore import OreAlgebra, _add, _equal, _Loc, _mul, _poly, _pow, isprime
from .series import TruncSeries

SEEDED = ("frobenius_power", "tau_invariance", "additive_product")


class Report(_Record, fields=("case", "verdict", "details")):
    def __init__(self, case, verdict, details):  # verdict: 'equal' or 'counterexample'
        self.case, self.verdict, self.details = case, verdict, details

    @property
    def ok(self):
        return self.verdict == "equal"


def _verdict(ok):
    return "equal" if ok else "counterexample"


def identity_check(lhs, rhs):
    """Compare two operators exactly; returns (verdict, witness), the witness
    being the first nonzero coefficient (k, c_k) of lhs - rhs."""
    diff = lhs - rhs
    if diff.is_zero():
        return "equal", None
    k = diff.support()[0]
    return "counterexample", (k, diff.coeff(k))


def _check(name, lhs, rhs):
    verdict, witness = identity_check(lhs, rhs)
    return name, verdict == "equal", witness


# ---------------------------------------------------------------- cases
# Each case returns its checks, a list of (name, ok, witness).


def _case_qweyl(prime, trials, seed):
    alg = OreAlgebra.over("z, qs", "qshift", step="qs")
    z, qs = alg.gens
    T, X = alg.S(1), alg.mult(z)
    return [_check("T.z = qs.z.T", T * X, (X * T).scale(qs))]


def _case_qweyl_affine(prime, trials, seed):
    alg = OreAlgebra.over("z, qs", "qshift", step="qs")
    z, qs = alg.gens
    x = alg.mult(z)
    y = alg.op({0: alg._quo([1], [0, 1]), 1: alg._quo([-1], [0, 1])})  # z^{-1}(1 - T)
    lhs = y * x
    rhs = (x * y).scale(qs) + alg.one() - alg.mult(qs)
    return [_check("y.x = qs.x.y + (1-qs)", lhs, rhs)]


def _case_additive_pair(prime, trials, seed):
    alg = OreAlgebra.over("z", "ashift", step=1)
    (z,) = alg.gens
    x = alg.mult(z)
    y = alg.mult(z) + alg.S(1)
    return [_check("[y,x] = y-x", y * x - x * y, y - x)]


def _case_mellin_pair(prime, trials, seed):
    sh = OreAlgebra.over("z", "ashift", step=1)
    x1, y1 = sh.mult(sh.gens[0]), sh.S(1)
    df = OreAlgebra.over("t")
    (t,) = df.gens
    x2 = (df.mult(t) * df.S(1)).scale(-1)  # -t D
    y2 = df.mult(t)
    return [
        _check("shift rep: [y,x] = y", y1 * x1 - x1 * y1, y1),
        _check("diff rep: [y,x] = y", y2 * x2 - x2 * y2, y2),
    ]


def _case_weyl(prime, trials, seed):
    alg = OreAlgebra.over("z")
    (z,) = alg.gens
    D, X = alg.S(1), alg.mult(z)
    one = alg.one()
    return [
        _check("[D,z] = 1", D * X - X * D, one),
        _check("[z,-D] = 1", X * (-D) - (-D) * X, one),
    ]


def _case_middle_convolution(prime, trials, seed):
    alg = OreAlgebra.over("z, u")
    z, u = alg.gens
    D = alg.S(1)
    M = alg.mult(z - u)
    checks = []
    for n in range(0, 7):
        lhs = D ** (n + 1) * M
        rhs = (M * D + alg.mult(n + 1)) * D ** n
        checks.append(_check("n=%d" % n, lhs, rhs))
    return checks


@lru_cache(maxsize=16)
def _gf_diff_algebra(p, name):
    """d/dz over GF(p)(name) and its D, built once per prime and name."""
    alg = OreAlgebra.over(name, p=p)
    return alg, alg.S(1)


def _rand_ratfunc(alg, rng, p):
    """(deg <= 3) / (deg <= 2 and nonzero), coefficients uniform in GF(p)."""
    while True:
        num = [rng.randrange(p) for _ in range(4)]
        den = [rng.randrange(p) for _ in range(3)]
        if any(den):
            return alg._quo(num, den)


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
    for i in range(trials):
        f = _rand_ratfunc(alg, rng, p)
        lhs = (D + alg.mult(f)) ** p
        checks.append(_check("f #%d" % i, lhs, _frobenius_rhs(alg, D, f, p)))
    return checks


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
    for i in range(trials):
        g = _rand_ratfunc(alg, rng, p)
        checks.append(("coordinate change #%d" % i, _equal(_tau(A, g, p), _tau_tilde(At, inv, jac, g, p)), None))
        f = _rand_ratfunc(alg, rng, p)
        checks.append(("tau(df) = d(f^p) #%d" % i, _equal(alg._chain(f, p)[-1], zero), None))
        g2 = _rand_ratfunc(alg, rng, p)
        add_rhs = _add(_tau(A, g, p), _tau(A, g2, p))
        checks.append(("additivity #%d" % i, _equal(_tau(A, _add(g, g2), p), add_rhs), None))
    return checks


def _case_additive_product(prime, trials, seed):
    p = 3 if prime is None else prime
    rng = random.Random(seed)
    checks = []
    for n in (1, 2, 3):
        for i in range(trials):
            one = TruncSeries.one(p, n, p)
            Bk = {k: [[rng.randrange(p) for _ in range(n)] for _ in range(n)] for k in range(1, p + 1)}
            B, prod = one + TruncSeries(p, n, p, Bk), one
            for j in range(p - 1, -1, -1):
                prod = prod * B.shift(j)
            # 1 + (B_1^p - B_1) z^{-p}, where B_1^p z^{-p} = (B_1 z^{-1})^p
            expect = one + TruncSeries(p, n, p, {1: Bk[1]}) ** p - TruncSeries(p, n, p, {p: Bk[1]})
            checks.append(("%dx%d #%d" % (n, n, i), prod == expect, None))
    return checks


# ---- span4_qdiff: ranks over Z[r, c], each entry packed into one int

_B, _K = 1 << 25, 17  # r = B, c = B^K (see `_rank`)


def _m(a, b, W):
    """a b m_W(a/b) = a^2 + b^2 - W a b, where m_W(x) = x + 1/x - W."""
    return a ** 2 + b ** 2 - W * a * b


def _span4_rows(rc=None):
    """[{(a, b): X_ab}, {(a, b): Y_ab}] (see `_case_span4_qdiff`) at r = B, c = B^K;
    column 5 h + k holds the z^k coefficient of the T^(1/2) (h = 0) or T^(-1/2)
    (h = 1) half.  rc (default r c) is the parameter of B's D_q."""
    one, z, U, V = (_poly({e: 1}, 3) for e in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    r, c = _B, _B ** _K
    rc = r * c if rc is None else rc
    A = (_m(z * c, one, V) * _m(z * r, one, U), -(_m(one * c, z, V) * _m(z, one * r, U)))
    B = (_m(z, one, U) * _m(z * rc, one, V), -(_m(z, one, U) * _m(one * rc, z, V)))
    out = []
    for family in (A, B):
        rows = {}
        for half, poly in enumerate(family):
            for (k, a, b), coeff in poly.items():
                rows.setdefault((a, b), {})[5 * half + k] = coeff
        out.append(rows)
    return out


def _rank(rows):
    """Rank over the fraction field of a domain of rows {column: nonzero entry},
    by fraction-free elimination (Bareiss 1968): each step replaces every row
    by (p row - q pivot row) / p', p' the previous pivot.  The entries are
    minors of the input (Sylvester's identity), so a division that is not
    exact raises InvariantViolation.  `span4_qdiff` passes f(B, B^K) for each
    entry f(r, c), a ring map, so divisions stay exact; its <= 8 rows have
    entries of degree <= 2 in r and in c and 1-norm <= 2, so a minor of size s
    has degree <= 2s < K in each and coefficients <= s! 2^s < B/2: distinct
    minors have distinct balanced base-B digits, and zero tests agree."""
    rows, rank, prev = [dict(row) for row in rows if row], 0, 1
    while rows:
        pivot = rows.pop()
        col, p = pivot.popitem()
        reduced = []
        for row in rows:
            q = row.pop(col, 0)
            new = {k: p * x for k, x in row.items()}
            for k, y in pivot.items() if q else ():
                new[k] = new.get(k, 0) - q * y
            new = {k: divmod(x, prev) for k, x in new.items() if x}
            if any(rem for _, rem in new.values()):
                raise InvariantViolation("inexact division in fraction-free elimination")
            if new:
                reduced.append({k: x for k, (x, _) in new.items()})
        rows, rank, prev = reduced, rank + 1, p
    return rank


def _case_span4_qdiff(prime, trials, seed):
    """A_{u,v} = D_q(c v^(+-1)) m_u and B_{u,v} = m_u D_q(r c v^(+-1)) span
    the same 4-dimensional space over Q(r, c).

    m_u multiplies by z + 1/z - u - 1/u, T^(1/2) f(z) = f(r z) T^(1/2), and
    D_q(x v^(+-1)) = (m_v(x z) T^(1/2) - m_v(x/z) T^(-1/2)) / (1/z - z).
    Multiplying every operator by r c z^2 (1/z - z) is injective and
    Q(r, c)-linear, so no rank changes, and makes each half of A_{u,v} and
    B_{u,v} a polynomial of degree <= 4 in z over Z[r, c][U, V], U = u + 1/u,
    V = v + 1/v, of degree <= 1 in U and in V.  So A_{U,V} = X_00 + U X_10 +
    V X_01 + U V X_11 with rows X_ab of 10 entries in Z[r, c], and B_{U,V}
    likewise with Y_ab.  Four operators at U_1 != U_2 and V_1 != V_2 and the
    four rows differ by a change of basis of determinant ((U_1 - U_2)(V_1 -
    V_2))^2, so the claim is rank X = rank Y = rank(X u Y) = 4, which `_rank`
    decides exactly on the packed entries."""
    X, Y = (list(rows.values()) for rows in _span4_rows())
    ranks = ra, rb, rab = _rank(X), _rank(Y), _rank(X + Y)
    checks = [
        ("dim span A = 4", ra == 4),
        ("dim span B = 4", rb == 4),
        ("span B in span A", rab == ra),
        ("span A in span B", rab == rb),
    ]
    return [(name, ok, None if ok else ranks) for name, ok in checks]


def _case_lowering_degree(prime, trials, seed):
    qs = OreAlgebra.over("z, r", "qshift", step="r")
    z, r = qs.gens
    inv = qs._quo([0, 1], [1, 0, -1])  # 1 / (1/z - z)

    def power(g, e):
        """g^e, localised, for a generator g and any int e."""
        return _Loc(g ** e, {}) if e >= 0 else _Loc(qs._one, {g: -e})

    def lower(g):
        # sigma^(+-1) substitutes z -> r z and z -> z / r
        return _add(_mul(qs._sigma(g, 1), inv), _mul(qs._sigma(g, -1), inv, -1))

    checks = [("L.1 = 0", _equal(lower(qs._loc(1)), qs._loc(0)), None)]
    for n in range(1, 7):
        got = lower(_add(power(z, n), power(z, -n)))
        coef = _add(power(r, -n), _Loc(-r ** n, {}))  # -(r^n - 1/r^n)
        expect = _mul(coef, reduce(_add, (power(z, n - 1 - 2 * k) for k in range(n))))
        checks.append(("n=%d" % n, _equal(got, expect), None))
    return checks


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
    not a prime number or a trial count that is not a positive int."""
    if case_id not in CASES:
        raise KeyError(
            "unknown case %r (have: %s)" % (case_id, ", ".join(sorted(CASES)))
        )
    if prime is not None and not (isinstance(prime, int) and isprime(prime)):
        raise ValueError("prime must be a prime number, not %r" % (prime,))
    if type(trials) is not int or trials < 1:
        raise ValueError("trials must be a positive integer, not %r" % (trials,))


def run_case(case_id, prime=None, trials=2, seed=0):
    check_args(case_id, prime, trials)
    checks = CASES[case_id](prime, trials, seed)
    details = [
        "%s: %s%s" % (name, _verdict(ok), "" if w is None else " witness=%r" % (w,))
        for name, ok, w in checks
    ]
    return Report(case_id, _verdict(all(ok for _, ok, _ in checks)), details)
