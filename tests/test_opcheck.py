import random
from math import comb, factorial

import pytest
from sympy import GF, QQ, ZZ, Matrix
from sympy.polys.rings import ring
from sympy.polys.fields import field as frac_field

from ncsurf import cli, opcases
from ncsurf.opcases import CASES, identity_check, run_case
from ncsurf.ore import OreAlgebra
from ncsurf.series import TruncSeries


def test_all_catalog_cases_pass():
    for case in CASES:
        rep = run_case(case, trials=2, seed=7)
        assert rep.ok, (case, rep.details)
        assert rep.case == case


def test_ore_mul_examples():
    # differential: D.z = z.D + 1
    F, z = frac_field("z", QQ)
    alg = OreAlgebra(F, "diff")
    D, X = alg.S(1), alg.mult(z)
    assert D * X == alg.op({1: z, 0: 1})
    # q-shift: T.z = qs.z.T
    F2, z2, qs = frac_field("z, qs", QQ)
    alg2 = OreAlgebra(F2, "qshift", step=qs)
    assert alg2.S(1) * alg2.mult(z2) == alg2.op({1: qs * z2})
    # additive shift: T.z = (z+1).T
    F3, z3 = frac_field("z", QQ)
    alg3 = OreAlgebra(F3, "ashift", step=F3.one)
    assert alg3.S(1) * alg3.mult(z3) == alg3.op({1: z3 + 1})


def _rand_op(alg, z, rng, kmax=3):
    terms = {}
    for k in range(kmax):
        c = sum(rng.randint(-3, 3) * z ** j for j in range(3))
        if c:
            terms[k] = c
    return alg.op(terms) if terms else alg.one()


def test_ore_mul_associative():
    rng = random.Random(5)
    F, z = frac_field("z", QQ)
    for kind, step in (("diff", None), ("ashift", F.one)):
        alg = OreAlgebra(F, kind, step=step)
        for _ in range(8):
            A, B, C = (_rand_op(alg, z, rng) for _ in range(3))
            assert (A * B) * C == A * (B * C)


def test_lead_coefficient_multiplicative():
    rng = random.Random(6)
    F, z, qs = frac_field("z, qs", QQ)
    alg = OreAlgebra(F, "qshift", step=qs)
    for _ in range(8):
        A, B = _rand_op(alg, z, rng), _rand_op(alg, z, rng)
        prod = A * B
        assert prod.degree() == A.degree() + B.degree()
        want = A.lead() * alg.sigma(B.lead(), A.degree())
        assert not (prod.lead() - want)


def test_catalog_is_equal_at_every_trials_count():
    # every verdict is exact: each case answers equal, with one detail line per
    # check (four for span4_qdiff, whatever trials is)
    for case in CASES:
        for trials in (1, 3):
            rep = run_case(case, trials=trials, seed=7)
            assert rep.verdict == "equal", (case, trials, rep.details)
            assert all(line.endswith(": equal") for line in rep.details), rep.details
            if case == "span4_qdiff":
                assert len(rep.details) == 4


def test_identity_check_verdicts():
    F, z = frac_field("z", QQ)
    alg = OreAlgebra(F, "diff")
    D, X = alg.S(1), alg.mult(z)
    v, w = identity_check(D * X, alg.op({1: z, 0: 1}))
    assert (v, w) == ("equal", None)
    # D.z vs z.D differ by the constant term 1
    v, w = identity_check(D * X, X * D)
    assert v == "counterexample"
    assert w[0] == 0 and w[1] == 1  # the witness is the S^0 coefficient
    # additive: [T, z] = T
    F2, z2 = frac_field("z", QQ)
    alg2 = OreAlgebra(F2, "ashift", step=F2.one)
    T, X2 = alg2.S(1), alg2.mult(z2)
    v, _ = identity_check(T * X2 - X2 * T, T)
    assert v == "equal"


def test_identity_check_symbolic_is_exact():
    # every identity check is symbolic: an equal pair is certain
    F, z = frac_field("z", QQ)
    alg = OreAlgebra(F, "diff")
    D, X = alg.S(1), alg.mult(z)
    assert identity_check(D * X, alg.op({1: z, 0: 1})) == ("equal", None)


@pytest.mark.parametrize("n", range(4))
def test_mutated_middle_convolution_fails(n):
    # D^(n+1).(z-u) = ((z-u).D + n+1).D^n, with n in place of n+1
    F, z, u = frac_field("z, u", QQ)
    alg = OreAlgebra(F, "diff")
    D, M = alg.S(1), alg.mult(z - u)
    rhs = (M * D + alg.mult(F.one * n)) * D ** n
    v, w = identity_check(D ** (n + 1) * M, rhs)
    assert v == "counterexample"
    k, c = w
    assert k == n and c == 1


def test_report_summary_format(capsys):
    # the plain summary of `opcheck run` is the verdict alone, and each detail
    # line is "name: verdict"
    rep = run_case("frobenius_power", trials=2, seed=3)
    assert (rep.verdict, rep.details) == ("equal", ["f #0: equal", "f #1: equal"])
    rep = run_case("span4_qdiff", trials=2, seed=3)
    assert rep.verdict == "equal" and rep.details == SPAN4_EQUAL
    assert cli.main(["opcheck", "run", "span4_qdiff"]) == 0
    assert capsys.readouterr().out == "equal\n"


def test_frobenius_power_primes():
    for p in (2, 3, 5, 7):
        rep = run_case("frobenius_power", prime=p, trials=3, seed=p)
        assert rep.ok, rep.details


def test_unknown_case():
    with pytest.raises(KeyError):
        run_case("no_such_case")


def test_truncseries_shift_expansion():
    # z^{-1} at z+1 is z^{-1} - z^{-2} + z^{-3} (mod z^{-4})
    p = 5
    B = TruncSeries(p, 1, 3, {1: ((1,),)})
    got = B.shift(1)
    assert got.coeff(1) == ((1,),)
    assert got.coeff(2) == (((-1) % p,),)
    assert got.coeff(3) == ((1,),)


def test_truncseries_product_lemma():
    # B(z+p-1)...B(z) = 1 + (B0^p - B0) z^{-p} + o(z^{-p})
    p = 3
    # scalar: b^3 - b = 0 mod 3, so the product is 1 mod z^{-4}
    for b in range(p):
        B = TruncSeries(p, 1, p, {0: ((1,),), 1: ((b,),)})
        prod = TruncSeries.one(p, 1, p)
        for j in range(p - 1, -1, -1):
            prod = prod * B.shift(j)
        assert prod == TruncSeries.one(p, 1, p)
    # nilpotent 2x2 leading coefficient: B0^3 = 0, so the z^{-3} term is -B0
    B0 = ((0, 1), (0, 0))
    I = ((1, 0), (0, 1))
    B = TruncSeries(p, 2, p, {0: I, 1: B0})
    prod = TruncSeries.one(p, 2, p)
    for j in range(p - 1, -1, -1):
        prod = prod * B.shift(j)
    expect = TruncSeries(p, 2, p, {0: I, p: ((0, (-1) % p), (0, 0))})
    assert prod == expect


def test_tau_additivity_and_span_rank():
    rep = run_case("tau_invariance", prime=5, trials=2, seed=11)
    assert rep.ok, rep.details
    rep = run_case("span4_qdiff", trials=5, seed=13)
    assert rep.ok, rep.details


# ------------------------------------------------ span4_qdiff, exactly
# Reference definitions, evaluated mod a 61-bit prime: m_u(x) = x + 1/x - u
# - 1/u, and the (T^(1/2), T^(-1/2)) coefficients of D_q(c v^(+-1)).

P61 = (1 << 61) - 1

SPAN4_EQUAL = [
    "dim span A = 4: equal",
    "dim span B = 4: equal",
    "span B in span A: equal",
    "span A in span B: equal",
]


def _m_u(x, u, P=P61):
    return (x + pow(x, -1, P) - u - pow(u, -1, P)) % P


def _dq_coeffs(z, c, v, P=P61):
    w = pow(pow(z, -1, P) - z, -1, P)
    return _m_u(c * z, v) * w % P, -_m_u(c * pow(z, -1, P), v) * w % P


# The symbolic rows over Z[r, c] that `opcases._span4_rows` packs into ints
# at r = B, c = B^K.

_RS = ring("r, c, z, U, V", ZZ)[0]


def _m_ref(a, b, W):
    return a ** 2 + b ** 2 - W * a * b


def _symbolic_span4_rows(rc=None):
    """[{(a, b): X_ab}, {(a, b): Y_ab}] with entries in Z[r, c]; column 5 h + k
    holds the z^k coefficient of the T^(1/2) (h = 0) or T^(-1/2) (h = 1) half."""
    r, c, z, U, V = _RS.gens
    rc = r * c if rc is None else rc
    A = (_m_ref(c * z, 1, V) * _m_ref(r * z, 1, U), -_m_ref(c, z, V) * _m_ref(z, r, U))
    B = (_m_ref(z, 1, U) * _m_ref(rc * z, 1, V), -_m_ref(z, 1, U) * _m_ref(rc, z, V))
    out = []
    for family in (A, B):
        rows = {}
        for half, poly in enumerate(family):
            for (i, j, k, a, b), coeff in poly.terms():
                rows.setdefault((a, b), {}).setdefault(5 * half + k, {})[i, j, 0, 0, 0] = coeff
        out.append({ab: {col: _RS.from_dict(d) for col, d in row.items()} for ab, row in rows.items()})
    return out


def _eval_row(rows, r, c, U, V, z, P=P61):
    """The two halves of sum U^a V^b X_ab at (r, c, z), mod P."""
    halves = [0, 0]
    for (a, b), row in rows.items():
        for col, entry in row.items():
            e = sum(k * pow(r, i, P) * pow(c, j, P) for (i, j, *_), k in entry.terms())
            halves[col // 5] += e * pow(U, a, P) * pow(V, b, P) * pow(z, col % 5, P)
    return [h % P for h in halves]


def test_span4_rows_match_direct_evaluation():
    # each row of the Z[r, c] matrix, summed with weights U^a V^b, is r c z^2
    # (1/z - z) times the coefficients of A_{u,v} = D_q(c v^(+-1)) m_u and of
    # B_{u,v} = m_u D_q(r c v^(+-1))
    rng = random.Random(61)
    X, Y = _symbolic_span4_rows()
    P = P61
    for _ in range(5):
        r, c, u, v, z = (rng.randrange(2, P) for _ in range(5))
        U, V = (u + pow(u, -1, P)) % P, (v + pow(v, -1, P)) % P
        scale = r * c * z * z * (pow(z, -1, P) - z) % P
        ir = pow(r, -1, P)
        pl, mi = _dq_coeffs(z, c, v)
        A = [pl * _m_u(r * z, u) % P, mi * _m_u(z * ir, u) % P]
        pl, mi = _dq_coeffs(z, r * c, v)
        B = [_m_u(z, u) * pl % P, _m_u(z, u) * mi % P]
        assert _eval_row(X, r, c, U, V, z) == [scale * a % P for a in A]
        assert _eval_row(Y, r, c, U, V, z) == [scale * b % P for b in B]


@pytest.mark.parametrize("mutated", [False, True], ids=["rc", "r"])
def test_span4_packing_is_exact(mutated):
    # the premises of the bound in `opcases._rank`, on the true family and on
    # the one with r in place of r c: 8 rows with entries of degree <= 2 in r
    # and in c and 1-norm <= 2, so the Bareiss minors (size <= 8) have degree
    # <= 16 < K and coefficients below 8! 2^8 < B/2
    B, K = opcases._B, opcases._K
    assert 2 * 8 < K and factorial(8) * 2 ** 8 < B // 2
    X, Y = _symbolic_span4_rows(rc=_RS.gens[0] if mutated else None)
    rows = list(X.values()) + list(Y.values())
    assert len(rows) == 8
    for row in rows:
        for entry in row.values():
            assert entry.degree(0) <= 2 and entry.degree(1) <= 2
            assert sum(abs(k) for k in entry.coeffs()) <= 2
    # each packed entry is the symbolic entry at (B, B^K)
    packed = opcases._span4_rows(rc=B if mutated else None)
    want = [
        {ab: {col: sum(k * B ** (i + K * j) for (i, j, *_), k in e.terms()) for col, e in row.items()}
         for ab, row in family.items()}
        for family in (X, Y)
    ]
    assert packed == want
    # and the packed ranks are the ranks over Z[r, c]
    Xs, Ys = list(X.values()), list(Y.values())
    Xp, Yp = (list(family.values()) for family in packed)
    ranks = [opcases._rank(M) for M in (Xs, Ys, Xs + Ys)]
    assert ranks == [4, 4, 5 if mutated else 4]
    assert [opcases._rank(M) for M in (Xp, Yp, Xp + Yp)] == ranks


def test_mutated_span4_family_is_a_counterexample(monkeypatch):
    # r in place of r c in B's D_q: span B leaves span A, rank(X u Y) = 5
    rows = opcases._span4_rows
    monkeypatch.setattr(opcases, "_span4_rows", lambda: rows(rc=opcases._B))
    rep = run_case("span4_qdiff")
    assert rep.verdict == "counterexample"
    assert rep.details == SPAN4_EQUAL[:2] + [
        "span B in span A: counterexample witness=(4, 4, 5)",
        "span A in span B: counterexample witness=(4, 4, 5)",
    ]


def test_span4_report_does_not_depend_on_trials_or_seed():
    want = run_case("span4_qdiff")
    assert want.verdict == "equal" and want.details == SPAN4_EQUAL
    for trials in range(1, 5):
        for seed in range(10):
            assert run_case("span4_qdiff", trials=trials, seed=seed) == want


@pytest.mark.parametrize("k", range(6))
def test_rank_of_a_product_of_rank_k(k):
    # a 5 x k times k x 6 product of polynomial matrices has rank <= k over
    # Q(x, y); its rank k at an integer point makes the rank exactly k
    R, x, y = ring("x, y", ZZ)
    rng = random.Random(k)

    def rand():
        return sum(rng.randint(-3, 3) * x ** i * y ** j for i in range(2) for j in range(2))

    L = [[rand() for _ in range(k)] for _ in range(5)]
    Rt = [[rand() for _ in range(6)] for _ in range(k)]
    M = [[sum((L[i][t] * Rt[t][j] for t in range(k)), R.zero) for j in range(6)] for i in range(5)]
    assert Matrix([[e(2, -3) for e in row] for row in M]).rank() == k
    assert opcases._rank([{j: e for j, e in enumerate(row) if e} for row in M]) == k
    # packed as in span4_qdiff: entries have degree <= 2 in x and in y and
    # 1-norm <= 5 * 12^2, so the minors (size <= 5) have degree <= 10 < K
    # and coefficients below 5! 720^5 < B/2
    B, K = 1 << 57, 11
    assert all(e.degree(0) <= 2 and e.degree(1) <= 2 and sum(map(abs, e.coeffs())) <= 720 for row in M for e in row)
    assert factorial(5) * 720 ** 5 < B // 2
    assert opcases._rank([{j: e(B, B ** K) for j, e in enumerate(row) if e} for row in M]) == k


def test_algebra_argument_validation():
    F, z = frac_field("z", QQ)
    with pytest.raises(ValueError):
        OreAlgebra(F, "bogus")
    with pytest.raises(ValueError):
        OreAlgebra(F, "ashift")  # needs a step
    alg = OreAlgebra(F, "diff")
    with pytest.raises(ValueError):
        alg.S(-1)


def test_differential_operators_refuse_negative_powers_through_op():
    # op({-1: 1}) used to build an operator whose product with z was 0 and
    # whose apply(z) read the derivative chain at index -1
    F, z = frac_field("z", QQ)
    for alg in (OreAlgebra(F, "diff"), OreAlgebra.over("z"), OreAlgebra.over("z", p=7)):
        for terms in ({-1: 1}, {0: 1, -2: 3}):
            with pytest.raises(ValueError):
                alg.op(terms)
    shift = OreAlgebra(F, "ashift", step=F.one)
    assert shift.op({-1: 1}) * shift.mult(z) == shift.op({-1: z - 1})


def test_twist_steps_must_be_automorphisms():
    # qshift by 0 sends z to 0, and a step in z (ashift by z: z -> 2z, but
    # S^-1 z = z - z = 0) does not invert as the shift formulas assume
    F, z, u = frac_field("z, u", QQ)
    for kind, step, z_index in (("qshift", F.zero, 0), ("qshift", 0, 1), ("ashift", z, 0),
                                ("qshift", 1 / (z + u), 0), ("ashift", u ** 2, 1), ("qshift", z * u, 1)):
        with pytest.raises(ValueError):
            OreAlgebra(F, kind, step=step, z_index=z_index)
    # a step in the other variable, and the identity shift, are automorphisms
    for kind, step, z_index in (("ashift", z, 1), ("qshift", 2 / u, 0), ("ashift", F.zero, 0), ("ashift", 0, 1)):
        alg = OreAlgebra(F, kind, step=step, z_index=z_index)
        g = (z + u) / (z * u + 1)
        assert alg.sigma(alg.sigma(g, -1), 1) == g
    # the same checks on an algebra built from names, whose step is an int
    # or a name, and whose names must be distinct
    for names, kind, step, z_index in (("z, u", "qshift", 0, 0), ("z, u", "ashift", "z", 0),
                                       ("z, u", "qshift", "u", 1), ("z, u", "ashift", "v", 0),
                                       ("z, z", "ashift", 1, 0), ("z, u, z", "diff", None, 1)):
        with pytest.raises(ValueError):
            OreAlgebra.over(names, kind, step=step, z_index=z_index)
    for kind, step, z_index in (("ashift", "z", 1), ("qshift", "u", 0), ("ashift", 0, 0), ("qshift", -2, 1)):
        alg = OreAlgebra.over("z, u", kind, step=step, z_index=z_index)
        g = (z + u) / (z * u + 1)
        assert alg.sigma(alg.sigma(g, -1), 1) == g


def test_z_index_is_range_checked():
    # d/dz from the names "z" over GF(7) with z_index=1 used to build, and
    # its d/dz ignored the index; over QQ it raised IndexError only at the
    # first derivative
    F, z, u = frac_field("z, u", QQ)
    for bad in (-1, 2, 7):
        with pytest.raises(ValueError):
            OreAlgebra.over("z, u", z_index=bad)
        for kw in (dict(kind="diff"), dict(kind="ashift", step=F.one), dict(kind="qshift", step=F.one * 2)):
            with pytest.raises(ValueError):
                OreAlgebra(F, z_index=bad, **kw)
    for p in (0, 7):
        with pytest.raises(ValueError):
            OreAlgebra.over("z", p=p, z_index=1)
    alg = OreAlgebra.over("z, u", p=7, z_index=1)
    z7, u7 = alg.F.gens
    assert alg.delta(z7 ** 2 * u7 ** 3) == 3 * z7 ** 2 * u7 ** 2


# ------------------------------------------------------- argument checks


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(trials=-1),
        dict(prime=0),
        dict(prime=1),
        dict(prime=4),
        dict(prime=9),
        dict(trials=0),
        dict(trials=True),
    ],
)
@pytest.mark.parametrize("case", ["weyl", "frobenius_power", "additive_product", "tau_invariance"])
def test_run_case_rejects_bad_arguments(case, kwargs):
    # prime=1 used to loop forever drawing a nonzero denominator, 4 and 9
    # crashed or (additive_product) reported a false counterexample, 0 ran
    # as the default prime, trials=0 ran one trial and trials=True passed
    with pytest.raises(ValueError):
        run_case(case, **kwargs)


# ------------------------------------------- reference Ore arithmetic
# The FracElement arithmetic that the localised coefficients replaced: every
# coefficient is a cancelled FracElement, sigma substitutes term by term and
# delta differentiates one order at a time.


def _ref_subs(F, g, index, val):
    def subs_poly(p):
        gens = [F(x) for x in F.gens]
        gens[index] = val
        out = F.zero
        for monom, coeff in p.terms():
            term = F.one * coeff
            for base, k in zip(gens, monom):
                if k:
                    term = term * base ** k
            out = out + term
        return out

    return subs_poly(g.numer) / subs_poly(g.denom)


def _ref_sigma(alg, g, power):
    if power == 0 or alg.kind == "diff":
        return g
    F = alg.F
    z, step = F.gens[alg.z_index], alg.step
    # a names-built algebra's step is an int or a name
    step = F.gens[[str(x) for x in F.symbols].index(step)] if isinstance(step, str) else F(step)
    if alg.kind == "ashift":
        val = z + power * step
    elif power >= 0:
        val = step ** power * z
    else:
        val = z / step ** (-power)
    return _ref_subs(F, g, alg.z_index, val)


def _ref_delta(alg, g, order):
    for _ in range(order):
        g = g.diff(alg.F.gens[alg.z_index])
    return g


def _ref_mul(alg, A, B):
    out = {}

    def acc(k, c):
        if c:
            out[k] = out.get(k, alg.F.zero) + c

    if alg.kind == "diff":
        for i, a in A.items():
            for j, b in B.items():
                for t in range(i + 1):
                    acc(i - t + j, comb(i, t) * a * _ref_delta(alg, b, t))
    else:
        for i, a in A.items():
            for j, b in B.items():
                acc(i + j, a * _ref_sigma(alg, b, i))
    return {k: c for k, c in out.items() if c}


def _ref_apply(alg, A, g):
    out = alg.F.zero
    for k, c in A.items():
        if alg.kind == "diff":
            out = out + c * _ref_delta(alg, g, k)
        else:
            out = out + c * _ref_sigma(alg, g, k)
    return out


def _assert_same(op, ref):
    assert op.support() == sorted(ref)
    for k, c in ref.items():
        assert not (op.coeff(k) - c), (k, op.coeff(k), c)


def _ore_settings():
    """(label, field, its generators, algebra, denominator pool)."""
    out = []
    F, z, u = frac_field("z, u", QQ)
    pool = [F.one, F.one, z + u, z + u, (z + u) ** 2, z ** 2 + u, (z + u) * (z ** 2 + u), u + 2, F.one * 3]
    for label, kw in (
        ("diff", dict(kind="diff")),
        ("diff in u", dict(kind="diff", z_index=1)),
        ("ashift 1", dict(kind="ashift", step=F.one)),
        ("ashift u", dict(kind="ashift", step=u)),
        ("ashift 1/u", dict(kind="ashift", step=1 / u)),
        ("qshift u", dict(kind="qshift", step=u)),
        ("qshift 1/3", dict(kind="qshift", step=F.one / 3)),
        ("ashift 1 in u", dict(kind="ashift", step=F.one, z_index=1)),
        ("qshift z in u", dict(kind="qshift", step=z, z_index=1)),
    ):
        out.append(("QQ(z,u) " + label, F, (z, u), OreAlgebra(F, **kw), pool))
    # algebras built from names, with no sympy field until the boundary
    for label, kw in (
        ("qshift u", dict(kind="qshift", step="u")),
        ("ashift 3 in u", dict(kind="ashift", step=3, z_index=1)),
    ):
        out.append(("QQ(z,u) names " + label, F, (z, u), OreAlgebra.over("z, u", **kw), pool))
    F, z = frac_field("z", GF(7))
    pool = [F.one, z + 1, (z + 1) ** 2, z ** 2 + 3, z ** 7 + 1, F.one * 2]
    for label, kw in (("ashift 1", dict(kind="ashift", step=1)), ("qshift 3", dict(kind="qshift", step=3))):
        out.append(("GF(7)(z) names " + label, F, (z,), OreAlgebra.over("z", p=7, **kw), pool))
    for p in (2, 3, 5):
        F, z = frac_field("z", GF(p))
        pool = [F.one, F.one, z + 1, z + 1, (z + 1) ** 2, z ** 2 + z + 1, z ** p + 1]
        if p > 2:
            pool.append(F.one * 2)  # a constant denominator
        for label, kw in (
            ("diff", dict(kind="diff")),
            ("ashift 1", dict(kind="ashift", step=F.one)),
            ("qshift 2", dict(kind="qshift", step=F.one * (1 if p == 2 else 2))),
        ):
            out.append(("GF(%d)(z) %s" % (p, label), F, (z,), OreAlgebra(F, **kw), pool))
    return out


def _rand_coeff(F, gens, pool, rng):
    num = F.zero
    for _ in range(rng.randint(1, 3)):
        mono = F.one * rng.randint(-3, 3)
        for g in gens:
            mono = mono * g ** rng.randint(0, 2)
        num = num + mono
    return num / rng.choice(pool)


def _rand_terms(alg, gens, pool, rng):
    lo = 0 if alg.kind == "diff" else -1  # twists take negative powers
    return {k: _rand_coeff(alg.F, gens, pool, rng) for k in range(lo, rng.randint(lo + 1, 2) + 1)}


@pytest.mark.parametrize("setting", _ore_settings(), ids=lambda s: s[0])
def test_product_matches_fracelement_reference(setting):
    label, F, gens, alg, pool = setting
    rng = random.Random(label)
    for _ in range(4):
        A = _rand_terms(alg, gens, pool, rng)
        B = _rand_terms(alg, gens, pool, rng)
        opA, opB = alg.op(A), alg.op(B)
        _assert_same(opA, {k: c for k, c in A.items() if c})
        AB = _ref_mul(alg, A, B)
        _assert_same(opA * opB, AB)
        # a right factor whose coefficients carry several bases
        C = _rand_terms(alg, gens, pool, rng)
        _assert_same(alg.op(C) * (opA * opB), _ref_mul(alg, C, AB))
        _assert_same(opA + opB - opB, {k: c for k, c in A.items() if c})
        g = _rand_coeff(F, gens, pool, rng)
        _assert_same(opA.scale(g), {k: g * c for k, c in A.items() if g * c})
        assert not (opA.apply(g) - _ref_apply(alg, A, g))
        for n in range(-1, 3):
            if alg.kind != "diff":
                assert not (alg.sigma(g, n) - _ref_sigma(alg, g, n))
        for n in range(5):
            assert not (alg.delta(g, n) - _ref_delta(alg, g, n))


def _power_settings():
    """(label, algebra, operator): diff, ashift and qshift over QQ(z, u), and
    diff over GF(3)(z) and GF(5)(z)."""
    F, z, u = frac_field("z, u", QQ)
    qs = OreAlgebra(F, "qshift", step=u)
    out = [
        ("QQ(z,u) diff", OreAlgebra(F, "diff"), {0: z / (z + u), 1: u}),
        ("QQ(z,u) ashift u", OreAlgebra(F, "ashift", step=u), {0: 1 / z, 1: 1}),
        ("QQ(z,u) qshift u", qs, {-1: 1, 0: 1 / z, 1: u}),
        # the settings above take 1/z because the unreduced shifted
        # denominators of z/(z + 1) grow fast: this one takes about 3 s on a
        # shared 2-core Xeon
        ("QQ(z,u) qshift u, z/(z+1)", qs, {-1: 1, 0: z / (z + 1), 1: u}),
    ]
    for p in (3, 5):
        F, z = frac_field("z", GF(p))
        out.append(("GF(%d)(z) diff" % p, OreAlgebra(F, "diff"), {0: (z + 2) / (z ** 2 + 1), 1: 1}))
    return [(label, alg, alg.op(terms)) for label, alg, terms in out]


@pytest.mark.parametrize("setting", _power_settings(), ids=lambda s: s[0])
def test_power_is_the_repeated_product(setting):
    _, alg, op = setting
    prod = alg.op({0: alg.F.one})
    for n in range(10):
        power = op ** n
        assert power.support() == prod.support() and power == prod, n
        prod = prod * op
    assert (op ** 0).terms == alg.one().terms == {0: alg.F.one}
    with pytest.raises(ValueError):
        op ** -1


@pytest.mark.parametrize("setting", _ore_settings(), ids=lambda s: s[0])
def test_int_scalars_match_field_scalars(setting):
    # an int skips the fraction field; k = 0 mod p included
    label, F, _, alg, _ = setting
    p = F.domain.characteristic() or 5
    for k in (-3, 0, 1, p, 7):
        op, ref = alg.mult(k), alg.mult(F(k))
        assert op == ref, (label, k)
        _assert_same(op, ref.terms)
        assert op.is_zero() == (k % p == 0 if F.domain.characteristic() else k == 0)
    assert alg.mult(True) == alg.one()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_char_p_derivative_of_pth_power_is_zero(p):
    # PolyElement.diff over GF(p) keeps the zero coefficient of d/du u^p
    F, u = frac_field("u", GF(p))
    alg = OreAlgebra(F, "diff")
    D = alg.S(1)
    assert not alg.delta(u ** p)
    for g in (u ** p, 1 / (u ** p + 1), u / (u ** p + 1)):
        M = alg.mult(g)
        assert D * M == M * D + alg.mult(alg.delta(g))
    M = alg.mult(u ** p)
    assert D * M == M * D
    assert (D * M - M * D).is_zero()


def _rand_ratfunc_nonconst(F, z, rng, p):
    while True:
        num = sum(F.one * rng.randrange(p) * z ** k for k in range(4))
        den = z ** rng.randint(1, 2) + rng.randrange(p)
        if num:
            return num / den


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_katz_p_curvature_oracle(p):
    # Katz: the p-curvature of D + f is A_p with A_1 = f and
    # A_(k+1) = A_k' + f A_k, computed here in plain FracElement arithmetic;
    # it is the S^0 coefficient of (D + f)^p, and by Jacobson's formula it is
    # f^p plus the (p-1)-th derivative of f
    F, z = frac_field("z", GF(p))
    x = F.gens[0]
    alg = OreAlgebra(F, "diff")
    D = alg.S(1)
    rng = random.Random(1000 + p)
    for _ in range(4):
        f = _rand_ratfunc_nonconst(F, z, rng, p)
        A = f
        for _ in range(p - 1):
            A = A.diff(x) + f * A
        dp = f
        for _ in range(p - 1):
            dp = dp.diff(x)
        assert not (A - (f ** p + dp))
        L = (D + alg.mult(f)) ** p
        assert not (L.coeff(0) - A)
        for k in range(1, p):
            assert not L.coeff(k)
        assert not (L.coeff(p) - 1)
        assert L.support() == ([0, p] if A else [p])
