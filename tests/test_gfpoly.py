"""The GF(p) path of ncsurf.ore: the polynomial kernel in one variable
against sympy's GF(p) PolyElements, the FracElement boundary against the
cancelled fractions it must reproduce, and the localised characteristic-p
cases of opcases against the cancelled-FracElement arithmetic they replaced.
The kernel in several variables and over QQ is checked in test_qqpoly.py."""

import random
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF
from sympy.polys.fields import field as frac_field
from sympy.polys.rings import ring

from ncsurf import opcases
from ncsurf.opcases import run_case
from ncsurf.ore import OreAlgebra, _poly, _pow

PRIMES = (2, 3, 5, 7, 11, 13)

coeff_lists = st.lists(st.integers(-40, 40), max_size=9)


def _gfp(cs, p):
    """The univariate GF(p) _Poly with coefficient list cs, constant first."""
    return _poly({(i,): c for i, c in enumerate(cs)}, 1, p)


def _coeffs(a):
    """The coefficient list of a univariate _Poly, constant first."""
    t = {m[0]: c for m, c in a.items()}
    return tuple(t.get(i, 0) for i in range(max(t) + 1)) if t else ()


def _sym(R, a):
    return R.from_dict(dict(a.items()))


def _normal(a, p):
    return a.p == p and all(len(m) == 1 and 0 < c < p for m, c in a.items())


# ------------------------------------------------------------ the kernel


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=st.sampled_from(PRIMES), cs=st.lists(coeff_lists, min_size=3, max_size=3),
       k=st.integers(-30, 30), n=st.integers(0, 6))
def test_kernel_matches_sympy(p, cs, k, n):
    R, x = ring("x", GF(p))
    a, b, c = (_gfp(l, p) for l in cs)
    A, B, C = (_sym(R, t) for t in (a, b, c))
    assert A == R.from_dict({(i,): v for i, v in enumerate(cs[0]) if v % p})
    results = {
        "+": (a + b, A + B),
        "neg": (-a, -A),
        "-": (a - b, A - B),
        "*": (a * b, A * B),
        "* int": (a * k, A * k),
        "**": (a ** n, A ** n if A or n else R.one),  # sympy refuses 0**0
        "diff": (a.diff(), A.diff(x)),
        "(ab)c": ((a * b) * c, A * (B * C)),
        "a(b+c)": (a * (b + c), A * B + A * C),
    }
    if b:
        results["monic"] = (b.monic(), B.monic())
    if k % p:
        results["quo_ground"] = (a.quo_ground(k), A.quo_ground(R.domain(k)))
    for name, (mine, theirs) in results.items():
        theirs.strip_zero()  # PolyElement.diff over GF(p) keeps zeros
        assert _normal(mine, p), (name, _coeffs(mine))
        assert _sym(R, mine) == theirs, (name, _coeffs(mine), theirs)
    if a:
        assert a.LC == A.LC
    assert bool(a) == bool(A)
    assert (a == 1) == (A == 1)
    assert (a == b) == (A == B)
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=st.sampled_from(PRIMES), cs=st.lists(coeff_lists, min_size=2, max_size=2), k=st.integers(-30, 30))
def test_single_pass_results_in_characteristic_p(p, cs, k):
    # reduction mod p happens in the pass that builds each result: sums that
    # cancel mod p, -a as p - c, factors that vanish mod p, and derivatives
    # of p-th powers; no operand's dict changes, and equal results hash equal
    R, x = ring("x", GF(p))
    a, b = (_gfp(l, p) for l in cs)
    A, B = (_sym(R, t) for t in (a, b))
    one = _gfp([1], p)
    before = [list(t.t.items()) for t in (a, b, one)]
    hashes = [hash(t) for t in (a, b, one)]
    results = {
        "a + -a": (a + -a, R.zero),
        "a + (p-1)a": (a + a * (p - 1), R.zero),
        "(a + b) - a": ((a + b) - a, B),
        "-a": (-a, -A),
        "prod p": (a._prod(b, p), R.zero),
        "prod -p": (a._prod(b, -p), R.zero),
        "prod kp": (a._prod(b, k * p), R.zero),
        "prod k": (a._prod(b, k), A * B * k),
        "prod -k": (a._prod(b, -k), A * B * -k),
        "prod 1": (a._prod(b, 1), A * B),
        "prod 1 + p": (a._prod(b, 1 + p), A * B),
        "a * 1": (a * 1, A),
        "1 * a": (one * a, A),
        "diff a^p": ((a ** p).diff(), R.zero),
        "diff a^p b": ((a ** p * b).diff(), A ** p * B.diff(x)),
    }
    for name, (mine, theirs) in results.items():
        theirs.strip_zero()
        assert _normal(mine, p), (name, _coeffs(mine))
        assert _sym(R, mine) == theirs, (name, _coeffs(mine), theirs)
        rebuilt = _gfp(_coeffs(mine), p)
        assert rebuilt == mine and hash(rebuilt) == hash(mine), name
    assert _coeffs(-a) == tuple((p - c) % p for c in _coeffs(a))
    assert a * 1 is a and one * b is (one if b == 1 else b)
    assert [list(t.t.items()) for t in (a, b, one)] == before
    assert [hash(t) for t in (a, b, one)] == hashes


def test_kernel_edge_cases():
    p = 5
    zero, one = _gfp((), p), _gfp((1,), p)
    assert not zero and zero == 0 and one == 1 and one == 6 and not (one == 2)
    assert _coeffs(_gfp([5, 10, 0], p)) == ()
    assert _coeffs(zero * one) == () and _coeffs(zero + zero) == () and _coeffs(-zero) == ()
    assert (zero ** 0) == 1 and (_gfp([3, 1], p) ** 0) == 1
    assert _coeffs(_gfp([2], p).diff()) == () and _coeffs(_gfp([0, 0, 0, 0, 0, 1], p).diff()) == ()
    assert _coeffs(-_gfp([0, 1, 0, 4], p)) == (0, 4, 0, 1)
    for q in PRIMES:
        assert _coeffs(_gfp([1, 1], q) ** q) == (1,) + (0,) * (q - 1) + (1,)  # Frobenius
        assert _coeffs(_gfp([-1, 0, q + 1, 2 * q], q)) == (q - 1, 0, 1)


# ---------------------------------------------------------- the boundary


def _cancelled(F, g):
    """F.new's result for the value g with a monic denominator.  The old
    boundary handed F.new a monic denominator, so this is what it returned;
    the comparison is structural, as FracElement == is."""
    lc = g.denom.LC
    return F.new(g.numer.quo_ground(lc), g.denom.monic())


def _same_structure(F, got, want):
    want = _cancelled(F, want)
    assert got.numer == want.numer and got.denom == want.denom, (got, want)


def _rand_frac(F, z, rng, p):
    while True:
        num = sum((F.one * rng.randrange(p) * z ** k for k in range(rng.randint(0, 5))), F.zero)
        den = sum((F.one * rng.randrange(p) * z ** k for k in range(rng.randint(1, 4))), F.zero)
        if den:
            return num / den


def _ref_delta(g, z, order):
    for _ in range(order):
        g = g.diff(z)
    return g


def _ref_mul(A, B, z):
    """The product of d/dz operators given as {k: FracElement}."""
    out = {}
    for i, a in A.items():
        for j, b in B.items():
            for t in range(i + 1):
                out[i - t + j] = out.get(i - t + j, 0) + comb(i, t) * a * _ref_delta(b, z, t)
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("p", PRIMES)
def test_boundary_returns_the_cancelled_fraction(p):
    F, z = frac_field("z", GF(p))
    x = F.gens[0]
    alg = OreAlgebra(F, "diff")
    rng = random.Random(p)
    for _ in range(12):
        A = {k: _rand_frac(F, z, rng, p) for k in range(rng.randint(0, 3))}
        B = {k: _rand_frac(F, z, rng, p) for k in range(rng.randint(0, 3))}
        opA, opB = alg.op(A), alg.op(B)
        AB = _ref_mul(A, B, x)
        got = (opA * opB).terms
        assert sorted(got) == sorted(AB)
        for k, c in AB.items():
            _same_structure(F, got[k], c)
            _same_structure(F, (opA * opB).coeff(k), c)
        for k, c in A.items():
            _same_structure(F, opA.coeff(k), c)
        _same_structure(F, opA.coeff(7), F.zero)
        g = _rand_frac(F, z, rng, p)
        want = sum((c * _ref_delta(g, x, k) for k, c in A.items()), F.zero)
        _same_structure(F, opA.apply(g), want)
        for n in range(p + 2):
            _same_structure(F, alg.delta(g, n), _ref_delta(g, x, n))
        assert alg.sigma(g, 1) is g  # no twist in the differential kind


def _is_cancelled(F, g):
    return g.denom.LC == 1 and g == F.new(g.numer, g.denom)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_twisted_kinds_keep_the_sparse_backend(p):
    # every kind runs on ore's own kernel in any number of variables (the
    # twists substitute into its packed monomials); all return cancelled
    # fractions with a monic denominator
    F, z = frac_field("z", GF(p))
    rng = random.Random(p)
    for alg in (OreAlgebra(F, "ashift", step=F.one), OreAlgebra(F, "qshift", step=F.one * (p - 1))):
        for _ in range(6):
            g = _rand_frac(F, z, rng, p)
            for n in (-1, 1, 2):
                assert _is_cancelled(F, alg.sigma(g, n))
    G, z, u = frac_field("z, u", GF(p))
    alg = OreAlgebra(G, "diff")
    for g in (u / (z + u), (z * u + 1) / (z ** p * u + z), (z + 1) ** p / (u + 1)):
        for n in range(3):
            got = alg.delta(g, n)
            assert _is_cancelled(G, got) and got == _ref_delta(g, z, n), (g, n)


# ------------------------------------- the localised characteristic-p cases
# The case bodies as they were: cancelled FracElements throughout, the same
# random draws, and every comparison by cross-multiplication.


def _old_rand_ratfunc(F, z, rng, p):
    x = z.numer
    while True:
        num = sum((rng.randrange(p) * x ** k for k in range(4)), F.ring.zero)
        den = sum((rng.randrange(p) * x ** k for k in range(3)), F.ring.zero)
        if den:
            return F.new(num, den)


def _eq(a, b):
    return "equal" if a.numer * b.denom == b.numer * a.denom else "counterexample"


@lru_cache(maxsize=None)
def _old_frobenius_power(p, seed):
    """(f, (D + f)^p as a coefficient list) for the case's draw; (D + f)
    times sum c_i D^i has the coefficients c_i' + f c_i + c_(i-1)."""
    F, z = frac_field("z", GF(p))
    x = F.gens[0]
    f = _old_rand_ratfunc(F, z, random.Random(seed), p)
    L = [F.one]
    for _ in range(p):
        L = [
            (L[i].diff(x) + f * L[i] if i < len(L) else F.zero) + (L[i - 1] if i else F.zero)
            for i in range(len(L) + 1)
        ]
    return f, L


def _old_frobenius(p, seed, drop_delta=False):
    f, L = _old_frobenius_power(p, seed)
    rhs = f ** p + (0 if drop_delta else _ref_delta(f, f.field.gens[0], p - 1))
    ok = not (L[p] - 1) and not any(L[1:p]) and not (L[0] - rhs)
    return ["f #0: " + ("equal" if ok else "counterexample")]


def _old_tau(p, seed, drop_jac=False):
    F, u = frac_field("u", GF(p))
    x = F.gens[0]
    rng = random.Random(seed)

    def tau(g):  # g^p + D^(p-1) g
        return g ** p + _ref_delta(g, x, p - 1)

    def tau_tilde(h):  # h^p + D~^(p-1) h with D~ = (1+2u)^(-1) D
        t = h
        for _ in range(p - 1):
            t = t.diff(x) / (1 + 2 * u)
        return h ** p + t

    g = _old_rand_ratfunc(F, u, rng, p)
    jac = F.one if drop_jac else 1 + 2 * u ** p
    out = ["coordinate change #0: " + _eq(tau(g), tau_tilde(g / (1 + 2 * u)) * jac)]
    f = _old_rand_ratfunc(F, u, rng, p)
    out.append("tau(df) = d(f^p) #0: " + ("counterexample" if _ref_delta(f, x, p) else "equal"))
    g2 = _old_rand_ratfunc(F, u, rng, p)
    out.append("additivity #0: " + _eq(tau(g + g2), tau(g) + tau(g2)))
    return out, tau(g)


def _verdicts(rep):
    # drop a counterexample's witness, which the old checks did not build
    return [line.split(" witness=")[0] for line in rep.details]


@pytest.mark.parametrize("p", (3, 5, 7))
def test_localised_cases_agree_with_cancelled_fractions(p):
    for seed in range(20):
        rep = run_case("frobenius_power", prime=p, trials=1, seed=seed)
        assert _verdicts(rep) == _old_frobenius(p, seed), seed
        rep = run_case("tau_invariance", prime=p, trials=1, seed=seed)
        assert _verdicts(rep) == _old_tau(p, seed)[0], seed
        assert rep.ok


@pytest.mark.parametrize("p", (3, 5, 7))
def test_mutated_identities_are_counterexamples(p, monkeypatch):
    # the case bodies with one term of each identity dropped: the zero test
    # of the difference must report a counterexample wherever the dropped
    # term is nonzero, exactly as the cancelled fractions do
    alg = opcases._gf_diff_algebra(p, "u")[0]
    one = alg._quo([1], [1])
    tau_tilde = opcases._tau_tilde
    monkeypatch.setattr(opcases, "_tau_tilde", lambda At, inv, jac, g, p: tau_tilde(At, inv, one, g, p))
    monkeypatch.setattr(opcases, "_frobenius_rhs", lambda alg, D, f, p: D ** p + alg.mult(_pow(f, p)))
    caught = {"tau_invariance": 0, "frobenius_power": 0}
    for seed in range(20):
        want, tau_g = _old_tau(p, seed, drop_jac=True)
        rep = run_case("tau_invariance", prime=p, trials=1, seed=seed)
        assert _verdicts(rep) == want, seed
        assert rep.details[0].endswith("counterexample") == bool(tau_g)
        caught["tau_invariance"] += not rep.ok
        rep = run_case("frobenius_power", prime=p, trials=1, seed=seed)
        assert _verdicts(rep) == _old_frobenius(p, seed, drop_delta=True), seed
        caught["frobenius_power"] += not rep.ok
    assert min(caught.values()) >= 10, caught  # most draws see the mutation
