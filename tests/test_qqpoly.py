"""The polynomial kernel of ncsurf.ore (`_Poly`, over QQ and over GF(p) in
any number of variables) against sympy's PolyElements, its packed exponent
slots, the FracElement boundary of the sympy-free differential algebras,
and `ore.isprime` against `sympy.isprime`."""

import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import GF, QQ
from sympy.polys.fields import field as frac_field
from sympy.polys.rings import ring

from ncsurf.ore import OreAlgebra, _MR_BOUND, _poly, isprime

NAMES = ("x", "y, z", "x, y, z")
MODULI = (0, 2, 3, 7)  # 0 is QQ

fractions_ = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))


@st.composite
def polys(draw, n, p):
    exps = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.dictionaries(exps, fractions_ if not p else st.integers(-30, 30), max_size=5))
    return _poly(terms, n, p)


def _ring(n, p):
    return ring(NAMES[n - 1], GF(p) if p else QQ)[0]


def _sym(R, a):
    conv = R.domain.convert if a.p else (lambda c: R.domain(c.numerator, c.denominator))
    return R.from_dict({m: conv(c) for m, c in a.items()})


def _normal(a):
    return all(len(m) == a.n and c and (not a.p or 0 < c < a.p) for m, c in a.items())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(1, 3), p=st.sampled_from(MODULI),
       k=st.integers(-30, 30), e=st.integers(0, 4))
def test_kernel_matches_sympy(data, n, p, k, e):
    R = _ring(n, p)
    a, b, c = (data.draw(polys(n, p)) for _ in range(3))
    A, B, C = (_sym(R, t) for t in (a, b, c))
    results = {
        "+": (a + b, A + B),
        "neg": (-a, -A),
        "-": (a - b, A - B),
        "*": (a * b, A * B),
        "* int": (a * k, A * k),
        "**": (a ** e, A ** e if A or e else R.one),  # sympy refuses 0**0
        "(ab)c": ((a * b) * c, A * (B * C)),
        "a(b+c)": (a * (b + c), A * B + A * C),
    }
    for i, x in enumerate(R.gens):
        results["diff %d" % i] = (a.diff(i), A.diff(x))
    if b:
        results["monic"] = (b.monic(), B.monic())
        results["quo_ground LC"] = (a.quo_ground(b.LC), A.quo_ground(B.LC))
    if not p:
        results["* Fraction"] = (a * Fraction(k, 7), A * QQ(k, 7))
    for name, (mine, theirs) in results.items():
        theirs.strip_zero()  # PolyElement.diff over GF(p) keeps zeros
        assert _normal(mine), (name, dict(mine.items()))
        assert _sym(R, mine) == theirs, (name, dict(mine.items()), theirs)
    if b:
        assert _sym(R, b).LC == B.LC
        assert b.monic().LC == 1
    assert bool(a) == bool(A)
    assert (a == 1) == (A == 1)
    assert (a == b) == (A == B)
    if a == b:
        assert hash(a) == hash(b)


def _terms(a):
    return dict(a.items())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(1, 3), p=st.sampled_from(MODULI), k=st.integers(-30, 30))
def test_single_pass_results_are_normal_and_leave_operands_alone(data, n, p, k):
    # every operation builds its result in normal form in one pass, changes
    # no operand's dict, and a product by 1 is the other operand itself
    R = _ring(n, p)
    a, b = (data.draw(polys(n, p)) for _ in range(2))
    one = _poly({(0,) * n: 1}, n, p)
    A, B = _sym(R, a), _sym(R, b)
    operands = (a, b, one)
    before = [list(x.t.items()) for x in operands]
    hashes = [hash(x) for x in operands]  # cached before any result is built
    results = {
        "a + -a": (a + -a, R.zero),
        "-a + a": (-a + a, R.zero),
        "(a + b) - b": ((a + b) - b, A),  # cancels on every key of b
        "b + (a - b)": (b + (a - b), A),
        "-a": (-a, -A),
        "a * 1": (a * 1, A),
        "1 * a": (one * a, A),
        "a * one": (a * one, A),
        "prod k": (a._prod(b, k), A * B * k),
        "prod -k": (a._prod(b, -k), A * B * -k),
        "prod 1": (a._prod(b, 1), A * B),
        "prod 0": (a._prod(b, 0), R.zero),
        "one prod k": (one._prod(a, k), A * k),
    }
    if p:
        results["prod p"] = (a._prod(b, p), R.zero)
        results["prod 1 + p"] = (a._prod(b, 1 + p), A * B)
    for i, x in enumerate(R.gens):
        results["diff %d of a^p" % i] = ((a ** (p or 2)).diff(i), (A ** (p or 2)).diff(x))
    for name, (mine, theirs) in results.items():
        theirs.strip_zero()
        assert _normal(mine), (name, _terms(mine))
        assert _sym(R, mine) == theirs, (name, _terms(mine), theirs)
        rebuilt = _poly(_terms(mine), n, p)  # the same polynomial by another route
        assert rebuilt == mine and hash(rebuilt) == hash(mine), name
    assert a * 1 is a and a * one is a and a._prod(one, 1) is a
    assert one * a is (one if a == 1 else a)
    assert hash(a + b) == hash(b + a) and hash(a * b) == hash(b * a)
    assert [list(x.t.items()) for x in operands] == before
    assert [hash(x) for x in operands] == hashes


def test_kernel_edge_cases():
    zero, one = _poly({}, 2), _poly({(0, 0): 1}, 2)
    x = _poly({(1, 0): 1}, 2)
    assert not zero and zero == 0 and one == 1 and not (one == 2)
    assert _terms(x * 0) == {} and _terms(x - x) == {} and (zero ** 0) == 1 and (x ** 0) == 1
    assert _terms(x * Fraction(3, 1)) == {(1, 0): 3}
    assert _terms(x.quo_ground(2)) == {(1, 0): Fraction(1, 2)}
    assert type(_terms((x * 4).quo_ground(2))[1, 0]) is int  # a whole quotient stays an int
    x5, y5, one5 = _poly({(1, 0): 1}, 2, 5), _poly({(0, 1): 1}, 2, 5), _poly({(0, 0): 1}, 2, 5)
    assert _terms((x5 * 5) + one5) == {(0, 0): 1} and one5 == 6 and not (one5 == 2)
    assert _terms((y5 ** 5).diff(1)) == {} and _terms(y5 * 6) == {(0, 1): 1}  # char 5
    assert _terms(y5.quo_ground(3)) == {(0, 1): 2}


# ------------------------------------------------------- packed exponents


def test_packed_monomials_keep_lex_order():
    # a packed key orders as its exponent tuple, so LC is sympy's lex LC
    R = _ring(3, 0)
    a = _poly({(0, 9, 9): 5, (1, 0, 0): 2, (1, 0, 3): 7, (0, 0, 0): 1}, 3)
    assert a.LC == 7 == _sym(R, a).LC
    assert _terms(a.monic()) == {m: Fraction(c, 7) if c != 7 else 1 for m, c in _terms(a).items()}
    big = _poly({((1 << 62) - 1, 0): 1, (0, (1 << 62) - 1): 3}, 2)
    assert big.LC == 1 and _terms(big * big) == {
        ((1 << 63) - 2, 0): 1, ((1 << 62) - 1, (1 << 62) - 1): 6, (0, (1 << 63) - 2): 9}


def test_slot_overflow_raises():
    # the top slot (variable 0) is unbounded; every other exponent must
    # stay below 2^63, and a product or power that would pass it raises
    # rather than carry into its neighbour
    u = _poly({(0, 1 << 62): 1}, 2)
    with pytest.raises(OverflowError):
        u * u
    with pytest.raises(OverflowError):
        _poly({(0, 1 << 63): 1}, 2)
    with pytest.raises(OverflowError):
        _poly({(0, 0, 1 << 62): 1}, 3, 7) ** 2
    z = _poly({(1 << 70, 1): 1}, 2)
    assert _terms(z * z) == {(1 << 71, 2): 1}
    assert _terms(z.diff(0)) == {((1 << 70) - 1, 1): 1 << 70} and _terms(z.diff(1)) == {(1 << 70, 0): 1}
    alg = OreAlgebra.over("z, u")
    z, u = alg.gens
    with pytest.raises(OverflowError):
        alg.mult(u) ** (1 << 64)  # squares u^(2^62) on the way
    with pytest.raises(OverflowError):
        alg.S(1) * alg.mult(_poly({(1, 1 << 62): 1}, 2)) ** 2
    assert dict((alg.mult(z) ** (1 << 64))._c[0].num.items()) == {(1 << 64, 0): 1}


# ---------------------------------------------------------------- powers


@pytest.mark.parametrize("p", MODULI + (13,))
def test_power_is_the_repeated_product(p):
    rng = random.Random(p)
    coeff = (lambda: rng.randrange(1, p)) if p else (lambda: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)))
    for n in (1, 2, 3):
        samples = [_poly({}, n, p)] + [
            _poly({tuple(rng.randint(0, 3) for _ in range(n)): coeff() for _ in range(rng.randint(1, 4))}, n, p)
            for _ in range(6)
        ]
        for a in samples:
            product = _poly({(0,) * n: 1}, n, p)
            for e in range(7):
                assert a ** e == product and _normal(a ** e), (n, p, e, _terms(a))
                product = product * a


@pytest.mark.parametrize("p", MODULI + (13,))
def test_negative_power_raises(p):
    # the squaring loop read bin(-3) as 7: over GF(7), z ** -3 was z ** 7
    z = _poly({(1,): 1}, 1, p)
    for e in (-1, -3, -8):
        with pytest.raises(ValueError, match="negative polynomial powers"):
            z ** e
    with pytest.raises(ValueError, match="negative operator powers"):
        OreAlgebra.over("z", p=p).S(1) ** -3


def test_lifting_to_a_huge_exponent_squares():
    # a sum lifts a base to the gap between two denominator exponents, here
    # 2^40; by squaring, z^(2^40) takes 40 products of one-term polynomials
    alg = OreAlgebra.over("z")
    z = alg.F.gens[0]
    start = time.perf_counter()
    x = (alg.mult(1 / z) ** (1 << 40) + alg.one())._c[0]
    assert time.perf_counter() - start < 1.0
    assert dict(x.num.items()) == {(1 << 40,): 1, (0,): 1}
    assert [(dict(b.items()), e) for b, e in x.den.items()] == [({(1,): 1}, 1 << 40)]


# ---------------------------------------------------------- the boundary


def _same(a, b):
    # FracElement == is structural (over GF(p) a unit is not cancelled)
    return a.numer * b.denom == b.numer * a.denom


def _rand_frac(F, gens, rng, p):
    def poly(terms):
        out = F.zero
        for _ in range(terms):
            mono = F.one * (rng.randrange(p) if p else Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            for g in gens:
                mono = mono * g ** rng.randint(0, 2)
            out = out + mono
        return out

    while True:
        den = poly(rng.randint(1, 3))
        if den:
            return poly(rng.randint(0, 3)) / den


@pytest.mark.parametrize("names, p", [("z", 0), ("z, u", 0), ("z, u", 3), ("z", 5)])
def test_differential_algebra_matches_the_sympy_field(names, p):
    # an algebra built from names makes the same field and the same answers
    # as one built on sympy's field, and every FracElement comes back as the
    # cancelled fraction
    native = OreAlgebra.over(names, p=p)
    F, *gens = frac_field(names, GF(p) if p else QQ)
    assert native.F == F
    ref = OreAlgebra(F, "diff")
    rng = random.Random(names + str(p))
    for _ in range(12):
        g, h = _rand_frac(F, gens, rng, p), _rand_frac(F, gens, rng, p)
        # FracField.new's result for a monic denominator, compared structurally
        assert native._frac(native._loc(g)) == F.new(g.numer.quo_ground(g.denom.LC), g.denom.monic())
        for alg in (native, ref):
            op = alg.op({0: g, 1: h})
            assert sorted(op.terms) == [k for k, c in ((0, g), (1, h)) if c]
            assert _same(op.coeff(0), g) and _same(op.coeff(1), h)
            want = g
            for n in range(4):
                assert _same(alg.delta(g, n), want)
                want = want.diff(gens[0])
            assert _same((op * alg.S(1)).coeff(2), h)
            assert _same(op.apply(g), g * g + h * g.diff(gens[0]))
        assert native.op({0: g, 1: h}) ** 2 == native.op((ref.op({0: g, 1: h}) ** 2).terms)


def test_differential_algebra_takes_native_polynomials():
    alg = OreAlgebra.over("z, u")
    z, u = alg.gens
    F, fz, fu = frac_field("z, u", QQ)
    assert alg.mult(z - u) == alg.mult(fz - fu)
    assert alg.mult(z * Fraction(1, 2)) == alg.mult(fz / 2)
    assert alg.mult(Fraction(-3, 4)) == alg.mult(F.one * -3 / 4) and alg.mult(Fraction(6, 3)) == alg.mult(2)
    assert (alg.S(1) * alg.mult(z ** 3)).terms == {0: 3 * fz ** 2, 1: fz ** 3}
    gf = OreAlgebra.over("t", p=7)
    (t,) = gf.gens
    assert not gf.delta(t ** 7)
    # a Fraction constant is n d^-1 mod p: this used to raise sympy's
    # CoercionFailed, though 1/2 = 4 in GF(7)
    assert gf.mult(Fraction(1, 2)) == gf.mult(4) and gf.mult(Fraction(-3, 5)) == gf.mult(-3 * 3)
    with pytest.raises(ValueError):
        gf.mult(Fraction(1, 7))
    # the boundary returns the cancelled fraction with a monic denominator
    (ft,) = gf.F.gens
    g = (ft ** 2 + 1) / (3 * ft ** 2 + 3 * ft)
    got = gf.delta(g)
    assert got.denom.LC == 1 and got == gf.F.new(got.numer, got.denom)
    assert _same(got, g.diff(ft))
    with pytest.raises(ValueError):
        OreAlgebra.over("z", p=4)
    # each name is one variable of the field too, where sympy's symbols()
    # would read "x0:2" as the range x0, x1 (its delta then raised)
    alg = OreAlgebra.over("x0:2, y")
    assert [str(x) for x in alg.F.symbols] == ["x0:2", "y"] and alg.delta(alg.F.gens[0] ** 2) == 2 * alg.F.gens[0]
    # every kind refuses ZZ: the twists used to answer 0 for 1/(2z + 1)
    F, z = frac_field("z", sympy.ZZ)
    for kw in (dict(kind="diff"), dict(kind="ashift", step=1), dict(kind="qshift", step=2)):
        with pytest.raises(ValueError):
            OreAlgebra(F, **kw)


# ---------------------------------------------------------- primality

# the least strong pseudoprime to the first k prime bases, for k = 1 to 12
# (Jaeschke 1993; Sorenson and Webster 2017; some k share one)
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                       341550071728321, 3825123056546413051, 318665857834031151167461)
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
              5394826801, 232250619601, 9746347772161)


def test_isprime_matches_sympy_up_to_20000():
    assert [n for n in range(20001) if isprime(n)] == [n for n in range(20001) if sympy.isprime(n)]


def test_isprime_rejects_pseudoprimes():
    for n in STRONG_PSEUDOPRIMES + CARMICHAEL:
        assert pow(2, n - 1, n) == 1  # each fools Fermat's test to base 2
        assert not isprime(n) and not sympy.isprime(n), n


def test_isprime_near_the_bounds():
    # around 2^64, around the bound of the deterministic bases and above it,
    # where sympy's test decides
    for centre in (1 << 64, _MR_BOUND, 1 << 90):
        for n in range(centre - 300, centre + 300):
            assert isprime(n) == sympy.isprime(n), n
    assert isprime((1 << 64) - 59) and isprime((1 << 89) - 1)
    assert not isprime(((1 << 61) - 1) * ((1 << 31) - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 10 ** 25))
def test_isprime_matches_sympy(n):
    assert isprime(n) == sympy.isprime(n)
