"""Ore-operator arithmetic over rational-function fields over QQ or GF(p).

An operator is a finite sum sum_k c_k(z) S^k where the generator S acts on
functions by a twist sigma (q-scaling or additive shift of z) or by d/dz.
Multiplication realizes S.g = sigma(g).S (twist kinds) or S.g = g.S + g'
(differential kind).

Coefficients are kept localised, one representation for every kind and
domain: a numerator N in a polynomial ring over a factored denominator
prod b_i^e_i that is never reduced.  The bases b_i are monic (a constant
factor goes to the numerator) and are compared by equality only.  A sum
lifts both sides to the larger exponent of each base, a product adds
exponents, the derivative follows the quotient rule
(N / b^e)' = (N' b - e N b') / b^(e+1), a twist substitutes into N and
into each base, and an element is zero exactly when its numerator is.
None of this takes a gcd, and degrees grow linearly along a derivative
chain.  FracElements appear only at the boundary: the arguments of `op`,
`mult`, `scale`, `sigma`, `delta` and `apply` are localised on the way in
(an int or a polynomial of `gens` skips the field), and `terms`, `coeff`,
`lead`, `sigma`, `delta` and `apply` cancel each result once, on the way
out, with `FracField.new`.  Powers go by repeated squaring.

The differential kind keeps its numerators and bases on native
polynomials, whose arithmetic costs less than sympy's coefficients: over
GF(p)(z) `_GFPoly`s, dense int tuples mod p, and otherwise `_Poly`s, sparse
dicts from exponent tuples to ints or Fractions (ints mod p over GF(p)).
`OreAlgebra.differential` builds it from variable names with no sympy
field; sympy is imported only when a FracElement crosses the boundary.  The
twists keep sympy's PolyElements, which `_subs` needs."""

from fractions import Fraction
from functools import cached_property, reduce
from itertools import zip_longest
from math import comb
from operator import add

# Sorenson and Webster (Math. Comp. 86, 2017): no composite below the bound
# is a strong probable prime to each of the first 13 prime bases
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def isprime(n):
    """Whether the int n is prime: deterministic Miller-Rabin below
    _MR_BOUND (about 3.3e24), sympy's test above it."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_BOUND:
        from sympy import isprime as sympy_isprime

        return sympy_isprime(n)
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _subs(P, index, vn, vd):
    """(P(z -> vn/vd) * vd^d, d) for the polynomial P, where z is the ring
    generator of that index and d is P's degree in z."""
    ring = P.ring
    groups = {}
    for monom, coeff in P.iterterms():
        rest = monom[:index] + (0,) + monom[index + 1:]
        groups.setdefault(monom[index], {})[rest] = coeff
    d = max(groups, default=0)
    vpow, dpow = [ring.one], [ring.one]
    for _ in range(d):
        vpow.append(vpow[-1] * vn)
        dpow.append(dpow[-1] * vd)
    out = ring.zero
    for j, terms in groups.items():
        out += ring.from_dict(terms) * vpow[j] * dpow[d - j]
    return out, d


def _gfp(coeffs, p):
    """The _GFPoly of a list of integer coefficients, low degree first."""
    c = [x % p for x in coeffs]
    while c and not c[-1]:
        c.pop()
    return _GFPoly(tuple(c), p)


class _GFPoly:
    """A polynomial over GF(p) in one variable: c is the tuple of its
    coefficients in [0, p), low degree first, without trailing zeros."""

    __slots__ = ("c", "p")

    def __init__(self, c, p):
        self.c = c
        self.p = p

    def __bool__(self):
        return bool(self.c)

    def __hash__(self):
        return hash(self.c)

    def __eq__(self, other):
        return self.c == (other.c if isinstance(other, _GFPoly) else _gfp([other], self.p).c)

    def __add__(self, other):
        return _gfp([x + y for x, y in zip_longest(self.c, other.c, fillvalue=0)], self.p)

    def __neg__(self):
        return _gfp([-x for x in self.c], self.p)

    def __mul__(self, other):
        if isinstance(other, int):
            return _gfp([x * other for x in self.c], self.p)
        a, b = self.c, other.c
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _gfp(out, self.p)

    def __pow__(self, n):
        return reduce(_GFPoly.__mul__, [self] * n, _GFPoly((1,), self.p))

    def diff(self, i=0):  # i, the variable's index, as for _Poly.diff
        return _gfp([k * x for k, x in enumerate(self.c)][1:], self.p)

    def items(self):
        return (((i,), x) for i, x in enumerate(self.c) if x)

    LC = property(lambda self: self.c[-1])

    def quo_ground(self, k):
        return self * pow(k, -1, self.p)

    def monic(self):
        return self.quo_ground(self.c[-1])


def _rat(x):
    """A Fraction of denominator 1 as its int, which multiplies faster."""
    return x.numerator if x.denominator == 1 else x


class _Poly:
    """A polynomial in n variables over QQ (p = 0) or GF(p): t maps exponent
    tuples to nonzero coefficients, ints or Fractions over QQ and ints in
    [1, p) over GF(p).  LC is the coefficient of the lex-largest exponent,
    as in sympy."""

    __slots__ = ("t", "n", "p")

    def __init__(self, t, n, p=0):
        self.t = t
        self.n = n
        self.p = p

    def _new(self, t):
        """The polynomial of t, with its zero coefficients dropped."""
        p = self.p
        if p:
            return _Poly({m: r for m, c in t.items() if (r := c % p)}, self.n, p)
        return _Poly({m: c for m, c in t.items() if c}, self.n, 0)

    def __bool__(self):
        return bool(self.t)

    def __hash__(self):
        return hash(frozenset(self.t.items()))

    def __eq__(self, other):
        if isinstance(other, _Poly):
            return self.t == other.t
        return self.t == self._new({(0,) * self.n: other}).t

    def __add__(self, other):
        t = dict(self.t)
        for m, c in other.t.items():
            t[m] = t.get(m, 0) + c
        return self._new(t)

    def __neg__(self):
        return self._new({m: -c for m, c in self.t.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, _Poly):  # a scalar
            return self._new({m: c * other for m, c in self.t.items()})
        t = {}
        for m, c in self.t.items():
            for k, d in other.t.items():
                mk = tuple(map(add, m, k))
                t[mk] = t.get(mk, 0) + c * d
        return self._new(t)

    def __pow__(self, n):
        if not n:
            return _Poly({(0,) * self.n: 1}, self.n, self.p)
        return reduce(_Poly.__mul__, [self] * (n - 1), self)

    def diff(self, i=0):
        t = {}
        for m, c in self.t.items():
            if m[i]:
                t[m[:i] + (m[i] - 1,) + m[i + 1:]] = c * m[i]
        return self._new(t)

    def items(self):
        return self.t.items()

    LC = property(lambda self: self.t[max(self.t)])

    def quo_ground(self, k):
        if self.p:
            return self * pow(k, -1, self.p)
        return _Poly({m: _rat(Fraction(c, k)) for m, c in self.t.items()}, self.n, 0)

    def monic(self):
        return self.quo_ground(self.LC)


class _Loc:
    """num / prod(b**e for b, e in den.items()); den is empty when num is 0
    and is never changed in place."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den if num else {}


def _lift(x, den):
    """x's numerator over den, a multiple of x's denominator."""
    num = x.num
    for b, e in den.items():
        k = e - x.den.get(b, 0)
        if k:
            num = num * b ** k
    return num


def _add(x, y):
    if not x.num:
        return y
    if not y.num:
        return x
    if x.den == y.den:
        return _Loc(x.num + y.num, x.den)
    den = dict(x.den)
    for b, e in y.den.items():
        if e > den.get(b, 0):
            den[b] = e
    return _Loc(_lift(x, den) + _lift(y, den), den)


def _mul(x, y, k=1):
    """k * x * y for an integer k."""
    num = x.num * y.num
    if k != 1:
        num = num * k
    if not (x.den and y.den):
        return _Loc(num, x.den or y.den)
    den = dict(x.den)
    for b, e in y.den.items():
        den[b] = den.get(b, 0) + e
    return _Loc(num, den)


def _pow(x, n):
    return _Loc(x.num ** n, {b: e * n for b, e in x.den.items()})


def _equal(x, y):
    """x == y: the numerator of x - y is zero, with no gcd."""
    return not _add(x, _Loc(-y.num, y.den)).num


def _acc(out, k, x):
    """out[k] += x in a dict of coefficients."""
    if x.num:
        out[k] = _add(out[k], x) if k in out else x


def _monic(poly):
    """(leading coefficient, monic associate) of a nonzero polynomial."""
    lc = poly.LC
    return lc, (poly if lc == 1 else poly.monic())


def _over(num, den):
    """num / den for a nonzero den, localised."""
    lc, base = _monic(den)
    num = num if lc == 1 else num.quo_ground(lc)
    return _Loc(num, {} if base == 1 else {base: 1})


class OreAlgebra:
    """kind: 'diff' (S = d/dz), 'ashift' (S: z -> z + step), or 'qshift'
    (S: z -> step*z); z_index locates the acted-on variable among F.gens.
    The 'diff' kind needs F over QQ or GF(p), keeps its coefficients on
    native polynomials and has their generators in `gens`."""

    def __init__(self, F, kind, step=None, z_index=0):
        if kind not in ("diff", "ashift", "qshift"):
            raise ValueError("unknown algebra kind %r" % (kind,))
        if kind != "diff" and step is None:
            raise ValueError("shift algebras need a step element")
        self.F = F
        self.kind = kind
        self.step = step
        self.z_index = z_index
        dom = F.domain
        if kind == "diff":
            if not (dom.is_QQ or dom.is_FiniteField and isprime(dom.mod)):
                raise ValueError("the differential kind needs QQ or GF(p) coefficients, not %s" % (dom,))
            self._native(len(F.gens), dom.mod if dom.is_FiniteField else 0)
        else:
            self.z = F(F.gens[z_index])
            self._shifts = {}  # power -> (vn, monic vd): sigma^power(z) = vn / vd
            self._p = None
            self._zero, self._one = F.ring.zero, F.ring.one

    @classmethod
    def differential(cls, names, p=0, z_index=0):
        """d/dz over QQ(names), or over GF(p)(names) for a prime p, where
        names is a string such as "z, u" and z is its variable z_index.
        Its field F, and sympy, are made when a FracElement first crosses
        the boundary."""
        if p and not isprime(p):
            raise ValueError("p must be a prime number, not %r" % (p,))
        alg = cls.__new__(cls)
        alg.kind, alg.step, alg.z_index, alg._names = "diff", None, z_index, names
        alg._native(len(names.replace(",", " ").split()), p)
        return alg

    def _native(self, n, p):
        """The diff kind's kernel for n variables over QQ (p = 0) or GF(p)."""
        self._mod = p
        self._p = p if p and n == 1 else None  # the _GFPoly backend's prime
        if self._p:
            self._zero, self._one = _GFPoly((), p), _GFPoly((1,), p)
            self.gens = (_GFPoly((0, 1), p),)
        else:
            o = (0,) * n
            self._zero, self._one = _Poly({}, n, p), _Poly({o: 1}, n, p)
            self.gens = tuple(_Poly({o[:i] + (1,) + o[i + 1:]: 1}, n, p) for i in range(n))

    @cached_property
    def F(self):
        from sympy import GF, QQ
        from sympy.polys.fields import field

        return field(self._names, GF(self._mod) if self._mod else QQ)[0]

    @cached_property
    def _dz(self):
        """d/dz over F, which runs a twist's delta."""
        return OreAlgebra(self.F, "diff", z_index=self.z_index)

    # -------------------------------------------- the localised boundary
    def _loc(self, g):
        if isinstance(g, _Loc):
            return g
        if type(g) is int:
            return _Loc(self._one * g, {})
        if isinstance(g, (_GFPoly, _Poly)):
            return _Loc(g, {})
        g = self.F(g)
        if self.kind == "diff":
            return _over(self._from_sympy(g.numer), self._from_sympy(g.denom))
        return _over(g.numer, g.denom)

    def _from_sympy(self, P):
        if self._p:
            return _gfp([int(c) for c in P.to_dense()[::-1]], self._p)
        if self._mod:
            return self._zero._new({m: int(c) for m, c in P.items()})
        return self._zero._new({m: _rat(Fraction(int(c.numerator), int(c.denominator))) for m, c in P.items()})

    def _to_sympy(self, P):
        dom = self.F.domain
        conv = dom.convert if self._mod else (lambda c: dom(c.numerator, c.denominator))
        return self.F.ring.from_dict({m: conv(c) for m, c in P.items()})

    def _quo(self, num, den):
        """num/den for int coefficient lists, low degree first (GF(p) only)."""
        return _over(_gfp(num, self._p), _gfp(den, self._p))

    def _frac(self, x):
        den = self._one
        for b, e in x.den.items():
            den *= b ** e
        num = x.num
        if self.kind == "diff":
            num, den = self._to_sympy(num), self._to_sympy(den)
        return self.F.new(num, den)

    # --------------------------------------------- localised sigma, delta
    def _shift(self, power):
        hit = self._shifts.get(power)
        if hit is None:
            if self.kind == "ashift":
                val = self.z + power * self.step
            elif power >= 0:
                val = self.step ** power * self.z
            else:
                val = self.z / self.step ** (-power)
            lc, vd = _monic(val.denom)
            hit = self._shifts[power] = (val.numer.quo_ground(lc), vd)
        return hit

    def _sigma(self, x, power):
        """sigma^power(x) = N(val) / prod b(val)^e with val = vn/vd; every
        factor vd^deg is collected in one power of vd."""
        if power == 0 or not x.num:
            return x
        vn, vd = self._shift(power)
        num, excess = _subs(x.num, self.z_index, vn, vd)
        den = {}
        for b, e in x.den.items():
            img, d = _subs(b, self.z_index, vn, vd)
            lc, img = _monic(img)
            if lc != 1:
                num = num.quo_ground(lc ** e)
            den[img] = den.get(img, 0) + e
            excess -= d * e
        if excess > 0 and vd != 1:
            den[vd] = den.get(vd, 0) + excess
        elif excess < 0:
            num = num * vd ** -excess
        return _Loc(num, den)

    def _diff(self, x):
        """x' = N'/prod b^e - sum e N b'/(b^(e+1) prod_others); the sum
        lifts everything to one more power of each base that depends on z."""
        out = _Loc(x.num.diff(self.z_index), x.den)
        for b, e in x.den.items():
            db = b.diff(self.z_index)
            if db:
                den = dict(x.den)
                den[b] = e + 1
                out = _add(out, _Loc(x.num * db * -e, den))
        return out

    def _chain(self, x, order):
        """[x, x', ..., x^(order)], cut after the first zero."""
        out = [x]
        while len(out) <= order and out[-1].num:
            out.append(self._diff(out[-1]))
        return out

    # ------------------------------------------------ public, FracElements
    def sigma(self, g, power=1):
        if power == 0 or self.kind == "diff":
            return g
        return self._frac(self._sigma(self._loc(g), power))

    def delta(self, g, order=1):
        alg = self if self.kind == "diff" else self._dz
        return alg._frac(alg._chain(alg._loc(g), order)[-1])

    # operator constructors
    def op(self, terms):
        return OreOp(self, terms)

    def S(self, k=1):
        if self.kind == "diff" and k < 0:
            raise ValueError("differential operators have nonnegative degree")
        return self.op({k: 1})

    def mult(self, g):
        return self.op({0: g})

    def zero(self):
        return self.op({})

    def one(self):
        return self.op({0: 1})


class OreOp:
    """sum_k c_k S^k.  terms maps k to anything the field F accepts; the
    coefficients are stored localised (see the module docstring)."""

    def __init__(self, alg, terms):
        self.alg = alg
        self._c = {}
        for k, c in terms.items():
            x = alg._loc(c)
            if x.num:
                self._c[k] = x

    @classmethod
    def _of(cls, alg, coeffs):
        op = cls.__new__(cls)
        op.alg = alg
        op._c = {k: x for k, x in coeffs.items() if x.num}
        return op

    @property
    def terms(self):
        return {k: self.alg._frac(x) for k, x in self._c.items()}

    def _check(self, other):
        if other.alg is not self.alg:
            raise ValueError("operators come from different algebras")

    def __add__(self, other):
        self._check(other)
        out = dict(self._c)
        for k, x in other._c.items():
            _acc(out, k, x)
        return OreOp._of(self.alg, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return OreOp._of(self.alg, {k: _Loc(-x.num, x.den) for k, x in self._c.items()})

    def scale(self, g):
        """Left multiplication by the function g."""
        g = self.alg._loc(g)
        return OreOp._of(self.alg, {k: _mul(g, x) for k, x in self._c.items()})

    def __mul__(self, other):
        self._check(other)
        alg = self.alg
        out = {}
        if alg.kind == "diff":
            top = max(self._c, default=0)
            for j, b in other._c.items():
                chain = alg._chain(b, top)
                for i, a in self._c.items():
                    # S^i.b = sum_t C(i,t) b^(t) S^(i-t)
                    for t in range(min(i + 1, len(chain))):
                        _acc(out, i - t + j, _mul(a, chain[t], comb(i, t)))
        else:
            for i, a in self._c.items():
                for j, b in other._c.items():
                    _acc(out, i + j, _mul(a, alg._sigma(b, i)))
        return OreOp._of(alg, out)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative operator powers are not supported")
        out = self if n else self.alg.one()
        for bit in bin(n)[3:]:  # by squaring, from the leading bit down
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def _apply(self, g):
        alg = self.alg
        g = alg._loc(g)
        if alg.kind == "diff":
            chain = alg._chain(g, max(self._c, default=0))
            parts = (_mul(x, chain[k]) for k, x in self._c.items() if k < len(chain))
        else:
            parts = (_mul(x, alg._sigma(g, k)) for k, x in self._c.items())
        out = _Loc(alg._zero, {})
        for part in parts:
            out = _add(out, part)
        return out

    def apply(self, g):
        return self.alg._frac(self._apply(g))

    def coeff(self, k):
        x = self._c.get(k)
        return self.alg.F.zero if x is None else self.alg._frac(x)

    def support(self):
        return sorted(self._c)

    def is_zero(self):
        return not self._c

    def __eq__(self, other):
        if not isinstance(other, OreOp):
            return NotImplemented
        return (self - other).is_zero()

    def degree(self):
        return max(self._c) if self._c else None

    def lead(self):
        return self.coeff(max(self._c)) if self._c else self.alg.F.zero

    def __repr__(self):
        if not self._c:
            return "OreOp(0)"
        return "OreOp(" + " + ".join(
            "(%s)*S^%d" % (c, k) for k, c in sorted(self.terms.items())
        ) + ")"
