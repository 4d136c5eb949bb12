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
(an int, a Fraction or a polynomial of `gens` skips the field), and
`terms`, `coeff`, `lead`, `sigma`, `delta` and `apply` cancel each result
once, on the way out, with `FracField.new`.  Powers go by repeated squaring.

Every kind keeps its numerators and bases on one native kernel, whose
arithmetic costs less than sympy's coefficients: `_Poly`, sparse dicts from
monomials, each packed into one int, to ints or Fractions over QQ and to
ints mod p over GF(p), in any number of variables; each result is built
in normal form as it is computed, and no polynomial changes once built.  A twist's step is localised once, and sigma^k(z) and the substitution into z's slot of the
packed monomials (`_subs`) run on the kernel too.  `OreAlgebra.over` builds
every kind from variable names with no sympy field: sympy is imported only
when a FracElement crosses the boundary, the only code here that reads it
apart from `isprime` above its deterministic bound."""

from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import comb
from operator import or_

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


def _rat(x):
    """A Fraction of denominator 1 as its int, which multiplies faster."""
    return x.numerator if x.denominator == 1 else x


# A monomial of _Poly is one int: the exponent of variable 0 in its top
# slot, which is unbounded, and each other exponent in a slot of _W bits,
# below 2^(_W - 1), so that int order is lex order and a product adds keys.
_W = 64
_SLOT = (1 << _W) - 1
_ONE = {0: 1}  # the t of the constant polynomial 1


def _pack(m):
    """The key of the exponent tuple m; OverflowError if one does not fit."""
    key = 0
    for i, e in enumerate(m):
        if e < 0 or i and e >> _W - 1:
            raise OverflowError("exponent %d does not fit a %d-bit slot" % (e, _W - 1))
        key = key << _W | e
    return key


def _unpack(key, n):
    out = [key >> _W * (n - 1)]
    for i in range(n - 2, -1, -1):
        out.append(key >> _W * i & _SLOT)
    return tuple(out)


def _power(x, n):
    """x ** n for an int n >= 1, by squaring from the leading bit down."""
    out = x
    for bit in bin(n)[3:]:
        out = out * out
        if bit == "1":
            out = out * x
    return out


@lru_cache(maxsize=None)
def _guard(n):
    """The top bit of each slot below the top one: set in a product's key
    exactly where an exponent outgrew its slot."""
    return sum(1 << _W * i + _W - 1 for i in range(n - 1))


class _Poly:
    """A polynomial in n variables over QQ (p = 0) or GF(p): t maps packed
    monomials (see _pack) to nonzero coefficients, ints or Fractions over
    QQ and ints in [1, p) over GF(p).  LC is the coefficient of the
    lex-largest monomial, as in sympy, and items() yields exponent tuples.

    Sums, negations, derivatives and scalar multiples build their result
    dict in this normal form in the one pass that computes it, a product in
    one accumulation and one reduction.  No t changes after construction, so
    a result may be an operand: x * 1 and 1 * x (for the int 1 or the
    polynomial 1) return x.  The hash reads t's keys once, on first use."""

    __slots__ = ("t", "n", "p", "_h")

    def __init__(self, t, n, p=0):
        self.t, self.n, self.p = t, n, p

    def _new(self, t):
        """The polynomial of t, with its zero coefficients dropped."""
        p = self.p
        if p:
            return _Poly({m: r for m, c in t.items() if (r := c % p)}, self.n, p)
        return _Poly({m: c for m, c in t.items() if c}, self.n, 0)

    def __bool__(self):
        return bool(self.t)

    def __hash__(self):
        try:
            return self._h
        except AttributeError:
            h = self._h = hash(frozenset(self.t))
            return h

    def __eq__(self, other):
        return self.t == (other.t if isinstance(other, _Poly) else self._new({0: other}).t)

    def __add__(self, other):
        t, p = dict(self.t), self.p
        get = t.get
        for m, c in other.t.items():
            if s := (get(m, 0) + c) % p if p else get(m, 0) + c:
                t[m] = s
            else:  # m is a key of self, whose term other's cancels
                del t[m]
        return _Poly(t, self.n, p)

    def __neg__(self):
        p = self.p
        return _Poly({m: p - c for m, c in self.t.items()} if p else {m: -c for m, c in self.t.items()}, self.n, p)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, _Poly):
            return self._prod(other, 1)
        if other == 1:  # a scalar from here on
            return self
        p = self.p
        if p:
            return _Poly({m: r for m, c in self.t.items() if (r := c * other % p)}, self.n, p)
        return _Poly({m: c * other for m, c in self.t.items()} if other else {}, self.n, 0)

    def _prod(self, other, s):
        """s * self * other for an int s, accumulated in one dict."""
        if self.p:
            s %= self.p
        if not s:
            return _Poly({}, self.n, self.p)
        if s == 1 and _ONE in (self.t, other.t):
            return self if other.t == _ONE else other
        t = {}
        get = t.get
        for m, c in self.t.items():
            c *= s
            for k, d in other.t.items():
                mk = m + k
                t[mk] = get(mk, 0) + c * d
        if self.n > 1 and reduce(or_, t, 0) & _guard(self.n):
            raise OverflowError("an exponent of the product does not fit its %d-bit slot" % (_W - 1))
        return self._new(t)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial powers are not supported")
        return _power(self, n) if n else _Poly({0: 1}, self.n, self.p)

    def diff(self, i=0):
        shift = _W * (self.n - 1 - i)
        mask, one, p = _SLOT if i else -1, 1 << shift, self.p
        t = {}
        for m, c in self.t.items():
            if (e := m >> shift & mask) and (r := c * e % p if p else c * e):
                t[m - one] = r
        return _Poly(t, self.n, p)

    def items(self):
        return ((_unpack(m, self.n), c) for m, c in self.t.items())

    LC = property(lambda self: self.t[max(self.t)])

    def quo_ground(self, k):
        if self.p:
            return self * pow(k, -1, self.p)
        return _Poly({m: _rat(Fraction(c, k)) for m, c in self.t.items()}, self.n, 0)

    def monic(self):
        return self.quo_ground(self.LC)


def _subs(P, index, vn, vd):
    """(P(z -> vn/vd) * vd^d, d) for the _Poly P, where z is its variable of
    that index and d is P's degree in z: the terms are grouped by z's slot."""
    n, p = P.n, P.p
    shift = _W * (n - 1 - index)
    mask = _SLOT if index else -1
    groups = {}
    for m, c in P.t.items():
        e = m >> shift & mask
        groups.setdefault(e, {})[m - (e << shift)] = c
    d = max(groups, default=0)
    one = _Poly({0: 1}, n, p)
    vpow, dpow = [one], [one]
    for _ in range(d):
        vpow.append(vpow[-1] * vn)
        dpow.append(dpow[-1] * vd)
    out = _Poly({}, n, p)
    for j, t in groups.items():
        out += _Poly(t, n, p) * vpow[j] * dpow[d - j]
    return out, d


def _poly(terms, n, p=0):
    """The _Poly of a dict from exponent tuples to coefficients."""
    return _Poly({}, n, p)._new({_pack(m): c for m, c in terms.items()})


class _Loc:
    """num / prod(b**e for b, e in den.items()); den is empty when num is 0
    and is never changed in place."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den if num.t else {}


def _lift(x, den):
    """x's numerator over den, a multiple of x's denominator."""
    num = x.num
    for b, e in den.items():
        k = e - x.den.get(b, 0)
        if k:
            num = num * b ** k
    return num


def _add(x, y):
    if not x.num.t:
        return y
    if not y.num.t:
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
    num = x.num._prod(y.num, k)
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
    return not _add(x, _Loc(-y.num, y.den)).num.t


def _acc(out, k, x):
    """out[k] += x in a dict of coefficients."""
    if x.num.t:
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
    F is over QQ or GF(p); the coefficients live on native polynomials,
    whose generators are `gens`."""

    def __init__(self, F, kind, step=None, z_index=0):
        dom = F.domain
        self.F = F
        p = dom.mod if dom.is_FiniteField else 0 if dom.is_QQ else dom  # any other domain, for _setup to refuse
        self._setup([str(x) for x in F.symbols], p, kind, step, z_index)

    @classmethod
    def over(cls, names, kind="diff", step=None, p=0, z_index=0):
        """The algebra over QQ(names), or over GF(p)(names) for a prime p,
        where names is a string such as "z, u" and z is its variable z_index;
        a twist's step is an int or one of the names.  Its field F, and
        sympy, are made when a FracElement first crosses the boundary."""
        alg = cls.__new__(cls)
        alg._setup(names.replace(",", " ").split(), p, kind, step, z_index)
        return alg

    def _setup(self, names, p, kind, step, z_index):
        """The checks, and the kernel for the variables names over QQ (p = 0)
        or GF(p)."""
        if kind not in ("diff", "ashift", "qshift"):
            raise ValueError("unknown algebra kind %r" % (kind,))
        if kind != "diff" and step is None:
            raise ValueError("shift algebras need a step element")
        n = len(names)
        if not 0 <= z_index < n:
            raise ValueError("z_index must be in range(%d), not %r" % (n, z_index))
        if len(set(names)) < n:
            raise ValueError("the variable names %s repeat" % (", ".join(names),))
        if p != 0 and not (isinstance(p, int) and isprime(p)):
            raise ValueError("Ore algebras need QQ or GF(p) coefficients for a prime p, not %s" % (p,))
        self.kind, self.step, self.z_index, self._names, self._mod = kind, step, z_index, names, p
        self._zero, self._one = _Poly({}, n, p), _Poly({0: 1}, n, p)
        self.gens = tuple(_Poly({1 << _W * i: 1}, n, p) for i in range(n - 1, -1, -1))
        if kind != "diff":
            if isinstance(step, str) and step not in names:
                raise ValueError("the step %r is not one of the names %s" % (step, ", ".join(names)))
            s = self._step = self._loc(self.gens[names.index(step)] if isinstance(step, str) else step)
            shift, mask = _W * (n - 1 - z_index), _SLOT if z_index else -1
            if kind == "qshift" and not s.num or any(m >> shift & mask for P in (s.num, *s.den) for m in P.t):
                raise ValueError("the step %s gives no automorphism: it is 0 or involves z" % (step,))
            self._shifts = {}  # power -> (vn, monic vd): sigma^power(z) = vn / vd

    @cached_property
    def F(self):
        from sympy import GF, QQ, Symbol
        from sympy.polys.fields import field

        return field([Symbol(x) for x in self._names], GF(self._mod) if self._mod else QQ)[0]

    # -------------------------------------------- the localised boundary
    def _loc(self, g):
        if isinstance(g, _Loc):
            return g
        if isinstance(g, Fraction):  # n d^-1 over GF(p): pow raises ValueError when p divides d
            g = g.numerator * pow(g.denominator, -1, self._mod) if self._mod else _rat(g)
        if type(g) is int or isinstance(g, Fraction):
            return _Loc(self._one * g, {})
        if isinstance(g, _Poly):
            return _Loc(g, {})
        g = self.F(g)
        return _over(self._from_sympy(g.numer), self._from_sympy(g.denom))

    def _from_sympy(self, P):
        conv = int if self._mod else (lambda c: _rat(Fraction(int(c.numerator), int(c.denominator))))
        return self._zero._new({_pack(m): conv(c) for m, c in P.items()})

    def _to_sympy(self, P):
        dom = self.F.domain
        conv = dom.convert if self._mod else (lambda c: dom(c.numerator, c.denominator))
        return self.F.ring.from_dict({m: conv(c) for m, c in P.items()})

    def _quo(self, num, den):
        """num/den for lists of int coefficients of z^0, z^1, ..."""
        shift = _W * (self._one.n - 1 - self.z_index)
        return _over(*(self._zero._new({k << shift: c for k, c in enumerate(cs)}) for cs in (num, den)))

    def _den(self, x):
        """The product of x's denominator."""
        den = self._one
        for b, e in x.den.items():
            den *= b ** e
        return den

    def _frac(self, x):
        return self.F.new(self._to_sympy(x.num), self._to_sympy(self._den(x)))

    # --------------------------------------------- localised sigma, delta
    def _shift(self, power):
        hit = self._shifts.get(power)
        if hit is None:
            z, step = self.gens[self.z_index], self._step
            num, den = step.num, self._den(step)
            if self.kind == "ashift":  # z + power * step, which is z when p divides power
                x = _add(_Loc(z, {}), _Loc(num * power, step.den))
                num, den = x.num, self._den(x)
            elif power >= 0:
                num, den = num ** power * z, den ** power
            else:
                num, den = z * den ** -power, num ** -power
            x = _over(num, den)
            hit = self._shifts[power] = (x.num, next(iter(x.den), self._one))
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
                out = _add(out, _Loc(x.num._prod(db, -e), den))
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
        return self._frac(self._chain(self._loc(g), order)[-1])

    # operator constructors
    def op(self, terms):
        return OreOp(self, terms)

    def S(self, k=1):
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
            if k < 0 and alg.kind == "diff":
                raise ValueError("differential operators have nonnegative degree")
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
        return _power(self, n) if n else self.alg.one()

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
