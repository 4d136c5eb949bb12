"""Integer arithmetic on the Neron-Severi lattice of a rationally (quasi-)ruled
surface and on its numeric Grothendieck group.

Basis convention: (s, f, e_1, ..., e_m) with s a section class, f the fiber
class and e_i exceptional classes.  The parity says whether s^2 = 0 ("even")
or s^2 = -1 ("odd"); in both cases s.f = 1, f^2 = 0, e_i.e_j = -delta_ij and
the e_i are orthogonal to s and f.

DivClass is the checked boundary type: its constructor rejects coefficients
that are not integers and vectors of the wrong length.  Arithmetic on checked
classes builds its results with _new, which skips the checks and sets the
slots by their member descriptors.  The chamber walks in weyl, cones and
sections run on bare coefficient tuples and build DivClass only for answers.
"""

from operator import add, attrgetter, mul, neg, sub


class SignatureMismatch(ValueError):
    pass


class InvariantViolation(AssertionError):
    """An internal consistency check failed.  Raised explicitly rather than
    by an assert statement, so the check also runs under python -O."""


class BudgetExhausted(RuntimeError):
    """A bounded search ran out of steps.  Like UnclassifiedState it carries
    a report: the search, the class it stopped at, the steps used and the
    budget."""

    def __init__(self, search, cls, steps, budget):
        self.cls = cls
        self.report = {"search": search, "class": render_div(cls), "steps": steps, "budget": budget}
        super().__init__(
            "%s exceeded its step budget (%d of %d steps) at %s"
            % (search, steps, budget, self.report["class"])
        )


def _as_int(c):
    """c as an int; raises ValueError for a non-integral value."""
    i = int(c)
    if i != c:
        raise ValueError("%r is not an integer" % (c,))
    return i


_set = object.__setattr__


class _Record:
    """A mutable, unhashable record with the fields its class statement names,
    as in Report(_Record, fields=(...)): repr and == by the fields' tuple."""

    __slots__ = ()

    def __init_subclass__(cls, fields=()):
        cls._fields, cls._key = fields, attrgetter(*fields) if fields else None

    def __repr__(self):
        fields = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields)
        return "%s(%s)" % (self.__class__.__qualname__, fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented


class _Frozen(_Record):
    """An immutable record, hashed by its fields' tuple; pickled and copied by its constructor."""

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, f) for f in self._fields])


class LatticeSignature(_Frozen, fields=("m", "parity", "genera")):
    __slots__ = ("m", "parity", "genera", "rank", "s_sq", "_hash")
    def __init__(self, m, parity, genera=(0, 0)):  # parity: 'even' or 'odd'
        m, (g0, g1) = _as_int(m), map(_as_int, genera)
        if m < 0:
            raise ValueError("m must be >= 0")
        if parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")
        if g0 < 0 or g1 < 0:
            raise ValueError("genera must be nonnegative")
        self._init(m, parity, (g0, g1))
        # the pairing reads only these two (see _pair and _row)
        _set(self, "rank", m + 2)
        _set(self, "s_sq", 0 if parity == "even" else -1)
        # signatures key the per-signature caches, which hash them on every lookup
        _set(self, "_hash", hash((m, parity, self.genera)))

    def __hash__(self):
        return self._hash

    # spelled out (see DivClass): equal signatures of two presets meet in _pull_table's cache
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.m, self.parity, self.genera) == (other.m, other.parity, other.genera)
        return NotImplemented


def _pair(sig, x, y):
    """Intersection number of two coefficient tuples of sig."""
    a = x[0]
    return a * y[1] + x[1] * y[0] + sig.s_sq * a * y[0] - sum(map(mul, x[2:], y[2:]))


def _row(sig, x):
    """The Gram row G.x of a coefficient tuple, so that x.y = _dot(row, y)."""
    a = x[0]
    return (sig.s_sq * a + x[1], a) + tuple(map(neg, x[2:]))


def _dot(row, y):
    return sum(map(mul, row, y))


def _axpy(x, t, a):
    """x + t*a on coefficient tuples."""
    return tuple([u + t * v for u, v in zip(x, a)])


def _coeffs(D, sig):
    """The coefficient tuple of D, checked to be a class of sig."""
    if not isinstance(D, DivClass):
        raise TypeError("expected a DivClass")
    # identity first: equal but distinct signatures (e.g. from
    # elementary_transformation) must still combine
    if D.sig is not sig and D.sig != sig:
        raise SignatureMismatch(
            "cannot combine classes on different signatures: %r vs %r" % (sig, D.sig)
        )
    return D.coeffs


class DivClass(_Frozen, fields=("coeffs", "sig")):
    __slots__ = ("coeffs", "sig")
    def __init__(self, coeffs, sig):
        if not isinstance(sig, LatticeSignature):
            raise TypeError("expected a LatticeSignature, got %r" % (sig,))
        coeffs = tuple(coeffs)
        try:  # one C-level pass for the common all-int case
            c = tuple(map(int, coeffs))
        except (TypeError, ValueError, OverflowError):
            c = None
        if c != coeffs:  # _as_int raises the error, at the first bad entry
            c = tuple(map(_as_int, coeffs))
        if len(c) != sig.rank:
            raise ValueError(
                "coefficient vector has length %d, signature needs %d" % (len(c), sig.rank)
            )
        _set(self, "coeffs", c)
        _set(self, "sig", sig)

    # spelled out for the oracle caches' fresh keys: _Record's attrgetter takes twice as long
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.coeffs, self.sig) == (other.coeffs, other.sig)
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs, self.sig))

    def _check(self, other):
        _coeffs(other, self.sig)

    def __add__(self, other):
        self._check(other)
        return _new(tuple(map(add, self.coeffs, other.coeffs)), self.sig)

    def __sub__(self, other):
        self._check(other)
        return _new(tuple(map(sub, self.coeffs, other.coeffs)), self.sig)

    def __neg__(self):
        return _new(tuple(map(neg, self.coeffs)), self.sig)

    def __rmul__(self, k):
        k = _as_int(k)
        return _new(tuple([k * a for a in self.coeffs]), self.sig)

    __mul__ = __rmul__

    def is_zero(self):
        return not any(self.coeffs)

    def __repr__(self):
        return "DivClass(%s)" % (render_div(self),)


_object_new, _set_coeffs, _set_sig = object.__new__, DivClass.coeffs.__set__, DivClass.sig.__set__


def _new(coeffs, sig):
    """A DivClass from an int tuple of length sig.rank, without the
    constructor's checks: for results computed from checked classes."""
    D = _object_new(DivClass)
    _set_coeffs(D, coeffs)
    _set_sig(D, sig)
    return D


def div(sig, *coeffs):
    if len(coeffs) == 1 and isinstance(coeffs[0], (tuple, list)):
        coeffs = tuple(coeffs[0])
    return DivClass(tuple(coeffs), sig)


def zero_class(sig):
    return _new((0,) * sig.rank, sig)


def basis_s(sig):
    return _new((1, 0) + (0,) * sig.m, sig)


def basis_f(sig):
    return _new((0, 1) + (0,) * sig.m, sig)


def basis_e(sig, i):
    """e_i for 1 <= i <= m."""
    if not 1 <= i <= sig.m:
        raise ValueError("e index %d out of range 1..%d" % (i, sig.m))
    c = [0] * sig.rank
    c[i + 1] = 1
    return _new(tuple(c), sig)


def intersect(D1, D2):
    """Intersection pairing of two divisor classes (same signature)."""
    return _pair(D1.sig, D1.coeffs, _coeffs(D2, D1.sig))


def canonical_class(sig):
    g0, g1 = sig.genera
    if sig.parity == "even":
        bf = -(2 - g0 - g1)
    else:
        bf = -(3 - g0 - g1)
    return _new((-2, bf) + (1,) * sig.m, sig)


def anticanonical_class(sig):
    return -canonical_class(sig)


def chi_structure(sig):
    """chi(O_X) = 1 - g(C_0)."""
    return 1 - sig.genera[0]


def chi_line_bundle(D):
    """chi of any line bundle with Chern class D (Riemann-Roch)."""
    sig, x = D.sig, D.coeffs
    g0, g1 = sig.genera
    k = canonical_class(sig).coeffs
    gt = g0 if x[0] % 2 == 0 else g1  # x[0] = D.f
    num = 2 - (g0 + gt) + _pair(sig, x, x) - _pair(sig, x, k)
    if num % 2 != 0:
        raise ValueError(
            "chi formula is non-integral for %s on %r (quasi-ruled genera %s)"
            % (render_div(D), sig, sig.genera)
        )
    return num // 2


class K0Class(_Frozen, fields=("rank", "c1", "chi")):
    def __init__(self, rank, c1, chi):
        self._init(rank, c1, chi)

    @property
    def sig(self):
        return self.c1.sig

    def _check(self, other):
        self.c1._check(other.c1)

    def __add__(self, other):
        self._check(other)
        return K0Class(self.rank + other.rank, self.c1 + other.c1, self.chi + other.chi)

    def __sub__(self, other):
        self._check(other)
        return K0Class(self.rank - other.rank, self.c1 - other.c1, self.chi - other.chi)

    def is_zero(self):
        return self.rank == 0 and self.c1.is_zero() and self.chi == 0


def line_bundle_class(D):
    """K0 class of a line bundle with Chern class D."""
    return K0Class(1, D, chi_line_bundle(D))


def point_class(sig):
    return K0Class(0, zero_class(sig), 1)


def mukai_pairing(M, N):
    """Euler form chi(M, N) on the numeric Grothendieck group."""
    M._check(N)
    sig = M.sig
    K = canonical_class(sig)
    return (
        -M.rank * N.rank * chi_structure(sig)
        + M.rank * N.chi
        + N.rank * M.chi
        - intersect(M.c1, N.c1 - N.rank * K)
    )


def k0_serre_twist(M):
    """Action of the Serre functor on the numeric Grothendieck group."""
    K = canonical_class(M.sig)
    return K0Class(M.rank, M.c1 + M.rank * K, M.chi + intersect(M.c1, K))


def k0_serre_untwist(M):
    K = canonical_class(M.sig)
    c1 = M.c1 - M.rank * K
    return K0Class(M.rank, c1, M.chi - intersect(c1, K))


def k0_adjoint(M):
    """Adjoint (R ad) action; an involution."""
    K = canonical_class(M.sig)
    return K0Class(M.rank, -M.c1 + M.rank * K, M.chi)


def k0_order_transfer(M, direction, r, K_Z, chi_OZ):
    """Transfer along a degree-r^2 maximal order with center canonical class K_Z.

    The Neron-Severi lattices of the order and its center are identified (both
    transfer maps act on NS by multiplication by r); K_Z is expressed in the
    common basis and chi_OZ = chi(O_Z) is part of the center description.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    sig = M.sig
    K_X = canonical_class(sig)
    M.c1._check(K_Z)
    disc = r * r * K_Z - r * K_X
    if any(c % 2 != 0 for c in disc.coeffs):
        raise ValueError(
            "r^2*K_Z - r*K_X = %s is not divisible by 2; parity mismatch"
            % render_div(disc)
        )
    half = _new(tuple(c // 2 for c in disc.coeffs), sig)
    if direction == "push":
        return K0Class(r * r * M.rank, r * M.c1 + M.rank * half, M.chi)
    if direction == "pull":
        chi = (
            r * r * M.chi
            + intersect(M.c1, half)
            + M.rank * (chi_structure(sig) - r * r * chi_OZ)
        )
        return K0Class(M.rank, r * M.c1, chi)
    raise ValueError("direction must be 'push' or 'pull'")


def render_div(D):
    """Render a divisor class as an expression like '2s+3f-e1-e2'."""
    names = ["s", "f"] + ["e%d" % i for i in range(1, D.sig.m + 1)]
    parts = []
    for c, name in zip(D.coeffs, names):
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        body = name if mag == 1 else "%d%s" % (mag, name)
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += sign + body
    return out
