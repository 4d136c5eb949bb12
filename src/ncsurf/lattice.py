"""Integer arithmetic on the Neron-Severi lattice of a rationally (quasi-)ruled
surface and on its numeric Grothendieck group.

Basis convention: (s, f, e_1, ..., e_m) with s a section class, f the fiber
class and e_i exceptional classes.  The parity says whether s^2 = 0 ("even")
or s^2 = -1 ("odd"); in both cases s.f = 1, f^2 = 0, e_i.e_j = -delta_ij and
the e_i are orthogonal to s and f.
"""

from dataclasses import dataclass


class SignatureMismatch(ValueError):
    pass


@dataclass(frozen=True)
class LatticeSignature:
    m: int
    parity: str  # 'even' or 'odd'
    genera: tuple = (0, 0)

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be >= 0")
        if self.parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")
        g0, g1 = self.genera
        if g0 < 0 or g1 < 0:
            raise ValueError("genera must be nonnegative")
        object.__setattr__(self, "genera", (int(g0), int(g1)))

    @property
    def rank(self):
        return self.m + 2

    @property
    def s_sq(self):
        return 0 if self.parity == "even" else -1

    def gram(self):
        """Gram matrix as a tuple of row tuples."""
        n = self.rank
        G = [[0] * n for _ in range(n)]
        G[0][0] = self.s_sq
        G[0][1] = G[1][0] = 1
        for i in range(2, n):
            G[i][i] = -1
        return tuple(tuple(row) for row in G)


@dataclass(frozen=True)
class DivClass:
    coeffs: tuple
    sig: LatticeSignature

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if len(self.coeffs) != self.sig.rank:
            raise ValueError(
                "coefficient vector has length %d, signature needs %d"
                % (len(self.coeffs), self.sig.rank)
            )

    def _check(self, other):
        if not isinstance(other, DivClass):
            raise TypeError("expected a DivClass")
        if other.sig != self.sig:
            raise SignatureMismatch(
                "cannot combine classes on different signatures: %r vs %r"
                % (self.sig, other.sig)
            )

    def __add__(self, other):
        self._check(other)
        return DivClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.sig)

    def __sub__(self, other):
        self._check(other)
        return DivClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), self.sig)

    def __neg__(self):
        return DivClass(tuple(-a for a in self.coeffs), self.sig)

    def __rmul__(self, k):
        return DivClass(tuple(int(k) * a for a in self.coeffs), self.sig)

    __mul__ = __rmul__

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return "DivClass(%s)" % (render_div(self),)


def div(sig, *coeffs):
    if len(coeffs) == 1 and isinstance(coeffs[0], (tuple, list)):
        coeffs = tuple(coeffs[0])
    return DivClass(tuple(coeffs), sig)


def zero_class(sig):
    return DivClass((0,) * sig.rank, sig)


def basis_s(sig):
    return DivClass((1, 0) + (0,) * sig.m, sig)


def basis_f(sig):
    return DivClass((0, 1) + (0,) * sig.m, sig)


def basis_e(sig, i):
    """e_i for 1 <= i <= m."""
    if not 1 <= i <= sig.m:
        raise ValueError("e index %d out of range 1..%d" % (i, sig.m))
    c = [0] * sig.rank
    c[i + 1] = 1
    return DivClass(tuple(c), sig)


def intersect(D1, D2):
    """Intersection pairing of two divisor classes (same signature)."""
    D1._check(D2)
    a1, b1 = D1.coeffs[0], D1.coeffs[1]
    a2, b2 = D2.coeffs[0], D2.coeffs[1]
    val = a1 * b2 + a2 * b1 + D1.sig.s_sq * a1 * a2
    for c, d in zip(D1.coeffs[2:], D2.coeffs[2:]):
        val -= c * d
    return val


def canonical_class(sig):
    g0, g1 = sig.genera
    if sig.parity == "even":
        bf = -(2 - g0 - g1)
    else:
        bf = -(3 - g0 - g1)
    return DivClass((-2, bf) + (1,) * sig.m, sig)


def anticanonical_class(sig):
    return -canonical_class(sig)


def chi_structure(sig):
    """chi(O_X) = 1 - g(C_0)."""
    return 1 - sig.genera[0]


def chi_line_bundle(D):
    """chi of any line bundle with Chern class D (Riemann-Roch)."""
    sig = D.sig
    g0, g1 = sig.genera
    K = canonical_class(sig)
    gt = g0 if intersect(D, basis_f(sig)) % 2 == 0 else g1
    num = 2 - (g0 + gt) + intersect(D, D - K)
    if num % 2 != 0:
        raise ValueError(
            "chi formula is non-integral for %s on %r (quasi-ruled genera %s)"
            % (render_div(D), sig, sig.genera)
        )
    return num // 2


@dataclass(frozen=True)
class K0Class:
    rank: int
    c1: DivClass
    chi: int

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
    half = DivClass(tuple(c // 2 for c in disc.coeffs), sig)
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
