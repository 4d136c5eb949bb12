"""Marking data of a surface beyond its lattice: the anticanonical
decomposition, an abstract finitely generated abelian group playing the role
of Pic^0 of the anticanonical curve (with distinguished element q), and the
effectiveness oracles for -2-roots and -1-classes built on them."""

from dataclasses import dataclass
from functools import lru_cache
import math

from . import snf
from .lattice import (
    DivClass,
    anticanonical_class,
    canonical_class,
    intersect,
    render_div,
)


@dataclass(frozen=True)
class MarkingGroup:
    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(int(n) for n in self.torsion))
        if self.free_rank < 0:
            raise ValueError("free rank must be >= 0")
        if any(n < 2 for n in self.torsion):
            raise ValueError("torsion orders must be >= 2")

    @property
    def ngens(self):
        return self.free_rank + len(self.torsion)

    def reduce(self, x):
        x = tuple(int(c) for c in x)
        if len(x) != self.ngens:
            raise ValueError("element has %d coordinates, group needs %d" % (len(x), self.ngens))
        free = x[: self.free_rank]
        tors = tuple(c % n for c, n in zip(x[self.free_rank:], self.torsion))
        return free + tors

    def zero(self):
        return (0,) * self.ngens

    def add(self, x, y):
        return self.reduce(tuple(a + b for a, b in zip(x, y)))

    def neg(self, x):
        return self.reduce(tuple(-a for a in x))

    def smul(self, k, x):
        return self.reduce(tuple(int(k) * a for a in x))

    def eq(self, x, y):
        return self.reduce(x) == self.reduce(y)

    def is_zero(self, x):
        return self.reduce(x) == self.zero()


@lru_cache(maxsize=None)
def cyclic_membership(P, x, q):
    """Solve a*q = x in the group P; returns the coset (a0, d) of solutions
    a in a0 + d*Z (d = 0 means the solution is unique), or None."""
    x = P.reduce(x)
    q = P.reduce(q)
    R = P.free_rank
    T = len(P.torsion)
    # unknowns: (a, k_1..k_T); equations: free coords exactly, torsion mod n_j
    A = []
    b = []
    for i in range(R):
        A.append([q[i]] + [0] * T)
        b.append(x[i])
    for j in range(T):
        row = [q[R + j]] + [0] * T
        row[1 + j] = P.torsion[j]
        A.append(row)
        b.append(x[R + j])
    if not A:  # trivial group
        return (0, 1)
    sol = snf.solve(A, b)
    if sol is None:
        return None
    x0, kernel = sol
    a0 = x0[0]
    d = 0
    for v in kernel:
        d = math.gcd(d, v[0])
    if d:
        a0 %= d
    # re-verify by group arithmetic
    assert P.eq(P.smul(a0, q), x), "cyclic membership witness failed to verify"
    return (a0, d)


@dataclass(frozen=True)
class QComponent:
    cls: DivClass
    mult: int

    def __post_init__(self):
        if self.mult < 1:
            raise ValueError("component multiplicity must be >= 1")


@dataclass(frozen=True)
class SurfaceData:
    sig: object
    components: tuple
    marking: MarkingGroup
    q: tuple
    lam: tuple  # images of (s, f, e_1..e_m) in the marking group

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "q", self.marking.reduce(self.q))
        object.__setattr__(
            self, "lam", tuple(self.marking.reduce(v) for v in self.lam)
        )

    def lam_of(self, D):
        """lambda(D); meaningful on component-degree-0 classes."""
        P = self.marking
        out = P.zero()
        for c, v in zip(D.coeffs, self.lam):
            if c:
                out = P.add(out, P.smul(c, v))
        return out


def validate(S):
    """Check the structural invariants; returns a list of violation strings."""
    out = []
    sig = S.sig
    if len(S.lam) != sig.rank:
        out.append("lambda must give %d basis images, got %d" % (sig.rank, len(S.lam)))
    total = None
    f = DivClass((0, 1) + (0,) * sig.m, sig)
    negK = anticanonical_class(sig)
    irreducible_q = (
        len(S.components) == 1
        and S.components[0].mult == 1
        and S.components[0].cls.sig == sig
        and S.components[0].cls == negK
    )
    for i, comp in enumerate(S.components):
        if comp.cls.sig != sig:
            out.append("component %d has a mismatched signature" % i)
            continue
        deg = intersect(comp.cls, f)
        # an irreducible anticanonical curve is a bisection; otherwise each
        # component must be vertical or a section
        if deg not in (0, 1) and not irreducible_q:
            out.append(
                "component fiber degree: component %d has cls.f = %d, want 0 or 1"
                % (i, deg)
            )
        term = comp.mult * comp.cls
        total = term if total is None else total + term
    if total is None:
        total_ok = negK.is_zero()
    else:
        total_ok = total == negK
    if not total_ok:
        out.append(
            "anticanonical sum: components sum to %s, want %s"
            % (render_div(total) if total is not None else "0", render_div(negK))
        )
    return out


def ord_q(S):
    """Order of q in the marking group (None means infinite)."""
    return element_order(S.marking, S.q)


def element_order(P, x):
    """Order of an arbitrary element (None means infinite)."""
    x = P.reduce(x)
    if any(x[: P.free_rank]):
        return None
    order = 1
    for c, n in zip(x[P.free_rank:], P.torsion):
        if c:
            k = n // math.gcd(n, c)
            order = order * k // math.gcd(order, k)
    return order


@lru_cache(maxsize=None)
def _effective_neg1_classes(sig):
    """-1 classes effective on every surface of this signature: the e_i and
    the orbit classes f - e_i."""
    from . import weyl

    out = []
    for i in range(1, sig.m + 1):
        out.append(DivClass(tuple(1 if j == 1 + i else 0 for j in range(sig.rank)), sig))
    f = DivClass((0, 1) + (0,) * sig.m, sig)
    for i in range(1, sig.m + 1):
        c = f - out[i - 1]
        if weyl.in_neg1_orbit(sig, c):
            out.append(c)
    return tuple(out)


@lru_cache(maxsize=None)
def is_root_effective(S, alpha):
    """Effectiveness of a -2-root, with a witness.

    Returns (bool, witness) where the witness records the subtracted component
    multiplicities and, for the marked branch, the coset of exponents a with
    lambda(beta) = a*q.
    """
    K = canonical_class(S.sig)
    if intersect(alpha, alpha) != -2 or intersect(alpha, K) != 0:
        raise ValueError(
            "%s is not a root (need alpha^2 = -2 and alpha.K = 0)" % render_div(alpha)
        )
    sig = S.sig
    comps = S.components
    # -1 classes that are effective on every surface; decompositions can
    # pass through them (e.g. a section component plus leftover exceptionals)
    neg1 = _effective_neg1_classes(sig)
    # a root can only contain each component of Q with small multiplicity;
    # cap the search so it stays total on looping configurations
    caps = [2 * c.mult + 2 for c in comps]
    # pairing with K: 0 = alpha.K = sum n_j (C_j.K) - (#-1 classes), so the
    # component caps bound how many -1 classes a decomposition can use
    ncap = sum(
        cap * max(intersect(c.cls, K), 0) for cap, c in zip(caps, comps)
    )
    budget = max(64, 64 * sig.m * (1 + sum(c.mult for c in comps)))
    # prune via the dual-interior grading: every effective class (and every
    # residue on a successful decomposition path) has nonnegative grade
    from .cones import _grading_class

    A = _grading_class(S)
    if intersect(alpha, A) < 0:
        return False, None
    start = (alpha.coeffs, (0,) * len(comps), 0, ())
    seen = {alpha.coeffs}
    queue = [start]
    steps = 0
    while queue:
        coeffs, n, nsub, pieces = queue.pop(0)
        steps += 1
        if steps > budget:
            raise RuntimeError("root effectiveness search exceeded its step budget")
        beta = DivClass(coeffs, sig)
        degs = [intersect(beta, comp.cls) for comp in comps]
        if beta.is_zero():
            if any(n) or nsub:
                return True, {"components": n, "a": 0, "d": 1, "pieces": pieces}
            # alpha = 0 cannot happen (alpha^2 = -2)
        elif all(d == 0 for d in degs):
            wit = cyclic_membership(S.marking, S.lam_of(beta), S.q)
            if wit is not None:
                out = pieces + (beta,) if pieces else ()
                return True, {"components": n, "a": wit[0], "d": wit[1], "pieces": out}
        # recurse on components pairing negatively with the residue
        for j, d in enumerate(degs):
            if d < 0 and n[j] < caps[j]:
                b2 = beta - comps[j].cls
                n2 = n[:j] + (n[j] + 1,) + n[j + 1:]
                if b2.coeffs not in seen and intersect(b2, A) >= 0:
                    seen.add(b2.coeffs)
                    queue.append((b2.coeffs, n2, nsub, pieces + (comps[j].cls,)))
        # and on always-effective -1 classes pairing negatively with it
        for c in neg1:
            if nsub < ncap and intersect(beta, c) < 0:
                b2 = beta - c
                if b2.coeffs not in seen and intersect(b2, A) >= 0:
                    seen.add(b2.coeffs)
                    queue.append((b2.coeffs, n, nsub + 1, pieces + (c,)))
    return False, None


def is_neg1_effective(S, e):
    """A formal -1-class (checked to lie in the reflection orbit of e_m) is
    always effective."""
    _check_neg1(S, e)
    return True


def is_neg1_irreducible(S, e):
    """True when no effective root and no other component pairs negatively
    with e."""
    _check_neg1(S, e)
    from . import latenum  # local import; latenum depends on lattice only

    for comp in S.components:
        if comp.cls != e and intersect(e, comp.cls) < 0:
            return False
    for alpha in latenum.candidate_roots_pairing_negatively(S.sig, e):
        if is_root_effective(S, alpha)[0]:
            return False
    return True


def _check_neg1(S, e):
    K = canonical_class(S.sig)
    if intersect(e, e) != -1 or intersect(e, K) != -1:
        raise ValueError(
            "%s is not a formal -1-class (need e^2 = e.K = -1)" % render_div(e)
        )
    from . import weyl

    if not weyl.in_neg1_orbit(S.sig, e):
        raise ValueError(
            "%s is not in the reflection orbit of e_m" % render_div(e)
        )


def blow_up(S, component_index, local_mults, position):
    """Blow up a point lying on the given components with the given local
    multiplicities; position is the marking of the new exceptional point."""
    comps = S.components
    if not 0 <= component_index < len(comps):
        raise ValueError("component index %d out of range" % component_index)
    if len(local_mults) != len(comps):
        raise ValueError("need one local multiplicity per component")
    if any(mj < 0 for mj in local_mults):
        raise ValueError("local multiplicities must be nonnegative")
    if local_mults[component_index] < 1:
        raise ValueError("the chosen component must pass through the point")
    mu = sum(mj * comp.mult for mj, comp in zip(local_mults, comps))
    if mu < 1:
        raise ValueError("total multiplicity must be >= 1")
    from .lattice import LatticeSignature, basis_e

    sig2 = LatticeSignature(S.sig.m + 1, S.sig.parity, S.sig.genera)
    e_new = basis_e(sig2, sig2.m)

    def lift(D):
        return DivClass(D.coeffs + (0,), sig2)

    new_comps = [
        QComponent(lift(comp.cls) - mj * e_new, comp.mult)
        for comp, mj in zip(comps, local_mults)
    ]
    if mu > 1:
        new_comps.append(QComponent(e_new, mu - 1))
    S2 = SurfaceData(
        sig2,
        tuple(new_comps),
        S.marking,
        S.q,
        S.lam + (S.marking.reduce(position),),
    )
    bad = validate(S2)
    if bad:
        raise ValueError("blowup bookkeeping failed: " + "; ".join(bad))
    return S2


def isomonodromy_count(S):
    """Number of continuous isomonodromy deformations: -chi of the twisted
    structure sheaf of the nonreduced part A = sum (mult_j - 1) cls_j."""
    sig = S.sig
    K = canonical_class(sig)
    A = None
    for comp in S.components:
        if comp.mult > 1:
            term = (comp.mult - 1) * comp.cls
            A = term if A is None else A + term
    if A is None:
        return 0
    num = intersect(A, A) - intersect(A, K)
    assert num % 2 == 0
    return -num // 2


def moduli_stack_dim(g, m):
    if g < 0 or m < 0:
        raise ValueError("g, m must be nonnegative")
    if g == 0:
        return m + 3
    if g == 1:
        return m + 1
    return m + 2 * g - 2
