"""Marking data of a surface beyond its lattice: the anticanonical
decomposition, an abstract finitely generated abelian group playing the role
of Pic^0 of the anticanonical curve (with distinguished element q), and the
effectiveness oracle for -2-roots built on them (weyl decides -1-classes by
the blowdown walk).  Whether lambda(beta) lies in <q> is one equation a*q = x
in the group: a free coordinate fixes a, and the torsion coordinates are
congruences joined by the Chinese remainder theorem (cyclic_membership).
What the oracle and the cone loop need of a surface besides that is computed
once (_surface_table)."""

from collections import deque, namedtuple
from functools import lru_cache
import math
from operator import sub

from .lattice import (
    BudgetExhausted,
    DivClass,
    InvariantViolation,
    _Frozen,
    _as_int,
    _coeffs,
    _dot,
    _new,
    _pair,
    _row,
    _set,
    anticanonical_class,
    basis_e,
    basis_f,
    canonical_class,
    intersect,
    render_div,
)


class MarkingGroup(_Frozen, fields=("free_rank", "torsion")):
    __slots__ = ("free_rank", "torsion", "_hash")
    def __init__(self, free_rank, torsion=()):
        free_rank, torsion = _as_int(free_rank), tuple(map(_as_int, torsion))
        if free_rank < 0:
            raise ValueError("free rank must be >= 0")
        if any(n < 2 for n in torsion):
            raise ValueError("torsion orders must be >= 2")
        self._init(free_rank, torsion)
        object.__setattr__(self, "_hash", hash((free_rank, torsion)))

    def __hash__(self):
        return self._hash

    @property
    def ngens(self):
        return self.free_rank + len(self.torsion)

    def reduce(self, x):
        x = tuple(map(_as_int, x))
        if len(x) != self.ngens:
            raise ValueError("element has %d coordinates, group needs %d" % (len(x), self.ngens))
        return self._reduce(x)

    def _reduce(self, x):
        """reduce for an int tuple of length ngens: no coercion, no check."""
        if not self.torsion:
            return x
        R = self.free_rank
        return x[:R] + tuple([c % n for c, n in zip(x[R:], self.torsion)])

    def zero(self):
        return (0,) * self.ngens

    def add(self, x, y):
        if len(x) != len(y):
            raise ValueError("cannot add elements with %d and %d coordinates" % (len(x), len(y)))
        return self.reduce(tuple(a + b for a, b in zip(x, y)))

    def smul(self, k, x):
        return self.reduce(tuple(_as_int(k) * a for a in x))

    def eq(self, x, y):
        return self.reduce(x) == self.reduce(y)


# bounded; its one library caller is sections._lambda_q_order (is_root_effective
# calls the uncached _membership), and the benchmark reads its cache_info()
@lru_cache(maxsize=512)
def cyclic_membership(P, x, q):
    """Solve a*q = x in the group P; returns the coset (a0, d) of solutions
    a in a0 + d*Z (d = 0 means the solution is unique), or None."""
    return _membership(P, P.reduce(x), P.reduce(q))


def _membership(P, x, q):
    """cyclic_membership on reduced int tuples, uncached: _multiples' coset,
    re-verified by group arithmetic."""
    sol = _multiples(P, x, q)
    if sol is not None and P._reduce(tuple([sol[0] * c for c in q])) != x:
        raise InvariantViolation("cyclic membership witness failed to verify")
    return sol


def _multiples(P, x, q):
    """The coset (a0, d) of the a with a*q = x, for reduced x and q: a0 is
    reduced mod d, and d = 0 when a is unique; or None."""
    R = P.free_rank
    i = next((i for i in range(R) if q[i]), None)
    if i is not None:  # one free coordinate fixes a; check it on all
        a = x[i] // q[i]
        return (a, 0) if P._reduce(tuple([a * c for c in q])) == x else None
    if any(x[:R]):
        return None
    # join the torsion congruences q_j a = x_j (mod n_j) one at a time: with
    # a = a0 + d*k so far, each is the congruence (q_j d) k = x_j - q_j a0
    a0, d = 0, 1
    for qj, xj, n in zip(q[R:], x[R:], P.torsion):
        c, e = qj * d, xj - qj * a0
        g = math.gcd(c, n)
        if e % g:
            return None
        n //= g
        a0 += d * (e // g * pow(c // g, -1, n) % n)
        d *= n
    return (a0, d)


class QComponent(_Frozen, fields=("cls", "mult")):
    __slots__ = ("cls", "mult")
    def __init__(self, cls, mult):
        mult = _as_int(mult)
        if mult < 1:
            raise ValueError("component multiplicity must be >= 1")
        self._init(cls, mult)


class SurfaceData(_Frozen, fields=("sig", "components", "marking", "q", "lam")):
    __slots__ = ("sig", "components", "marking", "q", "lam", "_hash", "_cols")
    def __new__(cls, sig, components, marking, q, lam):
        # lam: the images of (s, f, e_1..e_m) in the marking group
        return _surface(sig, tuple(components), marking, marking.reduce(q), tuple(marking.reduce(v) for v in lam))

    def __hash__(self):  # surfaces key the oracle caches, which hash them on every lookup
        return self._hash

    def lam_of(self, D):
        """lambda(D); meaningful on component-degree-0 classes."""
        return self._lam(D.coeffs)

    def _lam(self, x):
        """lambda of a coefficient tuple, one dot per column of lam (_cols)."""
        return self.marking._reduce(tuple([_dot(col, x) for col in self._cols]))


def _surface(sig, components, marking, q, lam):
    """A SurfaceData from already reduced parts, without the constructor's
    coercion; its slots hold the fields, their hash and lam's columns."""
    S, fields = object.__new__(SurfaceData), (sig, components, marking, q, lam)
    for name, value in zip(SurfaceData.__slots__, fields + (hash(fields), tuple(zip(*lam)))):
        _set(S, name, value)
    return S


def validate(S):
    """Check the structural invariants; returns a list of violation strings."""
    out = []
    sig = S.sig
    if len(S.lam) != sig.rank:
        out.append("lambda must give %d basis images, got %d" % (sig.rank, len(S.lam)))
    total = None
    f = basis_f(sig)
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


def _effective_neg1_classes(sig):
    """-1 classes effective on every surface of this signature: the e_i, then
    the f - e_i.  Each f - e_i is in the orbit of e_m: interchanges take it to
    f - e_1, the elementary transformation takes that to e_1, and
    interchanges take e_1 to e_m."""
    es = tuple(basis_e(sig, i) for i in range(1, sig.m + 1))
    return es + tuple(basis_f(sig) - e for e in es)


def _neg1_pairings(x):
    """x = a*s + b*f + sum c_i e_i paired with _effective_neg1_classes, in
    order: e_i.x = -c_i, then (f - e_i).x = a + c_i, for either parity."""
    return [-c for c in x[2:]] + [x[0] + c for c in x[2:]]


_SurfaceTable = namedtuple("_SurfaceTable", "K grading_row comp_rows comp_steps budget neg1_steps screen q_nef irreducible_q "
                           "fibers effective")

# the most proven-nef fibers a surface table keeps (_surface_table's fibers):
# it bounds each screen's scan, and a benchmark pass lists at most 16
FIBER_CAP = 32
# the most proven-effective classes a surface table keeps (its effective
# set): a cone_sweep pass records at most 1,373 on one surface (m3_generic)
EFFECTIVE_CAP = 2048


@lru_cache(maxsize=256)  # bounded: one entry per surface asked about
def _surface_table(S):
    """The facts that depend only on the surface, read by the root oracle,
    the cone loop and dim_gamma, K's coefficients among them.  The class A
    of grading_row pairs >= 1 with every simple root, terminal -1-class and
    component, so a nonzero
    effective class has grade >= 1 and each subtraction lowers it (_drop).
    A is a nonnegative combination of Q, f and the e_i, so the nef screen is
    complete (cones._negative_witness); both facts are checked here.  The
    components come with their Gram rows.  comp_steps and neg1_steps hold
    each component and each always-effective -1-class (the e_i, then the
    f - e_i) with its grade and component degrees, by which a subtraction
    lowers a residue's in the root search.  neg1_steps is empty when no
    component has C.K > 0 (the K-count below).  The grade bounds the
    search's depth; budget is a time cap on its width, and BudgetExhausted
    reports where it stopped.  screen lists
    f, the components, the e_i and the f - e_i: the nef screen, which dots
    the components and reads the other pairings off a Gram row.
    fibers starts empty and is filled by the cone loop, up to FIBER_CAP: the
    fiber P[f] of each cut walk, in S's frame.  That walk reached its
    blowdown structure by reflections at roots the oracle found ineffective
    only, so its fiber moves in a base-point-free pencil and is nef
    (Harbourne, Trans. AMS 349, 1997); an effective class pairs >= 0 with
    each, whichever queries put it there.  A fiber pairing negatively with a
    class of screen is not nef, so some root of its walk was effective after
    all (it happens on pvi_m12); it is not listed.
    effective starts empty and is filled by the effectiveness loop, up to
    EFFECTIVE_CAP coefficient tuples in S's frame: when it accepts a class D
    and its certificate passes the sum check, D and the residue after each
    subtraction.  Each is effective: the subtractions after it (components,
    effective-root pieces, terminal -1-classes) and the accepted residue
    add up to it.  Only is_effective reads the set (a member is accepted
    with no walk); the certificate and nef entries do not, so certificates
    and witnesses do not depend on earlier queries.  A full set takes
    131,288 + 2,048 * (56 + 8 * rank) bytes by sys.getsizeof while the
    coefficients are small ints (0.33 MB on m3_generic, 0.48 MB on
    pvi_m12, rank 14), so the 256 cached tables hold at most 122 MB of
    them at rank 14."""
    from . import weyl  # local import: weyl imports marking

    sig, comps = S.sig, S.components
    # the most negative fiber coefficient among horizontal components
    drop = max([0] + [-c.cls.coeffs[1] for c in comps if intersect(c.cls, basis_f(sig)) != 0])
    # A = a*s + b*f - sum(c_i e_i); geometric weights c_i = 2^(m-i) make
    # each weight beat the sum of all later ones, so A dominates every
    # lexicographically positive class supported on the e_i
    cs = [2 ** (sig.m - i) for i in range(1, sig.m + 1)]
    total_c = sum(cs)
    a = 2 + total_c
    b = a * (1 + drop) + 1 + total_c
    table, rowA = weyl._pull_table(sig), _row(sig, (a, b) + tuple(-c for c in cs))
    if not all(_dot(rowA, v) >= 1 for v in table.base[:table.f]):
        raise InvariantViolation("grading class fails to dominate the simple roots and extras")
    if not all(_dot(rowA, comp.cls.coeffs) >= 1 for comp in comps):
        raise InvariantViolation("grading class fails to dominate the components")
    # 2A = a*Q + (2b - a*kappa)*f + sum((a - 2c_i) e_i) for Q = 2s + kappa*f - sum(e_i)
    if a < 2 * max(cs, default=0) or 2 * b < a * table.q[1]:
        raise InvariantViolation("grading class fails to decompose over Q, f and the e_i")
    # pairing with K: 0 = alpha.K = sum n_j (C_j.K) - (#-1 classes), as the
    # accepted residue pairs 0 with Q; with no C_j.K > 0 a decomposition
    # uses no -1-class, and the search tries none
    K = canonical_class(sig)
    neg1 = _effective_neg1_classes(sig)
    neg1_steps = neg1 if any(intersect(c.cls, K) > 0 for c in comps) else ()
    budget = max(64, 64 * sig.m * (1 + sum(c.mult for c in comps)))
    q_nef = all(_dot(table.q_row, c.cls.coeffs) >= 0 for c in comps)
    irreducible_q = len(comps) == 1 and comps[0].mult == 1 and comps[0].cls.coeffs == table.q
    screen = (basis_f(sig).coeffs,) + tuple(c.cls.coeffs for c in comps) + tuple(c.coeffs for c in neg1)
    comp_rows = tuple((c.cls, _row(sig, c.cls.coeffs)) for c in comps)

    def steps(pieces):  # each piece with its grade and its component degrees
        return tuple((p, _dot(rowA, p.coeffs), tuple([_dot(r, p.coeffs) for _, r in comp_rows])) for p in pieces)

    return _SurfaceTable(K.coeffs, rowA, comp_rows, steps(c.cls for c in comps), budget, steps(neg1_steps), screen, q_nef,
                         irreducible_q, [], set())


def _drop(row, y):
    """The grade of y by _surface_table's grading row: >= 1 if y is effective."""
    drop = _dot(row, y)
    if drop < 1:
        raise InvariantViolation("subtracted class escaped the effective grading")
    return drop


def is_root_effective(S, alpha):
    """Effectiveness of a -2-root, with a witness.

    Returns (bool, witness) where the witness records the subtracted component
    multiplicities and, for the marked branch, the coset of exponents a with
    lambda(beta) = a*q.  Decompositions may pass through the -1-classes that
    are effective on every surface (e.g. a section component plus leftover
    exceptionals), paired with a residue by _neg1_pairings; the surface's
    facts come from _surface_table.  The checked entry of _root_effective,
    whose cache it shares."""
    return _root_effective(S, _coeffs(alpha, S.sig))


@lru_cache(maxsize=2048)  # bounded: a benchmark pass asks 30 (cone_sweep) or 441-448 (section_fuzz) roots
def _root_effective(S, a):
    """is_root_effective on the coefficient tuple a of a class of S.sig: the
    walks probe with their frame tuples.  Each residue carries its grade and
    component degrees, so a candidate is pruned before its tuple is built:
    every residue on a successful path has grade >= 0, and each subtraction
    lowers it by >= 1, which bounds the search.  It tries the -1-classes of
    neg1_steps, none where the K-count rules them out; budget is a time cap,
    and BudgetExhausted reports the root where the search stopped."""
    sig, T = S.sig, _surface_table(S)
    if _pair(sig, a, a) != -2 or _pair(sig, a, T.K):
        raise ValueError("%s is not a root (need alpha^2 = -2 and alpha.K = 0)" % render_div(_new(a, sig)))
    comp_steps, neg1_steps, budget = T.comp_steps, T.neg1_steps, T.budget
    grade = _dot(T.grading_row, a)
    if grade < 0:
        return False, None
    seen = {a}
    queue = deque([(a, (0,) * len(comp_steps), (), grade, [_dot(row, a) for _, row in T.comp_rows])])
    steps = 0
    while queue:
        beta, n, pieces, grade, degs = queue.popleft()
        steps += 1
        if steps > budget:
            raise BudgetExhausted("root effectiveness search", _new(a, sig), steps - 1, budget)
        if not any(beta):  # reached by subtractions: alpha^2 = -2, so alpha != 0
            return True, {"components": n, "a": 0, "d": 1, "pieces": pieces}
        elif not any(degs):
            wit = _membership(S.marking, S._lam(beta), S.q)
            if wit is not None:
                out = pieces + (_new(beta, sig),) if pieces else ()
                return True, {"components": n, "a": wit[0], "d": wit[1], "pieces": out}
        # recurse on the components pairing negatively with the residue, then
        # on the always-effective -1-classes that do
        nexts = [(comp_steps[j], n[:j] + (n[j] + 1,) + n[j + 1:]) for j, d in enumerate(degs) if d < 0]
        if neg1_steps:
            nexts += [(p, n) for p, d in zip(neg1_steps, _neg1_pairings(beta)) if d < 0]
        for (c, cgrade, cdegs), n2 in nexts:
            if grade < cgrade:
                continue
            b2 = tuple(map(sub, beta, c.coeffs))
            if b2 not in seen:
                seen.add(b2)
                queue.append((b2, n2, pieces + (c,), grade - cgrade, list(map(sub, degs, cdegs))))
    return False, None


is_root_effective.cache_info, is_root_effective.cache_clear = _root_effective.cache_info, _root_effective.cache_clear


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
    from .lattice import LatticeSignature

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
    if num % 2:
        raise InvariantViolation("odd A^2 - A.K in the isomonodromy count")
    return -num // 2


def moduli_stack_dim(g, m):
    if g < 0 or m < 0:
        raise ValueError("g, m must be nonnegative")
    if g == 0:
        return m + 3
    if g == 1:
        return m + 1
    return m + 2 * g - 2
