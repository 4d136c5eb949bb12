"""Dimension of global sections on marked rational surfaces, Hom/Ext
dimensions between line bundles, acyclicity / global generation tests, and
the closed-form moduli dimension formulas."""

from math import prod
from operator import sub

from .lattice import (
    BudgetExhausted,
    InvariantViolation,
    _Frozen,
    _axpy,
    _coeffs,
    _dot,
    _new,
    _pair,
    _row,
    _set,
    anticanonical_class,
    basis_f,
    canonical_class,
    chi_line_bundle,
    intersect,
    mukai_pairing,
    render_div,
)
from .cones import _multiple_of, is_effective, is_nef
from .marking import _drop, _root_effective, _surface_table, cyclic_membership, ord_q
from .weyl import _chamber_walk, _pull_table, _push, reflect_surface


class UnclassifiedState(RuntimeError):
    """The section algorithm reached a state outside the classified terminal
    cases; carries a structured report for debugging."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            "section dimension reached an unclassified state: %r" % (report,)
        )


class HomDims(_Frozen, fields=("h0", "h1", "h2")):
    def __init__(self, h0, h1, h2):  # one per hom_dims query: _set is faster than _init
        _set(self, "h0", h0)
        _set(self, "h1", h1)
        _set(self, "h2", h2)


def _lambda_q_order(S):
    """Smallest k >= 1 with lambda(k*Q) in <q>, or None."""
    P = S.marking
    lamQ = S.lam_of(anticanonical_class(S.sig))
    acc = P.zero()
    for k in range(1, 1 + prod(P.torsion)):
        acc = P.add(acc, lamQ)
        if cyclic_membership(P, acc, S.q) is not None:
            return k
    return None


# the twisted reflections one dim_gamma query may take: a cap, not a bound
# (that step has no monotone measure); 34,500 sampled queries took at most 2
TWIST_CAP = 16


def dim_gamma(S, D, trace=None):
    """dim Gamma of a line bundle of class D (rational surfaces only).

    One loop, with no separate effectiveness query.  Its steps keep h^0:
    - subtract a component or terminal -1-class pairing negatively: fixed parts;
    - reflect at ineffective roots (weyl._chamber_walk): isomorphisms;
    - partial step at an effective root: the copies of the root it removes
      are fixed, by the twist the case split selects;
    - pass to D - Q when lambda(D) is nontrivial: restriction to Q has no sections.
    No step makes an ineffective class effective (D - E effective with E
    effective would make D so), nor, the walk tests check, does the twisted
    reflection at an effective root, though it can leave the cone (s - f on
    f2_type).  The cone loop's grade ends the loop: subtractions, partial
    steps and D - Q lower it, and a negative grade or a cut walk (D.f < 0,
    f nef) leaves no section.  A terminal state passes the cone loop's
    dual-monoid test (no walk root, terminal -1-class or component pairs
    negatively), so it is effective: the formula is reached only on a nef
    class with D.Q > 0 (h^0 = chi by Riemann-Roch), and 1 + dim_gamma(D - Q)
    only with D - Q zero or nef of positive degree.  So an ineffective class
    answers plus (0 on entry); the one other end, an effective root with
    component support, asks is_effective.  The walk moves the frame, not D,
    and carries D's pairings: adding copies of a frame class moves them by a
    row of the frame's Gram matrix, other steps dot them again.  Only the
    twisted reflection builds a surface, with a new frame and grade, at most
    TWIST_CAP times.  Trace lines show the walk's current frame."""
    sig = S.sig
    if sig.genera != (0, 0):
        raise ValueError("section dimensions are computed for rational surfaces only")
    table = _pull_table(sig)
    q, Q_row, roots = table.q, table.q_row, table.roots
    x, P, word = _coeffs(D, sig), list(table.base), []
    plus = twists = 0  # the 1 of each 1 + dim_gamma(D - Q) taken; the twisted reflections

    def here(y):  # an input-frame tuple, shown in the current frame
        return render_div(_new(_push(y, word, roots), sig))

    def note(fmt, *args):
        if trace is not None:
            trace.append(fmt % tuple(here(a) if isinstance(a, tuple) else a for a in args))

    rowA = _surface_table(S).grading_row
    grade, v = _dot(rowA, x), None  # v[j] = x.P[j]; None: to be dotted again
    while grade >= 0:
        if not any(x):
            return plus + 1
        # components pairing negatively restrict trivially; no reflection moves them
        row, k, j, y = _row(sig, x), None, None, None
        for c in S.components:
            if _dot(row, c.cls.coeffs) < 0:
                y = c.cls.coeffs
                break
        else:
            if v is None:
                v = [_dot(row, p) for p in P]
            walked = len(word)
            cut, k = _chamber_walk(S, x, table, P, v, word)
            if trace is not None:
                trace.extend("reflect " + render_div(roots[i][0]) for i in word[walked:])
            if cut:
                return plus
            for j in table.extras:  # j is read only when y is set
                if v[j] < 0:
                    y = P[j]
                    break
        if y is not None:
            note("subtract %s", y)
            grade -= _drop(rowA, y)
            x = tuple(map(sub, x, y))
            v = None if j is None else [a - c for a, c in zip(v, table.gram[j])]
            continue
        if k is not None:
            alpha, beta, t = roots[k][0], P[k], v[k]
            wit = _root_effective(S, beta)[1]  # effective: twist-aware case split
            if any(wit["components"]):
                if not is_effective(S, _new(x, sig)):
                    return plus
                raise UnclassifiedState({
                    "state": "effective root with component support",
                    "root": render_div(alpha), "class": here(x), "witness": wit,
                })
            a, r = wit["a"], ord_q(S)
            if r is None:
                l = a
            else:
                # unique l = a mod r with -r <= t + l < 0
                l = ((t + a) % r) - r - t
                if not (-r <= t + l < 0):
                    raise InvariantViolation("twist exponent selection failed")
                if t + l == -r:
                    note("boundary twist at root %s (pairing = -ord q)", beta)
            if l > 0 and t + l < 0:
                note("partial reflect %s by %d", beta, t + l)
                grade += (t + l) * _drop(rowA, beta)
                x = _axpy(x, t + l, beta)
                v = [a + (t + l) * c for a, c in zip(v, table.gram[k])]
                continue
            twists += 1
            if twists > TWIST_CAP:  # a cap, not a bound
                raise BudgetExhausted("twisted reflections of dim_gamma", _new(_push(x, word, roots), sig), twists - 1, TWIST_CAP)
            note("reflect %s (effective, twist %d)", beta, l)
            x = _axpy(_push(x, word, roots), t, alpha.coeffs)
            for j in word + [k]:
                S = reflect_surface(S, roots[j][0])
            P, word, v = list(table.base), [], None
            rowA = _surface_table(S).grading_row
            grade = _dot(rowA, x)
            continue
        # in the chamber: terminal cases
        dQ = _dot(Q_row, x)
        if dQ > 0:
            num = _pair(sig, x, x) + dQ  # D.(D + Q), and D^2 >= 0 on a nef class
            if num % 2 or num < 0:
                raise InvariantViolation("odd or negative D.(D + Q) on a nef class")
            return plus + 1 + num // 2
        if dQ:  # < 0; a nef class has dQ >= 0
            raise InvariantViolation("nef class with negative anticanonical degree")
        DQ, lam = tuple(map(sub, x, q)), any(S._lam(x))
        if lam or not any(DQ) or (_dot(Q_row, DQ) >= 1 and is_nef(S, _new(DQ, sig))):
            # restriction to Q: no section if lambda(D) is nontrivial, else 1 + dim_gamma(D - Q)
            note("restriction to Q nontrivial: pass to %s" if lam else "restriction to Q trivial: 1 + dim of %s", DQ)
            grade, plus, x, v = grade - _drop(rowA, q), plus + (not lam), DQ, None
            continue
        if sig.m == 8 and _dot(Q_row, q) == 0:
            # D proportional to Q with lambda(D) = 0: closed form
            c = _multiple_of(x, q)
            l = _lambda_q_order(S)
            if c is not None and l is not None and c % l == 0:
                return plus + c // l + 1
        raise UnclassifiedState({
            "state": "Q-trivial class outside classified terminals", "class": here(x), "m": sig.m,
        })
    return plus


def hom_dims(S, D1, D2):
    """Betti numbers of RHom between line bundles of classes D1, D2, on the
    coefficient tuples: chi(L1, L2) = chi(O(D2 - D1)) by Riemann-Roch on the
    rational surfaces that dim_gamma accepts."""
    sig = S.sig
    D = _new(tuple(map(sub, _coeffs(D2, sig), _coeffs(D1, sig))), sig)
    h0 = dim_gamma(S, D)
    h2 = dim_gamma(S, _new(tuple(map(sub, canonical_class(sig).coeffs, D.coeffs)), sig))
    chi = chi_line_bundle(D)
    h1 = h0 + h2 - chi
    if h0 > 0 and h2 > 0:
        raise InvariantViolation("Hom and Ext^2 cannot both be nonzero")
    if h1 < 0:
        raise InvariantViolation("negative Ext^1 dimension")
    return HomDims(h0, h1, h2)


def acyclic_globgen(S, D1, D2):
    """Sufficient-condition classification of RHom(L1, L2):
    'acyclic', 'acyclic_and_generating', or 'unknown'."""
    sig = S.sig
    D = D2 - D1
    g = sig.genera[0]
    f = basis_f(sig)
    if D.is_zero():
        return "acyclic_and_generating"
    if g == 0:
        if is_nef(S, D):
            dQ = intersect(D, anticanonical_class(sig))
            if dQ >= 2:
                return "acyclic_and_generating"
            if dQ >= 1:
                return "acyclic"
        return "unknown"
    if is_nef(S, D - (2 * g) * f):
        return "acyclic_and_generating"
    if is_nef(S, D - (2 * g - 1) * f):
        return "acyclic"
    return "unknown"


def hilb_dim(n, g):
    """Dimension of the length-n Hilbert scheme fibration over the base."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if g < 0:
        raise ValueError("g must be >= 0")
    return 2 * n + g


def rank1_bound(S, I):
    """(bound, equality): chi(I,I) <= 1 - g_{c1.f}, equality iff line bundle."""
    if I.rank != 1:
        raise ValueError("rank-1 classes only")
    sig = S.sig
    g0, g1 = sig.genera
    gt = g0 if intersect(I.c1, basis_f(sig)) % 2 == 0 else g1
    bound = 1 - gt
    return bound, mukai_pairing(I, I) == bound


def leaf_dim_disjoint(S, M):
    """Dimension 2 - chi(M,M) of the symplectic leaf through a class with
    trivial restriction to Q (component-degree-0 c1)."""
    if any(intersect(M.c1, comp.cls) != 0 for comp in S.components):
        raise ValueError("c1 must have degree 0 on every component of Q")
    return 2 - mukai_pairing(M, M)
