"""Dimension of global sections on marked rational surfaces, Hom/Ext
dimensions between line bundles, acyclicity / global generation tests, and
the closed-form moduli dimension formulas."""

from dataclasses import dataclass

from .lattice import (
    anticanonical_class,
    basis_f,
    canonical_class,
    chi_structure,
    intersect,
    line_bundle_class,
    mukai_pairing,
    render_div,
    zero_class,
)
from .cones import is_effective, is_nef
from .marking import cyclic_membership, is_root_effective, ord_q
from .weyl import _first_negative_root, _walk_budget, reflect, reflect_surface, simple_roots


class UnclassifiedState(RuntimeError):
    """The section algorithm reached a state outside the classified terminal
    cases; carries a structured report for debugging."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            "section dimension reached an unclassified state: %r" % (report,)
        )


@dataclass(frozen=True)
class HomDims:
    h0: int
    h1: int
    h2: int


def _lambda_q_order(S):
    """Smallest k >= 1 with lambda(k*Q) in <q>, or None."""
    P = S.marking
    lamQ = S.lam_of(anticanonical_class(S.sig))
    acc = P.zero()
    for k in range(1, 1 + _group_exponent_bound(P)):
        acc = P.add(acc, lamQ)
        if cyclic_membership(P, acc, S.q) is not None:
            return k
    return None


def _group_exponent_bound(P):
    b = 1
    for n in P.torsion:
        b = b * n
    return b


def dim_gamma(S, D, trace=None):
    """dim Gamma of a line bundle of class D (rational surfaces only)."""
    sig = S.sig
    if sig.genera != (0, 0):
        raise ValueError("section dimensions are computed for rational surfaces only")
    K = canonical_class(sig)
    Q = anticanonical_class(sig)
    roots, extras = simple_roots(sig)  # reflections keep the signature
    cur_S, cur_D = S, D

    def note(msg):
        if trace is not None:
            trace.append(msg)

    for _ in range(_walk_budget(D, slack=4)):
        if cur_D.is_zero():
            return 1
        if not is_effective(cur_S, cur_D):
            return 0
        # components pairing negatively restrict trivially; then the
        # terminal -1-classes
        pieces = [comp.cls for comp in cur_S.components] + extras
        sub = next((x for x in pieces if intersect(cur_D, x) < 0), None)
        if sub is not None:
            note("subtract %s" % render_div(sub))
            cur_D = cur_D - sub
            continue
        alpha, t = _first_negative_root(roots, K, cur_D)
        if alpha is not None:
            eff, wit = is_root_effective(cur_S, alpha)
            if not eff:
                note("reflect %s" % render_div(alpha))
                cur_D = reflect(cur_D, alpha)
                cur_S = reflect_surface(cur_S, alpha)
                continue
            # effective root: twist-aware case split
            if any(wit["components"]):
                raise UnclassifiedState(
                    {
                        "state": "effective root with component support",
                        "root": render_div(alpha),
                        "class": render_div(cur_D),
                        "witness": wit,
                    }
                )
            a = wit["a"]
            r = ord_q(cur_S)
            if r is None:
                l = a
            else:
                # unique l = a mod r with -r <= t + l < 0
                l = ((t + a) % r) - r - t
                if not (-r <= t + l < 0):
                    raise AssertionError("twist exponent selection failed")
                if t + l == -r:
                    note("boundary twist at root %s (pairing = -ord q)" % render_div(alpha))
            if l > 0 and t + l < 0:
                note("partial reflect %s by %d" % (render_div(alpha), t + l))
                cur_D = cur_D + (t + l) * alpha
            else:
                note("reflect %s (effective, twist %d)" % (render_div(alpha), l))
                cur_D = reflect(cur_D, alpha)
                cur_S = reflect_surface(cur_S, alpha)
            continue
        # in the chamber: terminal cases
        dQ = intersect(cur_D, Q)
        if dQ > 0:
            num = intersect(cur_D, cur_D + Q)
            assert num % 2 == 0
            return 1 + num // 2
        # dQ = 0 on a nef class
        assert dQ == 0, "nef class with negative anticanonical degree"
        lamD = cur_S.lam_of(cur_D)
        if not cur_S.marking.is_zero(lamD):
            note("restriction to Q nontrivial: pass to %s" % render_div(cur_D - Q))
            cur_D = cur_D - Q
            continue
        DQ = cur_D - Q
        if DQ.is_zero() or (is_nef(cur_S, DQ) and intersect(DQ, Q) >= 1):
            note("restriction to Q trivial: 1 + dim of %s" % render_div(DQ))
            return dim_gamma(cur_S, DQ, trace) + 1
        if sig.m == 8 and intersect(Q, Q) == 0:
            # D proportional to Q with lambda(D) = 0: closed form
            c = _multiple_of(cur_D, Q)
            l = _lambda_q_order(cur_S)
            if c is not None and l is not None and c % l == 0:
                return c // l + 1
        raise UnclassifiedState(
            {
                "state": "Q-trivial class outside classified terminals",
                "class": render_div(cur_D),
                "m": sig.m,
            }
        )
    raise RuntimeError("section dimension loop exceeded its step budget")


def _multiple_of(D, Q):
    """c with D = c*Q, or None."""
    for d, q in zip(D.coeffs, Q.coeffs):
        if q != 0:
            if d % q:
                return None
            c = d // q
            return c if (c * Q) == D else None
    return None


def hom_dims(S, D1, D2):
    """Betti numbers of RHom between line bundles of classes D1, D2."""
    K = canonical_class(S.sig)
    h0 = dim_gamma(S, D2 - D1)
    h2 = dim_gamma(S, K + D1 - D2)
    chi = mukai_pairing(line_bundle_class(D1), line_bundle_class(D2))
    h1 = h0 + h2 - chi
    assert not (h0 > 0 and h2 > 0), "Hom and Ext^2 cannot both be nonzero"
    assert h1 >= 0, "negative Ext^1 dimension"
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
