"""Weyl-group machinery on blowdown structures: simple roots, reflections,
elementary transformations, chamber reduction, blowdown search for formal
-1-classes, and bounded orbit enumeration."""

from dataclasses import dataclass, field
from functools import lru_cache

from .lattice import (
    DivClass,
    LatticeSignature,
    basis_e,
    basis_f,
    basis_s,
    canonical_class,
    intersect,
    render_div,
)
from .marking import SurfaceData, is_root_effective


class BlowdownError(ValueError):
    pass


@dataclass(frozen=True)
class Move:
    kind: str  # 'reflect', 'elementary_transformation', 'subtract'
    cls: object = None  # root or subtracted class
    after: object = None  # class after the move


@dataclass
class ReductionTrace:
    start: object
    moves: list = field(default_factory=list)
    end: object = None
    surface: object = None
    blocked: bool = False
    blocking: object = None
    cut: bool = False  # stopped because the class left the effective range
    terminal: str = None

    def word(self):
        return [mv.kind if mv.kind != "reflect" else render_div(mv.cls) for mv in self.moves]


def simple_roots(sig):
    """(roots, extras): the simple roots in reduction order and the extra
    chamber-defining classes (e_m, and f-e_1 when m = 1)."""
    roots, extras = _simple_roots(sig)
    return list(roots), list(extras)


@lru_cache(maxsize=None)
def _simple_roots(sig):
    # cached: the roots depend only on the signature, and every walk step
    # of every query asks for them
    m = sig.m
    rational = sig.genera == (0, 0)
    roots = []
    if sig.parity == "even":
        if rational or m == 0:
            roots.append(basis_s(sig) - basis_f(sig))
    else:
        if rational and m >= 1:
            roots.append(basis_s(sig) - basis_e(sig, 1))
    if m >= 2:
        roots.append(basis_f(sig) - basis_e(sig, 1) - basis_e(sig, 2))
    for i in range(1, m):
        roots.append(basis_e(sig, i) - basis_e(sig, i + 1))
    extras = []
    if m >= 1:
        extras.append(basis_e(sig, m))
        if m == 1:
            extras.append(basis_f(sig) - basis_e(sig, 1))
    return tuple(roots), tuple(extras)


def reflect(D, alpha):
    if intersect(alpha, alpha) != -2:
        raise ValueError("reflection root must have self-intersection -2")
    return D + intersect(D, alpha) * alpha


def reflect_surface(S, alpha):
    """Apply the reflection as a change of blowdown structure: components are
    reflected and lambda is precomposed with the reflection."""
    sig = S.sig
    P = S.marking
    lam_alpha = S.lam_of(alpha)
    new_lam = []
    for i in range(sig.rank):
        b = DivClass(tuple(1 if j == i else 0 for j in range(sig.rank)), sig)
        new_lam.append(P.add(S.lam[i], P.smul(intersect(b, alpha), lam_alpha)))
    new_comps = tuple(
        type(c)(reflect(c.cls, alpha), c.mult) for c in S.components
    )
    return SurfaceData(sig, new_comps, P, S.q, tuple(new_lam))


def _et_coeffs(coeffs, parity_from):
    a, b, c1 = coeffs[0], coeffs[1], coeffs[2]
    rest = coeffs[3:]
    if parity_from == "even":
        return (a, a + b + c1, -a - c1) + rest
    return (a, b + c1, -a - c1) + rest


def elementary_transformation(D):
    """Parity-flipping basis change with e_1 -> f - e_1."""
    sig = D.sig
    if sig.m < 1:
        raise ValueError("elementary transformation needs m >= 1")
    sig2 = LatticeSignature(sig.m, "odd" if sig.parity == "even" else "even", sig.genera)
    return DivClass(_et_coeffs(D.coeffs, sig.parity), sig2)


def et_surface(S):
    sig = S.sig
    if sig.m < 1:
        raise ValueError("elementary transformation needs m >= 1")
    sig2 = LatticeSignature(sig.m, "odd" if sig.parity == "even" else "even", sig.genera)
    P = S.marking
    other = sig2.parity
    new_lam = []
    for i in range(sig.rank):
        std = tuple(1 if j == i else 0 for j in range(sig.rank))
        old_coords = _et_coeffs(std, other)  # new basis vector in old coordinates
        v = P.zero()
        for c, lv in zip(old_coords, S.lam):
            if c:
                v = P.add(v, P.smul(c, lv))
        new_lam.append(v)
    new_comps = tuple(
        type(c)(DivClass(_et_coeffs(c.cls.coeffs, sig.parity), sig2), c.mult)
        for c in S.components
    )
    return SurfaceData(sig2, new_comps, P, S.q, tuple(new_lam))


def _walk_budget(D, slack=1):
    """Step budget of a chamber walk starting at D."""
    return 64 * (D.sig.m + 2) * (slack + max(abs(c) for c in D.coeffs))


def _first_negative_root(roots, K, D):
    """(alpha, D.alpha) for the first K-fixing root of roots that pairs
    negatively with D, or (None, 0) when D is in the chamber."""
    for alpha in roots:
        if intersect(alpha, K) != 0:
            continue  # not a K-fixing root (even m=0 ruling class for g>0)
        t = intersect(D, alpha)
        if t < 0:
            return alpha, t
    return None, 0


def reduce_to_chamber(S, D, stop_below=None):
    """Reflect D (and the surface) at ineffective simple roots, first violation
    first, until D pairs >= 0 with every simple root; stops blocked when an
    effective simple root pairs negatively.

    stop_below: optional reference class rho; stop with trace.cut when the
    current class pairs negatively with rho.  Every effective class pairs >= 0
    with a chamber-interior rho, and reflections can only lower the pairing,
    so this bounds the walk on the infinite (m >= 8) reflection groups."""
    sig = S.sig
    K = canonical_class(sig)
    f = basis_f(sig)
    roots, _ = simple_roots(sig)  # reflections keep the signature
    trace = ReductionTrace(start=D)
    cur_D, cur_S = D, S
    for _ in range(_walk_budget(D)):
        # the fiber class is nef on every marked surface, so a negative
        # D.f certifies ineffectivity; only the ruling reflection changes
        # D.f (strictly downward), and the remaining simple roots generate
        # a finite D_m group, so this cut also makes the walk finite
        if intersect(cur_D, f) < 0 or (
            stop_below is not None and intersect(cur_D, stop_below) < 0
        ):
            trace.cut = True
            break
        alpha, _ = _first_negative_root(roots, K, cur_D)
        if alpha is None:
            break
        if is_root_effective(cur_S, alpha)[0]:
            trace.blocked = True
            trace.blocking = alpha
            break
        cur_D = reflect(cur_D, alpha)
        cur_S = reflect_surface(cur_S, alpha)
        trace.moves.append(Move("reflect", alpha, cur_D))
    else:
        raise RuntimeError("chamber reduction exceeded its step budget")
    trace.end = cur_D
    trace.surface = cur_S
    return trace


def _decomposes_msg(e, alpha):
    other = reflect(e, alpha)
    mult = -intersect(e, alpha)
    head = "(%s)" % render_div(alpha) if mult == 1 else "%d(%s)" % (mult, render_div(alpha))
    return "class decomposes: %s = %s + %s" % (render_div(e), head, render_div(other))


def _blowdown_walk(e, S=None):
    """Move the formal -1-class e to e_m (or the plane terminal) by
    interchanges, ruling reflections and elementary transformations.

    With a surface S, every reflection root is first checked for
    effectiveness (an effective one decomposes the class) and the surface is
    carried along; with S None the walk is purely numeric.  Raises
    BlowdownError when no move reaches a terminal."""
    rational = e.sig.genera == (0, 0)
    trace = ReductionTrace(start=e)
    m = e.sig.m
    cur_e, cur_S = e, S
    for _ in range(_walk_budget(e)):
        csig = cur_e.sig
        roots, extras = simple_roots(csig)
        if m == 0:
            if rational and csig.parity == "odd" and cur_e == basis_s(csig):
                trace.terminal = "plane"
                break
            raise BlowdownError("not a formal -1-curve: stuck at %s with m = 0" % render_div(cur_e))
        if cur_e == extras[0]:
            trace.terminal = "e_m"
            break
        # interchanges of commuting blowups e_i - e_{i+1}, which simple_roots
        # lists last
        alpha = next((a for a in roots[len(roots) - (m - 1):] if intersect(cur_e, a) < 0), None)
        if alpha is None:
            if intersect(cur_e, extras[0]) < 0:
                raise BlowdownError(
                    "not a formal -1-curve: %s pairs negatively with %s but differs from it"
                    % (render_div(cur_e), render_div(extras[0]))
                )
            # ruling reflection (rational surfaces), listed first
            if rational and intersect(cur_e, roots[0]) < 0:
                alpha = roots[0]
        if alpha is not None:
            if cur_S is not None:
                if is_root_effective(cur_S, alpha)[0]:
                    raise BlowdownError(_decomposes_msg(cur_e, alpha))
                cur_S = reflect_surface(cur_S, alpha)
            cur_e = reflect(cur_e, alpha)
            trace.moves.append(Move("reflect", alpha, cur_e))
        # elementary transformation when it lowers the e_1 pairing
        elif 2 * intersect(cur_e, basis_e(csig, 1)) > intersect(cur_e, basis_f(csig)):
            cur_e = elementary_transformation(cur_e)
            if cur_S is not None:
                cur_S = et_surface(cur_S)
            trace.moves.append(Move("elementary_transformation", None, cur_e))
        else:
            raise BlowdownError(
                "not a formal -1-curve: no move applies to %s" % render_div(cur_e)
            )
    else:
        raise RuntimeError("blowdown search exceeded its step budget")
    trace.end = cur_e
    trace.surface = cur_S
    return trace


def find_blowdown(S, e):
    """Transform the blowdown structure by interchanges, elementary
    transformations and ruling reflections until e becomes e_m (or the plane
    terminal is reached); raises BlowdownError with a decomposition witness
    when an effective class obstructs irreducibility."""
    if intersect(e, e) != -1 or intersect(e, canonical_class(S.sig)) != -1:
        raise ValueError(
            "%s is not a formal -1-class (need e^2 = e.K = -1)" % render_div(e)
        )
    return _blowdown_walk(e, S)


def in_neg1_orbit(sig, e):
    """Purely numeric test that e lies in the reflection-group orbit of e_m
    (or reaches the plane terminal): find_blowdown without effectiveness
    guards."""
    if intersect(e, e) != -1 or intersect(e, canonical_class(sig)) != -1:
        return False
    try:
        _blowdown_walk(e)
    except BlowdownError:
        return False
    return True


def enumerate_orbit(sig, seed, Da, bound, budget=200000):
    """All classes in the reflection-group orbit of seed with pairing <= bound
    against Da (Da^2 > 0 required); breadth-first with the pairing bound as
    frontier cutoff."""
    if intersect(Da, Da) <= 0:
        raise ValueError("enumeration reference class must have Da^2 > 0")
    roots, _ = simple_roots(sig)
    out = set()
    frontier = []
    if intersect(seed, Da) <= bound:
        out.add(seed.coeffs)
        frontier.append(seed)
    while frontier:
        cur = frontier.pop()
        for alpha in roots:
            nxt = reflect(cur, alpha)
            if nxt.coeffs not in out and intersect(nxt, Da) <= bound:
                if len(out) >= budget:
                    raise RuntimeError("orbit enumeration exceeded its budget")
                out.add(nxt.coeffs)
                frontier.append(nxt)
    return {DivClass(c, sig) for c in out}
