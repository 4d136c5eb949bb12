"""Decision procedures for effective, nef and ample classes, and bounded
enumeration of effective-cone generators.

The main loop alternates chamber reduction by ineffective-root reflections
with subtraction of effective classes (components, effective roots, the
terminal -1-classes e_m and f-e_1, each with its whole multiplicity) that
pair negatively; acceptance is the dual-monoid condition in the fundamental
chamber.  Nef queries first screen f, the components, the e_i and f - e_i,
which is complete: a screened class has nonnegative grade (_negative_witness);
effectiveness queries first screen the nef fibers of earlier cut walks.
The walks (weyl._chamber_walk, which dim_gamma runs too) end at the fiber
cut, the loop (and dim_gamma's) at the grade of the dual-interior class that
marking._surface_table holds with the other facts of the surface."""

from operator import add

from .lattice import (
    InvariantViolation,
    _axpy,
    _coeffs,
    _dot,
    _new,
    _pair,
    _row,
    anticanonical_class,
    basis_f,
    basis_s,
    canonical_class,
    intersect,
    render_div,
)
from . import latenum
from .marking import FIBER_CAP, _drop, _root_effective, _surface_table, is_root_effective
from .weyl import _chamber_walk, _pull_table, in_neg1_orbit


def minimal_section(S):
    """For m = 0: the minimal section class s' = s - d0*f, with d0 and a flag
    for ambiguous candidates (several horizontal components)."""
    sig = S.sig
    if sig.m != 0:
        raise ValueError("minimal section is an m = 0 notion")
    f = basis_f(sig)
    s = basis_s(sig)
    cands = []
    for comp in S.components:
        if intersect(comp.cls, f) == 1:
            # horizontal component s + b*f gives the section s - (-b)*f
            cands.append(-comp.cls.coeffs[1])
    if sig.genera == (0, 0) and sig.parity == "even":
        if is_root_effective(S, s - f)[0]:
            cands.append(1)
    d0 = max(cands) if cands else 0
    tie = len(set(cands)) > 1
    return s - d0 * f, d0, tie


def effective_cert(S, D):
    """(bool, certificate).  The certificate lists the subtracted effective
    classes (input frame) and the dual-monoid residue; their sum is re-checked
    against D."""
    sig = S.sig
    if sig.m == 0:
        sprime, d0, tie = minimal_section(S)
        a = D.coeffs[0]
        ok = a >= 0 and D.coeffs[1] + a * d0 >= 0
        return ok, {"subtracted": [], "residue": D, "tie": tie}
    ok, cert, _ = _cone_loop(S, D, stop_on_subtract=False)
    return ok, cert and {"subtracted": [_new(y, sig) for y in cert[0]], "residue": _new(cert[1], sig)}


def is_effective(S, D):
    """effective_cert's answer; for m >= 1 no certificate is built."""
    return effective_cert(S, D)[0] if S.sig.m == 0 else _cone_loop(S, D, stop_on_subtract=False)[0]


def nef_witness(S, D):
    """(bool, witness): witness is an effective class pairing negatively with
    D (input frame) when D is not nef."""
    sig = S.sig
    if sig.m == 0:
        f = basis_f(sig)
        if intersect(D, f) < 0:
            return False, f
        sprime, _, _ = minimal_section(S)
        if intersect(D, sprime) < 0:
            return False, sprime
        for comp in S.components:
            if intersect(D, comp.cls) < 0:
                return False, comp.cls
        return True, None
    ok, _, witness = _cone_loop(S, D, stop_on_subtract=True)
    return ok, None if witness is None else _new(witness, sig)


def is_nef(S, D):
    """nef_witness's answer; for m >= 1 no witness is built."""
    return nef_witness(S, D)[0] if S.sig.m == 0 else _cone_loop(S, D, stop_on_subtract=True)[0]


def _blocked_subtraction(S, x, alpha):
    """What to subtract when an effective root alpha pairs negatively with x
    (tuples in S's frame): an irreducible piece of alpha's decomposition that
    itself pairs negatively (subtracting a reducible root whole would
    over-subtract)."""
    sig = S.sig
    eff, wit = _root_effective(S, alpha)
    if not eff:
        raise InvariantViolation("blocked root is not effective")
    K = canonical_class(sig)
    for p in wit.get("pieces") or ():
        if _pair(sig, x, p.coeffs) < 0:
            if p.coeffs != alpha and intersect(p, p) == -2 and intersect(p, K) == 0:
                return _blocked_subtraction(S, x, p.coeffs)
            return p.coeffs
    return alpha


def _effective_classes(S, Da, t):
    """The formal -1-classes, then the effective roots, with pairing t
    against Da."""
    sig = S.sig
    yield from (x for x in latenum.classes_with_pairing(sig, Da, t, -1) if in_neg1_orbit(sig, x))
    K = canonical_class(sig)
    for x in latenum.classes_with_pairing(sig, Da, t, -2):
        if intersect(x, K) == 0 and is_root_effective(S, x)[0]:
            yield x


def _negative_witness(T, row):
    """The nef screen: the first class of T.screen (f, the components, the e_i
    and the f - e_i, all effective) pairing negatively with the Gram row row,
    or None; an emptied screen screens nothing.  Only the components are
    dotted: row.f = row[1], row.e_i = row[i + 1] and row.(f - e_i) =
    row[1] - row[i + 1] are read off the row.  Past the screen the grade is
    >= 0: T's grading class A = a*s + b*f - sum(c_i e_i) has 2A = a*Q +
    (2b - a*kappa)*f + sum((a - 2c_i) e_i) for Q = -K = 2s + kappa*f -
    sum(e_i), with coefficients >= 0 (marking._surface_table checks them),
    and Q = sum m_j C_j over the components (marking.validate)."""
    screen, f, es = T.screen, row[1], row[2:]
    k = len(screen) - 2 * len(es)  # the e_i start at screen[k]
    if f < 0 and screen:
        return screen[0]
    for y in screen[1:k]:
        if _dot(row, y) < 0:
            return y
    for y, c in zip(screen[k:], es):
        if c < 0:
            return y
    for y, c in zip(screen[k + len(es):], es):
        if c > f:
            return y
    return None


def _cone_loop(S, D, stop_on_subtract):
    """Shared effectiveness/nef loop for m >= 1, on coefficient tuples in S's
    frame: the walks move the frame (weyl._pull_table), not the class.

    Returns (ok, certificate, witness), all tuples: the certificate is
    (subtracted, residue) when D is effective, else None; with
    stop_on_subtract the first class of the surface table's screen, else the
    first needed subtraction, that pairs negatively with D is the witness
    (ok = False).  effective_cert and nef_witness wrap them as DivClasses,
    is_effective and is_nef read ok only."""
    sig = S.sig
    x = _coeffs(D, sig)
    table = _pull_table(sig)
    q, T = table.q, _surface_table(S)
    # Q is fixed by every root reflection, and when Q is nef it pairs >= 0
    # with every effective-cone generator; then D.Q < 0 forces D ineffective
    # (with Q itself as a nef witness).  This bounds the walk on the infinite
    # (m >= 8) reflection groups for negative anticanonical degree.
    level = _dot(table.q_row, x)
    if T.q_nef and level < 0:
        return False, None, q if stop_on_subtract else None
    # at anticanonical degree 0 with irreducible Q of square 0, a multiple
    # cQ is effective exactly when c >= 0, with c copies of Q as certificate
    if level == 0 and T.irreducible_q and table.q_sq == 0:
        c = _multiple_of(x, q)
        if c is not None:
            if c < 0:
                return False, None, table.base[table.f] if stop_on_subtract else None
            return True, ([q] * c, (0,) * sig.rank), None
    # grade by the dual-interior class of the surface table: every nonzero
    # effective class has grade >= 1, so the residue grade drops by >= 1 per
    # subtraction and a negative grade certifies ineffectivity; the grade
    # bounds the loop, which runs at most grade + 2 times
    grade = _dot(T.grading_row, x)
    if grade < 0 and not stop_on_subtract:
        return False, None, None
    row = _row(sig, x)
    if stop_on_subtract:
        y = _negative_witness(T, row)
        if y is not None:
            return False, None, y
        if grade < 0:
            raise InvariantViolation("a class passing the nef screen has a negative grade")
    else:
        # the fiber screen: a proven-nef fiber of an earlier cut walk pairing
        # negatively rejects D (no certificate; nef queries skip it, so their
        # witnesses do not depend on earlier queries)
        for N in T.fibers:
            if _dot(row, N) < 0:
                return False, None, None
    P, word, subtracted = list(table.base), [], []
    v = [_dot(row, p) for p in P]  # x.P[j]: moved by gram after a frame class, else dotted again
    while True:
        cut, k = _chamber_walk(S, x, table, P, v, word)
        if cut:  # D.P[f] < 0 for P[f], the fiber of the structure reached
            N, nrow = P[table.f], _row(sig, P[table.f])
            # listed if new and not refuted by the always-effective classes
            if len(T.fibers) < FIBER_CAP and N not in T.fibers and _negative_witness(T, nrow) is None:
                T.fibers.append(N)
            return False, None, N
        n, j, y = 1, None, None
        if k is not None:
            # an effective simple root pairs negatively; subtract an
            # irreducible piece of it
            y = _blocked_subtraction(S, x, P[k])
        else:
            # the terminal -1-classes E, each a fixed component of multiplicity
            # n = -x.E as (x - iE).E < 0 for i < n; then the components
            for j in table.extras:
                if v[j] < 0:
                    y, n = P[j], -v[j]
                    break
            else:
                j = None
                for c in S.components:
                    if _dot(row, c.cls.coeffs) < 0:
                        y = c.cls.coeffs
                        break
        if y is None:
            break
        if stop_on_subtract:
            return False, None, y
        grade -= n * _drop(T.grading_row, y)
        if grade < 0:
            return False, None, None
        subtracted += [y] * n
        x = _axpy(x, -n, y)
        row = _row(sig, x)
        v = [_dot(row, p) for p in P] if j is None else [a - n * c for a, c in zip(v, table.gram[j])]
    # in the chamber, nonnegative on extras and all components: accept
    total = x
    for y in subtracted:
        total = tuple(map(add, total, y))
    if total != D.coeffs:
        raise InvariantViolation("effectiveness certificate failed its sum check")
    return True, (subtracted, x), None


def _multiple_of(x, q):
    """c with x = c*q for coefficient tuples, q nonzero, or None."""
    i = next(i for i, a in enumerate(q) if a)
    c = x[i] // q[i]
    return c if tuple(c * a for a in q) == x else None


def is_ample(S, D):
    """Nef, positive self-intersection, and no effective class orthogonal to
    D; the orthogonal test enumerates the -1/-2 classes of the definite
    sublattice D-perp plus the components."""
    sig = S.sig
    if not is_nef(S, D) or intersect(D, D) <= 0 or any(intersect(D, comp.cls) == 0 for comp in S.components):
        return False
    if sig.m == 0:
        sprime, _, _ = minimal_section(S)
        return intersect(D, basis_f(sig)) > 0 and intersect(D, sprime) > 0
    return next(_effective_classes(S, D, 0), None) is None


def is_strongly_ample(S, D):
    """Ample, with D - 2g*f nef, and D.Q >= 2 in the rational case."""
    if not is_ample(S, D):
        return False
    sig = S.sig
    g = sig.genera[0]
    if not is_nef(S, D - (2 * g) * basis_f(sig)):
        return False
    if g == 0 and intersect(D, anticanonical_class(sig)) < 2:
        return False
    return True


def effective_generators(S, Da, bound):
    """Components of Q, plus every formal -1-class and effective root with
    pairing <= bound against the ample reference Da; for m = 0 the minimal
    section and the fiber class are added."""
    sig = S.sig
    if not is_ample(S, Da):
        raise ValueError("reference class %s is not ample" % render_div(Da))
    out = [comp.cls for comp in S.components]
    if sig.m == 0:
        out += [minimal_section(S)[0], basis_f(sig)]
    else:
        out += [x for t in range(1, bound + 1) for x in _effective_classes(S, Da, t)]
    return list(dict.fromkeys(out))  # the first of equal classes, in order
