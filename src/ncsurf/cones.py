"""Decision procedures for effective, nef and ample classes, and bounded
enumeration of effective-cone generators.

The main loop alternates chamber reduction by ineffective-root reflections
with subtraction of effective classes (components, effective roots, the
terminal -1-classes e_m and f-e_1) that pair negatively; acceptance is the
dual-monoid condition in the fundamental chamber."""

from functools import lru_cache

from .lattice import (
    DivClass,
    anticanonical_class,
    basis_f,
    basis_s,
    canonical_class,
    intersect,
    render_div,
    zero_class,
)
from . import latenum
from .marking import is_root_effective
from .weyl import in_neg1_orbit, reduce_to_chamber, reflect, simple_roots


def _pull_back(x, word):
    # word is the list of reflections applied so far (first applied first);
    # map a current-frame class back to the input frame
    for alpha in reversed(word):
        x = reflect(x, alpha)
    return x


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
    return ok, cert


def is_effective(S, D):
    return effective_cert(S, D)[0]


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
    return ok, witness


def is_nef(S, D):
    return nef_witness(S, D)[0]


@lru_cache(maxsize=None)
def _grading_class(S):
    """An integer class pairing >= 1 with every simple root, terminal
    -1-class and component.  The effective monoid is contained in the monoid
    these generate, so any nonzero effective class has grade >= 1; each
    subtraction step in the cone loop then strictly lowers the grade, which
    bounds the loop even on the infinite reflection groups."""
    sig = S.sig
    m = sig.m
    # A = a*s + b*f - sum(c_i e_i); geometric weights c_i = 2^(m-i) make
    # each weight beat the sum of all later ones, so A dominates every
    # lexicographically positive class supported on the e_i
    cs = [2 ** (m - i) for i in range(1, m + 1)]
    total_c = sum(cs)
    a = 2 + total_c
    drop = 0  # most negative fiber coefficient among horizontal components
    for comp in S.components:
        if intersect(comp.cls, basis_f(sig)) != 0:
            drop = max(drop, -comp.cls.coeffs[1])
    b = a * (1 + drop) + 1 + total_c
    A = DivClass((a, b) + tuple(-c for c in cs), sig)
    K = canonical_class(sig)
    roots, extras = simple_roots(sig)
    gens = [x for x in roots if intersect(x, K) == 0] + extras
    gens += [comp.cls for comp in S.components]
    assert all(intersect(A, x) >= 1 for x in gens), (
        "grading class fails to dominate the effective generators"
    )
    return A


def _blocked_subtraction(cur_S, cur_D, alpha):
    """What to subtract when an effective root alpha pairs negatively: an
    irreducible piece of alpha's decomposition that itself pairs negatively
    (subtracting a reducible root whole would over-subtract)."""
    eff, wit = is_root_effective(cur_S, alpha)
    assert eff, "blocked root is not effective"
    pieces = wit.get("pieces") or ()
    if not pieces:
        return alpha
    K = canonical_class(cur_S.sig)
    for x in pieces:
        if intersect(cur_D, x) < 0:
            if x != alpha and intersect(x, x) == -2 and intersect(x, K) == 0:
                return _blocked_subtraction(cur_S, cur_D, x)
            return x
    return alpha


def _effective_classes(S, Da, t, against=None):
    """The formal -1-classes, then the effective roots, with pairing t
    against Da; with `against`, only those pairing negatively with it (tested
    before the costlier effectiveness test)."""
    sig = S.sig
    K = canonical_class(sig)

    def keep(x):
        return against is None or intersect(against, x) < 0

    for x in latenum.classes_with_pairing(sig, Da, t, -1):
        if intersect(x, K) == -1 and keep(x) and in_neg1_orbit(sig, x):
            yield x
    for x in latenum.classes_with_pairing(sig, Da, t, -2):
        if intersect(x, K) == 0 and keep(x) and is_root_effective(S, x)[0]:
            yield x


def _negative_witness(S, D):
    """An effective class pairing negatively with D, for nef counterexamples
    discovered by the ineffectivity cut (where the loop has no subtraction
    step to report).  Nef classes are effective, so one must exist."""
    sig = S.sig
    f = basis_f(sig)
    cands = [f] + [comp.cls for comp in S.components] + [anticanonical_class(sig)]
    for x in cands:
        if intersect(D, x) < 0:
            return x
    rho = latenum.chamber_interior_class(sig)
    bound = 4 * (sig.m + 2) * (1 + max(abs(c) for c in D.coeffs))
    for t in range(1, bound + 1):
        for x in _effective_classes(S, rho, t, against=D):
            return x
    return None


def _cone_loop(S, D, stop_on_subtract):
    """Shared effectiveness/nef loop for m >= 1.

    Returns (ok, certificate, witness); with stop_on_subtract the first needed
    subtraction returns ok = False and the subtracted class as witness."""
    sig = S.sig
    f = basis_f(sig)
    Q = anticanonical_class(sig)
    # Q is fixed by every root reflection, and when Q is nef it pairs >= 0
    # with every effective-cone generator; then D.Q < 0 forces D ineffective
    # (with Q itself as a nef witness).  This bounds the walk on the infinite
    # (m >= 8) reflection groups for negative anticanonical degree.
    q_nef = all(intersect(Q, comp.cls) >= 0 for comp in S.components)
    irreducible_q = (
        len(S.components) == 1
        and S.components[0].mult == 1
        and S.components[0].cls == Q
    )
    level = intersect(D, Q)
    if q_nef and level < 0:
        return False, None, Q if stop_on_subtract else None
    # at anticanonical degree 0 with irreducible Q of square 0 the chamber
    # walk acts through the level-0 affine action and only multiples of Q
    # (plus effective roots, which block the walk) ever reach the chamber
    rho = None
    if irreducible_q and intersect(Q, Q) == 0 and level == 0:
        if D.coeffs[0] % Q.coeffs[0] == 0:
            c = D.coeffs[0] // Q.coeffs[0]
            if D == c * Q:
                if c < 0:
                    return False, None, f if stop_on_subtract else None
                cert = {"subtracted": [Q] * c, "residue": zero_class(sig)}
                return True, cert, None
        rho = latenum.chamber_interior_class(sig)
    # grade by a dual-interior class: every nonzero effective class has
    # grade >= 1, so the residue grade drops by >= 1 per subtraction and a
    # negative grade certifies ineffectivity
    A = _grading_class(S)
    grade = intersect(D, A)
    if grade < 0:
        return False, None, _negative_witness(S, D) if stop_on_subtract else None
    budget = grade + sig.m + 8
    cur_D, cur_S = D, S
    word = []
    subtracted = []
    for _ in range(budget):
        if intersect(cur_D, f) < 0:
            return False, None, f
        tr = reduce_to_chamber(cur_S, cur_D, stop_below=rho)
        word.extend(mv.cls for mv in tr.moves)
        cur_D, cur_S = tr.end, tr.surface
        if tr.cut:
            witness = _negative_witness(S, D) if stop_on_subtract else None
            return False, None, witness
        if tr.blocked:
            # an effective simple root pairs negatively; subtract an
            # irreducible piece of it
            sub = _blocked_subtraction(cur_S, cur_D, tr.blocking)
        else:
            # the terminal -1-classes of the chamber, then the components
            pieces = simple_roots(sig)[1] + [comp.cls for comp in cur_S.components]
            sub = next((x for x in pieces if intersect(cur_D, x) < 0), None)
        if sub is None:
            break
        x_in = _pull_back(sub, word)
        if stop_on_subtract:
            return False, None, x_in
        drop = intersect(x_in, A)
        assert drop >= 1, "subtracted class escaped the effective grading"
        grade -= drop
        if grade < 0:
            return False, None, None
        subtracted.append(x_in)
        cur_D = cur_D - sub
    else:
        raise RuntimeError("cone membership loop exceeded its step budget")
    # in the chamber, nonnegative on extras and all components: accept
    residue = _pull_back(cur_D, word)
    total = residue
    for x in subtracted:
        total = total + x
    assert total == D, "effectiveness certificate failed its sum check"
    return True, {"subtracted": subtracted, "residue": residue}, None


def is_ample(S, D):
    """Nef, positive self-intersection, and no effective class orthogonal to
    D; the orthogonal test enumerates the -1/-2 classes of the definite
    sublattice D-perp plus the components."""
    sig = S.sig
    if not is_nef(S, D):
        return False
    if intersect(D, D) <= 0:
        return False
    for comp in S.components:
        if intersect(D, comp.cls) == 0:
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
    out = []
    seen = set()

    def push(x):
        if x.coeffs not in seen:
            seen.add(x.coeffs)
            out.append(x)

    for comp in S.components:
        push(comp.cls)
    if sig.m == 0:
        sprime, _, _ = minimal_section(S)
        push(sprime)
        push(basis_f(sig))
        return out
    for t in range(1, bound + 1):
        for x in _effective_classes(S, Da, t):
            push(x)
    return out
