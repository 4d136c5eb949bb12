"""Named example surfaces for the CLI and tests."""

from .lattice import DivClass, InvariantViolation, LatticeSignature, anticanonical_class
from .marking import MarkingGroup, QComponent, SurfaceData, blow_up, validate


def _check_valid(S):
    bad = validate(S)
    if bad:
        raise InvariantViolation("preset fails validation: " + "; ".join(bad))


def _f0(q):
    sig = LatticeSignature(0, "even")
    P = MarkingGroup(2)
    S = SurfaceData(
        sig,
        (QComponent(anticanonical_class(sig), 1),),  # irreducible (2,2) curve
        P,
        q,
        ((0, 1), (0, 0)),  # lambda(s), lambda(f)
    )
    _check_valid(S)
    return S


def f0_generic():
    return _f0((1, 0))


def f0_commutative():
    return _f0((0, 0))


def f2_type():
    # lambda(s - f) = 3 = 3q lies in <q>, so the ruling root is effective and
    # the minimal section drops to s - f
    sig = LatticeSignature(0, "even")
    P = MarkingGroup(1)
    S = SurfaceData(
        sig,
        (QComponent(anticanonical_class(sig), 1),),
        P,
        (1,),
        ((3,), (0,)),
    )
    _check_valid(S)
    return S


def dp9_torsion(l=2):
    """m = 8 with K^2 = 0, irreducible Q, and lambda(Q) of order l modulo <q>.

    The free coordinates (i, i^2) of lambda(e_i) keep most roots out of <q>,
    but not all: lambda(s + f - e2 - e3 - e5 - e8) = 0 = 0*q, as
    2 + 3 + 5 + 8 = 18 and 4 + 9 + 25 + 64 = 101 + 1.  The torsion coordinate
    is arranged so lambda(Q) = (0, 0, 1)."""
    if l < 2:
        raise ValueError("torsion order must be >= 2")
    sig = LatticeSignature(8, "even")
    P = MarkingGroup(2, (l,))
    lam = [(18, 101, 0), (0, 1, 0)]
    for i in range(1, 9):
        lam.append((i, i * i, l - 1 if i == 1 else 0))
    S = SurfaceData(
        sig,
        (QComponent(anticanonical_class(sig), 1),),
        P,
        (1, 0, 0),
        tuple(lam),
    )
    _check_valid(S)
    return S


def pvi_m12():
    """The m = 12 configuration with components
    (s-e5-e7-e9-e11) + (s-e6-e8-e10-e12) + 2(f-e1-e2) + (e1-e3) + (e2-e4).

    The marking is a documented generic choice (the component classes pin the
    configuration; the marking values are not canonical)."""
    sig = LatticeSignature(12, "even")

    def cls(*coeffs):
        return DivClass(coeffs, sig)

    comps = (
        QComponent(cls(1, 0, 0, 0, 0, 0, -1, 0, -1, 0, -1, 0, -1, 0), 1),
        QComponent(cls(1, 0, 0, 0, 0, 0, 0, -1, 0, -1, 0, -1, 0, -1), 1),
        QComponent(cls(0, 1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 2),
        QComponent(cls(0, 0, 1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0), 1),
        QComponent(cls(0, 0, 0, 1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0), 1),
    )
    P = MarkingGroup(2)
    lam = [(17, 1000), (0, 1)]
    for i in range(1, 13):
        lam.append((100 + i, i * i))
    S = SurfaceData(sig, comps, P, (1, 0), tuple(lam))
    _check_valid(S)
    return S


def _blowup_chain(k):
    S = f0_generic()
    positions = [(5, 7), (11, 13), (17, 19), (23, 29)]
    for i in range(k):
        S = blow_up(S, 0, [1], positions[i])
    return S


def m1_generic():
    return _blowup_chain(1)


def m2_generic():
    return _blowup_chain(2)


def m3_generic():
    return _blowup_chain(3)


def m4_generic():
    return _blowup_chain(4)


PRESETS = {
    "f0_generic": f0_generic,
    "f0_commutative": f0_commutative,
    "f2_type": f2_type,
    "dp9_torsion": dp9_torsion,
    "dp9_torsion_l3": lambda: dp9_torsion(3),
    "dp9_torsion_l5": lambda: dp9_torsion(5),
    "pvi_m12": pvi_m12,
    "m1_generic": m1_generic,
    "m2_generic": m2_generic,
    "m3_generic": m3_generic,
    "m4_generic": m4_generic,
}


def get_preset(name):
    if name not in PRESETS:
        raise KeyError("unknown preset %r (have: %s)" % (name, ", ".join(sorted(PRESETS))))
    return PRESETS[name]()
