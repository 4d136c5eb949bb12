"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line.  All checks are exact: integer arithmetic, polynomial identities and
ranks over Q(r, c)."""

import itertools
import random

import pytest

from ncsurf.lattice import (
    DivClass,
    K0Class,
    LatticeSignature,
    anticanonical_class,
    basis_e,
    basis_f,
    basis_s,
    canonical_class,
    chi_line_bundle,
    div,
    intersect,
    k0_adjoint,
    k0_order_transfer,
    k0_serre_twist,
    line_bundle_class,
    mukai_pairing,
    zero_class,
)
from ncsurf.marking import (
    MarkingGroup,
    QComponent,
    SurfaceData,
    blow_up,
    isomonodromy_count,
    validate,
)
from ncsurf.cones import is_effective, is_nef
from ncsurf.sections import dim_gamma, hilb_dim, hom_dims, leaf_dim_disjoint, rank1_bound
from ncsurf.presets import PRESETS, dp9_torsion, f0_commutative, get_preset
from ncsurf.opcases import run_case
from ncsurf import weyl


def _report(n, label, ok):
    print("criterion %2d (%s): %s" % (n, label, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (n, label)


def _rand_sig(rng):
    g = (rng.randint(0, 3), rng.randint(0, 3))
    return LatticeSignature(rng.randint(0, 8), rng.choice(["even", "odd"]), g)


def _rand_k0(sig, rng):
    c1 = DivClass(tuple(rng.randint(-5, 5) for _ in range(sig.rank)), sig)
    return K0Class(rng.randint(-3, 3), c1, rng.randint(-6, 6))


def test_criterion_01_gram_serre_suite():
    rng = random.Random(101)
    ok = True
    for _ in range(1000):
        sig = _rand_sig(rng)
        M, N = _rand_k0(sig, rng), _rand_k0(sig, rng)
        ok = ok and mukai_pairing(M, N) == mukai_pairing(N, k0_serre_twist(M))
        ok = ok and k0_adjoint(k0_adjoint(M)) == M
    _report(1, "Gram/Serre suite", ok)


def _kunneth(a, b):
    # line-bundle cohomology of O(a) x O(b) on a product of two projective lines
    h0 = lambda n: max(n + 1, 0)
    h1 = lambda n: max(-n - 1, 0)
    return (
        h0(a) * h0(b),
        h0(a) * h1(b) + h1(a) * h0(b),
        h1(a) * h1(b),
    )


def test_criterion_02_commutative_oracle():
    S = f0_commutative()
    sig = S.sig
    z = zero_class(sig)
    ok = True
    for a in range(-4, 5):
        for b in range(-4, 5):
            D = div(sig, a, b)
            h = hom_dims(S, z, D)
            want = _kunneth(a, b)
            ok = ok and (h.h0, h.h1, h.h2) == want
            ok = ok and h.h0 - h.h1 + h.h2 == chi_line_bundle(D)
    ok = ok and hom_dims(S, z, div(sig, 1, 1)).h0 == 4
    _report(2, "commutative Kunneth oracle", ok)


def _monoid_gens(name, S):
    """Independent generator list for the effective monoid of the small
    presets: minimal sections and fibers for m = 0, all numeric -1-classes
    (plus the anticanonical component) for the blown-up surfaces."""
    sig = S.sig
    if name in ("f0_generic", "f0_commutative"):
        return [basis_s(sig), basis_f(sig)]
    if name == "f2_type":
        # the ruling root is effective here, so the minimal section drops
        return [basis_s(sig) - basis_f(sig), basis_f(sig)]
    K = canonical_class(sig)
    gens = [comp.cls for comp in S.components]
    for coeffs in itertools.product(range(-1, 2), repeat=sig.rank):
        x = DivClass(coeffs, sig)
        if intersect(x, x) == -1 and intersect(x, K) == -1:
            gens.append(x)
    return gens


_W = 1 << 10  # base of _key; every coordinate of a monoid point is below _W / 2


def _key(coeffs):
    """The int sum_i c_i _W^i, one to one on coefficient tuples with |c_i| < _W / 2."""
    return sum(c * _W ** i for i, c in enumerate(coeffs))


def _monoid_points(gens, Da, maxpair):
    """The _key()s of all nonnegative integer combinations of gens with
    pairing <= maxpair against the ample reference.

    Every gen has positive pairing, so the points of pairing L are the
    translates by g of the points of pairing L - pair(g).  The pairing is
    linear, so it is carried along as that level instead of recomputed, and
    a translate is one int addition on the keys.  Each level keeps its keys
    in small sets by first coordinate, which keeps the hashing cheap."""
    steps = [(g.coeffs[0], _key(g.coeffs) - g.coeffs[0], intersect(g, Da)) for g in gens]
    assert all(d >= 1 for _, _, d in steps)
    # a point is a sum of at most maxpair gens
    assert 2 * maxpair * max(abs(c) for g in gens for c in g.coeffs) < _W
    levels = [{0: {0}}]  # levels[L]: first coordinate -> keys of the rest
    for L in range(1, maxpair + 1):
        level = {}
        for g0, rest, d in steps:
            for c0, keys in levels[L - d].items() if d <= L else ():
                level.setdefault(c0 + g0, set()).update(map(rest.__add__, keys))
        levels.append(level)
    points = set()
    for level in levels:
        for c0, keys in level.items():
            points.update(map(c0.__add__, keys))
    return points


def _monoid_points_checked(gens, Da, maxpair):
    """The same closure with a checked DivClass and intersect for every
    candidate: the reference that _monoid_points must reproduce."""
    sig = gens[0].sig
    zero = (0,) * sig.rank
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple(a + b for a, b in zip(cur, g.coeffs))
            if nxt not in seen and intersect(DivClass(nxt, sig), Da) <= maxpair:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _cone_oracle_inputs(name):
    """(S, Da, gens, maxpair) of the cone oracle on one preset."""
    S = get_preset(name)
    sig = S.sig
    # s + 2f is ample even when the minimal section drops to s - f
    Da = (
        basis_s(sig) + 2 * basis_f(sig)
        if sig.m == 0
        else anticanonical_class(sig)
    )
    gens = [g for g in _monoid_gens(name, S) if intersect(g, Da) <= 6]
    maxpair = max(
        intersect(DivClass(c, sig), Da)
        for c in itertools.product((-4, 4), repeat=sig.rank)
    )
    return S, Da, gens, maxpair


def test_monoid_closure_matches_checked_closure():
    _, Da, gens, maxpair = _cone_oracle_inputs("m1_generic")
    points = _monoid_points(gens, Da, maxpair)
    assert len(points) > 1000
    assert points == {_key(c) for c in _monoid_points_checked(gens, Da, maxpair)}


def test_criterion_03_cone_oracle():
    ok = True
    for name in (
        "f0_generic",
        "f0_commutative",
        "f2_type",
        "m1_generic",
        "m2_generic",
        "m3_generic",
    ):
        S, Da, gens, maxpair = _cone_oracle_inputs(name)
        sig = S.sig
        points = _monoid_points(gens, Da, maxpair)
        for coeffs in itertools.product(range(-4, 5), repeat=sig.rank):
            D = DivClass(coeffs, sig)
            ok = ok and is_effective(S, D) == (_key(coeffs) in points)
            ok = ok and is_nef(S, D) == all(intersect(D, g) >= 0 for g in gens)
            if not ok:
                _report(3, "cone oracle (%s at %s)" % (name, coeffs), ok)
    _report(3, "cone oracle", ok)


def test_criterion_04_paper_identities():
    rng = random.Random(404)
    ok = True
    names = sorted(PRESETS)
    for name in names:
        S = get_preset(name)
        ok = ok and not is_effective(S, canonical_class(S.sig))
    for i in range(1000):
        S = get_preset(names[i % len(names)])
        sig = S.sig
        D = DivClass(tuple(rng.randint(-3, 3) for _ in range(sig.rank)), sig)
        if is_nef(S, D):
            ok = ok and is_effective(S, D)
        if is_effective(S, D):
            ok = ok and intersect(D, basis_f(sig)) >= 0
    _report(4, "nef=>effective, K ineffective, D.f>=0", ok)


def test_criterion_05_dp9_terminal():
    ok = True
    for l in (2, 3, 5):
        S = dp9_torsion(l)
        Q = anticanonical_class(S.sig)
        for a in range(6):
            ok = ok and dim_gamma(S, a * l * Q) == a + 1
    _report(5, "dp9 torsion terminal case", ok)


def _replay(trace):
    cur = trace.start
    for mv in trace.moves:
        if mv.kind == "reflect":
            cur = weyl.reflect(cur, mv.cls)
        else:
            cur = weyl.elementary_transformation(cur)
        if cur != mv.after:
            return False
    sig = cur.sig
    return trace.terminal == "e_m" and cur == basis_e(sig, sig.m)


def test_criterion_06_blowdown():
    ok = True
    for k in (1, 2, 3, 4):
        S = get_preset("m%d_generic" % k)
        sig = S.sig
        for i in range(1, sig.m + 1):
            for x in (basis_e(sig, i), basis_f(sig) - basis_e(sig, i)):
                ok = ok and _replay(weyl.find_blowdown(S, x))
    # two blowups at the same marked point force e1 - e2 effective, so e1
    # decomposes and the search must fail with a witness
    S = get_preset("f0_generic")
    S = blow_up(S, 0, [1], (5, 7))
    S = blow_up(S, 0, [1], (5, 7))
    sig = S.sig
    try:
        weyl.find_blowdown(S, basis_e(sig, 1))
        ok = False
    except weyl.BlowdownError as e:
        ok = ok and "decomposes" in str(e)
    _report(6, "blowdown words and forced decomposition", ok)


def _quasi_ruled(g):
    sig = LatticeSignature(0, "even", (g, g))
    S = SurfaceData(
        sig,
        (QComponent(basis_s(sig) - (g - 1) * basis_f(sig), 2),),
        MarkingGroup(2),
        (1, 0),
        ((0, 1), (0, 0)),
    )
    assert validate(S) == []
    return S


def test_criterion_07_isomonodromy_counts():
    ok = True
    for g in (1, 2, 3):
        S = _quasi_ruled(g)
        want = [3 * g - 3, 3 * g - 2, 3 * g - 1]
        got = [isomonodromy_count(S)]
        for pos in ((5, 7), (11, 13)):
            mults = [0] * len(S.components)
            mults[0] = 1  # a point on the doubled component only
            S = blow_up(S, 0, mults, pos)
            got.append(isomonodromy_count(S))
        ok = ok and got == want
    _report(7, "isomonodromy counts 3g-3 (+1 per blowup)", ok)


def test_criterion_08_moduli_formulas():
    ok = True
    for n in range(1, 6):
        for g in range(4):
            ok = ok and hilb_dim(n, g) == 2 * n + g
    rng = random.Random(808)
    S = get_preset("m2_generic")
    sig = S.sig
    for _ in range(60):
        D = DivClass(tuple(rng.randint(-3, 3) for _ in range(sig.rank)), sig)
        chi_max = chi_line_bundle(D)
        for dchi in (0, -1, -2):
            bound, eq = rank1_bound(S, K0Class(1, D, chi_max + dchi))
            ok = ok and bound == 1 and eq == (dchi == 0)
    Sq = dp9_torsion(2)
    Q = anticanonical_class(Sq.sig)
    for r in range(4):
        for d in (-2, 0, 1, 3):
            ok = ok and leaf_dim_disjoint(Sq, K0Class(0, r * Q, d)) == 2
    _report(8, "moduli dimension formulas", ok)


def test_criterion_09_operator_suite():
    ok = True
    reports = []
    for p in (2, 3, 5, 7, 11):
        reports.append(run_case("frobenius_power", prime=p, trials=10, seed=p))
    reports.append(run_case("middle_convolution", trials=2, seed=9))
    for p in (3, 5):
        reports.append(run_case("additive_product", prime=p, trials=3, seed=p))
    reports.append(run_case("span4_qdiff", trials=100, seed=9))
    for rep in reports:
        ok = ok and rep.verdict == "equal"
    _report(9, "operator identity suite", ok)


def test_criterion_10_order_transfer():
    rng = random.Random(1010)
    ok = True
    sig = LatticeSignature(2, "even")
    KX = canonical_class(sig)
    for r in (1, 2, 3):
        for _ in range(50):
            c1 = DivClass(tuple(rng.randint(-4, 4) for _ in range(sig.rank)), sig)
            c2 = DivClass(tuple(rng.randint(-4, 4) for _ in range(sig.rank)), sig)
            M = K0Class(0, c1, rng.randint(-5, 5))
            N = K0Class(0, c2, rng.randint(-5, 5))
            Mp = k0_order_transfer(M, "push", r, KX, 1)
            Np = k0_order_transfer(N, "push", r, KX, 1)
            ok = ok and Mp.chi == M.chi
            ok = ok and intersect(Mp.c1, Np.c1) == r * r * intersect(c1, c2)
    _report(10, "order transfer push formulas", ok)
