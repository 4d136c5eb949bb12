import random

import pytest

from ncsurf.lattice import (
    DivClass,
    LatticeSignature,
    SignatureMismatch,
    basis_e,
    basis_f,
    basis_s,
    canonical_class,
    div,
    intersect,
    render_div,
)
from ncsurf.latenum import classes_with_pairing
from ncsurf.marking import SurfaceData, blow_up, validate
from ncsurf.presets import PRESETS, f0_generic, get_preset, m1_generic, m2_generic, m3_generic
from ncsurf.weyl import (
    BlowdownError,
    elementary_transformation,
    et_surface,
    find_blowdown,
    in_neg1_orbit,
    reduce_to_chamber,
    reflect,
    reflect_surface,
    simple_roots,
)

from shell_oracle import chamber_interior_class


def rand_div(sig, rng, bound=4):
    return DivClass(tuple(rng.randint(-bound, bound) for _ in range(sig.rank)), sig)


def test_simple_roots_tables():
    sig = LatticeSignature(3, "even")
    roots, extras = simple_roots(sig)
    assert [r.coeffs for r in roots] == [
        (1, -1, 0, 0, 0),
        (0, 1, -1, -1, 0),
        (0, 0, 1, -1, 0),
        (0, 0, 0, 1, -1),
    ]
    assert [x.coeffs for x in extras] == [(0, 0, 0, 0, 1)]

    sig = LatticeSignature(1, "odd")
    roots, extras = simple_roots(sig)
    assert [r.coeffs for r in roots] == [(1, 0, -1)]
    assert sorted(x.coeffs for x in extras) == [(0, 0, 1), (0, 1, -1)]

    sig = LatticeSignature(0, "even", (2, 2))
    roots, extras = simple_roots(sig)
    assert [r.coeffs for r in roots] == [(1, -1)]
    assert extras == []


def test_reflect_values():
    sig = LatticeSignature(2, "even")
    assert reflect(basis_e(sig, 1), basis_e(sig, 1) - basis_e(sig, 2)) == basis_e(sig, 2)
    sig0 = LatticeSignature(0, "even")
    assert reflect(basis_s(sig0), basis_s(sig0) - basis_f(sig0)) == basis_f(sig0)


def test_reflect_properties():
    rng = random.Random(5)
    for sig in (LatticeSignature(3, "even"), LatticeSignature(2, "odd")):
        roots, _ = simple_roots(sig)
        K = canonical_class(sig)
        for _ in range(40):
            alpha = rng.choice(roots)
            D1, D2 = rand_div(sig, rng), rand_div(sig, rng)
            assert reflect(reflect(D1, alpha), alpha) == D1
            assert intersect(reflect(D1, alpha), reflect(D2, alpha)) == intersect(D1, D2)
            assert reflect(K, alpha) == K


def test_reflect_requires_root():
    sig = LatticeSignature(1, "even")
    with pytest.raises(ValueError):
        reflect(basis_f(sig), basis_e(sig, 1))  # e1^2 = -1, not a root
    # reflect_surface checks the root
    S = m2_generic()
    odd = LatticeSignature(2, "odd")
    with pytest.raises(ValueError):
        reflect_surface(S, basis_e(S.sig, 1))
    with pytest.raises(SignatureMismatch):
        reflect_surface(S, basis_e(odd, 1) - basis_e(odd, 2))


def test_elementary_transformation_values():
    sig = LatticeSignature(1, "even")
    out = elementary_transformation(basis_e(sig, 1))
    assert out.sig.parity == "odd"
    assert out.coeffs == (0, 1, -1)
    assert elementary_transformation(basis_f(sig)).coeffs == (0, 1, 0)
    K = canonical_class(sig)
    Ko = canonical_class(LatticeSignature(1, "odd"))
    assert elementary_transformation(K) == Ko


def test_elementary_transformation_round_trip():
    rng = random.Random(6)
    for parity in ("even", "odd"):
        sig = LatticeSignature(2, parity)
        for _ in range(40):
            D = rand_div(sig, rng)
            E = elementary_transformation(elementary_transformation(D))
            assert E.coeffs == D.coeffs
    # the pairing is preserved
    sig = LatticeSignature(2, "even")
    for _ in range(40):
        D1, D2 = rand_div(sig, rng), rand_div(sig, rng)
        assert intersect(
            elementary_transformation(D1), elementary_transformation(D2)
        ) == intersect(D1, D2)


def test_reflect_surface_keeps_validity():
    """Reflections and elementary transformations change the blowdown
    structure, not the surface: the moved surface is valid, each move undoes
    itself, and lambda is precomposed with the basis change.  Explicit
    pytest.fail, so that the checks also run under python -O."""
    for name in sorted(PRESETS):
        S = get_preset(name)
        sig = S.sig
        if sig.m < 1:
            continue
        basis = [DivClass(tuple(int(j == i) for j in range(sig.rank)), sig) for i in range(sig.rank)]
        for alpha in simple_roots(sig)[0]:
            S2 = reflect_surface(S, alpha)
            if validate(S2) != []:
                pytest.fail("%s: reflecting at %s gives %r" % (name, render_div(alpha), validate(S2)))
            if reflect_surface(S2, alpha) != S:
                pytest.fail("%s: reflecting twice at %s changes the surface" % (name, render_div(alpha)))
            for D in basis:
                if S2.lam_of(D) != S.lam_of(reflect(D, alpha)):
                    pytest.fail("%s: lambda(%s) after reflecting at %s" % (name, render_div(D), render_div(alpha)))
        T = et_surface(S)
        if validate(T) != []:
            pytest.fail("%s: the elementary transformation gives %r" % (name, validate(T)))
        if et_surface(T) != S:
            pytest.fail("%s: two elementary transformations change the surface" % name)
        for D in basis:
            if T.lam_of(elementary_transformation(D)) != S.lam_of(D):
                pytest.fail("%s: lambda(%s) after the elementary transformation" % (name, render_div(D)))


def test_reduce_to_chamber_examples():
    S = m2_generic()
    sig = S.sig
    tr = reduce_to_chamber(S, basis_f(sig))
    assert tr.moves == [] and tr.end == basis_f(sig)

    tr = reduce_to_chamber(S, div(sig, 2, 2, -3, 0))
    assert tr.end == div(sig, 1, 2, -2, 1)
    assert tr.word() == ["f-e1-e2", "s-f"]
    assert not tr.blocked

    # an effective root blocks the reduction
    lam = list(S.lam)
    lam[3] = lam[2]  # lambda(e1) = lambda(e2): e1-e2 effective
    Seq = SurfaceData(sig, S.components, S.marking, S.q, tuple(lam))
    tr = reduce_to_chamber(Seq, basis_e(sig, 1))
    assert tr.blocked
    assert tr.blocking == basis_e(sig, 1) - basis_e(sig, 2)


def test_reduce_order_independence_when_ineffective():
    # end class does not depend on the scan order when no root is effective
    S = m3_generic()
    sig = S.sig
    rng = random.Random(7)
    for _ in range(25):
        D = rand_div(sig, rng, 3)
        end = reduce_to_chamber(S, D).end
        # re-run after a harmless relabeling of e-coordinates consistent with
        # the surface data (swap e1, e2 everywhere)
        perm = [0, 1, 3, 2, 4]
        Dp = DivClass(tuple(D.coeffs[i] for i in perm), sig)
        lam = tuple(S.lam[i] for i in perm)
        comps = tuple(
            type(c)(DivClass(tuple(c.cls.coeffs[i] for i in perm), sig), c.mult)
            for c in S.components
        )
        Sp = SurfaceData(sig, comps, S.marking, S.q, lam)
        endp = reduce_to_chamber(Sp, Dp).end
        assert sorted(endp.coeffs[2:]) == sorted(end.coeffs[2:])
        assert endp.coeffs[:2] == end.coeffs[:2]


def test_find_blowdown_examples():
    S = m2_generic()
    sig = S.sig
    tr = find_blowdown(S, basis_e(sig, 2))
    assert tr.terminal == "e_m" and tr.word() == []

    S1 = m1_generic()
    tr = find_blowdown(S1, basis_f(S1.sig) - basis_e(S1.sig, 1))
    assert tr.terminal == "e_m"
    assert tr.word() == ["elementary_transformation"]
    assert tr.end == basis_e(tr.end.sig, 1)

    # decomposable class: error names the decomposition
    lam = list(S.lam)
    lam[3] = lam[2]
    Seq = SurfaceData(sig, S.components, S.marking, S.q, tuple(lam))
    with pytest.raises(BlowdownError) as exc:
        find_blowdown(Seq, basis_e(sig, 1))
    assert "class decomposes: e1 = (e1-e2) + e2" in str(exc.value)


def test_blocked_blowdown_names_the_input_class():
    # f-e2 walks to e1 before e1-e2 blocks it; the decomposition is of f-e2,
    # with the blocking root pulled back to the input frame
    S = m2_generic()
    sig = S.sig
    lam = list(S.lam)
    lam[3] = lam[2]
    Seq = SurfaceData(sig, S.components, S.marking, S.q, tuple(lam))
    e = basis_f(sig) - basis_e(sig, 2)
    want = "class decomposes: f-e2 = (e1-e2) + f-e1"
    try:
        tr = find_blowdown(Seq, e)
    except BlowdownError as err:
        if str(err) != want:
            pytest.fail("find_blowdown(%s) says %r, want %r" % (render_div(e), str(err), want))
    else:
        pytest.fail("find_blowdown(%s) reached %s with no error" % (render_div(e), tr.terminal))


def test_find_blowdown_rejects_non_neg1():
    S = m1_generic()
    with pytest.raises(ValueError):
        find_blowdown(S, basis_f(S.sig))


def test_in_neg1_orbit():
    sig = LatticeSignature(3, "even")
    assert in_neg1_orbit(sig, basis_e(sig, 1))
    assert in_neg1_orbit(sig, basis_f(sig) - basis_e(sig, 2))
    assert in_neg1_orbit(sig, div(sig, 1, 1, -1, -1, -1))
    assert not in_neg1_orbit(sig, basis_f(sig))


def test_in_neg1_orbit_matches_find_blowdown():
    # on generic surfaces no root is effective, so the guarded walk succeeds
    # exactly when the numeric one does
    for k in (1, 2, 3, 4):
        S = get_preset("m%d_generic" % k)
        sig = S.sig
        K = canonical_class(sig)
        rho = chamber_interior_class(sig)
        seen = 0
        for t in range(-1, 5):
            for x in classes_with_pairing(sig, rho, t, -1):
                if intersect(x, K) != -1:
                    continue
                try:
                    find_blowdown(S, x)
                    found = True
                except BlowdownError:
                    found = False
                assert in_neg1_orbit(sig, x) == found, render_div(x)
                seen += found
        assert seen >= sig.m
    # two blowups at one marked point make e1 - e2 effective: e1 is in the
    # orbit numerically, but its blowdown is obstructed
    S = f0_generic()
    S = blow_up(S, 0, [1], (5, 7))
    S = blow_up(S, 0, [1], (5, 7))
    e1 = basis_e(S.sig, 1)
    assert in_neg1_orbit(S.sig, e1)
    with pytest.raises(BlowdownError):
        find_blowdown(S, e1)
