import random

import pytest

from ncsurf.lattice import (
    DivClass,
    K0Class,
    LatticeSignature,
    anticanonical_class,
    basis_f,
    basis_s,
    canonical_class,
    div,
    intersect,
    line_bundle_class,
    mukai_pairing,
    zero_class,
)
from ncsurf.marking import MarkingGroup, QComponent, SurfaceData, validate
from ncsurf.presets import dp9_torsion, f0_commutative, f0_generic, get_preset
from ncsurf.sections import (
    HomDims,
    UnclassifiedState,
    acyclic_globgen,
    dim_gamma,
    hilb_dim,
    hom_dims,
    leaf_dim_disjoint,
    rank1_bound,
)


def rand_div(sig, rng, bound=3):
    return DivClass(tuple(rng.randint(-bound, bound) for _ in range(sig.rank)), sig)


def test_dim_gamma_examples():
    S = f0_generic()
    sig = S.sig
    assert dim_gamma(S, div(sig, 1, 1)) == 4
    assert dim_gamma(S, div(sig, 0, -1)) == 0  # ineffective
    assert dim_gamma(S, canonical_class(sig)) == 0
    assert dim_gamma(S, zero_class(sig)) == 1
    assert dim_gamma(S, div(sig, 0, 1)) == 2
    assert dim_gamma(S, div(sig, 1, 0)) == 2
    assert dim_gamma(S, div(sig, 2, 2)) == 9


def test_dim_gamma_anticanonical_multiples():
    # m=8 with Q^2 = 0 and lambda(Q) of order l: dim Gamma(c Q) = c//l + 1
    for l in (2, 3):
        S = dp9_torsion(l)
        Q = anticanonical_class(S.sig)
        for c in range(3 * l):
            assert dim_gamma(S, c * Q) == c // l + 1
    # in particular the 2lQ example
    S = dp9_torsion(2)
    assert dim_gamma(S, 4 * anticanonical_class(S.sig)) == 3


def test_dim_gamma_commutative_kunneth():
    S = f0_commutative()
    sig = S.sig
    for a in range(-3, 4):
        for b in range(-3, 4):
            want = (a + 1) * (b + 1) if (a >= 0 and b >= 0) else 0
            assert dim_gamma(S, div(sig, a, b)) == want, (a, b)


def test_dim_gamma_effective_root_twist_boundary():
    # torsion marking with lambda(s-f) = 2q, ord q = 5: the effective-root
    # branch selects the twist hitting the -ord q boundary and records it
    sig = LatticeSignature(0, "even")
    P = MarkingGroup(0, (5,))
    S = SurfaceData(
        sig, (QComponent(anticanonical_class(sig), 1),), P, (2,), ((4,), (0,))
    )
    assert validate(S) == []
    trace = []
    assert dim_gamma(S, div(sig, 3, 1), trace=trace) == 8
    assert any("boundary twist" in line for line in trace)


def test_dim_gamma_rejects_higher_genus():
    sig = LatticeSignature(0, "even", (1, 1))
    P = MarkingGroup(2)
    S = SurfaceData(
        sig, (QComponent(basis_s(sig), 2),), P, (1, 0), ((0, 1), (0, 0))
    )
    assert validate(S) == []
    with pytest.raises(ValueError):
        dim_gamma(S, div(sig, 1, 1))


def test_hom_dims_examples():
    S = f0_generic()
    sig = S.sig
    z = zero_class(sig)
    f = basis_f(sig)
    assert hom_dims(S, z, f) == HomDims(2, 0, 0)
    assert hom_dims(S, f, z).h0 == 0
    assert hom_dims(S, f, z).h1 == 0
    assert hom_dims(S, f, z).h2 == 0
    hk = hom_dims(S, z, canonical_class(sig))
    assert (hk.h0, hk.h1, hk.h2) == (0, 0, 1)


def test_hom_dims_properties():
    rng = random.Random(21)
    for name in ("f0_generic", "m1_generic", "m2_generic"):
        S = get_preset(name)
        sig = S.sig
        K = canonical_class(sig)
        for _ in range(40):
            D1, D2 = rand_div(sig, rng), rand_div(sig, rng)
            h = hom_dims(S, D1, D2)
            assert h.h0 >= 0 and h.h1 >= 0 and h.h2 >= 0
            assert not (h.h0 > 0 and h.h2 > 0)
            chi = mukai_pairing(line_bundle_class(D1), line_bundle_class(D2))
            assert h.h0 - h.h1 + h.h2 == chi
            # Serre-dual symmetry
            assert h.h0 == hom_dims(S, D2, D1 + K).h2


def test_dim_gamma_at_least_chi_when_h2_vanishes():
    rng = random.Random(22)
    from ncsurf.cones import is_effective
    from ncsurf.lattice import chi_line_bundle

    S = f0_generic()
    sig = S.sig
    K = canonical_class(sig)
    for _ in range(60):
        D = rand_div(sig, rng)
        if not is_effective(S, K - D):
            assert dim_gamma(S, D) >= chi_line_bundle(D)


def test_acyclic_globgen():
    S = f0_generic()
    sig = S.sig
    z = zero_class(sig)
    assert acyclic_globgen(S, z, z) == "acyclic_and_generating"
    assert acyclic_globgen(S, z, div(sig, 1, 1)) == "acyclic_and_generating"
    assert acyclic_globgen(S, div(sig, 1, 1), z) == "unknown"
    # genus 2 quasi-ruled: s + 4f clears the 2g-1 fiber threshold only
    sig2 = LatticeSignature(0, "even", (2, 2))
    P = MarkingGroup(2)
    S2 = SurfaceData(
        sig2,
        (QComponent(basis_s(sig2) - basis_f(sig2), 2),),
        P,
        (1, 0),
        ((0, 1), (0, 0)),
    )
    assert validate(S2) == []
    z2 = zero_class(sig2)
    assert acyclic_globgen(S2, z2, div(sig2, 1, 4)) == "acyclic"
    assert acyclic_globgen(S2, z2, div(sig2, 1, 5)) == "acyclic_and_generating"
    assert acyclic_globgen(S2, z2, basis_s(sig2)) == "unknown"


def test_hilb_dim():
    assert hilb_dim(3, 2) == 8
    assert hilb_dim(0, 0) == 0
    with pytest.raises(ValueError):
        hilb_dim(-1, 0)


def test_rank1_bound():
    S = f0_generic()
    sig = S.sig
    L = line_bundle_class(zero_class(sig))
    assert (L.rank, L.chi) == (1, 1)
    bound, eq = rank1_bound(S, L)
    assert bound == 1 and eq
    # an ideal-sheaf-style class: same rank and c1, smaller chi
    I = K0Class(1, zero_class(sig), 0)
    bound, eq = rank1_bound(S, I)
    assert bound == 1 and not eq
    with pytest.raises(ValueError):
        rank1_bound(S, K0Class(2, zero_class(sig), 0))


def test_leaf_dim_disjoint():
    S = dp9_torsion(2)
    sig = S.sig
    Q = anticanonical_class(sig)
    M = K0Class(0, 2 * Q, 1)
    assert leaf_dim_disjoint(S, M) == 2
    with pytest.raises(ValueError):
        leaf_dim_disjoint(S, K0Class(0, basis_f(sig), 1))


def test_unclassified_state_carries_report():
    err = UnclassifiedState({"state": "example", "class": "s+f"})
    assert isinstance(err, RuntimeError)
    assert err.report["state"] == "example"
    assert "unclassified" in str(err)


def test_dim_gamma_reflection_invariance():
    from ncsurf.marking import is_root_effective
    from ncsurf.weyl import reflect, reflect_surface, simple_roots

    rng = random.Random(23)
    S = get_preset("m2_generic")
    sig = S.sig
    K = canonical_class(sig)
    roots, _ = simple_roots(sig)
    for alpha in roots:
        if intersect(alpha, K) != 0 or is_root_effective(S, alpha)[0]:
            continue
        Sr = reflect_surface(S, alpha)
        for _ in range(20):
            D = rand_div(sig, rng)
            assert dim_gamma(S, D) == dim_gamma(Sr, reflect(D, alpha))
