import random
from fractions import Fraction

import pytest

from ncsurf.latenum import _isqrt_floor
from ncsurf.lattice import (
    DivClass,
    K0Class,
    LatticeSignature,
    SignatureMismatch,
    anticanonical_class,
    basis_e,
    basis_f,
    basis_s,
    canonical_class,
    chi_line_bundle,
    chi_structure,
    div,
    intersect,
    k0_adjoint,
    k0_order_transfer,
    k0_serre_twist,
    k0_serre_untwist,
    line_bundle_class,
    mukai_pairing,
    point_class,
    render_div,
    zero_class,
)

EVEN0 = LatticeSignature(0, "even")
EVEN1 = LatticeSignature(1, "even")
EVEN3 = LatticeSignature(3, "even")
ODD1 = LatticeSignature(1, "odd")


def rand_div(sig, rng, bound=5):
    return DivClass(tuple(rng.randint(-bound, bound) for _ in range(sig.rank)), sig)


def test_basic_pairings():
    assert intersect(basis_s(EVEN3), basis_f(EVEN3)) == 1
    assert intersect(basis_e(EVEN3, 1), basis_e(EVEN3, 1)) == -1
    assert intersect(basis_e(EVEN3, 1), basis_e(EVEN3, 2)) == 0
    assert intersect(div(EVEN0, 2, 3), div(EVEN0, 1, 1)) == 5
    assert intersect(basis_s(ODD1), basis_s(ODD1)) == -1
    assert intersect(basis_s(EVEN3), basis_s(EVEN3)) == 0


def test_signature_mismatch_is_an_error():
    with pytest.raises(SignatureMismatch):
        intersect(basis_f(EVEN1), basis_f(ODD1))
    with pytest.raises(SignatureMismatch):
        basis_s(EVEN0) + basis_s(EVEN1)


def test_gram_signature():
    # signature (+, -, ..., -): after the basis change (s+f, s-f, e_i) the
    # leading principal minors alternate +, -, +, ... (Jacobi's criterion),
    # and the discriminant is (-1)^(rank-1)
    import sympy

    for m in range(9):
        for parity in ("even", "odd"):
            sig = LatticeSignature(m, parity)
            gram = sig.gram()
            G = sympy.Matrix(sig.rank, sig.rank, lambda i, j: gram[i][j])
            assert G.det() == (-1) ** (sig.rank - 1)
            B = sympy.eye(sig.rank)
            B[0, 0], B[0, 1], B[1, 0], B[1, 1] = 1, 1, 1, -1
            H = B * G * B.T
            for k in range(sig.rank):
                dk = H[: k + 1, : k + 1].det()
                assert dk != 0 and (dk > 0) == (k % 2 == 0)


def test_canonical_class_values():
    assert canonical_class(EVEN0) == div(EVEN0, -2, -2)
    assert canonical_class(ODD1) == div(ODD1, -2, -3, 1)
    sig = LatticeSignature(0, "even", (2, 2))
    assert canonical_class(sig) == div(sig, -2, 2)
    assert anticanonical_class(EVEN0) == div(EVEN0, 2, 2)


def test_chi_structure():
    assert chi_structure(EVEN0) == 1
    assert chi_structure(LatticeSignature(0, "even", (1, 1))) == 0
    assert chi_structure(LatticeSignature(0, "even", (3, 3))) == -2


def test_chi_line_bundle():
    assert chi_line_bundle(zero_class(EVEN0)) == 1
    assert chi_line_bundle(div(EVEN0, 1, 1)) == 4
    sig = LatticeSignature(0, "even", (2, 2))
    assert chi_line_bundle(basis_f(sig)) == 0
    assert chi_line_bundle(zero_class(sig)) == -1


def test_chi_line_bundle_quasi_ruled_integrality():
    # quasi-ruled g0 != g1: picking the genus by fiber-degree parity keeps
    # the formula integral (the /2 is guarded, never rounded)
    rng = random.Random(7)
    for parity in ("even", "odd"):
        for genera in ((1, 2), (0, 3), (2, 2)):
            sig = LatticeSignature(1, parity, genera)
            for _ in range(60):
                assert isinstance(chi_line_bundle(rand_div(sig, rng)), int)


def test_mukai_pairing_values():
    assert mukai_pairing(K0Class(1, zero_class(EVEN0), 1), point_class(EVEN0)) == 1
    assert mukai_pairing(point_class(EVEN0), point_class(EVEN0)) == 0
    N = K0Class(0, basis_f(EVEN0), 1)
    assert mukai_pairing(N, N) == 0


def test_serre_twist_values():
    K = canonical_class(EVEN0)
    M = k0_serre_twist(K0Class(1, zero_class(EVEN0), 1))
    assert (M.rank, M.c1, M.chi) == (1, K, 1)
    M = k0_serre_twist(K0Class(0, basis_f(EVEN0), 1))
    assert (M.rank, M.c1, M.chi) == (0, basis_f(EVEN0), -1)
    P = point_class(EVEN0)
    T = k0_serre_twist(P)
    assert (T.rank, T.c1, T.chi) == (P.rank, P.c1, P.chi)


def test_serre_duality_property():
    rng = random.Random(1)
    for sig in (EVEN0, EVEN3, ODD1):
        for _ in range(50):
            M = K0Class(rng.randint(-3, 3), rand_div(sig, rng), rng.randint(-5, 5))
            N = K0Class(rng.randint(-3, 3), rand_div(sig, rng), rng.randint(-5, 5))
            assert mukai_pairing(M, N) == mukai_pairing(N, k0_serre_twist(M))
            U = k0_serre_untwist(k0_serre_twist(M))
            assert (U.rank, U.c1, U.chi) == (M.rank, M.c1, M.chi)


def test_adjoint_involution():
    K = canonical_class(EVEN0)
    A = k0_adjoint(K0Class(1, zero_class(EVEN0), 1))
    assert (A.rank, A.c1, A.chi) == (1, K, 1)
    M = K0Class(2, basis_s(EVEN0) + basis_f(EVEN0), 3)
    B = k0_adjoint(k0_adjoint(M))
    assert (B.rank, B.c1, B.chi) == (M.rank, M.c1, M.chi)
    P = point_class(EVEN0)
    Q = k0_adjoint(P)
    assert (Q.rank, Q.c1, Q.chi) == (P.rank, P.c1, P.chi)


def test_chi_consistency_loop():
    rng = random.Random(2)
    for sig in (EVEN0, EVEN3):
        O = K0Class(1, zero_class(sig), chi_structure(sig))
        for _ in range(30):
            D = rand_div(sig, rng)
            assert chi_line_bundle(D) == mukai_pairing(O, line_bundle_class(D))


def test_rank0_mukai_is_intersection():
    rng = random.Random(3)
    for _ in range(30):
        D1 = rand_div(EVEN3, rng)
        D2 = rand_div(EVEN3, rng)
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        assert mukai_pairing(K0Class(0, D1, a), K0Class(0, D2, b)) == -intersect(D1, D2)


def test_order_transfer():
    K = canonical_class(EVEN0)
    M = K0Class(1, zero_class(EVEN0), 5)
    T = k0_order_transfer(M, "push", 1, K, 1)
    assert (T.rank, T.c1, T.chi) == (M.rank, M.c1, M.chi)
    Kz = div(EVEN0, -1, -1)  # 2Kz - Kx = -2s-2f+2s+2f = 0 has even coefficients
    T = k0_order_transfer(K0Class(1, zero_class(EVEN0), 3), "push", 2, Kz, 1)
    assert T.c1 == 2 * Kz - K
    # r^2 scaling of the pairing on rank-0 classes
    rng = random.Random(4)
    for _ in range(20):
        D1, D2 = rand_div(EVEN0, rng), rand_div(EVEN0, rng)
        P1 = k0_order_transfer(K0Class(0, D1, 0), "push", 2, Kz, 1)
        P2 = k0_order_transfer(K0Class(0, D2, 0), "push", 2, Kz, 1)
        assert intersect(P1.c1, P2.c1) == 4 * intersect(D1, D2)


def test_render_and_parse_names():
    assert render_div(div(EVEN3, 2, 3, -1, -1, 0)) == "2s+3f-e1-e2"
    assert render_div(zero_class(EVEN0)) == "0"
    assert render_div(div(EVEN0, -1, 0)) == "-s"


def test_isqrt_floor_is_exact_beyond_float_range():
    big = Fraction(10**400 + 1, 3)
    r = _isqrt_floor(big)
    assert r * r <= big < (r + 1) * (r + 1)
    for x in (Fraction(n, d) for n in range(0, 60) for d in (1, 3, 4, 7)):
        r = _isqrt_floor(x)
        assert r * r <= x < (r + 1) * (r + 1)
