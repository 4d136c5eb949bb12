"""TruncSeries arithmetic against dense coefficient-wise definitions on random
GF(p) series, and the normal form every series keeps: only nonzero matrices
at 0 <= k <= prec, with entries reduced mod p."""

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from ncsurf.series import TruncSeries


def dense(S):
    """The coefficients of S as a list of n x n integer matrices, k = 0..prec."""
    return [[list(row) for row in S.coeff(k)] for k in range(S.prec + 1)]


def ref_add(A, B, p):
    return [[[(a + b) % p for a, b in zip(ra, rb)] for ra, rb in zip(X, Y)] for X, Y in zip(A, B)]


def ref_mul(A, B, p):
    prec, n = len(A) - 1, len(A[0])
    out = [[[0] * n for _ in range(n)] for _ in range(prec + 1)]
    for i in range(prec + 1):
        for j in range(prec + 1 - i):
            for r in range(n):
                for c in range(n):
                    out[i + j][r][c] += sum(A[i][r][t] * B[j][t][c] for t in range(n))
    return [[[a % p for a in row] for row in M] for M in out]


def ref_shift(A, j, p):
    # (z + j)^{-k} = sum_i (-1)^i C(k+i-1, i) j^i z^{-k-i}, and z^0 stays
    prec, n = len(A) - 1, len(A[0])
    out = [[[0] * n for _ in range(n)] for _ in range(prec + 1)]
    out[0] = [row[:] for row in A[0]]
    for k in range(1, prec + 1):
        for i in range(prec - k + 1):
            c = (-1) ** i * comb(k + i - 1, i) * j ** i
            for r in range(n):
                for s in range(n):
                    out[k + i][r][s] += c * A[k][r][s]
    return [[[a % p for a in row] for row in M] for M in out]


def check_normal_form(S):
    for k, M in S.coeffs.items():
        if not 0 <= k <= S.prec:
            pytest.fail("coefficient at k = %d outside 0..%d" % (k, S.prec))
        if not any(any(row) for row in M):
            pytest.fail("zero matrix stored at k = %d" % k)
        if any(not 0 <= a < S.p for row in M for a in row):
            pytest.fail("unreduced entry at k = %d: %r" % (k, M))


@st.composite
def series_pair(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    n = draw(st.integers(1, 3))
    prec = draw(st.integers(0, 6))

    def one():
        # sparse, with entries outside 0..p-1 and keys past prec, which the
        # public constructor must reduce and drop
        keys = draw(st.sets(st.integers(-1, prec + 2), max_size=prec + 2))
        return TruncSeries(p, n, prec, {
            k: tuple(tuple(draw(st.integers(-2 * p, 2 * p)) for _ in range(n)) for _ in range(n))
            for k in keys
        })

    return p, one(), one(), draw(st.integers(-p, 2 * p))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(series_pair())
def test_arithmetic_matches_dense_definitions(case):
    p, A, B, j = case
    for S in (A, B):
        check_normal_form(S)
    for got, want in (
        (A + B, ref_add(dense(A), dense(B), p)),
        (A - B, ref_add(dense(A), [[[-a for a in row] for row in M] for M in dense(B)], p)),
        (A * B, ref_mul(dense(A), dense(B), p)),
        (A.shift(j), ref_shift(dense(A), j, p)),
    ):
        check_normal_form(got)
        if dense(got) != want:
            pytest.fail("%r != %r" % (dense(got), want))


def test_constructor_reduces_its_input():
    S = TruncSeries(5, 1, 2, {0: ((7,),), 1: ((-5,),), 2: ((-1,),), 3: ((1,),), -1: ((1,),)})
    assert S.coeffs == {0: ((2,),), 2: ((4,),)}


def test_bad_input_raises():
    # a matrix that is not n x n, at any key, would be read row-major into
    # the wrong entries (or end in an IndexError); a negative power was 1
    for n, M in ((3, [[1, 2], [0, 1]]), (1, [[1, 2]]), (2, [[1, 2]]), (2, [[1, 2], [3]]), (1, [])):
        for k in (0, 1, 3, -1):
            with pytest.raises(ValueError):
                TruncSeries(3, n, 2, {k: M})
    # a non-integer entry was truncated (2.7 to 2, '3' to 3) and a
    # non-integer key ended in a TypeError from the slot shift; a key out
    # of 0..prec is dropped, but its matrix is still checked
    for k, a, bad in ((0, 2.7, 2.7), (0, '3', '3'), (0.5, 1, 0.5), ('1', 1, '1'), (9, 2.5, 2.5), (-1, 0.5, 0.5)):
        with pytest.raises(ValueError, match="%r is not an integer" % (bad,)):
            TruncSeries(5, 1, 2, {k: [[a]]})
    assert TruncSeries(5, 1, 2, {2.0: [[3.0]], 9: [[1]], -1: [[1]]}) == TruncSeries(5, 1, 2, {2: [[3]]})
    S = TruncSeries(3, 1, 3, {0: [[1]], 1: [[2]]})
    for e in (-1, -2):
        with pytest.raises(ValueError):
            S ** e
    assert S ** 0 == TruncSeries.one(3, 1, 3) and S ** 2 == S * S


def full(p, n, prec):
    """The series with every entry of every M_k at p - 1, where the slot
    bounds of the packed kernel are tightest."""
    return TruncSeries(p, n, prec, {k: [[p - 1] * n] * n for k in range(prec + 1)})


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_extreme_inputs_match_dense_definitions(p):
    for n in (1, 2, 3):
        for prec in range(p + 1):
            A = full(p, n, prec)
            got, want = dense(A * A), ref_mul(dense(A), dense(A), p)
            if got != want:
                pytest.fail("p=%d n=%d prec=%d: A*A = %r, not %r" % (p, n, prec, got, want))
            for j in (-p, -1, 0, p - 1, 2 * p, 2 * p + 1):
                got, want = dense(A.shift(j)), ref_shift(dense(A), j, p)
                if got != want:
                    pytest.fail("p=%d n=%d prec=%d: shift(%d) = %r, not %r" % (p, n, prec, j, got, want))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_chained_shifted_products_match_dense_definitions(p):
    # the additive_product pattern B(z+p-1) ... B(z+1) B(z) at prec = p
    for n in (1, 2, 3):
        A = full(p, n, p)
        prod, want = TruncSeries.one(p, n, p), dense(TruncSeries.one(p, n, p))
        for j in range(p - 1, -1, -1):
            prod = prod * A.shift(j)
            want = ref_mul(want, ref_shift(dense(A), j, p), p)
            check_normal_form(prod)
            if dense(prod) != want:
                pytest.fail("p=%d n=%d: product down to shift(%d) = %r, not %r" % (p, n, j, dense(prod), want))
