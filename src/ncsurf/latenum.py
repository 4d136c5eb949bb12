"""Exact enumeration of lattice vectors with prescribed pairing and
self-intersection.  The slices {x : x.Da = t} of the Neron-Severi lattice are
negative definite once Da^2 > 0, so the fibers of the quadratic form are
finite and can be walked recursively (Fincke-Pohst style) with exact rational
arithmetic."""

import math
from fractions import Fraction

from . import snf
from .lattice import DivClass, canonical_class, intersect


def _gram(sig):
    return [list(row) for row in sig.gram()]


def _ldl(M):
    """M = L^T D L with L unit upper triangular; returns (d, L) as Fractions.
    Requires M definite (no zero pivots)."""
    n = len(M)
    A = [[Fraction(M[i][j]) for j in range(n)] for i in range(n)]
    L = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    for i in range(n):
        d[i] = A[i][i]
        if d[i] == 0:
            raise ValueError("degenerate quadratic form")
        for j in range(i + 1, n):
            L[i][j] = A[i][j] / d[i]
        for j in range(i + 1, n):
            for k in range(j, n):
                A[j][k] -= A[i][j] * A[i][k] / d[i]
                A[k][j] = A[j][k]
    return d, L


def _isqrt_floor(fr):
    """floor(sqrt(fr)) for a nonnegative Fraction."""
    if fr < 0:
        raise ValueError
    # floor(sqrt(x)) = isqrt(floor(x)) for x >= 0
    return math.isqrt(fr.numerator // fr.denominator)


def qf_solutions(M, h, target):
    """All integer vectors y with (y+h)^T M (y+h) = target, for M negative
    definite with integer entries and h rational."""
    n = len(M)
    if n == 0:
        return [()] if target == 0 else []
    Mneg = [[-M[i][j] for j in range(n)] for i in range(n)]  # positive definite
    d, L = _ldl(Mneg)
    V = Fraction(-target)  # want sum d_i (y_i + u_i)^2 = V
    if V < 0:
        return []
    out = []
    y = [0] * n

    def rec(i, remaining):
        if i < 0:
            if remaining == 0:
                out.append(tuple(y))
            return
        u = Fraction(h[i])
        for j in range(i + 1, n):
            u += L[i][j] * (y[j] + Fraction(h[j]))
        # d[i]*(y_i+u)^2 <= remaining; the radius sqrt(bound) is irrational in
        # general, so over-cover by one and let the val check filter
        bound = remaining / d[i]
        r = _isqrt_floor(bound) + 1
        lo = -u - r
        hi = -u + r
        yi = int(lo) if lo == int(lo) else int(lo // 1) + 1  # ceil
        while yi <= hi:
            val = d[i] * (yi + u) ** 2
            if val <= remaining:
                y[i] = yi
                rec(i - 1, remaining - val)
            yi += 1
        y[i] = 0

    rec(n - 1, V)
    return out


def classes_with_pairing(sig, Da, t, sq):
    """All classes x with x.Da = t and x^2 = sq; requires Da^2 > 0."""
    if intersect(Da, Da) <= 0:
        raise ValueError("reference class must have positive self-intersection")
    n = sig.rank
    G = _gram(sig)
    v = [sum(G[i][j] * Da.coeffs[j] for j in range(n)) for i in range(n)]
    sol = snf.solve([v], [t])
    if sol is None:
        return []
    x0, kernel = sol
    k = len(kernel)
    # x = x0 + B y; quadratic form in y
    B = [[kernel[j][i] for j in range(k)] for i in range(n)]  # n x k
    Gx0 = [sum(G[i][j] * x0[j] for j in range(n)) for i in range(n)]
    c0 = sum(x0[i] * Gx0[i] for i in range(n))
    w = [sum(B[i][a] * Gx0[i] for i in range(n)) for a in range(k)]  # B^T G x0
    M = [
        [
            sum(B[i][a] * G[i][j] * B[j][b] for i in range(n) for j in range(n))
            for b in range(k)
        ]
        for a in range(k)
    ]
    # (x0+By)^2 = y^T M y + 2 w.y + c0 = sq;  complete the square: h = M^{-1} w
    h = _solve_rational(M, w)
    # (y+h)^T M (y+h) = sq - c0 + h^T M h = sq - c0 + w.h
    target = Fraction(sq - c0) + sum(Fraction(wi) * hi for wi, hi in zip(w, h))
    out = []
    for yv in qf_solutions(M, h, target):
        coeffs = tuple(
            x0[i] + sum(B[i][a] * yv[a] for a in range(k)) for i in range(n)
        )
        out.append(DivClass(coeffs, sig))
    return out


def _solve_rational(M, w):
    """Solve M h = w over the rationals (M invertible)."""
    n = len(M)
    A = [[Fraction(M[i][j]) for j in range(n)] + [Fraction(w[i])] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        pv = A[col][col]
        A[col] = [a / pv for a in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                fac = A[r][col]
                A[r] = [a - fac * b for a, b in zip(A[r], A[col])]
    return [A[i][n] for i in range(n)]


def chamber_interior_class(sig):
    """A class with positive self-intersection pairing nonnegatively with all
    simple roots and positively with every e_i and f (a nef reference)."""
    A = sig.m + 2
    coeffs = (A, A) + (-1,) * sig.m
    return DivClass(coeffs, sig)


def candidate_roots_pairing_negatively(sig, e):
    """Roots alpha (alpha^2 = -2, alpha.K = 0) that could obstruct the
    irreducibility of an effective class e: bounded by pairing against a nef
    reference class, since an irreducible effective obstruction must appear in
    an effective decomposition of e."""
    Da = chamber_interior_class(sig)
    K = canonical_class(sig)
    bound = intersect(e, Da)
    out = []
    for t in range(0, bound + 1):
        for alpha in classes_with_pairing(sig, Da, t, -2):
            if intersect(alpha, K) == 0 and intersect(e, alpha) < 0:
                out.append(alpha)
    return out
