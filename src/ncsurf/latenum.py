"""Exact enumeration of lattice vectors with prescribed pairing and
self-intersection.  The slices {x : x.Da = t} of the Neron-Severi lattice are
negative definite once Da^2 > 0, so the fibers of the quadratic form are
finite.  classes_with_pairing solves the one equation x.Da = t (snf.solve),
writes x = x0 + sum y_a k_a over the kernel basis with the lattice pairing,
and walks the fiber in y recursively (Fincke-Pohst, Math. Comp. 44, 1985)
with exact rational arithmetic on one LDL factorisation per slice."""

import math
from fractions import Fraction

from . import snf
from .lattice import _axpy, _new, _pair, _row, intersect


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


def qf_solutions(M, w, c):
    """All integer vectors y with y^T M y + 2 w.y = c, for M negative
    definite with integer entries and w, c integral."""
    n = len(M)
    if n == 0:
        return [()] if c == 0 else []
    d, L = _ldl([[-a for a in row] for row in M])  # -M = L^T D L, positive definite
    # complete the square: M h = w, so the equation reads
    # (y+h)^T (-M) (y+h) = V with V = -(c + w.h); solve L^T D L h = -w by
    # forward substitution in L^T, then back substitution in L
    z = [Fraction(0)] * n
    for i in range(n):
        z[i] = -w[i] - sum(L[j][i] * z[j] for j in range(i))
    h = [Fraction(0)] * n
    for i in reversed(range(n)):
        h[i] = z[i] / d[i] - sum(L[i][j] * h[j] for j in range(i + 1, n))
    V = -(c + sum(wi * hi for wi, hi in zip(w, h)))  # want sum d_i (y_i + u_i)^2 = V
    if V < 0:
        return []
    out = []
    y = [0] * n

    def rec(i, remaining):
        if i < 0:
            if remaining == 0:
                out.append(tuple(y))
            return
        u = h[i]
        for j in range(i + 1, n):
            u += L[i][j] * (y[j] + h[j])
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
    sol = snf.solve([_row(sig, Da.coeffs)], [t])
    if sol is None:
        return []
    x0, kernel = sol
    x0 = tuple(x0)
    kernel = [tuple(k) for k in kernel]
    # (x0 + sum y_a k_a)^2 = y^T M y + 2 w.y + x0^2 = sq
    M = [[_pair(sig, a, b) for b in kernel] for a in kernel]
    w = [_pair(sig, a, x0) for a in kernel]
    out = []
    for yv in qf_solutions(M, w, sq - _pair(sig, x0, x0)):
        x = x0
        for ya, ka in zip(yv, kernel):
            if ya:
                x = _axpy(x, ya, ka)
        out.append(_new(x, sig))
    return out
