"""Truncated matrix Laurent series in z^{-1} over a prime field.

A series is a map k -> n x n matrix over F_p for 0 <= k <= prec, representing
sum_k M_k z^{-k} modulo z^{-(prec+1)}."""

from math import comb


def _zero(n, p):
    return tuple(tuple(0 for _ in range(n)) for _ in range(n))


def _eye(n, p):
    return tuple(tuple(1 % p if i == j else 0 for j in range(n)) for i in range(n))


def _madd(A, B, p):
    return tuple(
        tuple((a + b) % p for a, b in zip(ra, rb)) for ra, rb in zip(A, B)
    )


def _mscale(k, A, p):
    return tuple(tuple((k * a) % p for a in row) for row in A)


def _mmul(A, B, p):
    n = len(A)
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(n)) % p for j in range(n))
        for i in range(n)
    )


def _acc(out, k, M, p):
    """out[k] += M, for M reduced mod p."""
    out[k] = _madd(out[k], M, p) if k in out else M


class TruncSeries:
    def __init__(self, p, n, prec, coeffs=None, _reduced=False):
        # _reduced: results the class computes itself, whose matrices are
        # already reduced mod p and lie at 0 <= k <= prec
        self.p, self.n, self.prec = p, n, prec
        coeffs = coeffs or {}
        if not _reduced:
            coeffs = {k: tuple(tuple(int(a) % p for a in row) for row in M)
                      for k, M in coeffs.items() if 0 <= k <= prec}
        self.coeffs = {k: M for k, M in coeffs.items() if any(map(any, M))}

    @classmethod
    def one(cls, p, n, prec):
        return cls(p, n, prec, {0: _eye(n, p)})

    def coeff(self, k):
        return self.coeffs.get(k, _zero(self.n, self.p))

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, M in other.coeffs.items():
            _acc(out, k, M, self.p)
        return TruncSeries(self.p, self.n, self.prec, out, _reduced=True)

    def __sub__(self, other):
        neg = {k: _mscale(-1, M, other.p) for k, M in other.coeffs.items()}
        return self + TruncSeries(other.p, other.n, other.prec, neg, _reduced=True)

    def __mul__(self, other):
        out = {}
        for i, A in self.coeffs.items():
            for j, B in other.coeffs.items():
                if i + j <= self.prec:
                    _acc(out, i + j, _mmul(A, B, self.p), self.p)
        return TruncSeries(self.p, self.n, self.prec, out, _reduced=True)

    def shift(self, j):
        """The series evaluated at z + j:
        z^{-k} = sum_i (-1)^i C(k+i-1, i) j^i (z+j)^{... } -- expanded the
        other way: (z+j)^{-k} = sum_i (-1)^i C(k+i-1,i) j^i z^{-k-i}."""
        out = {}
        for k, M in self.coeffs.items():
            if k == 0:
                _acc(out, 0, M, self.p)
                continue
            for i in range(0, self.prec - k + 1):
                c = ((-1) ** i) * comb(k + i - 1, i) * pow(j, i)
                _acc(out, k + i, _mscale(c, M, self.p), self.p)
        return TruncSeries(self.p, self.n, self.prec, out, _reduced=True)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if (self.p, self.n, self.prec) != (other.p, other.n, other.prec):
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coeff(k) == other.coeff(k) for k in keys)

    def __repr__(self):
        return "TruncSeries(p=%d, n=%d, prec=%d, %r)" % (
            self.p,
            self.n,
            self.prec,
            self.coeffs,
        )
