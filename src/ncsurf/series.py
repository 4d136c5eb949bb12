"""Truncated matrix Laurent series sum_k M_k w^k mod w^{prec+1}, w = z^{-1},
with n x n matrices M_k over a prime field F_p, stored packed (Kronecker
substitution): entry (r, c) is the one int sum_k M_k[r][c] 2^{bk}, whose
b-bit slot k holds the coefficient of w^k.  The n*n entries are kept
row-major, every slot in [0, p) and none past slot prec, so they are
canonical and == compares ints.

Arithmetic runs on unreduced nonnegative slots and reduces mod p once per
result entry.  Carries only move up, so slots 0..prec are exact while each
stays below 2^b; b is the bit length of the largest of three slot bounds:
- x + y, and x + p - y for a difference: below 2p;
- a product: slot k of entry (r, c) of A*B, sum_t sum_{i+l=k} A_i[r][t]
  B_l[t][c], is at most n (prec+1) (p-1)^2;
- shift(j) maps w to wu, u = (1 + jw)^{-1} = sum_i (-j)^i w^i with each
  (-j)^i in [0, p), by Horner's rule R <- (R * wu mod w^{prec+1}) + a_k: slot
  0 of R * wu is 0 and slot k >= 1 sums k <= prec terms, each at most p - 1
  times a slot of R, so the prec steps from slots <= p - 1 end with every
  slot at most (p-1) (prec (p-1))^prec."""

from functools import lru_cache
from operator import add, mul

from .lattice import _as_int


@lru_cache(maxsize=256)
def _layout(p, n, prec):
    """(b, the mask of slots 0..prec, the slot offsets top down, p in each slot)."""
    b = max(2 * p, n * (prec + 1) * (p - 1) ** 2, (p - 1) * (prec * (p - 1)) ** prec).bit_length()
    tops = tuple(range(b * prec, -1, -b))
    return b, (1 << b * (prec + 1)) - 1, tops, sum(p << s for s in tops)


@lru_cache(maxsize=1024)
def _wu(p, n, prec, j):
    """w (1 + jw)^{-1} mod w^{prec+1}, packed, with slots in [0, p)."""
    b = _layout(p, n, prec)[0]
    return sum(pow(-j, i, p) << b * (i + 1) for i in range(prec))


class TruncSeries:
    def __init__(self, p, n, prec, coeffs=None, _entries=None):
        # _entries: canonical packed entries, for results the class computes
        self.p, self.n, self.prec = p, n, prec
        if _entries is None:
            b, _entries = _layout(p, n, prec)[0], [0] * (n * n)
            for k, M in (coeffs or {}).items():
                k = _as_int(k)
                if len(M) != n or any(len(row) != n for row in M):
                    raise ValueError("M_%s is not a %d x %d matrix" % (k, n, n))
                flat = [a for row in M for a in row]
                ints = list(map(int, flat))
                if ints != flat:  # _as_int raises the error, at the first bad entry
                    list(map(_as_int, flat))
                if 0 <= k <= prec:
                    for i, a in enumerate(ints):
                        _entries[i] |= (a % p) << b * k
        self._e = tuple(_entries)

    def _reduced(self, raw):
        """The series of packed entries: slots 0..prec reduced mod p, the rest dropped."""
        p, (b, _, tops, _) = self.p, _layout(self.p, self.n, self.prec)
        m, out = (1 << b) - 1, []
        for x in raw:
            r = 0
            for s in tops:
                r = (r << b) | (x >> s & m) % p
            out.append(r)
        return TruncSeries(p, self.n, self.prec, _entries=out)

    @classmethod
    def one(cls, p, n, prec):
        return cls(p, n, prec, _entries=[int(i == j) for i in range(n) for j in range(n)])

    def coeff(self, k):
        n, b = self.n, _layout(self.p, self.n, self.prec)[0]
        m = (1 << b) - 1 if 0 <= k <= self.prec else 0
        flat = [x >> b * max(k, 0) & m for x in self._e]
        return tuple(tuple(flat[r:r + n]) for r in range(0, n * n, n))

    @property
    def coeffs(self):
        """{k: M_k} for the nonzero matrices M_k."""
        out = {k: self.coeff(k) for k in range(self.prec + 1)}
        return {k: M for k, M in out.items() if any(map(any, M))}

    def __add__(self, other):
        return self._reduced(map(add, self._e, other._e))

    def __sub__(self, other):
        ps = _layout(self.p, self.n, self.prec)[3]
        return self._reduced(x + ps - y for x, y in zip(self._e, other._e))

    def __mul__(self, other):
        return self._times(other)

    def _times(self, other):
        # the product kernel, which __pow__ runs without a call of __mul__
        n, A = self.n, self._e
        cols = [other._e[c::n] for c in range(n)]
        return self._reduced(sum(map(mul, A[r:r + n], col)) for r in range(0, n * n, n) for col in cols)

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative series powers are not supported")
        out = TruncSeries.one(self.p, self.n, self.prec)
        for _ in range(e):
            out = out._times(self)
        return out

    def shift(self, j):
        """The series at z + j, that is at 1/(z + j) = w (1 + jw)^{-1}: the
        Horner substitution of the module docstring in every entry."""
        b, mask, tops, _ = _layout(self.p, self.n, self.prec)
        wu, m, out = _wu(self.p, self.n, self.prec, j), (1 << b) - 1, []
        for x in self._e:
            r = 0
            for s in tops:
                r = (r * wu & mask) + (x >> s & m)
            out.append(r)
        return self._reduced(out)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.p, self.n, self.prec, self._e) == (other.p, other.n, other.prec, other._e)

    def __repr__(self):
        return "TruncSeries(p=%d, n=%d, prec=%d, %r)" % (self.p, self.n, self.prec, self.coeffs)
