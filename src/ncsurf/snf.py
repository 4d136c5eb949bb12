"""One linear equation a.x = t over the integers: a particular solution and a
basis of the solution lattice of a.x = 0.

This is the Smith normal form of a single row, computed by Euclid's algorithm
on its columns (Cohen, A Course in Computational Algebraic Number Theory,
section 2.4): unimodular column operations, recorded in R, reduce a to
(g, 0, ..., 0) with g = gcd(a).  Then x0 = (t/g) R e_1, and the other columns
of R span the kernel."""


def solve(A, b):
    """Solve A x = b over the integers for A = [a], a single row.

    Returns (x0, kernel) where x0 is one solution (list of ints) and kernel is
    a list of basis vectors of the solution lattice of a.x = 0; or None when
    there is no solution.
    """
    if len(A) != 1 or len(b) != 1:
        raise ValueError("snf.solve takes one equation a.x = t, got %d rows and %d right sides" % (len(A), len(b)))
    a = [int(c) for c in A[0]]
    t = int(b[0])
    n = len(a)
    R = [[int(i == j) for i in range(n)] for j in range(n)]  # the columns of R
    # pivot: the first entry of least absolute value, made positive by
    # negating the equation
    piv = min((j for j in range(n) if a[j]), key=lambda j: abs(a[j]), default=None)
    if piv is None:
        return None if t else ([0] * n, R)
    a[0], a[piv] = a[piv], a[0]
    R[0], R[piv] = R[piv], R[0]
    if a[0] < 0:
        a = [-c for c in a]
        t = -t
    # reduce every other column by the pivot; a nonzero remainder is a
    # smaller positive pivot, so swap it in and sweep again
    dirty = True
    while dirty:
        dirty = False
        for j in range(1, n):
            if a[j]:
                k = a[j] // a[0]
                a[j] -= k * a[0]
                R[j] = [u - k * v for u, v in zip(R[j], R[0])]
                if a[j]:
                    a[0], a[j] = a[j], a[0]
                    R[0], R[j] = R[j], R[0]
                    dirty = True
    if t % a[0]:
        return None
    y = t // a[0]
    return [y * u for u in R[0]], R[1:]
