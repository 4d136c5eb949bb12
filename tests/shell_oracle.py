"""The rho-shell scan for -1-classes: a brute-force reference for
is_neg1_irreducible, which runs the blowdown walk instead.

rho is a class in the chamber interior.  Its shells are the roots
(x^2 = -2, x.K = 0) with x.rho = t, in classes_with_pairing's order.  A
formal -1-class e in e_m's orbit is irreducible by this scan when no
component other than e, and no effective root of the shells
t = 0..e.rho, pairs negatively with e: an irreducible effective obstruction
must appear in an effective decomposition of e, and pairs with rho at most
as e does."""

from functools import lru_cache

from ncsurf.latenum import classes_with_pairing
from ncsurf.lattice import _dot, _new, _row, canonical_class, intersect
from ncsurf.marking import is_root_effective
from ncsurf.weyl import is_neg1_effective


def chamber_interior_class(sig):
    """A class with positive self-intersection pairing nonnegatively with all
    simple roots and positively with every e_i and f (a nef reference)."""
    A = sig.m + 2
    return _new((A, A) + (-1,) * sig.m, sig)


@lru_cache(maxsize=None)  # every class of a signature scans the same shells
def root_shell(sig, t):
    """The roots x with x.rho = t, as coefficient tuples in
    classes_with_pairing's order."""
    K, rho = canonical_class(sig), chamber_interior_class(sig)
    return tuple(x.coeffs for x in classes_with_pairing(sig, rho, t, -2) if intersect(x, K) == 0)


def negative_components(S, e):
    """The components of S other than e that pair negatively with e."""
    return [c.cls for c in S.components if c.cls != e and intersect(e, c.cls) < 0]


def negative_effective_roots(S, e):
    """The effective roots of the shells t = 0..e.rho that pair negatively
    with e, lazily."""
    sig = S.sig
    row = _row(sig, e.coeffs)
    for t in range(intersect(e, chamber_interior_class(sig)) + 1):
        for alpha in root_shell(sig, t):
            if _dot(row, alpha) < 0 and is_root_effective(S, _new(alpha, sig))[0]:
                yield _new(alpha, sig)


def shell_is_neg1_irreducible(S, e):
    """is_neg1_irreducible by the scan: the same checks and errors first, then
    the components, then the shells."""
    is_neg1_effective(S, e)
    return not negative_components(S, e) and next(negative_effective_roots(S, e), None) is None
