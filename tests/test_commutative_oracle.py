"""dim_gamma and is_effective against plane curves through points of a
cuspidal cubic: an oracle outside the chamber and twist logic.

The model is P^2 blown up at distinct points p_i = (t_i, t_i^3), i = 0..m,
t_i integers, of the cuspidal cubic y = x^3, whose smooth part has Pic^0 =
G_a: three of the points are collinear iff their t's sum to 0, and six lie
on a conic iff theirs do.  As a marked surface (odd, m, one component -K,
q = 0: the commutative case) it has s = E_0, f = H - E_0, e_i = E_i, and
lambda(s) = -t_0, lambda(f) = t_0, lambda(e_i) = -t_i.  The class
x*s + y*f + sum(c_i e_i) = y*H - (y - x)*E_0 + sum(c_i E_i) has as sections
the plane curves of degree y with multiplicity y - x at p_0 and -c_i at p_i
(a negative multiplicity adds a fixed exceptional curve: read it as 0).  So
h^0 is the number of monomials of degree <= y in the affine coordinates less
the rank over Q of the conditions d^alpha F(p_i) = 0 for |alpha| < m_i
(Harbourne, Trans. AMS 289, 1985)."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from ncsurf.cones import is_effective
from ncsurf.lattice import BudgetExhausted, DivClass, LatticeSignature, anticanonical_class, render_div
from ncsurf.marking import MarkingGroup, QComponent, SurfaceData, validate
from ncsurf.sections import UnclassifiedState, dim_gamma


def cubic_surface(ts):
    """The marked surface of the blowup at (t, t^3) for t in ts (distinct)."""
    sig = LatticeSignature(len(ts) - 1, "odd")
    lam = ((-ts[0],), (ts[0],)) + tuple((-t,) for t in ts[1:])
    S = SurfaceData(sig, (QComponent(anticanonical_class(sig), 1),), MarkingGroup(1), (0,), lam)
    assert validate(S) == []
    return S


def _falling(n, k):
    """n (n - 1) ... (n - k + 1): the k-th derivative's factor on u^n."""
    return factorial(n) // factorial(n - k) if k <= n else 0


def _rank(rows):
    """Rank over Q by Gauss-Jordan elimination on Fractions."""
    rows = [[Fraction(a) for a in r] for r in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col] / p[col]
                rows[i] = [a - c * b for a, b in zip(rows[i], p)]
        rank += 1
    return rank


def plane_h0(ts, coeffs):
    """h^0 of the class with the given coefficients on cubic_surface(ts)."""
    x, y, cs = coeffs[0], coeffs[1], coeffs[2:]
    if y < 0:
        return 0
    mults = [max(y - x, 0)] + [max(-c, 0) for c in cs]
    monomials = [(i, d - i) for d in range(y + 1) for i in range(d + 1)]
    rows = []
    for t, mu in zip(ts, mults):
        a, b = t, t**3
        for order in range(mu):
            for k in range(order + 1):  # d^k/du^k d^(order-k)/dv^(order-k)
                rows.append([_falling(i, k) * _falling(j, order - k) * a ** max(i - k, 0) * b ** max(j - order + k, 0)
                             for i, j in monomials])
    return len(monomials) - _rank(rows)


def disagreement(ts, coeffs):
    """None when dim_gamma and is_effective agree with the oracle, else a
    description of the query and every answer."""
    S = cubic_surface(ts)
    D = DivClass(tuple(coeffs), S.sig)
    want = plane_h0(ts, coeffs)
    try:
        got = dim_gamma(S, D)
    except (UnclassifiedState, BudgetExhausted) as exc:
        got = "%s: %s" % (type(exc).__name__, exc)
    eff = is_effective(S, D)
    if got == want and eff == (want > 0):
        return None
    return "t = %s, D = %s %s: h0 = %d, dim_gamma = %s, is_effective = %s" % (
        ts, render_div(D), tuple(coeffs), want, got, eff)


def _class(y, m0, mults):
    """The class of degree-y curves with multiplicity m0 at p_0 and mults at
    p_1..p_m, as coefficients (x, y, c_1..c_m)."""
    return (y - m0, y) + tuple(-mu for mu in mults)


def test_oracle_counts_known_systems():
    # plane cubics: ten monomials; a double point costs three conditions
    assert plane_h0((0,), _class(3, 0, [])) == 10
    assert plane_h0((0,), _class(3, 2, [])) == 7
    # s - f = E_0 - H has negative degree
    assert plane_h0((0,), (1, -1)) == 0
    # a line through a collinear triple (1 + 2 - 3 = 0), and none otherwise
    assert plane_h0((1, 2, -3), _class(1, 1, [1, 1])) == 1
    assert plane_h0((1, 2, 4), _class(1, 1, [1, 1])) == 0
    # one conic through five points, and through a sixth only when the six
    # t's sum to 0
    general = (1, 2, 4, 7, 11, 16)
    assert plane_h0(general, _class(2, 1, [1, 1, 1, 1, 0])) == 1
    assert plane_h0(general, _class(2, 1, [1, 1, 1, 1, 1])) == 0
    assert plane_h0((1, 2, 3, -4, 5, -7), _class(2, 1, [1, 1, 1, 1, 1])) == 1
    # a negative multiplicity is a fixed exceptional curve
    assert plane_h0(general, _class(2, 1, [1, 1, 1, 1, -2])) == 1


# special positions: a collinear triple (1 + 2 - 3 = 0), six points on a
# conic and nine points on the cubic with sum 0 (the base points of a cubic
# pencil, where multiples of -K move), beside other positions
POSITIONS = [
    (5,),
    (1, 2),
    (1, 2, -3),
    (1, 2, -3, 4, 6),
    (0, 1, 2, 4, 8),
    (1, 2, 3, -4, 5, -7),
    (1, 2, 3, -4, 5, -7, 11),
    (2, 3, 5, 7, 11, 13, -17, -19),
    (1, -2, 3, 4, -5, 6, -8, 10, -9),
    (1, -2, 3, 4, -5, 6, -8, 10, 12),
]


def _position_classes(ts, rng, count):
    """count seeded classes for the position ts, and the multiples of -K."""
    out = [tuple(k * c for c in anticanonical_class(cubic_surface(ts).sig).coeffs) for k in range(1, 3)]
    for _ in range(count):
        out.append(_class(rng.randint(-1, 7), rng.randint(-1, 3), [rng.randint(-1, 3) for _ in ts[1:]]))
    return out


def test_special_positions_agree_with_the_plane_curves():
    rng = random.Random(23)
    bad, count = [], 0
    for ts in POSITIONS:
        assert len(set(ts)) == len(ts)
        for coeffs in _position_classes(ts, rng, 40):
            count += 1
            d = disagreement(ts, coeffs)
            if d is not None:
                bad.append(d)
    if bad:
        pytest.fail("%d of %d queries disagree with the plane curves:\n%s" % (len(bad), count, "\n".join(bad)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(-12, 12), min_size=1, max_size=10, unique=True),
    st.integers(-1, 7),
    st.lists(st.integers(-1, 3), min_size=10, max_size=10),
)
def test_random_positions_agree_with_the_plane_curves(ts, y, mults):
    d = disagreement(tuple(ts), _class(y, mults[0], mults[1:len(ts)]))
    if d is not None:
        pytest.fail(d)
