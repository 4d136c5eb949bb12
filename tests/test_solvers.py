"""The two integer solves under the lattice and marking layers, each against
an oracle that does not share its code: snf.solve (one equation a.x = t)
against a box scan, cyclic_membership (a*q = x in a marking group) against a
scan of a with the group's own arithmetic, and classes_with_pairing against
a box scan for a reference class other than the chamber-interior one.

snf.solve raises for more than one equation; this file also runs under
python -O."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from ncsurf import snf
from ncsurf.latenum import classes_with_pairing
from ncsurf.lattice import _pair, div, intersect
from ncsurf.marking import MarkingGroup, cyclic_membership
from ncsurf.presets import get_preset


def _dot(a, x):
    return sum(u * v for u, v in zip(a, x))


def _coordinates(basis, y):
    """The rational c with sum c_k basis[k] = y, for independent basis
    vectors, by Gauss-Jordan elimination; None if y is not in their span."""
    k = len(basis)
    rows = [[Fraction(b[i]) for b in basis] + [Fraction(y[i])] for i in range(len(y))]
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            raise ValueError("dependent basis")
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                rows[i] = [u - rows[i][col] * v for u, v in zip(rows[i], rows[r])]
        r += 1
    if any(row[k] for row in rows[k:]):
        return None
    return [rows[i][k] for i in range(k)]


def _solve_cases():
    rng = random.Random(31)
    cases = [([0, 0, 0], 0), ([0, 0], 3), ([6], 12), ([6], 5), ([-4], 8)]
    cases += [([4, 6, 10], 2), ([4, 6, 10], 3), ([-3, 0, 5], -7)]
    for _ in range(60):
        n = rng.randint(1, 4)
        cases.append(([rng.randint(-6, 6) for _ in range(n)], rng.randint(-6, 6)))
    return cases


@pytest.mark.parametrize("a, t", _solve_cases())
def test_solve_gives_the_whole_solution_set_of_one_equation(a, t):
    sol = snf.solve([a], [t])
    box = range(-4, 5)
    in_box = [x for x in itertools.product(box, repeat=len(a)) if _dot(a, x) == t]
    if sol is None:
        assert in_box == []
        # no solution at all: t is no multiple of gcd(a)
        g = math.gcd(*a)
        assert (t % g if g else t) != 0
        return
    x0, kernel = sol
    assert _dot(a, x0) == t
    assert all(_dot(a, k) == 0 for k in kernel)
    assert len(kernel) == len(a) - any(a)
    for x in in_box:
        c = _coordinates(kernel, [u - v for u, v in zip(x, x0)])
        assert c is not None and all(ci.denominator == 1 for ci in c), (x, x0, kernel)


def test_solve_takes_exactly_one_equation():
    with pytest.raises(ValueError, match="one equation"):
        snf.solve([[1, 2], [3, 4]], [1, 2])
    with pytest.raises(ValueError, match="one equation"):
        snf.solve([[1, 2]], [1, 2])


# A window that holds every solution when there is one: a free coordinate
# with q_i != 0 fixes a = x_i / q_i, and |x_i| <= 6 below; otherwise the
# solutions are periodic with period dividing lcm(n_j) <= 30 < the width.
WINDOW = range(-40, 41)


def _scan(P, x, q):
    return [a for a in WINDOW if P.eq(P.smul(a, q), x)]


def _check_membership(P, x, q):
    sols = _scan(P, x, q)
    got = cyclic_membership(P, x, q)
    if got is None:
        assert sols == [], (P, x, q)
        return got
    a0, d = got
    if d == 0:
        assert sols == [a0], (P, x, q, got)
    else:
        assert 0 <= a0 < d
        assert sols == [a for a in WINDOW if (a - a0) % d == 0], (P, x, q, got)
    return got


def test_cyclic_membership_fixed_cases():
    assert _check_membership(MarkingGroup(0), (), ()) == (0, 1)  # trivial group
    assert _check_membership(MarkingGroup(2), (0, 0), (0, 0)) == (0, 1)  # q = 0
    assert _check_membership(MarkingGroup(2), (1, 0), (0, 0)) is None
    assert _check_membership(MarkingGroup(1, (5,)), (-6, 2), (2, 1)) == (-3, 0)  # unique
    assert _check_membership(MarkingGroup(0, (4, 6)), (2, 3), (2, 3)) == (1, 2)  # torsion only
    assert _check_membership(MarkingGroup(0, (4, 6)), (2, 4), (2, 3)) is None
    assert _check_membership(MarkingGroup(1, (5,)), (4, 3), (2, 1)) is None  # free fixes a = 2, torsion wants 3
    assert _check_membership(MarkingGroup(0, (6, 10)), (3, 5), (3, 5)) == (1, 2)


def test_cyclic_membership_matches_a_scan_on_random_small_groups():
    rng = random.Random(32)
    seen = set()
    for _ in range(600):
        P = MarkingGroup(rng.randint(0, 2), tuple(rng.randint(2, 6) for _ in range(rng.randint(0, 2))))
        free = [rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(P.free_rank)]
        q = tuple(free) + tuple(rng.randint(0, n - 1) for n in P.torsion)
        if rng.random() < 0.5:
            a = rng.randint(-2, 2)
            x = tuple(a * c for c in q)
        else:
            x = tuple(rng.randint(-6, 6) for _ in range(P.ngens))
        got = _check_membership(P, x, q)
        seen.add("none" if got is None else "unique" if got[1] == 0 else "coset")
    assert seen == {"none", "unique", "coset"}


def _slice_by_scan(sig, Da, t, sq, box):
    """The classes x = a s + b f + sum c_i e_i with x.Da = t and x^2 = sq, a and
    every c_i in [-box, box]; b is fixed by x.Da = t since f.Da = 1."""
    out = set()
    for a, *c in itertools.product(range(-box, box + 1), repeat=sig.rank - 1):
        x = (a, 0) + tuple(c)
        x = (a, t - _pair(sig, x, Da.coeffs)) + tuple(c)
        if _pair(sig, x, x) == sq:
            out.add(x)
    return out


@pytest.mark.parametrize("name", ["m2_generic", "m3_generic"])
def test_classes_with_pairing_matches_a_scan_for_s_plus_2f(name):
    sig = get_preset(name).sig
    Da = div(sig, 1, 2, *([0] * sig.m))
    assert intersect(Da, div(sig, 0, 1, *([0] * sig.m))) == 1
    # with x.Da = t, x^2 = -Da^2 a^2 + 2 a t - sum c_i^2 and Da^2 = 3 (odd) or
    # 4 (even); so for x^2 >= -2 and -1 <= t <= 3, 3 a^2 <= 2 + 2 a t gives
    # |a| <= 2, and sum c_i^2 <= 2 + t^2 / 3 gives |c_i| <= 2: box 3 holds all
    for t in range(-1, 4):
        for sq in (-2, -1, 0):
            got = [x.coeffs for x in classes_with_pairing(sig, Da, t, sq)]
            assert len(set(got)) == len(got)
            assert set(got) == _slice_by_scan(sig, Da, t, sq, 3), (t, sq)
