"""Metamorphic tests from the paper's structural relations between surfaces.

- Pull-back along a blowup: for S' the blowup of S, pi^*D is D with a
  trailing 0, and h^0, the Hom dimensions from O, effectiveness and nefness
  of pi^*D on S' are those of D on S.  The generic presets are such a chain.
- Elementary transformation: et_surface(S) is S in a blowdown structure of
  the other parity, so dim_gamma and is_effective agree on
  (et_surface(S), elementary_transformation(D)).
- Blowups commute: blowing up two distinct points marked x and y in either
  order gives the same surface up to swapping e_m and e_(m+1), so
  dim_gamma, is_effective and is_nef agree on D and on D with those two
  swapped.  The points are distinct when the interchange root
  e_m - e_(m+1) is ineffective; when it is effective the second point lies
  on the first one's exceptional curve, and the orders give different
  surfaces.

A query that is not answered (UnclassifiedState, BudgetExhausted) compares
by its exception's name."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from ncsurf.cli import parse_div
from ncsurf.cones import is_effective, is_nef
from ncsurf.lattice import BudgetExhausted, DivClass, basis_e, zero_class
from ncsurf.marking import blow_up, is_root_effective
from ncsurf.presets import PRESETS, get_preset
from ncsurf.sections import UnclassifiedState, dim_gamma, hom_dims
from ncsurf.weyl import elementary_transformation, et_surface

CHAIN = ("f0_generic", "m1_generic", "m2_generic", "m3_generic", "m4_generic")
WITH_EXCEPTIONAL = sorted(name for name in PRESETS if get_preset(name).sig.m >= 1)


def outcome(f, *args):
    try:
        return f(*args)
    except (UnclassifiedState, BudgetExhausted) as exc:
        return type(exc).__name__


def draw_class(data, sig):
    # s and f leaning positive, so that effective and nef classes are common
    sf = data.draw(st.lists(st.integers(-1, 4), min_size=2, max_size=2))
    es = data.draw(st.lists(st.integers(-2, 2), min_size=sig.m, max_size=sig.m))
    return DivClass(tuple(sf + es), sig)


@lru_cache(maxsize=None)
def blowup_of(name):
    """(S, S') with S' the preset after `name` in the chain, checked to be
    the blowup of S at the point its last exceptional class marks."""
    S, S2 = get_preset(name), get_preset(CHAIN[CHAIN.index(name) + 1])
    if blow_up(S, 0, [1], S2.lam[-1]) != S2:
        pytest.fail("%s is not a blowup of %s" % (CHAIN[CHAIN.index(name) + 1], name))
    return S, S2


def pull_back_answers(S, D):
    return {
        "dim_gamma": outcome(dim_gamma, S, D),
        "is_effective": is_effective(S, D),
        "is_nef": is_nef(S, D),
        "hom_dims": outcome(hom_dims, S, zero_class(S.sig), D),
    }


@pytest.mark.parametrize("name", CHAIN[:-1])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_answers_agree_along_a_blowup(name, data):
    S, S2 = blowup_of(name)
    D = draw_class(data, S.sig)
    mine = pull_back_answers(S, D)
    theirs = pull_back_answers(S2, DivClass(D.coeffs + (0,), S2.sig))
    if mine != theirs:
        pytest.fail("%s: %r on S, %r on its blowup, for %r" % (name, mine, theirs, D))


@lru_cache(maxsize=None)
def et_pair(name):
    S = get_preset(name)
    return S, et_surface(S)


@pytest.mark.parametrize("name", WITH_EXCEPTIONAL)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_answers_agree_under_elementary_transformation(name, data):
    S, S2 = et_pair(name)
    D = draw_class(data, S.sig)
    D2 = elementary_transformation(D)
    for f in (dim_gamma, is_effective):
        mine, theirs = outcome(f, S, D), outcome(f, S2, D2)
        if mine != theirs:
            pytest.fail("%s: %s is %r on S, %r after the transformation, for %r" % (name, f.__name__, mine, theirs, D))


def swap_last_two(coeffs):
    return coeffs[:-2] + (coeffs[-1], coeffs[-2])


def blowups_both_ways(S, j, k, x, y):
    """(S_xy, S_yx): S blown up at a point marked x on component j, then at
    a point marked y on component k, and in the other order.  Both
    components have multiplicity 1, so no blowup adds an exceptional
    component and the component indices stay put."""
    on_j = [int(i == j) for i in range(len(S.components))]
    on_k = [int(i == k) for i in range(len(S.components))]
    S_xy = blow_up(blow_up(S, j, on_j, x), k, on_k, y)
    S_yx = blow_up(blow_up(S, k, on_k, y), j, on_j, x)
    if [swap_last_two(c.cls.coeffs) for c in S_xy.components] != [c.cls.coeffs for c in S_yx.components]:
        pytest.fail("the components of the two blowups differ by more than the swap")
    if swap_last_two(S_xy.lam) != S_yx.lam:
        pytest.fail("the markings of the two blowups differ by more than the swap")
    return S_xy, S_yx


@pytest.mark.parametrize("name", sorted(PRESETS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_blowups_commute(name, data):
    """Two answers must agree; a dim_gamma that one order answers and the
    other leaves unclassified is the gap pinned by the next test."""
    S = get_preset(name)
    P = S.marking
    simple = [i for i, c in enumerate(S.components) if c.mult == 1]
    j, k = data.draw(st.sampled_from(simple)), data.draw(st.sampled_from(simple))
    mark = st.lists(st.integers(-40, 40), min_size=P.ngens, max_size=P.ngens).map(P.reduce)
    x, y = data.draw(mark), data.draw(mark)
    S_xy, S_yx = blowups_both_ways(S, j, k, x, y)
    m = S_xy.sig.m
    if is_root_effective(S_xy, basis_e(S_xy.sig, m - 1) - basis_e(S_xy.sig, m))[0]:
        return  # infinitely near points: the relation does not apply
    D = draw_class(data, S_xy.sig)
    D2 = DivClass(swap_last_two(D.coeffs), S_yx.sig)
    for f in (is_effective, is_nef, dim_gamma):
        mine, theirs = outcome(f, S_xy, D), outcome(f, S_yx, D2)
        if mine != theirs and UnclassifiedState.__name__ not in (mine, theirs):
            pytest.fail("%s: %s is %r in one order, %r in the other, for %r (x = %r, y = %r)" % (name, f.__name__, mine, theirs, D, x, y))


@pytest.mark.xfail(strict=True, reason="the dim_gamma walk of one order reaches the unclassified 'effective root with component support' state")
def test_blowup_order_does_not_decide_whether_dim_gamma_answers():
    S = get_preset("pvi_m12")
    S_xy, S_yx = blowups_both_ways(S, 4, 0, (0, 0), (0, 0))
    D = parse_div("f+e4-e13", S_xy.sig)
    mine = outcome(dim_gamma, S_xy, D)
    theirs = outcome(dim_gamma, S_yx, DivClass(swap_last_two(D.coeffs), S_yx.sig))
    if mine != theirs:
        pytest.fail("dim_gamma is %r in one order, %r in the other" % (mine, theirs))
