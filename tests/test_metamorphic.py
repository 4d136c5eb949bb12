"""Metamorphic tests from the paper's structural relations between surfaces.

- Pull-back along a blowup: for S' the blowup of S, pi^*D is D with a
  trailing 0, and h^0, the Hom dimensions from O, effectiveness and nefness
  of pi^*D on S' are those of D on S.  The generic presets are such a chain.
- Elementary transformation: et_surface(S) is S in a blowdown structure of
  the other parity, so dim_gamma and is_effective agree on
  (et_surface(S), elementary_transformation(D)).

A query that is not answered (UnclassifiedState, BudgetExhausted) compares
by its exception's name."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from ncsurf.cones import is_effective, is_nef
from ncsurf.lattice import BudgetExhausted, DivClass, zero_class
from ncsurf.marking import blow_up
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
