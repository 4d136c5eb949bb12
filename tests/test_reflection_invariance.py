"""Property test over every preset: reflecting the blowdown structure at an
ineffective simple root is an isomorphism of marked surfaces, so the cone and
section answers must not change, and every effectiveness certificate must
replay."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from ncsurf.cones import effective_cert, is_nef
from ncsurf.lattice import BudgetExhausted, DivClass, canonical_class, intersect
from ncsurf.marking import is_root_effective
from ncsurf.presets import PRESETS, get_preset
from ncsurf.sections import UnclassifiedState, dim_gamma
from ncsurf.weyl import reflect, reflect_surface, simple_roots


@lru_cache(maxsize=None)
def surface_and_roots(name):
    S = get_preset(name)
    K = canonical_class(S.sig)
    roots = [
        a for a in simple_roots(S.sig)[0]
        if intersect(a, K) == 0 and not is_root_effective(S, a)[0]
    ]
    return S, roots


def replayed(S, D):
    """is_effective through its certificate, which must sum back to D."""
    ok, cert = effective_cert(S, D)
    if ok:
        total = cert["residue"]
        for x in cert["subtracted"]:
            total = total + x
        assert total == D
    return ok


def answers(S, D):
    out = {"effective": replayed(S, D), "nef": is_nef(S, D)}
    try:
        out["gamma"] = dim_gamma(S, D)
    except (UnclassifiedState, BudgetExhausted):
        pass  # not answered: nothing to compare
    return out


@pytest.mark.parametrize("name", sorted(PRESETS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_answers_invariant_under_ineffective_reflections(name, data):
    S, roots = surface_and_roots(name)
    m = S.sig.m
    # s and f leaning positive, so that effective and nef classes are common
    sf = data.draw(st.lists(st.integers(-1, 5), min_size=2, max_size=2))
    es = data.draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
    D = DivClass(tuple(sf + es), S.sig)
    mine = answers(S, D)
    if not roots:
        return  # every simple root is effective: only the replay applies
    alpha = data.draw(st.sampled_from(roots))
    S2, D2 = reflect_surface(S, alpha), reflect(D, alpha)
    assert S2.lam_of(D2) == S.lam_of(D)  # the marking moves with the class
    theirs = answers(S2, D2)
    for key in mine.keys() & theirs.keys():
        assert mine[key] == theirs[key], (key, D, alpha)
