"""Property test of Serre duality for hom_dims on the rational presets:
Ext^i(L1, L2) is dual to Ext^(2-i)(L2, L1(K)), so the Betti numbers of
RHom(D1, D2) are those of RHom(D2, D1 + K) in reverse order."""

import pytest
from hypothesis import given, settings, strategies as st

from ncsurf.lattice import BudgetExhausted, DivClass, canonical_class
from ncsurf.presets import PRESETS, get_preset
from ncsurf.sections import HomDims, UnclassifiedState, hom_dims

RATIONAL = sorted(name for name in PRESETS if get_preset(name).sig.genera == (0, 0))


def answered(S, D1, D2):
    try:
        return hom_dims(S, D1, D2)
    except (UnclassifiedState, BudgetExhausted):
        return None  # not answered: nothing to compare


@pytest.mark.parametrize("name", RATIONAL)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_hom_dims_serre_symmetry(name, data):
    S = get_preset(name)
    sig = S.sig

    def draw_class():
        sf = data.draw(st.lists(st.integers(-2, 3), min_size=2, max_size=2))
        es = data.draw(st.lists(st.integers(-1, 1), min_size=sig.m, max_size=sig.m))
        return DivClass(tuple(sf + es), sig)

    D1, D2 = draw_class(), draw_class()
    mine = answered(S, D1, D2)
    dual = answered(S, D2, D1 + canonical_class(sig))
    if mine is None or dual is None:
        return
    assert mine == HomDims(dual.h2, dual.h1, dual.h0), (D1, D2)
