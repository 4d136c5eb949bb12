"""The root shells of the rho-shell oracle (shell_oracle), and the nef
witnesses of the cone loop.

A shell of roots must equal a box scan; every nef witness pairs negatively
with its class and is effective."""

import itertools
import random

import pytest

from ncsurf.cones import is_effective, nef_witness
from ncsurf.latenum import classes_with_pairing
from ncsurf.lattice import DivClass, _pair, canonical_class, intersect
from ncsurf.marking import blow_up
from ncsurf.presets import f0_generic, get_preset

from shell_oracle import chamber_interior_class, root_shell


def brute_force_shell(sig, t, radius):
    """The shell of roots by a scan of the box [-radius, radius]^rank."""
    rho = chamber_interior_class(sig).coeffs
    K = canonical_class(sig).coeffs
    return {
        x
        for x in itertools.product(range(-radius, radius + 1), repeat=sig.rank)
        if _pair(sig, x, rho) == t and _pair(sig, x, x) == -2 and _pair(sig, x, K) == 0
    }


@pytest.mark.parametrize("name", ["m1_generic", "m2_generic"])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_shell_matches_a_box_scan(name, t):
    sig = get_preset(name).sig
    radius = 6
    shell = root_shell(sig, t)
    assert isinstance(shell, tuple)
    assert all(type(x) is tuple and all(type(c) is int for c in x) for x in shell)
    # the box is large enough: no member reaches its boundary
    assert all(max(map(abs, x)) < radius for x in shell)
    assert set(shell) == brute_force_shell(sig, t, radius)
    assert len(set(shell)) == len(shell)


def test_shell_keeps_the_enumeration_order():
    sig = get_preset("m3_generic").sig
    rho = chamber_interior_class(sig)
    K = canonical_class(sig)
    for t in range(0, 5):
        roots = [x.coeffs for x in classes_with_pairing(sig, rho, t, -2) if intersect(x, K) == 0]
        assert root_shell(sig, t) == tuple(roots)


def box(sig, count=None, seed=0):
    classes = list(itertools.product(range(-4, 5), repeat=sig.rank))
    if count is not None:
        classes = random.Random(seed).sample(classes, count)
    return [DivClass(c, sig) for c in classes]


def twice_blown_up():
    """Two blowups at one marked point: the root e1 - e2 is effective, so
    root witnesses occur (on the generic presets no root is effective)."""
    S = blow_up(f0_generic(), 0, [1], (5, 7))
    return blow_up(S, 0, [1], (5, 7))


@pytest.mark.parametrize(
    "name,count",
    [("m1_generic", None), ("m2_generic", None), ("m3_generic", 3000), ("twice_blown_up", None)],
)
def test_nef_witnesses_pair_negatively_and_are_effective(name, count):
    S = twice_blown_up() if name == "twice_blown_up" else get_preset(name)
    for D in box(S.sig, count, seed=2024):
        ok, witness = nef_witness(S, D)
        if witness is not None:
            assert not ok
            assert intersect(D, witness) < 0
            assert is_effective(S, witness)
