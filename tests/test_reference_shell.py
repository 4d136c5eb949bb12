"""The cached reference shells of latenum and the nef witnesses read from
them.

A shell is enumerated once per (signature, t, square); the nef-witness
search must still return exactly the witness of the uncached search, which
re-enumerated every shell."""

import itertools
import random

import pytest

from ncsurf import cones, latenum
from ncsurf.cones import is_effective, nef_witness
from ncsurf.lattice import (
    DivClass,
    _pair,
    anticanonical_class,
    basis_f,
    canonical_class,
    intersect,
)
from ncsurf.marking import blow_up, is_root_effective
from ncsurf.presets import f0_generic, get_preset
from ncsurf.weyl import in_neg1_orbit


def brute_force_shell(sig, t, sq, radius):
    """The shell by a scan of the box [-radius, radius]^rank."""
    rho = latenum.chamber_interior_class(sig).coeffs
    K = canonical_class(sig).coeffs
    xK = {-1: -1, -2: 0}[sq]
    out = set()
    for x in itertools.product(range(-radius, radius + 1), repeat=sig.rank):
        if _pair(sig, x, rho) != t or _pair(sig, x, x) != sq or _pair(sig, x, K) != xK:
            continue
        if sq == -1 and not in_neg1_orbit(sig, DivClass(x, sig)):
            continue
        out.add(x)
    return out


@pytest.mark.parametrize("name", ["m1_generic", "m2_generic"])
@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("sq", [-1, -2])
def test_shell_matches_a_box_scan(name, t, sq):
    sig = get_preset(name).sig
    radius = 6
    shell = latenum._reference_shell(sig, t, sq)
    assert isinstance(shell, tuple)
    assert all(type(x) is tuple and all(type(c) is int for c in x) for x in shell)
    # the box is large enough: no member reaches its boundary
    assert all(max(map(abs, x)) < radius for x in shell)
    assert set(shell) == brute_force_shell(sig, t, sq, radius)
    assert len(set(shell)) == len(shell)
    hits = latenum._reference_shell.cache_info().hits
    assert latenum._reference_shell(sig, t, sq) is shell
    assert latenum._reference_shell.cache_info().hits == hits + 1


def test_shell_keeps_the_enumeration_order():
    sig = get_preset("m3_generic").sig
    rho = latenum.chamber_interior_class(sig)
    K = canonical_class(sig)
    for t in range(0, 5):
        roots = [x.coeffs for x in latenum.classes_with_pairing(sig, rho, t, -2) if intersect(x, K) == 0]
        assert latenum._reference_shell(sig, t, -2) == tuple(roots)


def uncached_negative_witness(S, D):
    """The nef-witness search as it was before the shells were cached: every
    shell is enumerated afresh, and a class is tested for effectiveness only
    when it pairs negatively with D."""
    sig = S.sig
    cands = [basis_f(sig)] + [comp.cls for comp in S.components] + [anticanonical_class(sig)]
    for x in cands:
        if intersect(D, x) < 0:
            return x
    rho = latenum.chamber_interior_class(sig)
    K = canonical_class(sig)
    bound = 4 * (sig.m + 2) * (1 + max(abs(c) for c in D.coeffs))
    for t in range(1, bound + 1):
        for x in latenum.classes_with_pairing(sig, rho, t, -1):
            if intersect(x, K) == -1 and intersect(D, x) < 0 and in_neg1_orbit(sig, x):
                return x
        for x in latenum.classes_with_pairing(sig, rho, t, -2):
            if intersect(x, K) == 0 and intersect(D, x) < 0 and is_root_effective(S, x)[0]:
                return x
    return None


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
def test_nef_witness_matches_the_uncached_search(name, count, monkeypatch):
    S = twice_blown_up() if name == "twice_blown_up" else get_preset(name)
    classes = box(S.sig, count, seed=2024)
    new = [nef_witness(S, D) for D in classes]
    monkeypatch.setattr(cones, "_negative_witness", uncached_negative_witness)
    old = [nef_witness(S, D) for D in classes]
    assert new == old
    for D, (ok, witness) in zip(classes, new):
        if witness is not None:
            assert not ok
            assert intersect(D, witness) < 0
            assert is_effective(S, witness)
