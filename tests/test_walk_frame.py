"""The walks of is_effective, is_nef and dim_gamma stay in the input
surface's frame: a reflection at an ineffective simple root moves the frame,
so none of them builds a reflected surface, and the per-surface caches of
the root oracle and the surface table hold input surfaces only.

Checks are explicit pytest.fail calls, so they also hold under `python -O`."""

import itertools
import json
from pathlib import Path

import pytest

from ncsurf import cones, marking, sections, weyl
from ncsurf.cones import is_effective, is_nef
from ncsurf.lattice import BudgetExhausted, DivClass
from ncsurf.presets import get_preset
from ncsurf.sections import UnclassifiedState, dim_gamma

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "section_pool.json"


def m2_box():
    S = get_preset("m2_generic")
    return [(S, DivClass(c, S.sig)) for c in itertools.product(range(-4, 5), repeat=S.sig.rank)]


def pool_slice():
    out = []
    for name, entries in sorted(json.loads(POOL.read_text())["pool"].items()):
        S = get_preset(name)
        out += [(S, DivClass(tuple(coeffs), S.sig)) for _, coeffs, _, _ in entries[::8]]
    return out


def test_walks_build_no_surfaces_and_cache_input_surfaces_only(monkeypatch):
    built = []
    real_reflect = weyl.reflect_surface

    def counted(*args):
        built.append(args[1])
        return real_reflect(*args)

    for mod in (weyl, sections):
        monkeypatch.setattr(mod, "reflect_surface", counted)
    asked = set()
    oracle = marking.is_root_effective

    def recorded(S, alpha):
        asked.add((S, alpha))
        return oracle(S, alpha)

    for mod in (marking, weyl, cones, sections):
        monkeypatch.setattr(mod, "is_root_effective", recorded)
    oracle.cache_clear()
    marking._surface_table.cache_clear()
    queries = m2_box() + pool_slice()
    surfaces = {S for S, _ in queries}
    for S, D in queries:
        is_effective(S, D)
        is_nef(S, D)
        try:
            dim_gamma(S, D)
        except (UnclassifiedState, BudgetExhausted):
            pass  # not answered; the walk up to there still counts
    if built:
        pytest.fail("the walks built %d reflected surfaces, first at %r" % (len(built), built[0]))
    strangers = {S for S, _ in asked} - surfaces
    if strangers:
        pytest.fail("the root oracle was asked on %d surfaces that are no input" % len(strangers))
    if oracle.cache_info().currsize > len(asked):
        pytest.fail("%d root-oracle cache entries for %d distinct (surface, root) pairs" % (oracle.cache_info().currsize, len(asked)))
    if marking._surface_table.cache_info().currsize > len(surfaces):
        pytest.fail("surface tables cached for %d surfaces, %d inputs" % (marking._surface_table.cache_info().currsize, len(surfaces)))
