"""The root oracle is equivariant under reflections at ineffective simple
roots, which the chamber walks rely on to stay in the input surface's frame.

Reflecting at an ineffective simple root changes the blowdown structure, not
the surface.  So for a word w of such reflections, is_root_effective on the
reflected surface w.S at a root alpha must answer as is_root_effective on S
at the pulled-back root w(alpha): the same boolean, the same coset (a, d) and
component multiplicities, and pieces that map by w.

An elementary transformation is a change of blowdown structure too, so the
oracle must answer on et_surface(S) at ET(alpha) as on S at alpha.

The cone answers pull back the same way: is_effective and is_nef of a
class on w.S equal those of its pull-back on S.  The pull-back along a word
is kept incrementally by the walks (weyl._step); it must equal the naive
pull-back over the whole word.

Checks are explicit pytest.fail calls, so they also hold under `python -O`."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from ncsurf.cones import is_effective, is_nef
from ncsurf.lattice import _new
from ncsurf.marking import blow_up, is_root_effective
from ncsurf.presets import PRESETS, get_preset
from ncsurf.weyl import (
    _pull_table,
    _push,
    _reflect,
    _step,
    elementary_transformation,
    et_surface,
    reflect_surface,
    simple_roots,
)

from shell_oracle import root_shell


def pull_back(x, word, roots):
    """The naive pull-back: the word's reflections applied to the tuple x,
    last reflection first."""
    for k in reversed(word):
        x = _reflect(x, roots[k])
    return x


@lru_cache(maxsize=None)
def probe_roots(name):
    """Roots to ask about: the simple roots and the roots of the first
    reference shells."""
    sig = get_preset(name).sig
    out = [a.coeffs for a in simple_roots(sig)[0]]
    for t in range(3):
        out += [r for r in root_shell(sig, t) if r not in out]
    return tuple(out)


def draw_word(data, S, walk):
    """(w.S, w) for a word w of 1-4 reflections, each at a walk root that is
    ineffective on the surface reflected so far; w is empty when every
    simple root of S is effective."""
    cur, word = S, []
    for _ in range(data.draw(st.integers(1, 4))):
        ineffective = [k for k, (a, _) in enumerate(walk) if not is_root_effective(cur, a)[0]]
        if not ineffective:
            break
        k = data.draw(st.sampled_from(ineffective))
        cur = reflect_surface(cur, walk[k][0])
        word.append(k)
    return cur, word


def same_answer(where, here, there, pull):
    """Fail unless the root oracle's answer here, on S, and there, on S in
    another blowdown structure, agree: the boolean, the coset (a, d), the
    component multiplicities, and the pieces, which pull maps from there to
    coefficient tuples of S."""
    if there[0] != here[0]:
        pytest.fail("%s: %r on S, %r in the moved structure" % (where, here, there))
    if not here[0]:
        return
    for key in ("a", "d", "components"):
        if here[1][key] != there[1][key]:
            pytest.fail("%s: witness %s is %r on S, %r in the moved structure" % (where, key, here[1][key], there[1][key]))
    mapped = [pull(p) for p in there[1]["pieces"]]
    if mapped != [p.coeffs for p in here[1]["pieces"]]:
        pytest.fail("%s: pieces %r do not map to %r" % (where, there[1]["pieces"], here[1]["pieces"]))


@pytest.mark.parametrize("name", sorted(PRESETS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_root_oracle_is_equivariant_under_ineffective_words(name, data):
    S = get_preset(name)
    sig = S.sig
    walk = _pull_table(sig).roots
    cur, word = draw_word(data, S, walk)
    if not word:
        return  # every simple root is effective: there is no such word
    for alpha in data.draw(st.lists(st.sampled_from(probe_roots(name)), min_size=1, max_size=6)):
        beta = pull_back(alpha, word, walk)
        where = "%s, word %r, root %r" % (name, word, alpha)
        there = is_root_effective(cur, _new(alpha, sig))
        same_answer(where, is_root_effective(S, _new(beta, sig)), there, lambda p: pull_back(p.coeffs, word, walk))


@pytest.mark.parametrize("name", ["pvi_m12", "dp9_torsion"])
def test_incremental_pull_back_matches_the_naive_one(name):
    sig = get_preset(name).sig
    table = _pull_table(sig)
    roots = table.roots
    rng = random.Random(name)
    P, word = list(table.base), []
    for step in range(120):
        k = rng.choice([j for j in range(len(roots)) if not word or j != word[-1]])
        _step(table, P, [0] * len(P), word, k)
        if step % 20 == 19 or step < 4:
            for j, v in enumerate(table.base):
                if P[j] != pull_back(v, word, roots):
                    pytest.fail("%s: pulled-back vector %d differs from the naive pull-back after %d steps" % (name, j, step + 1))
                if _push(P[j], word, roots) != v:
                    pytest.fail("%s: pushing pulled-back vector %d forward does not give it back" % (name, j))


@pytest.mark.parametrize("name", sorted(PRESETS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cone_answers_pull_back_along_ineffective_words(name, data):
    """dim_gamma asks is_nef and is_effective of D - Q on the input surface,
    at the pulled-back class, where its walk stands on w.S."""
    S = get_preset(name)
    sig = S.sig
    walk = _pull_table(sig).roots
    cur, word = draw_word(data, S, walk)
    if not word:
        return  # every simple root is effective: there is no such word
    sf = data.draw(st.lists(st.integers(-1, 4), min_size=2, max_size=2))
    es = data.draw(st.lists(st.integers(-2, 2), min_size=sig.m, max_size=sig.m))
    x = tuple(sf + es)
    for f in (is_effective, is_nef):
        there, here = f(cur, _new(x, sig)), f(S, _new(pull_back(x, word, walk), sig))
        if there != here:
            pytest.fail("%s, word %r: %s is %r at %r on w.S, %r at its pull-back on S" % (name, word, f.__name__, there, x, here))


def twice_blown_up(name, position=None):
    """The preset blown up twice on component 0 at one point: position, or
    the point that its last exceptional class marks."""
    S = get_preset(name)
    mults = [1] + [0] * (len(S.components) - 1)
    for _ in range(2):
        S = blow_up(S, 0, mults, S.lam[-1] if position is None else position)
    return S


def et_inputs():
    out = [(name, get_preset(name)) for name in sorted(PRESETS) if get_preset(name).sig.m >= 1]
    out += [(name + " twice at (5, 7)", twice_blown_up(name, (5, 7))) for name in ("f0_generic", "f0_commutative")]
    out += [(name + " twice", twice_blown_up(name)) for name in ("m2_generic", "m3_generic", "dp9_torsion", "pvi_m12")]
    return [pytest.param(name, S, id=name) for name, S in out]


@pytest.mark.parametrize("name, S", et_inputs())
def test_root_oracle_is_equivariant_under_the_elementary_transformation(name, S):
    sig = S.sig
    T = et_surface(S)
    roots = [a.coeffs for a in simple_roots(sig)[0]]
    for t in range(4):
        roots += [r for r in root_shell(sig, t) if r not in roots]
    for alpha in roots:
        there = is_root_effective(T, elementary_transformation(_new(alpha, sig)))
        same_answer("%s, root %r" % (name, alpha), is_root_effective(S, _new(alpha, sig)), there, lambda p: elementary_transformation(p).coeffs)
