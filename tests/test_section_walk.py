"""Replay of the dim_gamma walk with an effectiveness check after every step.

dim_gamma decides effectiveness by its own walk, in one loop with no
separate effectiveness query: an ineffective class walks until the grade,
the fiber cut or the component-support branch ends it, and answers 0 (see
its docstring).  These tests check that contract from the outside: they
rebuild each (surface, class) state from the walk's trace and call
is_effective on it.  An ineffective input must answer 0, no answer may be
negative, a step that keeps h^0 never takes an effective class out of the
cone, and no step takes an ineffective class into it.  They run on every
class of the benchmark's recorded section pool, whose answers must also
stay as recorded (and whose effective classes must have a section), and on
a hypothesis sample over all rational presets.

Checks are explicit pytest.fail calls, so the guard also holds under
`python -O`."""

import json
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ncsurf.cli import parse_div
from ncsurf.cones import is_effective
from ncsurf.lattice import (
    BudgetExhausted,
    DivClass,
    anticanonical_class,
    canonical_class,
    render_div,
    zero_class,
)
from ncsurf.marking import blow_up
from ncsurf.presets import PRESETS, get_preset
from ncsurf.sections import UnclassifiedState, dim_gamma, hom_dims
from ncsurf.weyl import reflect, reflect_surface

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "section_pool.json"
RATIONAL = sorted(name for name in PRESETS if get_preset(name).sig.genera == (0, 0))


@lru_cache(maxsize=None)
def pool():
    return json.loads(POOL.read_text())


def steps(S, D, trace):
    """Apply the steps of a dim_gamma trace to (S, D).  Yields (S, D, line,
    keeps) after each step; keeps is False for the two steps that need not
    keep h^0: the twisted reflection at an effective root, which can leave
    the cone, and the recursive 1 + dim_gamma(D - Q).  Under the one-loop
    contract no step, whatever its keeps, takes an ineffective class into
    the cone."""
    sig = S.sig
    Q = anticanonical_class(sig)
    for line in trace:
        words = line.split()
        if line.startswith("boundary twist"):
            continue  # a note on the next step, not a step
        if line.startswith("restriction to Q"):
            X = parse_div(words[-1], sig)
            if X != D - Q:
                pytest.fail("trace passes to %s, not to D - Q = %s" % (line, render_div(D - Q)))
            D = X
            yield S, D, line, "nontrivial" in line
        elif words[0] == "subtract":
            D = D - parse_div(words[1], sig)
            yield S, D, line, True
        elif words[0] == "partial":
            D = D + int(words[-1]) * parse_div(words[2], sig)
            yield S, D, line, True
        elif words[0] == "reflect":
            alpha = parse_div(words[1], sig)
            S, D = reflect_surface(S, alpha), reflect(D, alpha)
            yield S, D, line, "(effective" not in line
        else:
            pytest.fail("unknown dim_gamma trace line %r" % line)


def check_walk(name, S, D):
    """Run dim_gamma on D with a trace and check the one-loop contract: the
    answer is not negative, an ineffective D answers 0, a step that keeps
    h^0 never takes an effective class out of the effective cone, and no
    step takes an ineffective class into it.  Returns the number of steps
    checked, the answer (None when the walk raised) and whether D is
    effective."""
    trace = []
    try:
        got = dim_gamma(S, D, trace=trace)
    except (UnclassifiedState, BudgetExhausted):
        got = None  # the steps taken before the walk stopped must still hold
    if got is not None and got < 0:
        pytest.fail("%s: dim Gamma(%s) = %d" % (name, render_div(D), got))
    effective = start = is_effective(S, D)
    if not effective and got != 0:
        pytest.fail("%s: ineffective %s answers %s, not 0" % (name, render_div(D), "an error" if got is None else got))
    checked = 0
    for S2, D2, line, keeps in steps(S, D, trace):
        checked += 1
        ok = is_effective(S2, D2)
        if ok and not effective:
            pytest.fail(
                "%s: step %r of the walk of %s takes an ineffective class into the effective cone at %s"
                % (name, line, render_div(D), render_div(D2))
            )
        if keeps and effective and not ok:
            pytest.fail(
                "%s: step %r of the walk of %s leaves the effective cone at %s"
                % (name, line, render_div(D), render_div(D2))
            )
        effective = ok
    return checked, got, start


def canonical_answer(S, kind, D):
    """The benchmark's answer string for a pool entry."""
    try:
        if kind == "gamma":
            return "%d" % dim_gamma(S, D)
        h = hom_dims(S, zero_class(S.sig), D)
        return "%d,%d,%d" % (h.h0, h.h1, h.h2)
    except (UnclassifiedState, BudgetExhausted) as exc:
        return type(exc).__name__


@pytest.mark.parametrize("name", sorted(pool()["pool"]))
def test_every_pool_walk_stays_effective(name):
    S = get_preset(name)
    K = canonical_class(S.sig)
    checked = 0
    wrong = []
    for kind, coeffs, recorded, _ in pool()["pool"][name]:
        D = DivClass(tuple(coeffs), S.sig)
        # hom_dims(S, 0, D) walks D and K - D
        for E in (D, K - D) if kind == "hom" else (D,):
            n, h0, effective = check_walk(name, S, E)
            checked += n
            # the converse of "ineffective answers 0", on the answered walks
            if effective and h0 is not None and h0 < 1:
                pytest.fail("%s: %s is effective, but dim Gamma = %d" % (name, render_div(E), h0))
        got = canonical_answer(S, kind, D)
        if got != recorded:
            wrong.append((kind, coeffs, recorded, got))
    if wrong:
        pytest.fail("%s: %d pool answers differ from the record, first %r" % (name, len(wrong), wrong[0]))
    if checked == 0:
        pytest.fail("%s: no walk step was checked" % name)


def test_pool_anchor_walks_stay_effective():
    for key, recorded in sorted(pool()["anchors"].items()):
        kind, name, coeffs = key.split()
        S = get_preset(name)
        D = DivClass(tuple(int(c) for c in coeffs.split(",")), S.sig)
        check_walk(name, S, D)
        got = canonical_answer(S, kind, D)
        if got != recorded:
            pytest.fail("%s: answer %s, recorded %s" % (key, got, recorded))


@pytest.mark.parametrize("name", RATIONAL)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_sampled_walks_stay_effective(name, data):
    S = get_preset(name)
    m = S.sig.m
    # s and f leaning positive, so that most walks are long
    sf = data.draw(st.lists(st.integers(-1, 4), min_size=2, max_size=2))
    es = data.draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
    check_walk(name, S, DivClass(tuple(sf + es), S.sig))


# dim_gamma answers 0 on k(s - f) for every k but 3, although is_effective
# accepts each: for k = 1 the twisted reflection at the effective root s - f
# leaves the cone, and for k >= 2 the partial step removes 2k - 3 copies of
# s - f, more than the k that D holds
@pytest.mark.parametrize("k", [
    k if k == 3 else pytest.param(k, marks=pytest.mark.xfail(strict=True, reason="dim_gamma answers 0 on the effective class k(s - f)"))
    for k in range(1, 9)
])
def test_effective_root_class_has_a_section(k):
    S = get_preset("f2_type")
    D = DivClass((k, -k), S.sig)  # lambda(s - f) = 3q
    if not is_effective(S, D):
        pytest.fail("%d(s - f) should be effective on f2_type" % k)
    if dim_gamma(S, D) < 1:
        pytest.fail("dim Gamma(%d(s - f)) = 0 on f2_type, though the class is effective" % k)


def twice_at_one_point():
    """f0_generic blown up twice at (5, 7): lambda(e1 - e2) = 0, and q has
    infinite order."""
    return blow_up(blow_up(get_preset("f0_generic"), 0, [1], (5, 7)), 0, [1], (5, 7))


# the same branch with twist a = 0: when q has infinite order the root oracle
# accepts a root of lambda = 0, and dim_gamma's twisted reflection at it
# answers 0; the commutative twin of the second surface answers 1
@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="is_effective accepts a class on an effective root of lambda = 0, "
                   "with q of infinite order, to which dim_gamma gives no section")
@pytest.mark.parametrize("name, text", [("dp9_torsion", "s+f-e2-e3-e5-e8")] + [
    ("f0_generic twice at (5, 7)", text) for text in ("e1-e2", "2e1-2e2", "3e1-3e2")
])
def test_effective_class_at_an_infinite_order_root_has_a_section(name, text):
    S = twice_at_one_point() if name.startswith("f0_generic") else get_preset(name)
    D = parse_div(text, S.sig)
    if is_effective(S, D) and dim_gamma(S, D) < 1:
        pytest.fail("%s on %s: is_effective accepts it, dim_gamma answers %d" % (text, name, dim_gamma(S, D)))


@pytest.mark.parametrize("k", range(4, 9))
def test_multiples_of_the_effective_root_get_an_answer(k):
    # the walk from k(s - f) once ran off (to -2047s-2045f at k = 4) until a
    # step budget was spent; the grade now ends it
    S = get_preset("f2_type")
    D = DivClass((k, -k), S.sig)
    if not is_effective(S, D):
        pytest.fail("%d(s - f) should be effective on f2_type" % k)
    if dim_gamma(S, D) < 0:
        pytest.fail("negative dim Gamma(%d(s - f)) on f2_type" % k)


def test_f2_type_section_dimensions_are_not_negative():
    # the partial step at the effective root s - f can remove more copies
    # than D holds; the walk then went on below the cone and answered
    # 6s - 5f: -4, 7s - 6f: -10 and 8s - 7f: -18
    S = get_preset("f2_type")
    box = [(a, b) for a in range(-8, 9) for b in range(-8, 9)]
    for c in [(6, -5), (7, -6), (8, -7)] + box:
        got = dim_gamma(S, DivClass(c, S.sig))
        if got < 0:
            pytest.fail("dim Gamma(%s) = %d on f2_type" % (render_div(DivClass(c, S.sig)), got))

