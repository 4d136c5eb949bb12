"""The walks of is_effective, is_nef, dim_gamma, reduce_to_chamber and
find_blowdown stay in the input surface's frame: a reflection at an
ineffective simple root moves the frame, so none of them builds a moved
surface, and the per-surface caches of the root oracle and the surface
table hold input surfaces only.  find_blowdown and in_neg1_orbit, which run
the chamber walk, reach the terminals of the older blowdown walk, kept here
as a reference.  No chamber walk makes more reflections than its proved
bound.  A frame step moves the frame by the two move coefficients -2 and 1,
which the pull table checks.

Checks are explicit pytest.fail calls, so they also hold under `python -O`."""

import itertools
import json
import random
from functools import partial
from pathlib import Path

import pytest

from ncsurf import cones, marking, sections, weyl
from ncsurf.cones import is_effective, is_nef
from ncsurf.latenum import classes_with_pairing
from ncsurf.lattice import (
    BudgetExhausted,
    DivClass,
    InvariantViolation,
    LatticeSignature,
    _axpy,
    _dot,
    _row,
    basis_e,
    basis_f,
    basis_s,
    canonical_class,
    intersect,
    render_div,
)
from ncsurf.presets import PRESETS, get_preset
from ncsurf.sections import UnclassifiedState, dim_gamma
from ncsurf.weyl import BlowdownError, elementary_transformation, et_surface, reflect, reflect_surface

from shell_oracle import chamber_interior_class

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "section_pool.json"


def m2_box():
    S = get_preset("m2_generic")
    return [(S, DivClass(c, S.sig)) for c in itertools.product(range(-4, 5), repeat=S.sig.rank)]


def pool_slice(every=8):
    out = []
    for name, entries in sorted(json.loads(POOL.read_text())["pool"].items()):
        S = get_preset(name)
        out += [(S, DivClass(tuple(coeffs), S.sig)) for _, coeffs, _, _ in entries[::every]]
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
    oracle = marking._root_effective

    def recorded(S, a):  # the tuple probe, behind is_root_effective and the walks
        asked.add((S, a))
        return oracle(S, a)

    for mod in (marking, weyl, cones, sections):
        monkeypatch.setattr(mod, "_root_effective", recorded)
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


def formal_neg1(sig, top=4):
    """The formal -1-classes (x^2 = x.K = -1) of the rho-shells t <= top."""
    K = canonical_class(sig)
    rho = chamber_interior_class(sig)
    return [x for t in range(-4, top + 1) for x in classes_with_pairing(sig, rho, t, -1) if intersect(x, K) == -1]


def neg1_shells(top=4):
    """(S, e) for the formal -1-classes e of the rho-shells t <= top on
    m1-m4_generic and on their odd forms under the elementary
    transformation, and on each with m >= 2 made special by lambda(e1) =
    lambda(e2), which makes the root e1 - e2 effective."""
    out = []
    for name in ("m1_generic", "m2_generic", "m3_generic", "m4_generic"):
        for S in (get_preset(name), et_surface(get_preset(name))):
            shells = formal_neg1(S.sig, top)
            lam = S.lam[:3] + S.lam[2:3] + S.lam[4:]
            special = [marking.SurfaceData(S.sig, S.components, S.marking, S.q, lam)] if S.sig.m >= 2 else []
            out += [(T, x) for T in [S] + special for x in shells]
    return out


# the presets are all even and rational; these signatures are not
ORBIT_SIGS = [
    LatticeSignature(m, parity, genera)
    for m in range(5)
    for parity, genera in (("odd", (0, 0)), ("even", (1, 1)), ("odd", (1, 1)), ("even", (2, 0)), ("odd", (2, 0)))
]


def orbit_classes(sig):
    """The formal -1-classes of the rho-shells t <= 8 of sig and, for m <= 3,
    of the [-3, 3] box, sorted."""
    K = canonical_class(sig)
    box = itertools.product(range(-3, 4), repeat=sig.rank) if sig.m <= 3 else ()
    box = [x for x in map(partial(DivClass, sig=sig), box) if intersect(x, x) == intersect(x, K) == -1]
    return sorted(set(box + formal_neg1(sig, 8)), key=lambda x: x.coeffs)


REFERENCE_CAP = 1000  # steps of the reference walk; its shell walks take far fewer


def carried_blowdown(S, e):
    """The blowdown walk that find_blowdown ran before it became a chamber
    walk, kept as a reference: it moves e by interchanges, ruling reflections
    and elementary transformations, and carries the surface S along (each
    move is applied to S too, and the root oracle is asked on the moved
    surface at the current root); with S None it is purely numeric.  Returns
    the terminal, the moves as (kind, root, after) and the end, or the
    BlowdownError text."""
    m, rational, moves = e.sig.m, e.sig.genera == (0, 0), []
    for _ in range(REFERENCE_CAP):
        if m == 0:
            if rational and e.sig.parity == "odd" and e == basis_s(e.sig):
                return "plane", moves, e
            return "not a formal -1-curve: stuck at %s with m = 0" % render_div(e)
        roots, extras = weyl.simple_roots(e.sig)
        if e == extras[0]:
            return "e_m", moves, e
        alpha = next((a for a in roots[len(roots) - (m - 1):] if intersect(e, a) < 0), None)
        if alpha is None and intersect(e, extras[0]) < 0:
            return "not a formal -1-curve: %s pairs negatively with %s but differs from it" % (render_div(e), render_div(extras[0]))
        if alpha is None and rational and intersect(e, roots[0]) < 0:
            alpha = roots[0]
        if alpha is not None:
            if S is not None:
                if marking.is_root_effective(S, alpha)[0]:
                    return weyl._decomposes_msg(e, alpha)
                S = reflect_surface(S, alpha)
            e = reflect(e, alpha)
            moves.append(("reflect", alpha, e))
        elif 2 * intersect(e, basis_e(e.sig, 1)) > intersect(e, basis_f(e.sig)):
            S = S and et_surface(S)
            e = elementary_transformation(e)
            moves.append(("elementary_transformation", None, e))
        else:
            return "not a formal -1-curve: no move applies to %s" % render_div(e)
    pytest.fail("the reference walk passed its cap at %s" % render_div(e))


def reference_kind(outcome):
    """The terminal of a carried_blowdown outcome, or its error's kind:
    "class decomposes" or "not a formal -1-curve"."""
    return outcome.partition(":")[0] if isinstance(outcome, str) else outcome[0]


def blowdown_outcome(walk):
    """(kind, trace) for a blowdown walk: its terminal and its trace when the
    moves replay from the start to the end, and that end is the terminal
    class; else what went wrong, or its BlowdownError's kind, and None."""
    try:
        tr = walk()
    except BlowdownError as err:
        return str(err).partition(":")[0], None
    cur = tr.start
    for mv in tr.moves:
        cur = reflect(cur, mv.cls) if mv.kind == "reflect" else elementary_transformation(cur)
        if cur != mv.after:
            return "a move does not replay", None
    sig = cur.sig
    if cur != tr.end or cur != (basis_e(sig, sig.m) if tr.terminal == "e_m" else basis_s(sig)):
        return "the moves end off the terminal class", None
    return tr.terminal, tr


def test_reduce_and_blowdown_build_no_surfaces(monkeypatch):
    shells = neg1_shells()
    want = [reference_kind(carried_blowdown(S, e)) for S, e in shells]
    built = []
    for name in ("reflect_surface", "et_surface"):
        real = getattr(weyl, name)
        monkeypatch.setattr(weyl, name, lambda *args, name=name, real=real: built.append(name) or real(*args))
    asked = set()
    oracle = marking._root_effective

    def recorded(S, a):
        asked.add(S)
        return oracle(S, a)

    monkeypatch.setattr(weyl, "_root_effective", recorded)
    box = m2_box()
    for S, D in box:
        weyl.reduce_to_chamber(S, D)
    got = [blowdown_outcome(partial(weyl.find_blowdown, S, e))[0] for S, e in shells]
    if built:
        pytest.fail("reduce_to_chamber and find_blowdown built %d moved surfaces (%s first)" % (len(built), built[0]))
    strangers = asked - {S for S, _ in shells + box}
    if strangers:
        pytest.fail("the root oracle was asked on %d surfaces that are no input" % len(strangers))
    diff = [(render_div(e), g, w) for (S, e), g, w in zip(shells, got, want) if g != w]
    if diff:
        pytest.fail("%d of %d blowdowns differ from the surface-carrying walk, first %r" % (len(diff), len(shells), diff[0]))
    # the shells reach a decomposition, so the guard is exercised
    if "class decomposes" not in want:
        pytest.fail("no shell class decomposes")


def test_neg1_orbit_matches_the_reference_walk():
    # on odd and non-rational signatures, m = 0..4: in_neg1_orbit, and the
    # numeric blowdown walk (find_blowdown's walk with no root oracle), give
    # the reference walk's terminal or error kind on every class
    bad, ends = [], set()
    for sig in ORBIT_SIGS:
        for e in orbit_classes(sig):
            want = reference_kind(carried_blowdown(None, e))
            got, tr = blowdown_outcome(partial(weyl._blowdown, None, sig, e))
            if got != want or weyl.in_neg1_orbit(sig, e) != (want in ("e_m", "plane")):
                bad.append((str(sig), render_div(e), got, want))
            if tr is not None:
                ends.add((tr.terminal, tr.moves[-1].kind if tr.moves else None))
    if bad:
        pytest.fail("%d classes differ from the reference walk, first %r" % (len(bad), bad[0]))
    # the plane terminal (odd rational m = 0) and the final elementary
    # transformation (an m = 1 end at f - e1) are both reached
    for end in (("plane", None), ("e_m", "elementary_transformation")):
        if end not in ends:
            pytest.fail("no walk ends as %r" % (end,))


def walk_bound(sig, xf):
    """The proved bound on the reflections of a chamber walk from a class x
    with x.f = xf >= 0: at most xf + 1 at the ruling root (s - f, or s - e1 on
    odd rational signatures), and at most m(m - 1), the number of positive
    roots of D_m, at the other walk roots before, between and after them."""
    m = sig.m
    dm = m * (m - 1)
    if sig.genera == (0, 0) and (sig.parity == "even" or m >= 1):
        return xf + 1 + (xf + 2) * dm
    return dm


def test_chamber_walks_stay_within_the_proved_bound(monkeypatch):
    walks = []
    real = weyl._chamber_walk

    def measured(S, x, table, P, v, word):
        xf = max(_dot(_row(table.sig, x), P[table.f]), 0)  # x.f in the walk's frame, dotted afresh
        start = len(word)
        try:
            return real(S, x, table, P, v, word)
        finally:
            walks.append((table.sig, xf, len(word) - start))

    for mod in (weyl, cones):
        monkeypatch.setattr(mod, "_chamber_walk", measured)
    for S, D in pool_slice(every=1):
        is_effective(S, D)
        is_nef(S, D)
        weyl.reduce_to_chamber(S, D)
    # on the boxes, is_nef's one walk is is_effective's first, from the same
    # class and frame; reduce_to_chamber's walk is run without its surfaces
    for name in ("m1_generic", "m2_generic", "m3_generic"):
        S = get_preset(name)
        table = weyl._pull_table(S.sig)
        for c in itertools.product(range(-4, 5), repeat=S.sig.rank):
            is_effective(S, DivClass(c, S.sig))
            row = _row(S.sig, c)
            weyl._chamber_walk(S, c, table, list(table.base), [_dot(row, p) for p in table.base], [])
    # the blowdown walks, on surfaces and numeric
    for S, e in neg1_shells():
        try:
            weyl.find_blowdown(S, e)
        except BlowdownError:
            pass
    for sig in ORBIT_SIGS:
        for e in orbit_classes(sig):
            weyl.in_neg1_orbit(sig, e)
    over = [w for w in walks if w[2] > walk_bound(w[0], w[1])]
    if over:
        pytest.fail("%d of %d walks passed the bound, first %r" % (len(over), len(walks), over[0]))
    # the bound is attained, so the count is no loose overestimate
    if not any(steps and steps == walk_bound(sig, xf) for sig, xf, steps in walks):
        pytest.fail("no walk of %d attained the bound" % len(walks))


@pytest.mark.parametrize("corrupt", ["neighbour", "root"])
def test_pull_table_checks_the_two_move_coefficients(monkeypatch, corrupt):
    # _step negates a root and adds it to its neighbours; a move coefficient
    # other than -2 at the root and 1 at a neighbour must be refused, with no
    # frame built from it.  The corrupted pairing is the first walk root's
    # (s - f on m2_generic) with f, a neighbour, or with itself.
    sig = get_preset("m2_generic").sig
    table = weyl._pull_table(sig)
    first, target = table.roots[0][1], table.base[table.f if corrupt == "neighbour" else 0]
    real = weyl._dot
    monkeypatch.setattr(weyl, "_dot", lambda row, v: real(row, v) + (row == first and v == target))
    with pytest.raises(InvariantViolation, match="pull-back move"):
        weyl._pull_table.__wrapped__(sig)


def test_step_frames_match_the_axpy_frames():
    # the two-coefficient step against the general update P[j] += c*P[k] for
    # every move (j, c), and its pairings against the dots, along random words
    rng = random.Random(19)
    for name in sorted(PRESETS):
        S = get_preset(name)
        table = weyl._pull_table(S.sig)
        if not table.roots:
            continue
        for _ in range(10):
            x = tuple(rng.randint(-4, 4) for _ in range(S.sig.rank))
            row = _row(S.sig, x)
            P, word, Q = list(table.base), [], list(table.base)
            v = [_dot(row, p) for p in P]
            for step in range(40):
                k = rng.randrange(len(table.roots))
                weyl._step(table, P, v, word, k)
                beta = Q[k]
                for j, c in table.moves[k]:
                    Q[j] = _axpy(Q[j], c, beta)
                if P != Q or v != [_dot(row, p) for p in P]:
                    pytest.fail("%s: the frame or its pairings differ after %d steps of %r" % (name, step + 1, word))
