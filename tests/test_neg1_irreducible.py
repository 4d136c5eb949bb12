"""is_neg1_irreducible runs find_blowdown's walk with the root oracle; it
must answer as the brute-force rho-shell scan (shell_oracle) on every
-1-class of the rho-shells t <= 8, on surfaces with and without
effective roots.  The scan's component check never decides alone: where a
component pairs negatively with e, an effective root of the shells does too.
Both raise the same ValueError texts on a class that is no formal -1-class
and on one outside e_m's orbit.

Checks are explicit pytest.fail calls, so they also hold under `python -O`."""

import pytest

from ncsurf import is_neg1_effective, is_neg1_irreducible
from ncsurf.latenum import classes_with_pairing
from ncsurf.lattice import LatticeSignature, anticanonical_class, basis_f, basis_s, canonical_class, intersect, render_div
from ncsurf.marking import MarkingGroup, QComponent, SurfaceData, blow_up, validate
from ncsurf.presets import f0_generic, get_preset
from ncsurf.weyl import in_neg1_orbit

from shell_oracle import chamber_interior_class, negative_components, negative_effective_roots, shell_is_neg1_irreducible


def four_times_at_one_point():
    S = f0_generic()
    for _ in range(4):
        S = blow_up(S, 0, [1], (5, 7))
    return S


def m2_equal_points():
    """m2_generic with lambda(e1) = lambda(e2): the root e1 - e2 is effective."""
    S = get_preset("m2_generic")
    return SurfaceData(S.sig, S.components, S.marking, S.q, S.lam[:3] + S.lam[2:3])


SURFACES = {
    "pvi_m12": lambda: get_preset("pvi_m12"),
    "m4_generic": lambda: get_preset("m4_generic"),
    "dp9_torsion": lambda: get_preset("dp9_torsion"),
    "f0_generic four times at (5, 7)": four_times_at_one_point,
    "m2_generic, lambda(e1) = lambda(e2)": m2_equal_points,
}

# how many of the shell classes decompose: e1 and e2 on pvi_m12 (the
# components e1 - e3 and e2 - e4); e1, e2, e3 and the f - e_i and s - e_i
# for i >= 2 four times at one point; e1, f - e2 and s - e2 on m2 with equal
# points
REDUCIBLE = {"pvi_m12": 2, "m4_generic": 0, "dp9_torsion": 0, "f0_generic four times at (5, 7)": 9,
             "m2_generic, lambda(e1) = lambda(e2)": 3}


def shell_neg1(sig, top=8):
    """The formal -1-classes (x^2 = x.K = -1) of the rho-shells t <= top."""
    K, rho = canonical_class(sig), chamber_interior_class(sig)
    return [x for t in range(-4, top + 1) for x in classes_with_pairing(sig, rho, t, -1) if intersect(x, K) == -1]


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_walk_matches_the_shell_scan(name):
    S = SURFACES[name]()
    if validate(S):
        pytest.fail("%s: %s" % (name, validate(S)))
    classes = [e for e in shell_neg1(S.sig) if in_neg1_orbit(S.sig, e)]
    if len(classes) < S.sig.m:
        pytest.fail("%s: only %d -1-classes in the shells" % (name, len(classes)))
    reducible = 0
    for e in classes:
        got, want = is_neg1_irreducible(S, e), shell_is_neg1_irreducible(S, e)
        if got != want:
            pytest.fail("%s: is_neg1_irreducible(%s) = %s, the shell scan says %s" % (name, render_div(e), got, want))
        comps = negative_components(S, e)
        if comps and next(negative_effective_roots(S, e), None) is None:
            pytest.fail("%s: only the component %s obstructs %s" % (name, render_div(comps[0]), render_div(e)))
        reducible += not got
    if reducible != REDUCIBLE[name]:
        pytest.fail("%s: %d of %d shell classes decompose, want %d" % (name, reducible, len(classes), REDUCIBLE[name]))


def test_both_raise_the_same_errors():
    S = get_preset("m2_generic")
    # genera (1, 1), odd, m = 0: -s is a formal -1-class outside e_m's orbit
    sig = LatticeSignature(0, "odd", (1, 1))
    T = SurfaceData(sig, (QComponent(anticanonical_class(sig), 1),), MarkingGroup(1), (1,), ((0,), (0,)))
    cases = [(S, basis_f(S.sig), "f is not a formal -1-class (need e^2 = e.K = -1)"),
             (T, -basis_s(sig), "-s is not in the reflection orbit of e_m")]
    if validate(T):
        pytest.fail("the genera (1, 1) surface: %s" % validate(T))
    for surface, e, text in cases:
        for fn in (is_neg1_irreducible, is_neg1_effective, shell_is_neg1_irreducible):
            try:
                fn(surface, e)
            except ValueError as err:
                if str(err) != text:
                    pytest.fail("%s(%s) says %r, want %r" % (fn.__name__, render_div(e), str(err), text))
            else:
                pytest.fail("%s(%s) raised no ValueError" % (fn.__name__, render_div(e)))
