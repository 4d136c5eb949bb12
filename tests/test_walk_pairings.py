"""The chamber walks carry their pairings.  weyl._chamber_walk takes
v[j] = x.P[j] from its caller and moves it with the frame; every walk step
is an isometry (Bjorner-Brenti, ch. 4), so P[i].P[j] stays the Gram matrix
of the base frame, _pull_table's gram, and a caller that subtracts n copies
of a frame class P[j] moves v by n times gram's row j instead of dotting
again.  These tests pair classes by the basis convention written out here,
not by the library's pairing helpers.

Checks are explicit pytest.fail calls, so they also hold under `python -O`."""

import itertools
import json
from pathlib import Path

import pytest

from ncsurf import cones, sections, weyl
from ncsurf.cones import is_effective, is_nef
from ncsurf.lattice import DivClass, LatticeSignature, anticanonical_class, render_div
from ncsurf.presets import PRESETS, get_preset
from ncsurf.sections import UnclassifiedState, dim_gamma

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "section_pool.json"


def pair(sig, x, y):
    """x.y for coefficient tuples on (s, f, e_1..e_m): s.f = 1, s^2 = 0
    (even) or -1 (odd), f^2 = 0, e_i.e_j = -delta_ij, the e_i orthogonal to
    s and f."""
    s_sq = 0 if sig.parity == "even" else -1
    return s_sq * x[0] * y[0] + x[0] * y[1] + x[1] * y[0] - sum(a * b for a, b in zip(x[2:], y[2:]))


def pool(every):
    out = []
    for name, entries in sorted(json.loads(POOL.read_text())["pool"].items()):
        S = get_preset(name)
        out += [(S, DivClass(tuple(coeffs), S.sig)) for _, coeffs, _, _ in entries[::every]]
    return out


def box(name, r=4):
    S = get_preset(name)
    return [(S, DivClass(c, S.sig)) for c in itertools.product(range(-r, r + 1), repeat=S.sig.rank)]


def test_gram_is_the_pairing_of_the_base_frame():
    sigs = {get_preset(name).sig for name in PRESETS}
    sigs |= {LatticeSignature(m, parity) for m in range(13) for parity in ("even", "odd")}
    for sig in sorted(sigs, key=repr):
        table = weyl._pull_table(sig)
        base = table.base
        want = tuple(tuple(pair(sig, a, b) for b in base) for a in base)
        if table.gram != want:
            pytest.fail("gram of %r differs from the pairing of its base" % (sig,))
        ruling = bool(table.roots) and pair(sig, base[0], base[table.f]) != 0
        if table.ruling != ruling or table.q_sq != pair(sig, table.q, table.q):
            pytest.fail("ruling flag or q^2 of %r is wrong" % (sig,))


def test_walk_frames_keep_the_gram_matrix(monkeypatch):
    # the frames that the walks of reduce_to_chamber end in, on the section pool
    frames = []
    real = weyl._chamber_walk

    def recorded(S, x, table, P, v, word):
        try:
            return real(S, x, table, P, v, word)
        finally:
            frames.append((table, list(P), len(word)))

    monkeypatch.setattr(weyl, "_chamber_walk", recorded)
    for S, D in pool(every=1):
        weyl.reduce_to_chamber(S, D)
    for table, P, steps in frames:
        got = tuple(tuple(pair(table.sig, a, b) for b in P) for a in P)
        if got != table.gram:
            pytest.fail("a frame of %r after %d steps leaves the Gram matrix" % (table.sig, steps))
    if max(steps for _, _, steps in frames) < 20:
        pytest.fail("no walk of the pool is long enough to test the frames")


def carried_pairings(monkeypatch, module, log):
    """Wrap the module's _chamber_walk: at every entry the v it is given must
    be the pairings x.P[j], dotted afresh here.  log counts the entries and
    the re-entries, whose v the caller carried from an earlier walk."""
    real, last = weyl._chamber_walk, [None]

    def checked(S, x, table, P, v, word):
        fresh = [pair(table.sig, x, p) for p in P]
        if v != fresh:
            pytest.fail("%s carried pairings %r for %s, fresh ones are %r"
                        % (module.__name__, v, render_div(DivClass(x, table.sig)), fresh))
        log[0] += 1
        log[1] += P is last[0]
        last[0] = P
        return real(S, x, table, P, v, word)

    monkeypatch.setattr(module, "_chamber_walk", checked)


def test_cone_loop_and_dim_gamma_carry_the_pairings(monkeypatch):
    logs = {cones: [0, 0], sections: [0, 0]}
    for module, log in logs.items():
        carried_pairings(monkeypatch, module, log)
    # f2_type's box adds dim_gamma's partial steps at the effective root
    # s - f; the multiples of Q on the dp9 presets add its passes to D - Q
    dp9 = [get_preset(name) for name in ("dp9_torsion", "dp9_torsion_l3", "dp9_torsion_l5")]
    Q_multiples = [(S, k * anticanonical_class(S.sig)) for S in dp9 for k in range(1, 7)]
    classes = box("m1_generic") + box("m2_generic") + box("m3_generic") + pool(every=4) + box("f2_type", 8) + Q_multiples
    for S, D in classes:
        is_effective(S, D)
        is_nef(S, D)
        try:
            dim_gamma(S, D)
        except UnclassifiedState:
            pass
    for module, (entries, reentries) in logs.items():
        # a re-entry follows a subtraction or a partial step, after which the
        # loop moved v by gram (a frame class) or dotted it again
        if reentries < 1000:
            pytest.fail("%s: %d walks, only %d with carried pairings" % (module.__name__, entries, reentries))
