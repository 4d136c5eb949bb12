import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from ncsurf.cones import (
    _negative_witness,
    effective_cert,
    effective_generators,
    is_ample,
    is_effective,
    is_nef,
    is_strongly_ample,
    minimal_section,
    nef_witness,
)
from ncsurf.lattice import (
    DivClass,
    LatticeSignature,
    _dot,
    _pair,
    _row,
    anticanonical_class,
    basis_e,
    basis_f,
    basis_s,
    canonical_class,
    div,
    intersect,
    render_div,
    zero_class,
)
from ncsurf.marking import EFFECTIVE_CAP, MarkingGroup, QComponent, SurfaceData, _surface_table, validate
from ncsurf.presets import (
    PRESETS,
    f0_generic,
    f2_type,
    get_preset,
    m1_generic,
    m2_generic,
    m3_generic,
)
from ncsurf.weyl import et_surface, find_blowdown, in_neg1_orbit


def rand_div(sig, rng, bound=4):
    return DivClass(tuple(rng.randint(-bound, bound) for _ in range(sig.rank)), sig)


def test_minimal_section():
    S = f0_generic()
    sp, d0, tie = minimal_section(S)
    assert sp == basis_s(S.sig) and d0 == 0 and not tie
    S2 = f2_type()
    sp, d0, tie = minimal_section(S2)
    assert sp == div(S2.sig, 1, -1) and d0 == 1


def _m0(parity, genera, *components):
    """The m = 0 surface with the given reduced components (anticanonical
    sum), MarkingGroup(1), q = (1,) and lambda = 0 on s and f."""
    sig = LatticeSignature(0, parity, genera)
    S = SurfaceData(sig, tuple(QComponent(c(sig), 1) for c in components), MarkingGroup(1), (1,), ((0,), (0,)))
    if validate(S):
        pytest.fail("%s m = 0 surface of genera %r: %s" % (parity, genera, validate(S)))
    return S


# three splittings of -K on F_1 (odd, rational, m = 0)
F1_SPLITS = {
    "2s+3f": [anticanonical_class],
    "s + (s+3f)": [basis_s, lambda sig: div(sig, 1, 3)],
    "s + (s+2f) + f": [basis_s, lambda sig: div(sig, 1, 2), basis_f],
}


def test_odd_m0_cones_are_f1s():
    # F_1 has the -1-curve s and the fiber f: a.s + b.f is effective iff
    # a, b >= 0 and nef iff 0 <= a <= b, whatever splits -K
    bad = []
    for name, comps in F1_SPLITS.items():
        S = _m0("odd", (0, 0), *comps)
        for a, b in itertools.product(range(-6, 7), repeat=2):
            D = div(S.sig, a, b)
            got = (is_effective(S, D), is_nef(S, D))
            if got != (a >= 0 and b >= 0, 0 <= a <= b):
                bad.append((name, render_div(D), got))
    if bad:
        pytest.fail("%d answers differ from F_1's, first %r" % (len(bad), bad[0]))


def test_f1_blows_down_to_the_plane():
    # s, F_1's one formal -1-class, blows down to the plane with no move,
    # whatever splits -K; the fiber f is no formal -1-class
    for name, comps in F1_SPLITS.items():
        S = _m0("odd", (0, 0), *comps)
        s = basis_s(S.sig)
        tr = find_blowdown(S, s)
        if (tr.terminal, tr.moves, tr.end) != ("plane", [], s) or not in_neg1_orbit(S.sig, s):
            pytest.fail("%s: s blows down to %r by %r" % (name, tr.terminal, tr.word()))
        with pytest.raises(ValueError, match="not a formal -1-class"):
            find_blowdown(S, basis_f(S.sig))


@pytest.mark.xfail(
    strict=True,
    reason="minimal_section takes d0 only from components with C.f = 1, so the m = 0 forks "
    "ignore a bisection Q",
)
def test_m0_bisection_component_is_effective():
    # even, genera (2, 2): Q = -K = 2s - 2f is the one component
    S = _m0("even", (2, 2), anticanonical_class)
    Q = S.components[0].cls
    if not is_effective(S, Q):
        pytest.fail("the component %s is not effective" % render_div(Q))


def test_effective_examples():
    S = f0_generic()
    sig = S.sig
    assert is_effective(S, basis_s(sig) + basis_f(sig))
    assert not is_effective(S, canonical_class(sig))
    S2 = f2_type()
    assert is_effective(S2, div(S2.sig, 1, -1))
    assert not is_effective(S, div(sig, 1, -1))  # generic marking
    assert is_effective(S, zero_class(sig))


def test_effective_certificate_sums():
    rng = random.Random(11)
    for name in ("m1_generic", "m2_generic", "m3_generic"):
        S = get_preset(name)
        sig = S.sig
        for _ in range(40):
            D = rand_div(sig, rng)
            ok, cert = effective_cert(S, D)
            if ok:
                total = cert["residue"]
                for x in cert["subtracted"]:
                    assert is_effective(S, x)
                    total = total + x
                assert total == D


def test_nef_examples():
    S = m1_generic()
    sig = S.sig
    assert is_nef(S, basis_f(sig))
    ok, wit = nef_witness(S, basis_e(sig, 1))
    assert not ok and wit == basis_e(sig, 1)
    assert is_nef(S, div(sig, 2, 2, -1))


def test_ample_examples():
    S = f0_generic()
    sig = S.sig
    D = basis_s(sig) + basis_f(sig)
    assert is_ample(S, D)
    assert not is_ample(S, basis_f(sig))  # D^2 = 0
    # F2-type: s-f is effective and (s+f).(s-f) = 0 kills ampleness
    S2 = f2_type()
    assert not is_ample(S2, div(S2.sig, 1, 1))
    assert is_ample(S2, div(S2.sig, 2, 3))


def test_ample_blocked_by_orthogonal_neg1():
    # m=1: D = s+f-e1 pairs 0 with the -1 class e1... no: (s+f-e1).e1 = 1.
    # Use D = 2s+2f-2e1: D.(f-e1) = 0 with f-e1 effective
    S = m1_generic()
    sig = S.sig
    D = div(sig, 2, 2, -2)
    assert intersect(D, D) > 0
    assert not is_ample(S, D)


def test_generators_examples():
    S = f0_generic()
    sig = S.sig
    got = {render_div(x) for x in effective_generators(S, div(sig, 1, 1), 2)}
    assert got == {"2s+2f", "s", "f"}
    S2 = f2_type()
    got = {render_div(x) for x in effective_generators(S2, div(S2.sig, 1, 2), 2)}
    assert got == {"2s+2f", "f", "s-f"}
    S1 = m1_generic()
    got = {
        render_div(x)
        for x in effective_generators(S1, div(S1.sig, 2, 2, -1), 2)
    }
    assert {"e1", "f-e1"} <= got


def test_generators_require_ample():
    with pytest.raises(ValueError):
        effective_generators(f2_type(), div(f2_type().sig, 1, 1), 2)


def test_nef_implies_effective():
    rng = random.Random(12)
    for name in PRESETS:
        S = get_preset(name)
        for _ in range(30):
            D = rand_div(S.sig, rng, 3)
            if is_nef(S, D):
                assert is_effective(S, D), (name, D)


def test_effective_additive_and_fiber_degree():
    rng = random.Random(13)
    for name in ("f0_generic", "f2_type", "m2_generic"):
        S = get_preset(name)
        f = basis_f(S.sig)
        eff = []
        for _ in range(120):
            D = rand_div(S.sig, rng, 3)
            if is_effective(S, D):
                eff.append(D)
                assert intersect(D, f) >= 0
        for _ in range(30):
            D1, D2 = rng.choice(eff), rng.choice(eff)
            assert is_effective(S, D1 + D2)


def test_not_both_directions_effective():
    rng = random.Random(14)
    for name in ("f0_generic", "m2_generic"):
        S = get_preset(name)
        for _ in range(80):
            D = rand_div(S.sig, rng, 3)
            if not D.is_zero() and is_effective(S, D):
                assert not is_effective(S, -D)


def test_effective_invariant_under_ineffective_reflection():
    from ncsurf.marking import is_root_effective
    from ncsurf.weyl import reflect, reflect_surface, simple_roots

    rng = random.Random(15)
    S = m2_generic()
    roots, _ = simple_roots(S.sig)
    for alpha in roots:
        if is_root_effective(S, alpha)[0]:
            continue
        Sr = reflect_surface(S, alpha)
        for _ in range(25):
            D = rand_div(S.sig, rng, 3)
            assert is_effective(S, D) == is_effective(Sr, reflect(D, alpha))


def test_strongly_ample():
    S = f0_generic()
    sig = S.sig
    assert is_strongly_ample(S, div(sig, 1, 1))  # D.Q = 4
    # g=1, Q=2s: s+f ample-ish but s+f-2f = s-f not nef generically
    sig1 = LatticeSignature(0, "even", (1, 1))
    P = MarkingGroup(2)
    S1 = SurfaceData(
        sig1, (QComponent(basis_s(sig1), 2),), P, (1, 0), ((0, 1), (0, 0))
    )
    assert validate(S1) == []
    assert not is_strongly_ample(S1, div(sig1, 1, 1))


def _pvi_m12_pieces():
    """Twelve classes on pvi_m12 that is_effective accepts one by one: the
    components 2(s-e6-e8-e10-e12), e2-e4 and s-e5-e7-e9-e11, then the formal
    -1-classes e12, 3e9, 2e11, s+f-e2-e4-e7 and s+f-e2-e7-e10."""
    S = get_preset("pvi_m12")
    sig = S.sig
    s, f = basis_s(sig), basis_f(sig)

    def e(i):
        return basis_e(sig, i)

    pieces = [s - e(6) - e(8) - e(10) - e(12)] * 2 + [e(2) - e(4), s - e(5) - e(7) - e(9) - e(11), e(12)]
    pieces += [e(9)] * 3 + [e(11)] * 2 + [s + f - e(2) - e(4) - e(7), s + f - e(2) - e(7) - e(10)]
    return S, pieces


def test_pvi_m12_pieces_and_their_partial_sums_are_effective():
    S, pieces = _pvi_m12_pieces()
    partial = zero_class(S.sig)
    for D in pieces:
        assert is_effective(S, D), render_div(D)
        assert is_effective(S, partial), render_div(partial)
        partial = partial + D
    assert partial == div(S.sig, 5, 2, 0, -1, 0, -2, -1, -2, -3, -2, 2, -3, 1, -1)


@pytest.mark.xfail(
    strict=True,
    reason="is_effective is not additive on pvi_m12: the cone loop ends in the f-cut on this sum "
    "of accepted classes, as the root oracle subtracts no -1-class but the e_i and f - e_i",
)
def test_effective_classes_on_pvi_m12_have_an_effective_sum():
    S, pieces = _pvi_m12_pieces()
    D = zero_class(S.sig)
    for piece in pieces:
        D = D + piece
    assert is_effective(S, D)


def _witness_classes():
    """Every 3rd class of the [-4,4] boxes of m1-m3_generic, and 300 seeded
    classes each of m4_generic and pvi_m12."""
    out = []
    for name in ("m1_generic", "m2_generic", "m3_generic"):
        S = get_preset(name)
        box = itertools.product(range(-4, 5), repeat=S.sig.rank)
        out += [(S, DivClass(c, S.sig)) for c in itertools.islice(box, 0, None, 3)]
    rng = random.Random(18)
    for name in ("m4_generic", "pvi_m12"):
        S = get_preset(name)
        out += [(S, rand_div(S.sig, rng, 3)) for _ in range(300)]
    return out


def test_every_witness_and_summand_checks_out():
    # nef witnesses come from the screen, a walk's cut or its subtraction
    # step; certificate summands from the terminal -1-classes
    # (with their whole multiplicity), blocked-root pieces and components
    formal = {}
    for S, D in _witness_classes():
        sig = S.sig
        K = canonical_class(sig)
        ok, witness = nef_witness(S, D)
        if ok != (witness is None):
            pytest.fail("nef verdict %s with witness %r on %s" % (ok, witness, render_div(D)))
        if witness is not None and not (intersect(D, witness) < 0 and is_effective(S, witness)):
            pytest.fail("bad nef witness %s of %s" % (render_div(witness), render_div(D)))
        ok, cert = effective_cert(S, D)
        if not ok:
            continue
        comps = {c.cls for c in S.components}
        total = cert["residue"]
        for x in cert["subtracted"]:
            if x not in comps:
                if x not in formal:
                    formal[x] = intersect(x, x) == intersect(x, K) == -1 and in_neg1_orbit(sig, x)
                if not formal[x]:
                    pytest.fail("summand %s of %s is neither a component nor a formal -1-class" % (render_div(x), render_div(D)))
            total = total + x
        if total != D:
            pytest.fail("summands and residue of %s sum to %s" % (render_div(D), render_div(total)))


POOL = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "section_pool.json"


def _screen_inputs():
    """The sum of the twelve pvi_m12 pieces and the pieces (its cut walk ends
    at a fiber that pairs negatively with a component, which must not be
    listed), the section pool's classes D and K - D on their presets, and
    the [-4, 4] boxes of m1-m3_generic (m3's sampled), as (surface, class)."""
    S, pieces = _pvi_m12_pieces()
    out = [(S, sum(pieces, zero_class(S.sig)))] + [(S, D) for D in pieces]
    for name, entries in json.loads(POOL.read_text())["pool"].items():
        S = get_preset(name)
        K = canonical_class(S.sig)
        for _, coeffs, _, _ in entries:
            D = DivClass(tuple(coeffs), S.sig)
            out += [(S, D), (S, K - D)]
    rng = random.Random(7)
    for name, sample in (("m1_generic", None), ("m2_generic", None), ("m3_generic", 20000)):
        S = get_preset(name)
        box = list(itertools.product(range(-4, 5), repeat=S.sig.rank))
        if sample is not None:
            box = rng.sample(box, sample)
        out += [(S, DivClass(x, S.sig)) for x in box]
    return out


def _screened_orders(items, clear, screen):
    """is_effective on items with clear(T) run on every surface table before
    each query (the baseline), then in two query orders that fill the
    tables up: the answers must agree.  Yields each order's label and the
    baseline answers, with the tables as that order left them."""
    _surface_table.cache_clear()
    plain = []
    for S, D in items:
        clear(_surface_table(S))
        plain.append(is_effective(S, D))
    order = list(range(len(items)))
    for label in ("input order", "reversed order"):
        _surface_table.cache_clear()
        screened = [None] * len(items)
        for i in order:
            screened[i] = is_effective(*items[i])
        diff = [i for i in order if screened[i] != plain[i]]
        if diff:
            S, D = items[diff[0]]
            pytest.fail("%s: %d of %d answers change with the %s, first %s (%s without it)"
                        % (label, len(diff), len(items), screen, render_div(D), plain[diff[0]]))
        yield label, plain
        order.reverse()


def test_fiber_screen_does_not_change_an_answer():
    # is_effective with every surface table's fiber list (and effective set,
    # the other screen) emptied before each query against two query orders
    # in which the lists fill up; every accepted class must pair >= 0 with
    # every listed (nef) fiber
    def clear(T):
        T.fibers.clear()
        T.effective.clear()

    items = _screen_inputs()
    for label, plain in _screened_orders(items, clear, "fiber screen"):
        filled = 0
        for (S, D), ok in zip(items, plain):
            fibers = _surface_table(S).fibers
            filled = max(filled, len(fibers))
            if ok and any(intersect(D, DivClass(N, S.sig)) < 0 for N in fibers):
                pytest.fail("%s: accepted %s pairs negatively with a listed fiber" % (label, render_div(D)))
        if not filled:
            pytest.fail("%s: no cut walk listed a fiber, so the screen was not exercised" % label)


def test_effective_screen_does_not_change_an_answer():
    # is_effective with every surface table's effective set emptied before
    # each query against two query orders in which the sets fill up; every
    # surface must record, and every recorded class must be accepted by
    # effective_cert, which reads no set
    items = _screen_inputs()
    surfaces = {S for S, _ in items}
    for label, _ in _screened_orders(items, lambda T: T.effective.clear(), "effective screen"):
        recorded = [(S, x) for S in surfaces for x in _surface_table(S).effective]
        if len({S for S, _ in recorded}) < len(surfaces):
            pytest.fail("%s: some surface recorded no accepted loop" % label)
        for S, x in recorded:
            if not effective_cert(S, DivClass(x, S.sig))[0]:
                pytest.fail("%s: recorded %s is not effective" % (label, render_div(DivClass(x, S.sig))))


def test_effective_set_stays_at_its_cap():
    # the whole [-4, 4] box of m3_generic passes through more accepted
    # residues than EFFECTIVE_CAP: the set fills to the cap and stays there,
    # later accepted classes go unrecorded, and every answer is
    # effective_cert's (which reads no set)
    S = get_preset("m3_generic")
    _surface_table.cache_clear()
    T, full, unrecorded = _surface_table(S), False, 0
    for x in itertools.product(range(-4, 5), repeat=S.sig.rank):
        D = DivClass(x, S.sig)
        got = is_effective(S, D)
        if got is not effective_cert(S, D)[0]:
            pytest.fail("is_effective(%s) is %s with the effective set, not effective_cert's" % (render_div(D), got))
        if len(T.effective) > EFFECTIVE_CAP:
            pytest.fail("the effective set holds %d classes, past its cap" % len(T.effective))
        if full and got and x not in T.effective:
            unrecorded += 1
        full = len(T.effective) == EFFECTIVE_CAP
    assert full and unrecorded > 1000


def _split_q(m, parity, genera, d):
    """A valid surface of signature (m, parity, genera) whose Q splits into
    the sections s - d*f and Q - (s - d*f), so that a horizontal component
    has fiber coefficient -d; d None keeps Q irreducible."""
    sig = LatticeSignature(m, parity, genera)
    Q = anticanonical_class(sig)
    if d is None:
        comps = (QComponent(Q, 1),)
    else:
        C = div(sig, (1, -d) + (0,) * m)
        comps = (QComponent(C, 1), QComponent(Q - C, 1))
    S = SurfaceData(sig, comps, MarkingGroup(1), (1,), ((0,),) * sig.rank)
    assert validate(S) == []
    return S


GENERA = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 3), (3, 3)]


def _decomposition_surfaces():
    for m in range(14):
        for parity in ("even", "odd"):
            for genera in GENERA:
                for d in range(4):
                    yield _split_q(m, parity, genera, d)
    for name in sorted(PRESETS):
        yield get_preset(name)


def test_grading_class_decomposes_over_q_f_and_the_e_i():
    # 2A = a*Q + (2b - a*kappa)*f + sum((a - 2c_i) e_i) with coefficients >= 0
    # for the grading class A = a*s + b*f - sum(c_i e_i), read back from its
    # Gram row (s_sq*a + b, a, c_1, ..., c_m): what makes the nef screen
    # complete
    count = 0
    for S in _decomposition_surfaces():
        sig = S.sig
        row = _surface_table(S).grading_row
        a, b, cs = row[1], row[0] - sig.s_sq * row[1], row[2:]
        assert _row(sig, (a, b) + tuple(-c for c in cs)) == row
        q = anticanonical_class(sig).coeffs
        coeffs = [a, 2 * b - a * q[1]] + [a - 2 * c for c in cs]
        if min(coeffs) < 0:
            pytest.fail("grading class of %s has decomposition coefficients %s" % (sig, coeffs))
        rest = (0, *coeffs[1:])  # (2b - a*kappa)*f + sum((a - 2c_i) e_i)
        assert tuple(a * u + v for u, v in zip(q, rest)) == (2 * a, 2 * b) + tuple(-2 * c for c in cs)
        count += 1
    assert count == 14 * 2 * len(GENERA) * 4 + len(PRESETS)


SCREEN_SURFACES = [get_preset(n) for n in sorted(PRESETS) if get_preset(n).sig.m >= 1] + [
    _split_q(m, parity, genera, d)
    for m in (1, 2, 5, 9)
    for parity in ("even", "odd")
    for genera in ((0, 0), (1, 1), (2, 3))
    for d in (None, 0, 3)
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_screened_classes_have_nonnegative_grade(data):
    # D = x*s + y*f + sum(z_i e_i) pairs >= 0 with f, the e_i and the f - e_i
    # iff 0 <= -z_i <= x; y is taken at (or just above) the least value
    # where D pairs >= 0 with every horizontal component, the tight case, as
    # the grade rises with y
    S = data.draw(st.sampled_from(SCREEN_SURFACES))
    sig, T = S.sig, _surface_table(S)
    x = data.draw(st.integers(0, 8))
    z = tuple(data.draw(st.integers(-x, 0)) for _ in range(sig.m))
    base = (x, 0) + z
    y_min = max(-(_pair(sig, base, c.cls.coeffs) // c.cls.coeffs[0]) for c in S.components if c.cls.coeffs[0] > 0)
    D = (x, y_min + data.draw(st.integers(0, 3))) + z
    assume(_negative_witness(T, _row(sig, D)) is None)
    assert _dot(T.grading_row, D) >= 0


def _agreement_inputs():
    """The [-2, 2] boxes of m1-m4_generic and of et_surface(m3_generic()),
    which has odd parity, 150 seeded classes each of dp9_torsion and
    pvi_m12, and the [-3, 3] boxes of the m = 0 presets."""
    rng = random.Random(34)
    out = []
    for S in [get_preset("m%d_generic" % m) for m in (1, 2, 3, 4)] + [et_surface(m3_generic())]:
        out += [(S, DivClass(c, S.sig)) for c in itertools.product(range(-2, 3), repeat=S.sig.rank)]
    for name in ("dp9_torsion", "pvi_m12"):
        S = get_preset(name)
        out += [(S, rand_div(S.sig, rng, 3)) for _ in range(150)]
    for name in sorted(PRESETS):
        S = get_preset(name)
        if S.sig.m == 0:
            out += [(S, DivClass(c, S.sig)) for c in itertools.product(range(-3, 4), repeat=2)]
    return out


def test_bool_entries_agree_with_the_certificate_entries():
    # is_effective and is_nef build no certificate; both kinds of entry fill
    # the surface tables' fiber lists, so each pair runs in both orders
    items = _agreement_inputs()
    assert {S.sig.parity for S, _ in items} == {"even", "odd"} and min(S.sig.m for S, _ in items) == 0
    entries = ((is_effective, effective_cert), (is_nef, nef_witness))
    for bool_first in (True, False):
        _surface_table.cache_clear()
        for S, D in items:
            for plain, certified in entries:
                if bool_first:
                    got, want = plain(S, D), certified(S, D)[0]
                else:
                    want, got = certified(S, D)[0], plain(S, D)
                if got is not want:
                    pytest.fail("%s(%s) on %r is %r, %s says %r (%s first)" % (
                        plain.__name__, render_div(D), S.sig, got, certified.__name__, want,
                        "bool" if bool_first else "certificate"))


def test_certificates_and_witnesses_do_not_depend_on_earlier_queries():
    # effective_cert and nef_witness read no effective set, and the fiber
    # screen only rejects: each certificate and witness is the same with the
    # surface table emptied before the query as after every class went
    # through is_effective, which puts each accepted class in the set
    items = _agreement_inputs()
    _surface_table.cache_clear()
    cold = []
    for S, D in items:
        T = _surface_table(S)
        T.fibers.clear()
        T.effective.clear()
        cold.append((effective_cert(S, D), nef_witness(S, D)))
    _surface_table.cache_clear()
    for S, D in items:
        is_effective(S, D)
    assert all(_surface_table(S).effective for S, _ in items if S.sig.m >= 1)
    for (S, D), want in zip(items, cold):
        got = (effective_cert(S, D), nef_witness(S, D))
        if got != want:
            pytest.fail("%s on %r: %r after is_effective, %r cold" % (render_div(D), S.sig, got, want))


def test_nef_screen_reads_the_dotted_scan():
    # _negative_witness reads the pairings with f, the e_i and the f - e_i
    # off the row: it must return the first class of the screen that the
    # plain dot scan finds, on every preset, at m = 1 and at odd parity
    rng = random.Random(340)
    surfaces = [get_preset(n) for n in sorted(PRESETS)] + [et_surface(m3_generic())]
    surfaces += [_split_q(1, parity, genera, d) for parity in ("even", "odd") for genera in ((0, 0), (1, 1))
                 for d in (None, 0, 2)]
    kinds = set()
    for S in surfaces:
        sig, T = S.sig, _surface_table(S)
        kind = ["f"] + ["component"] * len(S.components) + ["e_i"] * sig.m + ["f - e_i"] * sig.m
        assert len(kind) == len(T.screen)
        for _ in range(400):
            x = tuple(rng.randint(-3, 3) for _ in range(sig.rank))
            row = _row(sig, x)
            want = next((i for i, y in enumerate(T.screen) if _dot(row, y) < 0), None)
            got, expected = _negative_witness(T, row), None if want is None else T.screen[want]
            if got != expected:
                pytest.fail("screen of %s on %r gives %r, the dot scan %r" % (x, sig, got, expected))
            kinds.add(None if want is None else kind[want])
            assert _negative_witness(T._replace(screen=()), row) is None
    assert kinds == {"f", "component", "e_i", "f - e_i", None}
