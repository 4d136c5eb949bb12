import importlib.util
import itertools
import random
from collections import deque
from pathlib import Path

import pytest

import ncsurf
from ncsurf import cones, marking, sections, weyl
from ncsurf.lattice import (
    BudgetExhausted,
    DivClass,
    LatticeSignature,
    _dot,
    _row,
    anticanonical_class,
    basis_e,
    basis_f,
    basis_s,
    canonical_class,
    div,
    intersect,
    render_div,
)
from ncsurf.marking import (
    MarkingGroup,
    QComponent,
    SurfaceData,
    _effective_neg1_classes,
    _neg1_pairings,
    _surface_table,
    blow_up,
    cyclic_membership,
    element_order,
    is_root_effective,
    isomonodromy_count,
    moduli_stack_dim,
    ord_q,
    validate,
)
from ncsurf.presets import PRESETS, f0_generic, f0_commutative, f2_type, get_preset, m2_generic
from ncsurf.weyl import is_neg1_effective, is_neg1_irreducible

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_validate_presets_ok():
    assert validate(f0_generic()) == []
    assert validate(f2_type()) == []
    assert validate(m2_generic()) == []


def test_validate_violations():
    sig = LatticeSignature(0, "even")
    P = MarkingGroup(2)
    lam = ((0, 1), (0, 0))
    # components summing to -K + f
    S = SurfaceData(
        sig,
        (QComponent(div(sig, 2, 2), 1), QComponent(div(sig, 0, 1), 1)),
        P,
        (1, 0),
        lam,
    )
    assert any("anticanonical sum" in v for v in validate(S))
    # non-anticanonical component with fiber degree 2
    S = SurfaceData(
        sig,
        (QComponent(div(sig, 2, 0), 1), QComponent(div(sig, 0, 2), 1)),
        P,
        (1, 0),
        lam,
    )
    assert any("component fiber degree" in v for v in validate(S))


def test_cyclic_membership():
    P = MarkingGroup(1, (5,))
    assert cyclic_membership(P, (4, 2), (2, 1))[0] == 2
    assert cyclic_membership(P, (1, 0), (2, 1)) is None
    # q = 0: witness iff x = 0
    Z2 = MarkingGroup(2)
    assert cyclic_membership(Z2, (0, 0), (0, 0)) is not None
    assert cyclic_membership(Z2, (1, 0), (0, 0)) is None


def test_cyclic_membership_cache_is_bounded():
    # a sweep over more distinct queries than the cache holds: the cache
    # stays within its bound and every answer is the uncached one, on the
    # first call and when asked again
    info = cyclic_membership.cache_info()
    groups = (MarkingGroup(1, (5,)), MarkingGroup(2), MarkingGroup(0, (4, 6)))
    queries = [
        (P, x, q)
        for P in groups
        for x in ((a, b) for a in range(-4, 5) for b in range(-4, 5))
        for q in ((2, 1), (3, 0), (0, 2))
    ]
    assert len(queries) > info.maxsize
    cyclic_membership.cache_clear()
    for _ in range(2):
        for P, x, q in queries:
            assert cyclic_membership(P, x, q) == cyclic_membership.__wrapped__(P, x, q)
    info = cyclic_membership.cache_info()
    assert info.currsize == info.maxsize
    cyclic_membership.cache_clear()


def test_surface_keyed_caches_are_bounded():
    # is_root_effective and marking._surface_table are keyed by SurfaceData:
    # both have a bound, every answer is the uncached one, on the first call
    # and when asked again, and neither cache grows past its bound
    queries = []
    for name in ("f0_generic", "f2_type", "m1_generic", "m2_generic", "m3_generic", "m4_generic", "dp9_torsion"):
        S = get_preset(name)
        K = canonical_class(S.sig)
        for coeffs in itertools.product(range(-1, 2), repeat=S.sig.rank):
            alpha = DivClass(coeffs, S.sig)
            if intersect(alpha, alpha) == -2 and intersect(alpha, K) == 0:
                queries.append((S, alpha))
    assert len(queries) > 300
    for cached in (is_root_effective, _surface_table):
        assert cached.cache_info().maxsize is not None
        cached.cache_clear()
    for _ in range(2):
        for S, alpha in queries:
            assert is_root_effective(S, alpha) == marking._root_effective.__wrapped__(S, alpha.coeffs)
            assert _surface_table(S) == _surface_table.__wrapped__(S)
    for cached in (is_root_effective, _surface_table):
        info = cached.cache_info()
        assert info.hits > 0 and info.currsize <= info.maxsize


def test_public_oracle_and_walk_probes_share_one_cache():
    # is_root_effective keys the one cache by the root's coefficient tuple,
    # as the walks' probes do: the walk of e1 on m2_generic probes the
    # ineffective e1 - e2 once, and hits the public call's entry
    S = get_preset("m2_generic")
    e1, e2 = basis_e(S.sig, 1), basis_e(S.sig, 2)
    is_root_effective.cache_clear()
    assert is_root_effective(S, e1 - e2) == (False, None)
    info = is_root_effective.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    assert weyl.reduce_to_chamber(S, e1).word() == ["e1-e2"]
    info = marking._root_effective.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert is_root_effective.cache_info() == info
    is_root_effective.cache_clear()


def test_surface_keyed_caches_evict_and_stay_correct():
    # 1089 surfaces F0 with q = (a, b) and their two roots +-(s - f): more
    # (surface, root) pairs than is_root_effective holds and more surfaces
    # than _surface_table holds.  Asked twice in the same order, every key is
    # evicted before it is asked again; each answer still equals the uncached
    # one, and each cache stays full at its bound
    from ncsurf.presets import _f0

    surfaces = [_f0((a, b)) for a in range(-16, 17) for b in range(-16, 17)]
    queries = [(S, DivClass((k, -k), S.sig)) for S in surfaces for k in (1, -1)]
    assert len(queries) > is_root_effective.cache_info().maxsize
    assert len(surfaces) > _surface_table.cache_info().maxsize
    want = [(marking._root_effective.__wrapped__(S, alpha.coeffs), _surface_table.__wrapped__(S)) for S, alpha in queries]
    assert {w[0][0] for w in want} == {True, False}
    for cached in (is_root_effective, _surface_table):
        cached.cache_clear()
    misses = []
    for _ in range(2):
        for (S, alpha), w in zip(queries, want):
            assert (is_root_effective(S, alpha), _surface_table(S)) == w
        misses.append([cached.cache_info().misses for cached in (is_root_effective, _surface_table)])
    assert misses[1][0] - misses[0][0] >= len(queries)
    assert misses[1][1] - misses[0][1] >= len(surfaces)
    for cached in (is_root_effective, _surface_table):
        info = cached.cache_info()
        assert info.currsize == info.maxsize


def test_marking_group_add_checks_lengths():
    P = MarkingGroup(1, (3,))
    assert P.add((1, 2), (1, 2)) == (2, 1)
    # zip used to truncate silently: (1, 2, 5) + (1, 1) gave (2, 0)
    with pytest.raises(ValueError):
        P.add((1, 2, 5), (1, 1))
    with pytest.raises(ValueError):
        P.add((1, 2, 5), (1, 1, 1))
    with pytest.raises(ValueError):
        P.reduce((1.5, 0))


def test_element_order():
    P = MarkingGroup(1, (5,))
    assert element_order(P, (0, 2)) == 5
    assert element_order(P, (1, 0)) is None
    assert element_order(P, (0, 0)) == 1
    assert ord_q(f0_generic()) is None
    assert ord_q(f0_commutative()) == 1


def test_root_effective():
    # equal marked points make e1 - e2 effective with witness a = 0
    S = m2_generic()
    sig = S.sig
    alpha = basis_e(sig, 1) - basis_e(sig, 2)
    ok, wit = is_root_effective(S, alpha)
    assert not ok  # generic marking: distinct points
    lam = list(S.lam)
    lam[3] = lam[2]
    Seq = SurfaceData(sig, S.components, S.marking, S.q, tuple(lam))
    ok, wit = is_root_effective(Seq, alpha)
    assert ok and wit["a"] == 0
    # ruling root on the F2-type surface: lambda(s-f) = 3q
    S2 = f2_type()
    ok, wit = is_root_effective(S2, div(S2.sig, 1, -1))
    assert ok
    # generic F0: lambda(s-f) = (-3, 1) is not a multiple of q = (1, 0)
    S0 = f0_generic()
    ok, _ = is_root_effective(S0, div(S0.sig, 1, -1))
    assert not ok


def test_root_effective_component_permutation_invariance():
    S = m2_generic()
    sig = S.sig
    Sp = SurfaceData(S.sig, tuple(reversed(S.components)), S.marking, S.q, S.lam)
    for alpha in (
        basis_e(sig, 1) - basis_e(sig, 2),
        basis_f(sig) - basis_e(sig, 1) - basis_e(sig, 2),
        basis_s(sig) - basis_f(sig),
    ):
        assert is_root_effective(S, alpha)[0] == is_root_effective(Sp, alpha)[0]


def test_commutative_distinct_points_roots_ineffective():
    # q = 0 with pairwise-distinct lambda(e_i): e_i - e_j is never effective
    S = f0_commutative()
    S = blow_up(S, 0, [1], (3, 1))
    S = blow_up(S, 0, [1], (4, 1))
    sig = S.sig
    for i in range(1, 3):
        for j in range(1, 3):
            if i != j:
                assert not is_root_effective(S, basis_e(sig, i) - basis_e(sig, j))[0]


def test_neg1_classes():
    S = m2_generic()
    sig = S.sig
    assert is_neg1_effective(S, basis_e(sig, 2))
    assert is_neg1_irreducible(S, basis_e(sig, 2))
    assert is_neg1_effective(S, basis_f(sig) - basis_e(sig, 1))
    assert is_neg1_irreducible(S, basis_f(sig) - basis_e(sig, 1))
    # equal markings: e1 stays effective but decomposes as (e1-e2) + e2
    lam = list(S.lam)
    lam[3] = lam[2]
    Seq = SurfaceData(sig, S.components, S.marking, S.q, tuple(lam))
    assert is_neg1_effective(Seq, basis_e(sig, 1))
    assert not is_neg1_irreducible(Seq, basis_e(sig, 1))


@pytest.mark.parametrize("genera", [(0, 0), (1, 1), (2, 0), (0, 3)])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_effective_neg1_classes_are_the_walk_filtered_list(parity, genera):
    # the closed form against the blowdown walk, which stays the independent check
    for m in range(14):
        sig = LatticeSignature(m, parity, genera)
        es = [basis_e(sig, i) for i in range(1, m + 1)]
        want = es + [c for c in (basis_f(sig) - e for e in es) if weyl.in_neg1_orbit(sig, c)]
        assert list(_effective_neg1_classes(sig)) == want, sig


def test_root_search_reports_an_exhausted_budget(monkeypatch):
    # e1-e3 is a component of pvi_m12: the first pop subtracts it, and the
    # second, which would find the empty residue, is over the budget
    S = get_preset("pvi_m12")
    alpha = basis_e(S.sig, 1) - basis_e(S.sig, 3)
    assert marking._root_effective.__wrapped__(S, alpha.coeffs)[0]
    monkeypatch.setattr(marking, "_surface_table", lambda S: _surface_table(S)._replace(budget=1))
    with pytest.raises(BudgetExhausted) as info:
        marking._root_effective.__wrapped__(S, alpha.coeffs)
    report = info.value.report
    assert (report["search"], report["class"], report["steps"], report["budget"]) == ("root effectiveness search", "e1-e3", 1, 1)


def test_blow_up_bookkeeping():
    # F0 with irreducible Q, one smooth point: Q pulls back to 2s+2f-e1
    S = blow_up(f0_generic(), 0, [1], (3, 5))
    assert validate(S) == []
    assert len(S.components) == 1
    assert S.components[0].cls.coeffs == (2, 2, -1)
    assert S.components[0].mult == 1
    with pytest.raises(ValueError):
        blow_up(f0_generic(), 5, [1], (0, 0))


def test_blow_up_on_multiple_component():
    # g=1 differential surface, Q = 2s; blowing up on the double component
    # with local multiplicity 1 produces components {2 x (s-e1), 1 x e1}
    sig = LatticeSignature(0, "even", (1, 1))
    P = MarkingGroup(2)
    S = SurfaceData(
        sig,
        (QComponent(basis_s(sig), 2),),
        P,
        (1, 0),
        ((0, 1), (0, 0)),
    )
    assert validate(S) == []
    S1 = blow_up(S, 0, [1], (2, 3))
    assert validate(S1) == []
    cls_mults = sorted((c.cls.coeffs, c.mult) for c in S1.components)
    assert cls_mults == [((0, 0, 1), 1), ((1, 0, -1), 2)]


def test_isomonodromy_counts():
    sig1 = LatticeSignature(0, "even", (1, 1))
    P = MarkingGroup(2)
    lam = ((0, 1), (0, 0))
    S1 = SurfaceData(sig1, (QComponent(basis_s(sig1), 2),), P, (1, 0), lam)
    assert isomonodromy_count(S1) == 0
    sig2 = LatticeSignature(0, "even", (2, 2))
    S2 = SurfaceData(sig2, (QComponent(div(sig2, 1, -1), 2),), P, (1, 0), lam)
    assert isomonodromy_count(S2) == 3
    # blowing up a smooth point on the double component adds 1
    S2b = blow_up(S2, 0, [1], (5, 9))
    assert isomonodromy_count(S2b) == 4
    # a blowup on a multiplicity-1 component leaves the count unchanged
    S2bb = blow_up(S2b, 1, [0, 1], (6, 10))  # e1 component has mult 1
    assert isomonodromy_count(S2bb) == 4


def test_moduli_stack_dim():
    assert moduli_stack_dim(0, 5) == 8
    assert moduli_stack_dim(1, 0) == 1
    assert moduli_stack_dim(3, 2) == 6


def reference_root_search(S, alpha):
    """The root search as it was before its pairings with the always-effective
    -1-classes were read off the coefficients: checked intersections for the
    root test, and one Gram-row dot per -1-class and search state."""
    K = canonical_class(S.sig)
    if intersect(alpha, alpha) != -2 or intersect(alpha, K) != 0:
        raise ValueError("%s is not a root (need alpha^2 = -2 and alpha.K = 0)" % render_div(alpha))
    sig = S.sig
    T = _surface_table(S)
    neg1_rows = [(c, _row(sig, c.coeffs)) for c in _effective_neg1_classes(sig)]
    rowA, comp_rows, caps, ncap, budget = T.grading_row, T.comp_rows, T.caps, T.ncap, T.budget
    if _dot(rowA, alpha.coeffs) < 0:
        return False, None
    seen = {alpha.coeffs}
    queue = deque([(alpha.coeffs, (0,) * len(comp_rows), 0, ())])
    steps = 0
    while queue:
        beta, n, nsub, pieces = queue.popleft()
        steps += 1
        if steps > budget:
            raise BudgetExhausted("root effectiveness search", alpha, steps - 1, budget)
        degs = [_dot(row, beta) for _, row in comp_rows]
        if not any(beta):
            if any(n) or nsub:
                return True, {"components": n, "a": 0, "d": 1, "pieces": pieces}
        elif not any(degs):
            wit = cyclic_membership(S.marking, S._lam(beta), S.q)
            if wit is not None:
                out = pieces + (DivClass(beta, sig),) if pieces else ()
                return True, {"components": n, "a": wit[0], "d": wit[1], "pieces": out}
        for j, d in enumerate(degs):
            if d < 0 and n[j] < caps[j]:
                c = comp_rows[j][0]
                b2 = tuple([u - v for u, v in zip(beta, c.coeffs)])
                if b2 not in seen and _dot(rowA, b2) >= 0:
                    seen.add(b2)
                    n2 = n[:j] + (n[j] + 1,) + n[j + 1:]
                    queue.append((b2, n2, nsub, pieces + (c,)))
        if nsub < ncap:
            for c, row in neg1_rows:
                if _dot(row, beta) < 0:
                    b2 = tuple([u - v for u, v in zip(beta, c.coeffs)])
                    if b2 not in seen and _dot(rowA, b2) >= 0:
                        seen.add(b2)
                        queue.append((b2, n, nsub + 1, pieces + (c,)))
    return False, None


def benchmark_pass_roots(monkeypatch):
    """The (surface, root) pairs that one cone_sweep pass and one
    section_fuzz pass of the benchmark (seed 1) ask the root oracle."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    asked = []
    oracle = marking._root_effective

    def recorded(S, a):  # the tuple probe, behind is_root_effective and the walks
        asked.append((S, DivClass(a, S.sig)))
        return oracle(S, a)

    for mod in (marking, weyl, cones, sections):
        monkeypatch.setattr(mod, "_root_effective", recorded)
    for workload in ("cone_sweep", "section_fuzz"):
        queries = workloads.make_queries(workload, 1, workloads.load_reference(workload))
        for q, inp in zip(queries, workloads.build_inputs(ncsurf, queries)):
            try:
                workloads.answer(ncsurf, q, inp)
            except workloads.failure_types(ncsurf):
                pass  # the known failures of the pool; their roots still count
    monkeypatch.undo()
    return asked


def walk_roots(rng, words=40):
    """Roots along random words of walk-root reflections, on every preset
    with m >= 1 (pvi_m12 is the one whose search may use -1-classes)."""
    out = []
    for name in sorted(PRESETS):
        S = get_preset(name)
        table = weyl._pull_table(S.sig)
        if S.sig.m < 1 or not table.roots:
            continue
        for _ in range(words):
            P, word = list(table.base), []
            for _ in range(rng.randrange(1, 30)):
                k = rng.randrange(len(table.roots))
                weyl._step(table, P, [0] * len(P), word, k)
                out.append((S, DivClass(P[k], S.sig)))
    return out


def outcome(search, S, alpha):
    try:
        ok, wit = search(S, alpha)
    except (ValueError, BudgetExhausted) as e:
        return type(e).__name__, str(e)
    if wit is None:
        return ok, None
    return ok, (wit["a"], wit["d"], wit["components"], tuple(p.coeffs for p in wit["pieces"]))


def test_root_search_matches_the_reference_search(monkeypatch):
    pairs = list(dict.fromkeys(benchmark_pass_roots(monkeypatch) + walk_roots(random.Random(19))))
    if len({S for S, _ in pairs if _surface_table(S).ncap > 0}) == 0:
        pytest.fail("no asked surface lets the search use the -1-classes")
    wrong = []
    for S, alpha in pairs:
        got, want = outcome(lambda S, alpha: marking._root_effective.__wrapped__(S, alpha.coeffs), S, alpha), outcome(reference_root_search, S, alpha)
        if got != want:
            wrong.append((S.sig, render_div(alpha), got, want))
    if wrong:
        pytest.fail("%d of %d roots differ from the reference search, first %r" % (len(wrong), len(pairs), wrong[0]))
    if not any(o[0] is True for o in (outcome(reference_root_search, S, a) for S, a in pairs)):
        pytest.fail("no effective root among the %d asked" % len(pairs))


def test_root_search_runs_out_where_the_reference_search_does(monkeypatch):
    # the carried grades and degrees must not change the order of the search:
    # under small budgets on pvi_m12 both searches stop at the same step of
    # the same root, or give the same answer
    S = get_preset("pvi_m12")
    roots = list(dict.fromkeys(a for R, a in walk_roots(random.Random(19)) if R == S))
    exhausted, real = 0, marking._surface_table
    for budget in (1, 2, 3, 5):
        small = lambda S, budget=budget: real(S)._replace(budget=budget)
        monkeypatch.setattr(marking, "_surface_table", small)
        monkeypatch.setitem(globals(), "_surface_table", small)  # read by reference_root_search
        for alpha in roots:
            got = outcome(lambda S, alpha: marking._root_effective.__wrapped__(S, alpha.coeffs), S, alpha)
            want = outcome(reference_root_search, S, alpha)
            if got != want:
                pytest.fail("budget %d at %s: %r, the reference search %r" % (budget, render_div(alpha), got, want))
            exhausted += got[0] == "BudgetExhausted" and budget > 1
    if not exhausted:
        pytest.fail("no root ran out of a budget above 1 step")


@pytest.mark.parametrize("genera", [(0, 0), (1, 1), (2, 0), (0, 3)])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_closed_form_neg1_pairings_are_the_gram_row_dots(parity, genera):
    rng = random.Random("%s%s" % (parity, genera))
    for m in range(14):
        sig = LatticeSignature(m, parity, genera)
        rows = [_row(sig, c.coeffs) for c in _effective_neg1_classes(sig)]
        for _ in range(50):
            x = tuple(rng.randint(-9, 9) for _ in range(sig.rank))
            if _neg1_pairings(x) != [_dot(row, x) for row in rows]:
                pytest.fail("%r: closed-form pairings of %r differ from the Gram-row dots" % (sig, x))
