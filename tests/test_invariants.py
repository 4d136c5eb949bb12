"""Invariant checks that must survive python -O, and the structured report of
an exhausted step budget.

The invariant tests force a check to fail and expect the explicit
exception, so running this file under `python -O -m pytest` shows that no
check is an assert statement that -O strips."""

import ast
from pathlib import Path

import pytest

from ncsurf import cli, cones, marking, opcases, presets, sections, weyl
from ncsurf.lattice import (
    BudgetExhausted,
    InvariantViolation,
    basis_e,
    basis_f,
    div,
    zero_class,
)
from ncsurf.marking import MarkingGroup, cyclic_membership
from ncsurf.presets import m1_generic, m2_generic

SRC = Path(__file__).resolve().parent.parent / "src" / "ncsurf"


def test_no_assert_statements_in_the_library():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_invariant_violation_is_an_assertion_error():
    assert issubclass(InvariantViolation, AssertionError)
    assert issubclass(BudgetExhausted, RuntimeError)


def test_preset_validation_is_checked(monkeypatch):
    monkeypatch.setattr(presets, "validate", lambda S: ["synthetic violation"])
    with pytest.raises(InvariantViolation, match="synthetic violation"):
        presets.get_preset("f0_generic")


def test_cyclic_membership_witness_is_checked(monkeypatch):
    P = MarkingGroup(1, (7,))
    # (2, 3) is no multiple of (1, 1); a wrong solver answer must not pass
    monkeypatch.setattr(marking, "_multiples", lambda P, x, q: (1, 0))
    cyclic_membership.cache_clear()
    with pytest.raises(InvariantViolation):
        cyclic_membership(P, (2, 3), (1, 1))
    cyclic_membership.cache_clear()


def test_root_oracle_membership_witness_is_checked(monkeypatch):
    # the root oracle solves lambda(beta) = a*q on reduced tuples, past
    # cyclic_membership's cache; a wrong coset must still be refused.  On
    # dp9_torsion lambda(e1 - e2) = (-1, -3, 1) is no multiple of q = (1, 0, 0)
    S = presets.get_preset("dp9_torsion")
    alpha = basis_e(S.sig, 1) - basis_e(S.sig, 2)
    monkeypatch.setattr(marking, "_multiples", lambda P, x, q: (1, 0))
    marking.is_root_effective.cache_clear()
    cyclic_membership.cache_clear()
    try:
        with pytest.raises(InvariantViolation, match="cyclic membership witness"):
            marking.is_root_effective(S, alpha)
    finally:
        marking.is_root_effective.cache_clear()
        cyclic_membership.cache_clear()


def test_hom_dims_sign_checks(monkeypatch):
    S = m1_generic()
    monkeypatch.setattr(sections, "dim_gamma", lambda S, D: 1)
    with pytest.raises(InvariantViolation):
        sections.hom_dims(S, zero_class(S.sig), basis_f(S.sig))


def test_effective_certificate_sum_is_checked(monkeypatch):
    S = m1_generic()
    D = basis_e(S.sig, 1)  # effective: the loop subtracts e_1 itself
    ok, cert = cones.effective_cert(S, D)
    assert ok and cert["subtracted"]
    # a certificate whose sum lands off the input class must be refused
    monkeypatch.setattr(cones, "add", lambda a, b: a + b + 1)
    with pytest.raises(InvariantViolation):
        cones.effective_cert(S, D)


def test_grading_class_checks_are_explicit(monkeypatch):
    S = m2_generic()
    sig = S.sig
    table = weyl._pull_table(sig)
    neg_f = (-basis_f(sig)).coeffs  # a generator no grading class can dominate
    extra = table._replace(base=table.base[:table.f] + (neg_f,) + table.base[table.f:], f=table.f + 1)
    monkeypatch.setattr(weyl, "_pull_table", lambda s: extra)
    marking._surface_table.cache_clear()
    with pytest.raises(InvariantViolation, match="simple roots"):
        marking._surface_table(S)
    # a Q with a huge fiber coefficient: A is no nonnegative combination of
    # Q, f and the e_i
    huge = table._replace(q=(2, 10**6) + table.q[2:])
    monkeypatch.setattr(weyl, "_pull_table", lambda s: huge)
    with pytest.raises(InvariantViolation, match="decompose"):
        marking._surface_table(S)
    monkeypatch.undo()
    # a component -e_1, which validation would refuse: no grading class
    # pairs positively with it
    bad = marking.QComponent(-basis_e(sig, 1), 1)
    S = marking.SurfaceData(sig, S.components + (bad,), S.marking, S.q, S.lam)
    with pytest.raises(InvariantViolation, match="components"):
        marking._surface_table(S)


def test_negative_grade_past_the_nef_screen_is_checked(monkeypatch):
    # -2f + 5e_1 on m1_generic pairs 1 with Q and -1 with the grading class,
    # so only the screen's e_1 refutes it; with the screen emptied the loop
    # meets a screened class of negative grade, which the decomposition of
    # the grading class rules out
    S = m1_generic()
    D = div(S.sig, 0, -2, 5)
    assert cones.nef_witness(S, D) == (False, basis_e(S.sig, 1))
    monkeypatch.setattr(cones, "_surface_table", lambda S, real=marking._surface_table: real(S)._replace(screen=()))
    with pytest.raises(InvariantViolation, match="negative grade"):
        cones.nef_witness(S, D)


def test_nef_witness_search_reports_an_exhausted_bound(capsys, monkeypatch):
    # the CLI reports a spent budget with exit code 3: here the root search's,
    # asked at the ruling root s-f by the walk of a nef query
    monkeypatch.setattr(marking, "_surface_table", lambda S, real=marking._surface_table: real(S)._replace(budget=0))
    marking.is_root_effective.cache_clear()
    try:
        assert cli.main(["nef", "--surface", "m1_generic", "s-f"]) == 3
    finally:
        marking.is_root_effective.cache_clear()
    assert capsys.readouterr().err.startswith("internal error: root effectiveness search exceeded its step budget (0 of 0 steps) at s-f")


@pytest.mark.parametrize("loop", ["cone loop", "dim_gamma"])
def test_subtraction_below_grade_one_is_checked(monkeypatch, loop):
    # both loops lower the grade by each subtracted class's grade
    # (marking._drop), which is >= 1 for an effective class; with a zero
    # grading row the first subtraction breaks that (on s+f-2e1 the cone loop
    # subtracts f-e1, dim_gamma e2)
    S = m2_generic()
    D = div(S.sig, 1, 1, -2, 0)
    module, query = (cones, cones.is_effective) if loop == "cone loop" else (sections, sections.dim_gamma)
    zero = (0,) * S.sig.rank
    monkeypatch.setattr(module, "_surface_table", lambda S, real=marking._surface_table: real(S)._replace(grading_row=zero))
    with pytest.raises(InvariantViolation, match="subtracted class escaped the effective grading"):
        query(S, D)


def test_twisted_reflection_cap_reports_where_it_stopped(monkeypatch):
    # s - f on f2_type takes one twisted reflection at the effective root
    # s - f; with the cap at 0 that one is over it
    S = presets.get_preset("f2_type")
    D, trace = div(S.sig, 1, -1), []
    sections.dim_gamma(S, D, trace=trace)
    assert trace == ["reflect s-f (effective, twist 3)"]
    monkeypatch.setattr(sections, "TWIST_CAP", 0)
    with pytest.raises(BudgetExhausted) as info:
        sections.dim_gamma(S, D)
    report = {"search": "twisted reflections of dim_gamma", "class": "s-f", "steps": 0, "budget": 0}
    assert info.value.report == report


class _Corrupt(int):
    """A pivot whose products are off by one."""

    def __mul__(self, other):
        return int(self) * other + 1


def test_fraction_free_rank_checks_each_division():
    # the first pivot's products break Sylvester's identity, so the next step
    # divides by that pivot with a remainder
    rows = [{0: 1, 1: 2, 2: 3}, {0: 4, 1: 5, 2: 6}, {0: 7, 1: 8, 2: 10}]
    assert opcases._rank(rows) == 3
    rows[2][2] = _Corrupt(10)
    with pytest.raises(InvariantViolation, match="inexact division"):
        opcases._rank(rows)


def test_cli_maps_invariant_violation_to_exit_3(capsys, monkeypatch):
    def boom(*a, **k):
        raise InvariantViolation("synthetic")

    monkeypatch.setattr(cli.sections, "dim_gamma", boom)
    assert cli.main(["gamma", "--surface", "f0_generic", "s+f"]) == 3
    assert capsys.readouterr().err.startswith("internal error:")


def test_chamber_walk_overrun_breaks_its_bound(monkeypatch):
    # with the frame's pairings frozen, the walk reflects at one root
    # forever; past the proved bound (m(m - 1) = 2 reflections here, as the
    # frozen table's ruling flag is off) that is an invariant violation, not a
    # spent budget, and it says where the walk stopped
    S = m2_generic()
    sig = S.sig
    D = div(sig, 2, 2, -3, 0)
    assert len(weyl.reduce_to_chamber(S, D).moves) >= 2
    table = weyl._pull_table(sig)
    frozen = table._replace(moves=((),) * len(table.moves), ruling=False)
    monkeypatch.setattr(weyl, "_pull_table", lambda sig: frozen)
    with pytest.raises(InvariantViolation, match="chamber walk passed its bound of 2 reflections at ") as info:
        weyl.reduce_to_chamber(S, D)
    assert not str(info.value).endswith(" at 2s+2f-3e1")  # three reflections were made


