import json

import pytest

from ncsurf import cli
from ncsurf.lattice import render_div
from ncsurf.presets import PRESETS, get_preset
from ncsurf.sections import UnclassifiedState


def run(capsys, *argv):
    rc = cli.main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_gamma_golden(capsys):
    rc, out, _ = run(capsys, "gamma", "--surface", "f0_generic", "s+f")
    assert rc == 0 and out == "4\n"


def test_nef_witness_golden(capsys):
    rc, out, _ = run(capsys, "nef", "--surface", "m1_generic", "e1")
    assert rc == 0 and out == "false  witness=e1\n"
    rc, out, _ = run(capsys, "nef", "--surface", "f0_generic", "s+f")
    assert rc == 0 and out == "true\n"


def test_opcheck_golden(capsys):
    rc, out, _ = run(
        capsys,
        "opcheck", "run", "frobenius_power",
        "--prime", "5", "--trials", "4", "--seed", "7",
    )
    assert rc == 0 and out == "equal  p_fail<2^-40\n"


def test_opcheck_zero_trials_reports_one_p_fail(capsys):
    # with no evaluation run the failure probability is 1, and the plain
    # summary must say the same as the JSON field
    rc, plain, _ = run(capsys, "opcheck", "run", "weyl", "--trials", "0")
    assert rc == 0
    rc, out, _ = run(capsys, "opcheck", "run", "weyl", "--trials", "0", "--json")
    p_fail = json.loads(out)["p_fail"]
    assert rc == 0 and p_fail == "1"
    assert plain == "equal  p_fail=%s\n" % p_fail


def test_canonical_golden(capsys):
    rc, out, _ = run(capsys, "canonical", "--surface", "f0_generic")
    assert rc == 0 and out == "-2s-2f\n"


def test_json_output_single_line(capsys):
    rc, out, _ = run(capsys, "gamma", "--surface", "f0_generic", "s+f", "--json")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert set(obj) == {"answer", "witness", "trace", "p_fail"}
    assert obj["answer"] == 4
    rc, out, _ = run(capsys, "nef", "--surface", "m1_generic", "e1", "--json")
    obj = json.loads(out)
    assert obj["answer"] is False and obj["witness"] == "e1"
    rc, out, _ = run(
        capsys, "opcheck", "run", "weyl", "--json", "--trials", "3"
    )
    obj = json.loads(out)
    assert obj["answer"] == "equal" and obj["p_fail"] == "<2^-40"


def test_parse_div():
    sig = get_preset("m2_generic").sig
    D = cli.parse_div("2s+3f-e1-e2", sig)
    assert D.coeffs == (2, 3, -1, -1)
    # render/parse round trip
    assert cli.parse_div(render_div(D), sig) == D
    assert cli.parse_div("0", sig).coeffs == (0, 0, 0, 0)
    assert cli.parse_div("-f", sig).coeffs == (0, -1, 0, 0)
    assert cli.parse_div("2*s + f", sig).coeffs == (2, 1, 0, 0)
    for bad in ("", "s+", "x", "e3", "s f", "2 0"):
        with pytest.raises(cli.InputError):
            cli.parse_div(bad, sig)


def test_leading_minus_divisor_arg(capsys):
    # argparse needs "--" before a divisor expression starting with "-"
    rc, out, _ = run(capsys, "gamma", "--surface", "f0_generic", "--", "-f")
    assert rc == 0 and out == "0\n"


def test_surface_file_round_trip():
    for name in PRESETS:
        S = get_preset(name)
        assert cli.parse_surface(cli.render_surface(S)) == S


def test_surface_file_from_disk(tmp_path, capsys):
    path = tmp_path / "surf.ncs"
    path.write_text(cli.render_surface(get_preset("m1_generic")))
    rc, out, _ = run(capsys, "gamma", "--surface", str(path), "s+f-e1")
    assert rc == 0 and out == "3\n"


def test_parse_surface_errors():
    good = cli.render_surface(get_preset("f0_generic"))
    lines = good.splitlines()
    no_q = "\n".join(x for x in lines if not x.startswith("q ="))
    with pytest.raises(cli.InputError, match="missing key q"):
        cli.parse_surface(no_q)
    # component sum must equal the anticanonical class
    bad_comp = good.replace("* 1", "* 2")
    with pytest.raises(cli.InputError):
        cli.parse_surface(bad_comp)
    with pytest.raises(cli.InputError, match="line 1"):
        cli.parse_surface("not a key value line")


def test_exit_code_2_input_errors(capsys, tmp_path):
    rc, _, err = run(capsys, "gamma", "--surface", "no_such_preset", "s+f")
    assert rc == 2 and err.startswith("error:")
    rc, _, err = run(capsys, "gamma", "--surface", "f0_generic", "s+junk")
    assert rc == 2 and err.startswith("error:")
    path = tmp_path / "broken.ncs"
    path.write_text("genus = 0 0\n")
    rc, _, err = run(capsys, "gamma", "--surface", str(path), "s+f")
    assert rc == 2 and "missing key" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("weyl", "--trials", "-1"),
        ("weyl", "--prime", "0"),
        ("frobenius_power", "--prime", "1"),
        ("frobenius_power", "--prime", "4"),
        ("tau_invariance", "--prime", "9"),
        ("additive_product", "--prime", "4"),
        ("no_such_case",),
    ],
)
def test_opcheck_bad_arguments_exit_2(capsys, argv):
    rc, out, err = run(capsys, "opcheck", "run", *argv)
    assert rc == 2 and out == "" and err.startswith("error:")


def test_exit_code_3_internal_error(capsys, monkeypatch):
    def boom(*a, **k):
        raise UnclassifiedState({"state": "synthetic"})

    monkeypatch.setattr(cli.sections, "dim_gamma", boom)
    rc, _, err = run(capsys, "gamma", "--surface", "f0_generic", "s+f")
    assert rc == 3 and err.startswith("internal error:")


def test_preset_subcommands(capsys):
    rc, out, _ = run(capsys, "preset", "list")
    assert rc == 0
    names = out.split()
    assert "f0_generic" in names and "pvi_m12" in names
    rc, out, _ = run(capsys, "preset", "show", "dp9_torsion")
    assert rc == 0
    assert cli.parse_surface(out) == get_preset("dp9_torsion")
    rc, _, err = run(capsys, "preset", "show", "nope")
    assert rc == 2


def test_misc_commands(capsys):
    rc, out, _ = run(capsys, "intersect", "--surface", "f0_generic", "s", "f")
    assert rc == 0 and out == "1\n"
    rc, out, _ = run(capsys, "chi", "--surface", "f0_generic", "s+f")
    assert rc == 0 and out == "4\n"
    rc, out, _ = run(capsys, "hom", "--surface", "f0_generic", "0", "f")
    assert rc == 0 and out == "2 0 0\n"
    rc, out, _ = run(capsys, "validate", "--surface", "pvi_m12")
    assert rc == 0 and out == "ok\n"
    rc, out, _ = run(capsys, "isomonodromy", "--surface", "pvi_m12")
    assert rc == 0
    rc, out, _ = run(capsys, "effective", "--surface", "f0_generic", "s+f")
    assert rc == 0 and out == "true\n"
    rc, out, _ = run(capsys, "ample", "--surface", "f0_generic", "s+f")
    assert rc == 0 and out == "true\n"


def test_reduce_trace(capsys):
    rc, out, _ = run(
        capsys, "reduce", "--surface", "m2_generic", "s+f-2e1", "--trace"
    )
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) >= 1  # final class first, then one move per line
