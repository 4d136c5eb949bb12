import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ncsurf import cli, opcases
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
    assert rc == 0 and out == "equal\n"


def test_opcheck_plain_and_json_agree(capsys):
    # span4_qdiff decides its ranks exactly: the plain summary is the verdict,
    # and the JSON object carries the same verdict and detail lines
    rc, plain, _ = run(capsys, "opcheck", "run", "span4_qdiff", "--trace")
    assert rc == 0
    rc, out, _ = run(capsys, "opcheck", "run", "span4_qdiff", "--trace", "--json")
    obj = json.loads(out)
    assert rc == 0 and set(obj) == {"answer", "witness", "trace"}
    assert plain.splitlines() == [obj["answer"]] + obj["trace"]
    assert obj["answer"] == "equal" and len(obj["trace"]) == 4


def test_canonical_golden(capsys):
    rc, out, _ = run(capsys, "canonical", "--surface", "f0_generic")
    assert rc == 0 and out == "-2s-2f\n"


def test_json_output_single_line(capsys):
    rc, out, _ = run(capsys, "gamma", "--surface", "f0_generic", "s+f", "--json")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert set(obj) == {"answer", "witness", "trace"}
    assert obj["answer"] == 4
    rc, out, _ = run(capsys, "nef", "--surface", "m1_generic", "e1", "--json")
    obj = json.loads(out)
    assert obj["answer"] is False and obj["witness"] == "e1"
    rc, out, _ = run(capsys, "opcheck", "run", "weyl", "--json")
    assert json.loads(out) == {"answer": "equal", "witness": None, "trace": None}


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
        ("frobenius_power", "--trials", "-1"),
        ("tau_invariance", "--prime", "0"),
        # a case that reads neither prime, trials nor seed refuses them
        ("span4_qdiff", "--seed", "1"),
        ("lowering_degree", "--prime", "5"),
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


# ---------------------------------------------------------------- golden table
#
# Every subcommand in plain and --json form, with --trace where a command
# reads it.  A dict stands for the --json line: the fields it leaves out are
# null.  reduce and blowdown fill trace even without --trace, and effective
# puts its certificate in witness.

QUASI_RULED = """genus = 1 1
parity = even
m = 0
marking = free 2
q = 1 0
lambda s = 0 1
lambda f = 0 0
component = 2 0 * 1
"""

F0 = """genus = 0 0
parity = even
m = 0
marking = free 2
q = 1 0
lambda s = 0 1
lambda f = 0 0
component = 2 2 * 1
"""

# f0_generic in the accepted forms its rendering does not use (blank and
# comment-only lines, a trailing comment, a component without '* mult'),
# then files with one defect each
SURFACE_FILES = {
    "commented.ncs": "# f0_generic\n\n" + F0.replace("q = 1 0", "q = 1 0  # generic").replace(" * 1", ""),
    "bad_element.ncs": F0.replace("q = 1 0", "q = 1 x"),
    "lambda_no_basis.ncs": F0.replace("lambda f =", "lambda ="),
    "bad_genus.ncs": F0.replace("genus = 0 0", "genus = 0"),
    "bad_parity.ncs": F0.replace("parity = even", "parity = neither"),
    "bad_m.ncs": F0.replace("m = 0", "m = zero"),
    "bad_marking.ncs": F0.replace("marking = free 2", "marking = fixed 2"),
    "no_free_rank.ncs": F0.replace("marking = free 2", "marking = free"),
    "bad_torsion_keyword.ncs": F0.replace("marking = free 2", "marking = free 2 tors 3"),
    "bad_torsion.ncs": F0.replace("marking = free 2", "marking = free 2 torsion x"),
    "no_lambda.ncs": F0.replace("lambda f = 0 0\n", ""),
    "bad_mult.ncs": F0.replace("* 1", "* one"),
    "short_component.ncs": F0.replace("2 2 * 1", "2 * 1"),
    "bad_component.ncs": F0.replace("2 2 * 1", "2 x * 1"),
    # m2_generic with lambda(e2) = lambda(e1): the root e1-e2 is effective
    "m2_equal.ncs": cli.render_surface(get_preset("m2_generic")).replace("lambda e2 = 11 13", "lambda e2 = 5 7"),
}

GOLDEN = [
    ('validate --surface pvi_m12', 'ok\n'),
    ('validate --surface pvi_m12 --json', {"answer": "ok"}),
    ('intersect --surface f0_generic s f', '1\n'),
    ('intersect --surface f0_generic s f --json', {"answer": 1}),
    ('chi --surface f0_generic s+f', '4\n'),
    ('chi --surface f0_generic s+f --json', {"answer": 4}),
    ('canonical --surface m2_generic', '-2s-2f+e1+e2\n'),
    ('canonical --surface m2_generic --json', {"answer": "-2s-2f+e1+e2"}),
    ('effective --surface m2_generic s+f-2e1', 'true\n'),
    ('effective --surface m2_generic s+f-2e1 --json', {"answer": True, "witness": {"subtracted": ["f-e1", "s-e1"], "residue": "0"}}),
    ('effective --surface m2_generic s+f-2e1 --trace', 'true\nsubtract f-e1\nsubtract s-e1\nresidue 0\n'),
    ('effective --surface m2_generic s+f-2e1 --trace --json', {"answer": True, "witness": {"subtracted": ["f-e1", "s-e1"], "residue": "0"}}),
    ('effective --surface m2_generic s-e1-e2', 'false\n'),
    ('effective --surface m2_generic s-e1-e2 --json', {"answer": False}),
    ('effective --surface m2_generic s-e1-e2 --trace', 'false\n'),
    ('effective --surface m2_generic s-e1-e2 --trace --json', {"answer": False}),
    ('nef --surface m2_generic s+f-e1', 'true\n'),
    ('nef --surface m2_generic s+f-e1 --json', {"answer": True}),
    ('nef --surface m2_generic s-e1', 'false  witness=s-e1\n'),
    ('nef --surface m2_generic s-e1 --json', {"answer": False, "witness": "s-e1"}),
    ('ample --surface m1_generic 2s+2f-e1', 'true\n'),
    ('ample --surface m1_generic 2s+2f-e1 --json', {"answer": True}),
    ('ample --surface m1_generic s+f', 'false\n'),
    ('ample --surface m1_generic s+f --json', {"answer": False}),
    ('gamma s+f', '4\n'),
    ('gamma s+f --json', {"answer": 4}),
    ('gamma --surface m2_generic s+f-2e1', '1\n'),
    ('gamma --surface m2_generic s+f-2e1 --json', {"answer": 1}),
    ('gamma --surface m2_generic s+f-2e1 --trace', '1\nreflect f-e1-e2\nreflect s-f\nsubtract e2\nreflect f-e1-e2\nsubtract e2\n'),
    ('gamma --surface m2_generic s+f-2e1 --trace --json', {"answer": 1, "trace": ["reflect f-e1-e2", "reflect s-f", "subtract e2", "reflect f-e1-e2", "subtract e2"]}),
    ('hom --surface m2_generic 0 s+f-e1', '3 0 0\n'),
    ('hom --surface m2_generic 0 s+f-e1 --json', {"answer": [3, 0, 0]}),
    ('reduce --surface f2_type s', 's  blocked=s-f\n'),
    ('reduce --surface f2_type s --json', {"answer": "s", "witness": "s-f", "trace": []}),
    ('reduce --surface f2_type s --trace', 's  blocked=s-f\n'),
    ('reduce --surface f2_type s --trace --json', {"answer": "s", "witness": "s-f", "trace": []}),
    ('reduce --surface m2_generic s+f-2e1', 'f-e1+e2\n'),
    ('reduce --surface m2_generic s+f-2e1 --json', {"answer": "f-e1+e2", "trace": ["reflect f-e1-e2 -> s-e1+e2", "reflect s-f -> f-e1+e2"]}),
    ('reduce --surface m2_generic s+f-2e1 --trace', 'f-e1+e2\nreflect f-e1-e2 -> s-e1+e2\nreflect s-f -> f-e1+e2\n'),
    ('reduce --surface m2_generic s+f-2e1 --trace --json', {"answer": "f-e1+e2", "trace": ["reflect f-e1-e2 -> s-e1+e2", "reflect s-f -> f-e1+e2"]}),
    ('blowdown --surface m2_generic e1', 'e_m  word=[e1-e2]\n'),
    ('blowdown --surface m2_generic e1 --json', {"answer": "e_m", "trace": ["reflect e1-e2 -> e2"]}),
    ('blowdown --surface m3_generic s-e1', 'e_m  word=[s-f, f-e1-e2, e2-e3]\n'),
    ('blowdown --surface m3_generic s-e1 --json', {"answer": "e_m", "trace": ["reflect s-f -> f-e1", "reflect f-e1-e2 -> e2", "reflect e2-e3 -> e3"]}),
    ('blowdown --surface m3_generic s-e1 --trace', 'e_m  word=[s-f, f-e1-e2, e2-e3]\nreflect s-f -> f-e1\nreflect f-e1-e2 -> e2\nreflect e2-e3 -> e3\n'),
    ('blowdown --surface m3_generic s-e1 --trace --json', {"answer": "e_m", "trace": ["reflect s-f -> f-e1", "reflect f-e1-e2 -> e2", "reflect e2-e3 -> e3"]}),
    ("blowup --surface f0_generic --component 0 --mults 1 --pos '3 5'", 'genus = 0 0\nparity = even\nm = 1\nmarking = free 2\nq = 1 0\nlambda s = 0 1\nlambda f = 0 0\nlambda e1 = 3 5\ncomponent = 2 2 -1 * 1\n'),
    ("blowup --surface f0_generic --component 0 --mults 1 --pos '3 5' --json", {"answer": "genus = 0 0\nparity = even\nm = 1\nmarking = free 2\nq = 1 0\nlambda s = 0 1\nlambda f = 0 0\nlambda e1 = 3 5\ncomponent = 2 2 -1 * 1\n"}),
    ('k0 theta --surface m2_generic 1 s 0', 'rank=1 c1=-s-2f+e1+e2 chi=-2\n'),
    ('k0 theta --surface m2_generic 1 s 0 --json', {"answer": {"rank": 1, "c1": "-s-2f+e1+e2", "chi": -2}}),
    ('k0 ad --surface m2_generic 1 s 0', 'rank=1 c1=-3s-2f+e1+e2 chi=0\n'),
    ('k0 ad --surface m2_generic 1 s 0 --json', {"answer": {"rank": 1, "c1": "-3s-2f+e1+e2", "chi": 0}}),
    ('k0 push --surface m2_generic 0 s 1 --kz=-2s-2f+e1+e2 --r 2', 'rank=0 c1=2s chi=1\n'),
    ('k0 push --surface m2_generic 0 s 1 --kz=-2s-2f+e1+e2 --r 2 --json', {"answer": {"rank": 0, "c1": "2s", "chi": 1}}),
    ('k0 pull --surface m2_generic 0 2s 1 --kz=-2s-2f+e1+e2 --r 2', 'rank=0 c1=4s chi=0\n'),
    ('k0 pull --surface m2_generic 0 2s 1 --kz=-2s-2f+e1+e2 --r 2 --json', {"answer": {"rank": 0, "c1": "4s", "chi": 0}}),
    ('isomonodromy --surface pvi_m12', '1\n'),
    ('isomonodromy --surface pvi_m12 --json', {"answer": 1}),
    ('moduli hilb --n 3', '6\n'),
    ('moduli hilb --n 3 --json', {"answer": 6}),
    ('moduli hilb --n 3 --g 2', '8\n'),
    ('moduli hilb --n 3 --g 2 --json', {"answer": 8}),
    ('moduli rank1 --surface m2_generic --c1 s+f --chi 4', 'bound=1 equality=true\n'),
    ('moduli rank1 --surface m2_generic --c1 s+f --chi 4 --json', {"answer": {"bound": 1, "equality": True}}),
    ('moduli rank1 --surface m2_generic --c1 s+f --chi 3', 'bound=1 equality=false\n'),
    ('moduli rank1 --surface m2_generic --c1 s+f --chi 3 --json', {"answer": {"bound": 1, "equality": False}}),
    ('moduli leaf --surface dp9_torsion --rank 0 --c1 0 --chi 1', '2\n'),
    ('moduli leaf --surface dp9_torsion --rank 0 --c1 0 --chi 1 --json', {"answer": 2}),
    ('generators --surface f0_generic --ample s+f --bound 2', '2s+2f\ns\nf\n'),
    ('generators --surface f0_generic --ample s+f --bound 2 --json', {"answer": ["2s+2f", "s", "f"]}),
    ('opcheck run weyl', 'equal\n'),
    ('opcheck run weyl --json', {"answer": "equal"}),
    ('opcheck run weyl --trace', 'equal\n[D,z] = 1: equal\n[z,-D] = 1: equal\n'),
    ('opcheck run weyl --trace --json', {"answer": "equal", "trace": ["[D,z] = 1: equal", "[z,-D] = 1: equal"]}),
    ('opcheck run frobenius_power --prime 5 --trials 4 --seed 7', 'equal\n'),
    ('opcheck run frobenius_power --prime 5 --trials 4 --seed 7 --json', {"answer": "equal"}),
    ('opcheck run span4_qdiff --trace', 'equal\ndim span A = 4: equal\ndim span B = 4: equal\nspan B in span A: equal\nspan A in span B: equal\n'),
    ('gamma --surface f0_generic -- -f', '0\n'),
    ('gamma --surface f0_generic --json -- -f', {"answer": 0}),
    ('preset list', 'dp9_torsion\ndp9_torsion_l3\ndp9_torsion_l5\nf0_commutative\nf0_generic\nf2_type\nm1_generic\nm2_generic\nm3_generic\nm4_generic\npvi_m12\n'),
    ('preset show f2_type', 'genus = 0 0\nparity = even\nm = 0\nmarking = free 1\nq = 1\nlambda s = 3\nlambda f = 0\ncomponent = 2 2 * 1\n'),
    ('validate --surface quasi_ruled.ncs', 'ok\n'),
    ('intersect --surface quasi_ruled.ncs s s', '0\n'),
    ('gamma --surface commented.ncs s+f', '4\n'),
]

# (command line, start of the last stderr line); exit code 2, empty stdout
INPUT_ERRORS = [
    ('gamma --surface no_such_preset s+f', "error: surface 'no_such_preset' is neither a readable file nor a preset name"),
    ('gamma --surface f0_generic s+junk', "error: cannot parse divisor expression 's+junk' at position 1"),
    ('gamma --surface f0_generic -f', 'ncsurf gamma: error: the following arguments are required: d'),
    ('k0 push --surface m2_generic 0 s 1', 'error: push/pull need --kz (center canonical class)'),
    ('k0 theta --surface m2_generic 1 s+e9 0', 'error: e index 9 out of range 1..2'),
    ('moduli hilb', 'error: moduli hilb needs --n'),
    ('moduli rank1 --c1 s', 'error: moduli rank1 needs --rank/--c1/--chi'),
    ('moduli rank1 --surface m2_generic --rank 2 --c1 s --chi 1', 'error: rank-1 classes only'),
    ('moduli leaf --rank 1', 'error: moduli leaf needs --rank/--c1/--chi'),
    ('moduli leaf --surface dp9_torsion --rank 0 --c1 s --chi 1', 'error: c1 must have degree 0 on every component of Q'),
    ('generators --surface f0_generic --ample s --bound 2', 'error: reference class s is not ample'),
    ("blowup --surface f0_generic --component 0 --mults x --pos '3 5'", 'error: --mults must be comma-separated integers'),
    ("blowup --surface f0_generic --component 3 --mults 1 --pos '3 5'", 'error: component index 3 out of range'),
    ('opcheck run no_such_case', "error: unknown case 'no_such_case' (have: "),
    ('opcheck run weyl --trials -1', 'error: opcheck run weyl does not take --trials'),
    # only frobenius_power, tau_invariance and additive_product read
    # --prime, --trials and --seed, and trials must be positive
    ('opcheck run weyl --trials 0', 'error: opcheck run weyl does not take --trials'),
    ('opcheck run weyl --trials 0 --json', 'error: opcheck run weyl does not take --trials'),
    ('opcheck run weyl --trials 3', 'error: opcheck run weyl does not take --trials'),
    ('opcheck run span4_qdiff --prime 5 --trials 100 --seed 3', 'error: opcheck run span4_qdiff does not take --prime --trials --seed'),
    ('opcheck run frobenius_power --trials 0', 'error: trials must be a positive integer, not 0'),
    # a library ValueError is an input error, not a traceback with exit 1
    ('blowdown --surface m1_generic s', 'error: s is not a formal -1-class (need e^2 = e.K = -1)'),
    # a blocked walk names the class given, with the blocking root pulled back
    ('blowdown --surface m2_equal.ncs f-e2', 'error: class decomposes: f-e2 = (e1-e2) + f-e1'),
    ('moduli hilb --n -1', 'error: n must be >= 0'),
    ('moduli hilb --n 1 --g -5', 'error: g must be >= 0'),
    # a --surface path that exists but cannot be read as a file
    ('gamma --surface . s+f', "error: cannot read surface file '.': Is a directory"),
    ('gamma --surface quasi_ruled.ncs s+f', 'error: section dimensions are computed for rational surfaces only'),
    ('hom --surface quasi_ruled.ncs 0 f', 'error: section dimensions are computed for rational surfaces only'),
    # a KeyError's message without its quotes; --pos named as the place
    ('preset show nope', "error: unknown preset 'nope' (have: "),
    ('blowup --surface f0_generic --component 0 --mults 1 --pos 1', "error: --pos: marking element '1' needs 2 free + 0 torsion coordinates"),
    # argparse refuses an unknown k0 operation or moduli kind
    ('k0 bogus 1 s 0', "ncsurf k0: error: argument op: invalid choice: 'bogus'"),
    ('moduli bogus', "ncsurf moduli: error: argument kind: invalid choice: 'bogus'"),
    # --seed and --trace exist only where a handler reads them
    ('gamma s+f --seed 3', 'ncsurf: error: unrecognized arguments: --seed 3'),
    ('intersect s f --trace', 'ncsurf: error: unrecognized arguments: --trace'),
    ('nef --surface m1_generic e1 --trace', 'ncsurf: error: unrecognized arguments: --trace'),
    ('hom 0 f --trace', 'ncsurf: error: unrecognized arguments: --trace'),
    ('validate --seed 1', 'ncsurf: error: unrecognized arguments: --seed 1'),
    ('moduli hilb --n 2 --trace', 'ncsurf: error: unrecognized arguments: --trace'),
    ('opcheck run weyl --symbolic', 'ncsurf: error: unrecognized arguments: --symbolic'),
    # an option that the chosen k0 operation or moduli kind does not read
    ('moduli hilb --n 3 --c1 junk --rank 7', 'error: moduli hilb does not take --rank --c1'),
    ('k0 theta 1 s 0 --kz junk --r 0 --surface m2_generic', 'error: k0 theta does not take --r --kz'),
    # surface files, one defect each (SURFACE_FILES)
    ('validate --surface bad_element.ncs', "error: line 5: bad marking element '1 x'"),
    ('validate --surface lambda_no_basis.ncs', "error: line 7: expected 'lambda <basis> = ...'"),
    ('validate --surface bad_genus.ncs', 'error: line 1: genus needs two integers'),
    ('validate --surface bad_parity.ncs', 'error: line 2: parity must be even or odd'),
    ('validate --surface bad_m.ncs', 'error: line 3: m must be an integer'),
    ('validate --surface bad_marking.ncs', "error: line 4: marking must start with 'free R'"),
    ('validate --surface no_free_rank.ncs', 'error: line 4: bad marking specification'),
    ('validate --surface bad_torsion_keyword.ncs', "error: line 4: expected 'torsion n1 ...'"),
    ('validate --surface bad_torsion.ncs', 'error: line 4: bad marking specification'),
    ('validate --surface no_lambda.ncs', 'error: missing key lambda f'),
    ('validate --surface bad_mult.ncs', 'error: line 8: bad component multiplicity'),
    ('validate --surface short_component.ncs', 'error: line 8: component needs 2 integers'),
    ('validate --surface bad_component.ncs', 'error: line 8: component needs 2 integers'),
]


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    (tmp_path / "quasi_ruled.ncs").write_text(QUASI_RULED)
    for name, text in SURFACE_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("cmdline,want", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_golden(capsys, in_tmp, cmdline, want):
    rc, out, err = run(capsys, *shlex.split(cmdline))
    if isinstance(want, dict):
        fields = dict.fromkeys(("answer", "witness", "trace"))
        fields.update(want)
        want = json.dumps(fields) + "\n"
    assert (rc, out, err) == (0, want, "")


@pytest.mark.parametrize(
    "cmdline,message", INPUT_ERRORS, ids=[row[0] for row in INPUT_ERRORS]
)
def test_input_error(capsys, in_tmp, cmdline, message):
    rc, out, err = run(capsys, *shlex.split(cmdline))
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1].startswith(message)


def test_readme_cli_examples(capsys):
    """Each '$ ncsurf ...' line of the README's CLI block prints the lines
    shown under it, up to a '...' line."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```\n(.*?)```", readme, re.S).group(1)
    examples = re.findall(r"^\$ ncsurf (.*)\n((?:(?!\$ ).*\n)*)", block, re.M)
    assert len(examples) >= 4
    for cmdline, shown in examples:
        shown = shown.splitlines()
        if "..." in shown:
            shown = shown[: shown.index("...")]
        rc, out, _ = run(capsys, *shlex.split(cmdline))
        assert rc == 0, cmdline
        assert out.splitlines()[: len(shown)] == shown, cmdline


def _fresh_python(code):
    """The stdout of code, run in a fresh interpreter on this checkout's src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout


def test_lattice_path_does_not_import_sympy():
    code = ("import sys, ncsurf\n"
            "S = ncsurf.presets.get_preset('m2_generic')\n"
            "ncsurf.sections.dim_gamma(S, ncsurf.lattice.div(S.sig, 1, 1, -1, 0))\n"
            "print('sympy' in sys.modules)")
    assert _fresh_python(code).strip() == "False"


def test_import_and_queries_load_no_dataclasses_inspect_or_sympy():
    # the record types are plain classes, so a cold start pays for none of these
    code = ("import sys, ncsurf\n"
            "S = ncsurf.presets.get_preset('m3_generic')\n"
            "D = ncsurf.lattice.div(S.sig, 1, 1, -1, 0, 0)\n"
            "print(ncsurf.sections.dim_gamma(S, D), ncsurf.cones.is_effective(S, D),\n"
            "      ncsurf.opcases.run_case('frobenius_power', prime=3, trials=1, seed=1).verdict)\n"
            "print(sorted(m for m in ('dataclasses', 'inspect', 'sympy') if m in sys.modules))")
    lines = _fresh_python(code).splitlines()
    assert lines == ["3 True equal", "[]"]


# (case, prime): every catalog case runs on native polynomials and ints
NATIVE_CASES = [("frobenius_power", 3), ("frobenius_power", 11)] + [(case, None) for case in opcases.CASES]


def test_native_cases_and_cli_do_not_import_sympy():
    # the benchmark's catalog cases and a CLI query each leave sympy
    # unimported, so no query pays its import
    code = ("import sys\n"
            "from ncsurf import cli, opcases\n"
            "for case, prime in %r:\n"
            "    rep = opcases.run_case(case, prime=prime, trials=2, seed=1)\n"
            "    print(case, rep.verdict, 'sympy' in sys.modules)\n"
            "cli.main(['gamma', '--surface', 'm3_generic', 's+f-e1'])\n"
            "print('gamma', 'sympy' in sys.modules)\n" % (NATIVE_CASES,))
    lines = _fresh_python(code).splitlines()
    assert lines[:len(NATIVE_CASES)] == ["%s equal False" % case for case, _ in NATIVE_CASES]
    assert lines[-1] == "gamma False"
