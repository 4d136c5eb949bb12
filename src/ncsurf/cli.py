"""Command-line front end: surface files, divisor expressions, and
subcommands over the whole library.

Each subcommand is one handler, registered on its parser as args.run.  A
handler takes the loaded surface (None for commands without --surface) and
the parsed arguments, and returns (answer, plain_lines) or (answer,
plain_lines, fields), where fields fills the witness or trace of the --json
object."""

import argparse
import json
import os
import re
import sys

from . import cones, lattice, marking, opcases, presets, sections, weyl
from .lattice import (
    DivClass,
    K0Class,
    LatticeSignature,
    canonical_class,
    chi_line_bundle,
    intersect,
    render_div,
)


class InputError(ValueError):
    pass


# ---------------------------------------------------------------- divisors

_TERM = re.compile(r"\s*([+-]?)\s*(\d+)?\s*\*?\s*(s|f|e\d+|0)\s*")


def parse_div(expr, sig):
    expr = expr.strip()
    if not expr:
        raise InputError("empty divisor expression")
    coeffs = [0] * sig.rank
    pos = 0
    first = True
    while pos < len(expr):
        mo = _TERM.match(expr, pos)
        if mo is None:
            raise InputError(
                "cannot parse divisor expression %r at position %d" % (expr, pos)
            )
        sign, mag, name = mo.groups()
        if not sign and not first:
            raise InputError("missing sign in divisor expression %r" % expr)
        k = int(mag) if mag else 1
        if sign == "-":
            k = -k
        if name == "0":
            if mag:
                raise InputError("bad term %r in divisor expression" % mo.group(0))
        elif name == "s":
            coeffs[0] += k
        elif name == "f":
            coeffs[1] += k
        else:
            i = int(name[1:])
            if not 1 <= i <= sig.m:
                raise InputError("e index %d out of range 1..%d" % (i, sig.m))
            coeffs[i + 1] += k
        pos = mo.end()
        first = False
    return DivClass(tuple(coeffs), sig)


# ---------------------------------------------------------------- surfaces


def _elt(tokens, P, where):
    """Parse a marking element 'a1 .. aR ; t1 .. tk'; where names its place
    in error messages."""
    text = " ".join(tokens)
    free_s, _, tors_s = text.partition(";")
    try:
        free = [int(x) for x in free_s.split()]
        tors = [int(x) for x in tors_s.split()]
    except ValueError:
        raise InputError("%s: bad marking element %r" % (where, text))
    if len(free) != P.free_rank or len(tors) != len(P.torsion):
        raise InputError(
            "%s: marking element %r needs %d free + %d torsion coordinates"
            % (where, text, P.free_rank, len(P.torsion))
        )
    return tuple(free + tors)


def parse_surface(text):
    keys = {}
    lam_lines = {}
    comp_lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError("line %d: expected 'key = value'" % lineno)
        key, val = (part.strip() for part in line.split("=", 1))
        if key == "component":
            comp_lines.append((lineno, val))
        elif key.startswith("lambda"):
            parts = key.split()
            if len(parts) != 2:
                raise InputError("line %d: expected 'lambda <basis> = ...'" % lineno)
            lam_lines[parts[1]] = (lineno, val)
        else:
            keys[key] = (lineno, val)
    for need in ("genus", "parity", "m", "marking", "q"):
        if need not in keys:
            raise InputError("missing key %s" % need)
    lineno, val = keys["genus"]
    try:
        g0, g1 = (int(x) for x in val.split())
    except ValueError:
        raise InputError("line %d: genus needs two integers" % lineno)
    lineno, parity = keys["parity"]
    if parity not in ("even", "odd"):
        raise InputError("line %d: parity must be even or odd" % lineno)
    lineno, val = keys["m"]
    try:
        m = int(val)
    except ValueError:
        raise InputError("line %d: m must be an integer" % lineno)
    sig = LatticeSignature(m, parity, (g0, g1))
    lineno, val = keys["marking"]
    toks = val.split()
    if not toks or toks[0] != "free":
        raise InputError("line %d: marking must start with 'free R'" % lineno)
    if len(toks) > 2 and toks[2] != "torsion":
        raise InputError("line %d: expected 'torsion n1 ...'" % lineno)
    try:
        free_rank = int(toks[1])
        torsion = tuple(int(x) for x in toks[3:])
    except (IndexError, ValueError):
        raise InputError("line %d: bad marking specification" % lineno)
    P = marking.MarkingGroup(free_rank, torsion)
    lineno, val = keys["q"]
    q = _elt(val.split(), P, "line %d" % lineno)
    lam = []
    for name in ["s", "f"] + ["e%d" % i for i in range(1, m + 1)]:
        if name not in lam_lines:
            raise InputError("missing key lambda %s" % name)
        lineno, val = lam_lines[name]
        lam.append(_elt(val.split(), P, "line %d" % lineno))
    comps = []
    for lineno, val in comp_lines:
        if "*" in val:
            cls_s, mult_s = val.split("*", 1)
            try:
                mult = int(mult_s)
            except ValueError:
                raise InputError("line %d: bad component multiplicity" % lineno)
        else:
            cls_s, mult = val, 1
        try:
            coeffs = tuple(int(x) for x in cls_s.split())
        except ValueError:
            raise InputError("line %d: component needs %d integers" % (lineno, sig.rank))
        if len(coeffs) != sig.rank:
            raise InputError("line %d: component needs %d integers" % (lineno, sig.rank))
        comps.append(marking.QComponent(DivClass(coeffs, sig), mult))
    S = marking.SurfaceData(sig, tuple(comps), P, q, tuple(lam))
    bad = marking.validate(S)
    if bad:
        raise InputError("; ".join(bad))
    return S


def _render_elt(P, x):
    free = " ".join(str(c) for c in x[: P.free_rank])
    tors = " ".join(str(c) for c in x[P.free_rank:])
    if P.torsion:
        return "%s ; %s" % (free, tors)
    return free


def render_surface(S):
    sig = S.sig
    P = S.marking
    lines = [
        "genus = %d %d" % sig.genera,
        "parity = %s" % sig.parity,
        "m = %d" % sig.m,
        "marking = free %d%s"
        % (
            P.free_rank,
            " torsion " + " ".join(str(n) for n in P.torsion) if P.torsion else "",
        ),
        "q = %s" % _render_elt(P, S.q),
    ]
    names = ["s", "f"] + ["e%d" % i for i in range(1, sig.m + 1)]
    for name, v in zip(names, S.lam):
        lines.append("lambda %s = %s" % (name, _render_elt(P, v)))
    for comp in S.components:
        lines.append(
            "component = %s * %d"
            % (" ".join(str(c) for c in comp.cls.coeffs), comp.mult)
        )
    return "\n".join(lines) + "\n"


def load_surface(spec):
    """Load from a file path, or fall back to a preset name (with or without
    a .ncs suffix)."""
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                return parse_surface(fh.read())
        except OSError as e:
            raise InputError("cannot read surface file %r: %s" % (spec, e.strerror))
    name = spec[:-4] if spec.endswith(".ncs") else spec
    try:
        return presets.get_preset(name)
    except KeyError:
        raise InputError(
            "surface %r is neither a readable file nor a preset name" % spec
        )


# ---------------------------------------------------------------- commands


def _bool(x):
    return "true" if x else "false"


def _trace_lines(tr):
    def move(mv):
        return "reflect " + render_div(mv.cls) if mv.kind == "reflect" else mv.kind

    return ["%s -> %s" % (move(mv), render_div(mv.after)) for mv in tr.moves]


def _validate(S, args):
    # load_surface already validated file input; presets are valid too
    return "ok", ["ok"]


def _intersect(S, args):
    v = intersect(parse_div(args.d1, S.sig), parse_div(args.d2, S.sig))
    return v, [str(v)]


def _chi(S, args):
    v = chi_line_bundle(parse_div(args.d, S.sig))
    return v, [str(v)]


def _canonical(S, args):
    v = render_div(canonical_class(S.sig))
    return v, [v]


def _effective(S, args):
    ok, cert = cones.effective_cert(S, parse_div(args.d, S.sig))
    if not ok or cert is None:
        return ok, [_bool(ok)]
    subtracted = [render_div(x) for x in cert.get("subtracted", [])]
    residue = render_div(cert["residue"])
    lines = ["true"]
    if args.trace:
        lines += ["subtract %s" % x for x in subtracted] + ["residue %s" % residue]
    return ok, lines, {"witness": {"subtracted": subtracted, "residue": residue}}


def _nef(S, args):
    ok, wit = cones.nef_witness(S, parse_div(args.d, S.sig))
    if ok:
        return ok, ["true"]
    wit = render_div(wit)
    return ok, ["false  witness=%s" % wit], {"witness": wit}


def _ample(S, args):
    ok = cones.is_ample(S, parse_div(args.d, S.sig))
    return ok, [_bool(ok)]


def _gamma(S, args):
    tr = [] if args.trace else None
    v = sections.dim_gamma(S, parse_div(args.d, S.sig), trace=tr)
    return v, [str(v)] + (tr or []), {"trace": tr}


def _hom(S, args):
    h = sections.hom_dims(S, parse_div(args.d1, S.sig), parse_div(args.d2, S.sig))
    return [h.h0, h.h1, h.h2], ["%d %d %d" % (h.h0, h.h1, h.h2)]


def _reduce(S, args):
    tr = weyl.reduce_to_chamber(S, parse_div(args.d, S.sig))
    end, moves = render_div(tr.end), _trace_lines(tr)
    fields, head = {"trace": moves}, end
    if tr.blocked:
        fields["witness"] = render_div(tr.blocking)
        head = "%s  blocked=%s" % (end, fields["witness"])
    return end, [head] + (moves if args.trace else []), fields


def _blowdown(S, args):
    tr = weyl.find_blowdown(S, parse_div(args.e, S.sig))
    moves = _trace_lines(tr)
    head = "%s  word=[%s]" % (tr.terminal, ", ".join(tr.word()))
    return tr.terminal, [head] + (moves if args.trace else []), {"trace": moves}


def _blowup(S, args):
    try:
        mults = [int(x) for x in args.mults.split(",")]
    except ValueError:
        raise InputError("--mults must be comma-separated integers")
    pos = _elt(args.pos.split(), S.marking, "--pos")
    text = render_surface(marking.blow_up(S, args.component, mults, pos))
    return text, [text.rstrip("\n")]


def _unused(args, cmd, *names):
    """Refuse the options among names (default None) that cmd does not read."""
    given = ["--" + n for n in names if getattr(args, n) is not None]
    if given:
        raise InputError("%s does not take %s" % (cmd, " ".join(given)))


def _k0(S, args):
    M = K0Class(args.rank, parse_div(args.c1, S.sig), args.chi)
    if args.op in ("theta", "ad"):
        _unused(args, "k0 " + args.op, "r", "kz", "chiz")
        R = (lattice.k0_serre_twist if args.op == "theta" else lattice.k0_adjoint)(M)
    elif args.kz is None:
        raise InputError("push/pull need --kz (center canonical class)")
    else:
        r, chiz = (1 if x is None else x for x in (args.r, args.chiz))
        R = lattice.k0_order_transfer(M, args.op, r, parse_div(args.kz, S.sig), chiz)
    c1 = render_div(R.c1)
    return {"rank": R.rank, "c1": c1, "chi": R.chi}, ["rank=%d c1=%s chi=%d" % (R.rank, c1, R.chi)]


def _isomonodromy(S, args):
    v = marking.isomonodromy_count(S)
    return v, [str(v)]


def _moduli(S, args):
    if args.kind == "hilb":
        _unused(args, "moduli hilb", "rank", "c1", "chi")
        if args.n is None:
            raise InputError("moduli hilb needs --n")
        v = sections.hilb_dim(args.n, S.sig.genera[0] if args.g is None else args.g)
        return v, [str(v)]
    _unused(args, "moduli " + args.kind, "n", "g")
    if args.c1 is None or args.chi is None or (args.kind == "leaf" and args.rank is None):
        raise InputError("moduli %s needs --rank/--c1/--chi" % args.kind)
    M = K0Class(1 if args.rank is None else args.rank, parse_div(args.c1, S.sig), args.chi)
    if args.kind == "rank1":
        bound, eq = sections.rank1_bound(S, M)
        return {"bound": bound, "equality": eq}, ["bound=%d equality=%s" % (bound, _bool(eq))]
    v = sections.leaf_dim_disjoint(S, M)
    return v, [str(v)]


def _generators(S, args):
    gens = cones.effective_generators(S, parse_div(args.ample, S.sig), args.bound)
    names = [render_div(x) for x in gens]
    return names, names


def _opcheck_run(S, args):
    try:
        opcases.check_args(args.case)
    except KeyError as e:
        raise InputError(e.args[0])
    if args.case not in opcases.SEEDED:
        _unused(args, "opcheck run " + args.case, "prime", "trials", "seed")
    given = {k: v for k, v in vars(args).items() if k in ("prime", "trials", "seed") and v is not None}
    rep = opcases.run_case(args.case, **given)
    details = rep.details if args.trace else None
    return rep.verdict, [rep.verdict] + (details or []), {"trace": details}


def _preset_list(S, args):
    names = sorted(presets.PRESETS)
    return names, names


def _preset_show(S, args):
    try:
        S = presets.get_preset(args.name)
    except KeyError as e:
        raise InputError(e.args[0])
    text = render_surface(S)
    return text, [text.rstrip("\n")]


def build_parser():
    ap = argparse.ArgumentParser(prog="ncsurf")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def cmd(name, run, *pos, into=sub, surface=True, as_json=True, trace=False):
        p = into.add_parser(name)
        for a in pos:
            p.add_argument(a)
        if surface:
            p.add_argument("--surface", default="f0_generic", help="surface file or preset name")
        if as_json:
            p.add_argument("--json", action="store_true")
        if trace:
            p.add_argument("--trace", action="store_true")
        p.set_defaults(run=run)
        return p

    cmd("validate", _validate)
    cmd("intersect", _intersect, "d1", "d2")
    cmd("chi", _chi, "d")
    cmd("canonical", _canonical)
    cmd("effective", _effective, "d", trace=True)
    cmd("nef", _nef, "d")
    cmd("ample", _ample, "d")
    cmd("gamma", _gamma, "d", trace=True)
    cmd("hom", _hom, "d1", "d2")
    cmd("reduce", _reduce, "d", trace=True)
    cmd("blowdown", _blowdown, "e", trace=True)
    p = cmd("blowup", _blowup)
    p.add_argument("--component", type=int, required=True)
    p.add_argument("--mults", required=True, help="comma-separated local multiplicities")
    p.add_argument("--pos", required=True, help="marking element 'a1 .. ; t1 ..'")
    p = cmd("k0", _k0)
    p.add_argument("op", choices=("theta", "ad", "push", "pull"))
    p.add_argument("rank", type=int)
    p.add_argument("c1")
    p.add_argument("chi", type=int)
    p.add_argument("--r", type=int, help="push/pull only (default 1)")
    p.add_argument("--kz", help="push/pull only")
    p.add_argument("--chiz", type=int, help="push/pull only (default 1)")
    cmd("isomonodromy", _isomonodromy)
    p = cmd("moduli", _moduli)
    p.add_argument("kind", choices=("hilb", "rank1", "leaf"))
    p.add_argument("--n", type=int)
    p.add_argument("--g", type=int)
    p.add_argument("--rank", type=int)
    p.add_argument("--c1")
    p.add_argument("--chi", type=int)
    p = cmd("generators", _generators)
    p.add_argument("--ample", required=True)
    p.add_argument("--bound", type=int, required=True)
    opsub = sub.add_parser("opcheck").add_subparsers(dest="opcmd", required=True)
    p = cmd("run", _opcheck_run, "case", into=opsub, surface=False, trace=True)
    p.add_argument("--prime", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    psub = sub.add_parser("preset").add_subparsers(dest="pcmd", required=True)
    cmd("list", _preset_list, into=psub, surface=False, as_json=False)
    cmd("show", _preset_show, "name", into=psub, surface=False, as_json=False)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    # ValueError covers InputError, BlowdownError, SignatureMismatch and every
    # library argument check; AssertionError covers InvariantViolation, and
    # RuntimeError covers UnclassifiedState and BudgetExhausted
    try:
        S = load_surface(args.surface) if "surface" in args else None
        answer, lines, *fields = args.run(S, args)
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as e:
        print("internal error: %s" % e, file=sys.stderr)
        return 3
    if getattr(args, "json", False):
        obj = {"answer": answer, "witness": None, "trace": None}
        obj.update(*fields)
        print(json.dumps(obj))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
