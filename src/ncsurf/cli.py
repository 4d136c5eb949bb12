"""Command-line front end: surface files, divisor expressions, and
subcommands over the whole library."""

import argparse
import json
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


def _elt(tokens, P, lineno):
    """Parse a marking element 'a1 .. aR ; t1 .. tk'."""
    text = " ".join(tokens)
    if ";" in text:
        free_s, tors_s = text.split(";", 1)
        free = free_s.split()
        tors = tors_s.split()
    else:
        free, tors = text.split(), []
    try:
        free = [int(x) for x in free]
        tors = [int(x) for x in tors]
    except ValueError:
        raise InputError("line %d: bad marking element %r" % (lineno, text))
    if len(free) != P.free_rank or len(tors) != len(P.torsion):
        raise InputError(
            "line %d: marking element %r needs %d free + %d torsion coordinates"
            % (lineno, text, P.free_rank, len(P.torsion))
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
    try:
        free_rank = int(toks[1])
        if len(toks) > 2:
            if toks[2] != "torsion":
                raise InputError("line %d: expected 'torsion n1 ...'" % lineno)
            torsion = tuple(int(x) for x in toks[3:])
        else:
            torsion = ()
    except (IndexError, ValueError):
        raise InputError("line %d: bad marking specification" % lineno)
    P = marking.MarkingGroup(free_rank, torsion)
    lineno, val = keys["q"]
    q = _elt(val.split(), P, lineno)
    lam = []
    for name in ["s", "f"] + ["e%d" % i for i in range(1, m + 1)]:
        if name not in lam_lines:
            raise InputError("missing key lambda %s" % name)
        lineno, val = lam_lines[name]
        lam.append(_elt(val.split(), P, lineno))
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
    import os

    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return parse_surface(fh.read())
    name = spec[:-4] if spec.endswith(".ncs") else spec
    try:
        return presets.get_preset(name)
    except KeyError:
        raise InputError(
            "surface %r is neither a readable file nor a preset name" % spec
        )


# ---------------------------------------------------------------- output


class Out:
    def __init__(self, as_json):
        self.as_json = as_json
        self.answer = None
        self.witness = None
        self.trace = None
        self.p_fail = None
        self.lines = []

    def plain(self, text):
        self.lines.append(text)

    def emit(self):
        if self.as_json:
            print(
                json.dumps(
                    {
                        "answer": self.answer,
                        "witness": self.witness,
                        "trace": self.trace,
                        "p_fail": self.p_fail,
                    }
                )
            )
        else:
            for line in self.lines:
                print(line)


def _bool(x):
    return "true" if x else "false"


def _trace_lines(tr):
    out = []
    for mv in tr.moves:
        if mv.kind == "reflect":
            out.append("reflect %s -> %s" % (render_div(mv.cls), render_div(mv.after)))
        else:
            out.append("%s -> %s" % (mv.kind, render_div(mv.after)))
    return out


# ---------------------------------------------------------------- commands


def _add_common(p, surface=True):
    if surface:
        p.add_argument("--surface", default="f0_generic", help="surface file or preset name")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--seed", type=int, default=0)


def build_parser():
    ap = argparse.ArgumentParser(prog="ncsurf")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def cmd(name, *pos, surface=True):
        p = sub.add_parser(name)
        for a in pos:
            p.add_argument(a)
        _add_common(p, surface)
        return p

    cmd("validate")
    cmd("intersect", "d1", "d2")
    cmd("chi", "d")
    cmd("canonical")
    cmd("effective", "d")
    cmd("nef", "d")
    cmd("ample", "d")
    cmd("gamma", "d")
    cmd("hom", "d1", "d2")
    cmd("reduce", "d")
    cmd("blowdown", "e")
    p = cmd("blowup")
    p.add_argument("--component", type=int, required=True)
    p.add_argument("--mults", required=True, help="comma-separated local multiplicities")
    p.add_argument("--pos", required=True, help="marking element 'a1 .. ; t1 ..'")
    p = cmd("k0", "op")
    p.add_argument("rank", type=int)
    p.add_argument("c1")
    p.add_argument("chi", type=int)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--kz")
    p.add_argument("--chiz", type=int, default=1)
    cmd("isomonodromy")
    p = cmd("moduli", "kind")
    p.add_argument("--n", type=int)
    p.add_argument("--g", type=int)
    p.add_argument("--rank", type=int)
    p.add_argument("--c1")
    p.add_argument("--chi", type=int)
    p = cmd("generators")
    p.add_argument("--ample", required=True)
    p.add_argument("--bound", type=int, required=True)
    p = sub.add_parser("opcheck")
    opsub = p.add_subparsers(dest="opcmd", required=True)
    prun = opsub.add_parser("run")
    prun.add_argument("case")
    prun.add_argument("--prime", type=int)
    prun.add_argument("--trials", type=int, default=2)
    prun.add_argument("--symbolic", action="store_true")
    _add_common(prun, surface=False)
    p = sub.add_parser("preset")
    psub = p.add_subparsers(dest="pcmd", required=True)
    psub.add_parser("list")
    pshow = psub.add_parser("show")
    pshow.add_argument("name")
    return ap


def _run(args):
    out = Out(getattr(args, "json", False))
    cmd = args.cmd

    if cmd == "opcheck":
        try:
            opcases.check_args(args.case, args.prime, args.trials)
        except (KeyError, ValueError) as e:
            raise InputError(e.args[0])
        rep = opcases.run_case(
            args.case,
            prime=args.prime,
            trials=args.trials,
            seed=args.seed,
            symbolic=args.symbolic,
        )
        out.answer = rep.verdict
        out.p_fail = rep.p_fail_str
        out.trace = rep.details if args.trace else None
        out.plain(rep.summary())
        if args.trace:
            out.lines.extend(rep.details)
        out.emit()
        return 0

    if cmd == "preset":
        if args.pcmd == "list":
            names = sorted(presets.PRESETS)
            out.answer = names
            out.lines.extend(names)
        else:
            try:
                S = presets.get_preset(args.name)
            except KeyError as e:
                raise InputError(str(e))
            text = render_surface(S)
            out.answer = text
            out.plain(text.rstrip("\n"))
        out.emit()
        return 0

    S = load_surface(args.surface)
    sig = S.sig

    if cmd == "validate":
        # load_surface already validated file input; presets are valid too
        out.answer = "ok"
        out.plain("ok")
    elif cmd == "intersect":
        v = intersect(parse_div(args.d1, sig), parse_div(args.d2, sig))
        out.answer = v
        out.plain(str(v))
    elif cmd == "chi":
        try:
            v = chi_line_bundle(parse_div(args.d, sig))
        except ValueError as e:
            raise InputError(str(e))
        out.answer = v
        out.plain(str(v))
    elif cmd == "canonical":
        out.answer = render_div(canonical_class(sig))
        out.plain(out.answer)
    elif cmd == "effective":
        ok, cert = cones.effective_cert(S, parse_div(args.d, sig))
        out.answer = ok
        if ok and cert is not None:
            out.witness = {
                "subtracted": [render_div(x) for x in cert.get("subtracted", [])],
                "residue": render_div(cert["residue"]),
            }
        out.plain(_bool(ok))
        if args.trace and ok and cert is not None:
            for x in cert.get("subtracted", []):
                out.plain("subtract %s" % render_div(x))
            out.plain("residue %s" % render_div(cert["residue"]))
    elif cmd == "nef":
        ok, wit = cones.nef_witness(S, parse_div(args.d, sig))
        out.answer = ok
        if ok:
            out.plain("true")
        else:
            out.witness = render_div(wit)
            out.plain("false  witness=%s" % render_div(wit))
    elif cmd == "ample":
        ok = cones.is_ample(S, parse_div(args.d, sig))
        out.answer = ok
        out.plain(_bool(ok))
    elif cmd == "gamma":
        tr = [] if args.trace else None
        v = sections.dim_gamma(S, parse_div(args.d, sig), trace=tr)
        out.answer = v
        out.trace = tr
        out.plain(str(v))
        if tr:
            out.lines.extend(tr)
    elif cmd == "hom":
        h = sections.hom_dims(S, parse_div(args.d1, sig), parse_div(args.d2, sig))
        out.answer = [h.h0, h.h1, h.h2]
        out.plain("%d %d %d" % (h.h0, h.h1, h.h2))
    elif cmd == "reduce":
        tr = weyl.reduce_to_chamber(S, parse_div(args.d, sig))
        out.answer = render_div(tr.end)
        out.trace = _trace_lines(tr)
        if tr.blocked:
            out.witness = render_div(tr.blocking)
            out.plain(
                "%s  blocked=%s" % (render_div(tr.end), render_div(tr.blocking))
            )
        else:
            out.plain(render_div(tr.end))
        if args.trace:
            out.lines.extend(_trace_lines(tr))
    elif cmd == "blowdown":
        try:
            tr = weyl.find_blowdown(S, parse_div(args.e, sig))
        except weyl.BlowdownError as e:
            raise InputError(str(e))
        out.answer = tr.terminal
        out.trace = _trace_lines(tr)
        out.plain("%s  word=[%s]" % (tr.terminal, ", ".join(tr.word())))
        if args.trace:
            out.lines.extend(_trace_lines(tr))
    elif cmd == "blowup":
        try:
            mults = [int(x) for x in args.mults.split(",")]
        except ValueError:
            raise InputError("--mults must be comma-separated integers")
        pos = _elt(args.pos.split(), S.marking, 0)
        try:
            S2 = marking.blow_up(S, args.component, mults, pos)
        except ValueError as e:
            raise InputError(str(e))
        text = render_surface(S2)
        out.answer = text
        out.plain(text.rstrip("\n"))
    elif cmd == "k0":
        M = K0Class(args.rank, parse_div(args.c1, sig), args.chi)
        if args.op == "theta":
            R = lattice.k0_serre_twist(M)
        elif args.op == "ad":
            R = lattice.k0_adjoint(M)
        elif args.op in ("push", "pull"):
            if args.kz is None:
                raise InputError("push/pull need --kz (center canonical class)")
            try:
                R = lattice.k0_order_transfer(
                    M, args.op, args.r, parse_div(args.kz, sig), args.chiz
                )
            except ValueError as e:
                raise InputError(str(e))
        else:
            raise InputError("unknown k0 operation %r" % args.op)
        out.answer = {"rank": R.rank, "c1": render_div(R.c1), "chi": R.chi}
        out.plain("rank=%d c1=%s chi=%d" % (R.rank, render_div(R.c1), R.chi))
    elif cmd == "isomonodromy":
        v = marking.isomonodromy_count(S)
        out.answer = v
        out.plain(str(v))
    elif cmd == "moduli":
        if args.kind == "hilb":
            if args.n is None:
                raise InputError("moduli hilb needs --n")
            g = args.g if args.g is not None else sig.genera[0]
            v = sections.hilb_dim(args.n, g)
            out.answer = v
            out.plain(str(v))
        elif args.kind == "rank1":
            if args.c1 is None or args.chi is None:
                raise InputError("moduli rank1 needs --rank/--c1/--chi")
            M = K0Class(args.rank if args.rank is not None else 1, parse_div(args.c1, sig), args.chi)
            try:
                bound, eq = sections.rank1_bound(S, M)
            except ValueError as e:
                raise InputError(str(e))
            out.answer = {"bound": bound, "equality": eq}
            out.plain("bound=%d equality=%s" % (bound, _bool(eq)))
        elif args.kind == "leaf":
            if args.rank is None or args.c1 is None or args.chi is None:
                raise InputError("moduli leaf needs --rank/--c1/--chi")
            M = K0Class(args.rank, parse_div(args.c1, sig), args.chi)
            try:
                v = sections.leaf_dim_disjoint(S, M)
            except ValueError as e:
                raise InputError(str(e))
            out.answer = v
            out.plain(str(v))
        else:
            raise InputError("unknown moduli kind %r" % args.kind)
    elif cmd == "generators":
        try:
            gens = cones.effective_generators(
                S, parse_div(args.ample, sig), args.bound
            )
        except ValueError as e:
            raise InputError(str(e))
        out.answer = [render_div(x) for x in gens]
        out.lines.extend(render_div(x) for x in gens)
    else:  # pragma: no cover
        raise InputError("unknown command %r" % cmd)
    out.emit()
    return 0


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return _run(args)
    except InputError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (sections.UnclassifiedState, AssertionError, RuntimeError) as e:
        print("internal error: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
