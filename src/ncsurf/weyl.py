"""Weyl-group machinery on blowdown structures: simple roots, reflections and
elementary transformations (on classes, and on surfaces through one
transport, _moved_surface), and one chamber walk, _chamber_walk, behind
reduce_to_chamber, find_blowdown, in_neg1_orbit, is_neg1_irreducible, the
cone loop and dim_gamma.  One cached table per signature, _pull_table, holds
the facts that depend only on the signature, the frame's Gram matrix among
them; a walk extends one frame in place, moves the pairings its caller
carries with it, and ends at the fiber cut D.f < 0.  A formal -1-class is in
e_m's orbit iff its walk ends at a terminal class.  Neither
reduce_to_chamber nor find_blowdown builds a surface: both ask the root
oracle on the input surface at the pulled-back root."""

from collections import namedtuple
from functools import lru_cache, partial
from operator import add, neg

from .lattice import (
    InvariantViolation,
    LatticeSignature,
    _Frozen,
    _Record,
    _axpy,
    _coeffs,
    _dot,
    _new,
    _pair,
    _row,
    basis_e,
    basis_f,
    basis_s,
    canonical_class,
    intersect,
    render_div,
)
from .marking import QComponent, _root_effective, _surface


class BlowdownError(ValueError):
    pass


class Move(_Frozen, fields=("kind", "cls", "after")):
    def __init__(self, kind, cls=None, after=None):
        # kind: 'reflect' or 'elementary_transformation'; cls: a reflection's root
        self._init(kind, cls, after)


class ReductionTrace(_Record, fields=("start", "moves", "end", "blocked", "blocking", "cut", "terminal")):
    def __init__(self, start, moves=None, end=None, blocked=False, blocking=None, cut=False, terminal=None):
        # cut: stopped because the class left the effective range
        self.start, self.moves, self.end = start, [] if moves is None else moves, end
        self.blocked, self.blocking, self.cut, self.terminal = blocked, blocking, cut, terminal

    def word(self):
        return [mv.kind if mv.kind != "reflect" else render_div(mv.cls) for mv in self.moves]


def simple_roots(sig):
    """(roots, extras): the simple roots in reduction order and the extra
    chamber-defining classes (e_m, and f-e_1 when m = 1)."""
    table = _pull_table(sig)
    return list(table.simple), list(table.terminal)


def _reflect(x, root):
    """Reflect the coefficient tuple x at a (root, Gram row) pair."""
    alpha, row = root
    t = _dot(row, x)
    return _axpy(x, t, alpha.coeffs) if t else x


def reflect(D, alpha):
    if intersect(alpha, alpha) != -2:
        raise ValueError("reflection root must have self-intersection -2")
    return D + intersect(D, alpha) * alpha


def reflect_surface(S, alpha):
    """The reflection at the root alpha as a change of blowdown structure."""
    sig = S.sig
    a = _coeffs(alpha, sig)
    if _pair(sig, a, a) != -2:
        raise ValueError("reflection root must have self-intersection -2")
    row = _row(sig, a)
    r = partial(_reflect, root=(alpha, row))  # an involution
    return _moved_surface(S, sig, r, r, [i for i, c in enumerate(row) if c])


def _moved_surface(S, sig2, fwd, back, changed):
    """S read in another blowdown structure, of signature sig2: the lattice
    isometry fwd moves the components, and lambda is precomposed with its
    inverse back.  back fixes the basis vectors outside the indices changed,
    so only their lambda is recomputed."""
    lam = list(S.lam)
    for i in changed:
        lam[i] = S._lam(back(tuple([int(j == i) for j in range(sig2.rank)])))
    comps = tuple(QComponent(_new(fwd(c.cls.coeffs), sig2), c.mult) for c in S.components)
    return _surface(sig2, comps, S.marking, S.q, tuple(lam))


def _et_coeffs(coeffs, parity_from):
    a, b, c1 = coeffs[0], coeffs[1], coeffs[2]
    rest = coeffs[3:]
    if parity_from == "even":
        return (a, a + b + c1, -a - c1) + rest
    return (a, b + c1, -a - c1) + rest


def _et_signature(sig):
    """The signature of opposite parity that an elementary transformation
    maps sig to."""
    if sig.m < 1:
        raise ValueError("elementary transformation needs m >= 1")
    return LatticeSignature(sig.m, "odd" if sig.parity == "even" else "even", sig.genera)


def elementary_transformation(D):
    """Parity-flipping basis change with e_1 -> f - e_1."""
    sig2 = _et_signature(D.sig)
    return _new(_et_coeffs(D.coeffs, D.sig.parity), sig2)


def et_surface(S):
    """The elementary transformation as a change of blowdown structure; it
    moves only s, f and e_1."""
    p, sig2 = S.sig.parity, _et_signature(S.sig)
    return _moved_surface(S, sig2, lambda x: _et_coeffs(x, p), lambda x: _et_coeffs(x, sig2.parity), range(3))


_PullTable = namedtuple("_PullTable", "sig roots base gram moves ruling extras f q q_row q_sq simple terminal")


@lru_cache(maxsize=None)
def _pull_table(sig):
    """The facts that depend only on the signature: simple_roots' two lists
    (simple, terminal) and the data of the walks, which run in the input
    surface's frame.  A reflection at an ineffective simple root changes the
    blowdown structure, not the surface, so a walk keeps its class fixed and
    moves the frame: P[j] = w(base[j]) for the word w walked so far.  base
    lists the walk roots (the K-fixing simple roots; roots pairs each with its
    Gram row), then the terminal classes and f, at the indices extras and f.
    Appending the reflection at walk root k adds c*P[k] to P[j] for each
    (j, c) in moves[k] (Bjorner-Brenti, ch. 4).  Each step is an isometry,
    so P[i].P[j] = gram[i][j], the Gram matrix of base, in every frame.
    ruling says whether the first walk root is the ruling root (it pairs
    with f).  q = -K, of square q_sq, is fixed by every walk root.  The -2
    check of the simple roots is paid here, once."""
    m = sig.m
    rational = sig.genera == (0, 0)
    f = basis_f(sig)
    roots = []
    if sig.parity == "even":
        if rational or m == 0:
            roots.append(basis_s(sig) - f)
    elif rational and m >= 1:
        roots.append(basis_s(sig) - basis_e(sig, 1))
    if m >= 2:
        roots.append(f - basis_e(sig, 1) - basis_e(sig, 2))
    roots += [basis_e(sig, i) - basis_e(sig, i + 1) for i in range(1, m)]
    extras = [basis_e(sig, m)] if m >= 1 else []
    if m == 1:
        extras.append(f - basis_e(sig, 1))
    K = canonical_class(sig)
    for alpha in roots:
        if _pair(sig, alpha.coeffs, alpha.coeffs) != -2:
            raise InvariantViolation("simple root %s is not a -2 class" % render_div(alpha))
    # an even m = 0 ruling class for g > 0 is no K-fixing root
    walk = tuple((a, _row(sig, a.coeffs)) for a in roots if intersect(a, K) == 0)
    base = tuple(a.coeffs for a, _ in walk) + tuple(x.coeffs for x in extras) + (f.coeffs,)
    moves = tuple(tuple((j, c) for j, v in enumerate(base) for c in (_dot(row, v),) if c) for _, row in walk)
    # _step relies on the simply-laced form: -2 at the root itself, 1 elsewhere
    if any(c != (-2 if j == k else 1) for k, mv in enumerate(moves) for j, c in mv):
        raise InvariantViolation("a pull-back move is not -2 at its root and 1 at a neighbour")
    n, fi, q = len(walk), len(walk) + len(extras), (-K).coeffs
    gram = tuple(tuple(_pair(sig, a, b) for b in base) for a in base)
    ruling = bool(n) and any(j == fi for j, _ in moves[0])
    return _PullTable(sig, walk, base, gram, moves, ruling, range(n, fi), fi, q, _row(sig, q), _pair(sig, q, q),
                      tuple(roots), tuple(extras))


def _step(table, P, v, word, k):
    """Append the reflection at walk root k to the frame (P, word) and the
    pairings v[j] = x.P[j], in place: P[k] is negated, its neighbours gain it."""
    beta, t = P[k], v[k]
    for j, c in table.moves[k]:
        P[j] = tuple(map(add, P[j], beta)) if c == 1 else tuple(map(neg, beta))
        v[j] += c * t
    word.append(k)


def _push(x, word, roots):
    """The input-frame tuple x in the current frame of the word."""
    for k in word:
        x = _reflect(x, roots[k])
    return x


def _chamber_walk(S, x, table, P, v, word):
    """The walk of reduce_to_chamber on the input-frame tuple x, extending
    the frame (P, word) and the caller's pairings v[j] = x.P[j] in place;
    the caller moves v with its own steps, by table.gram.  Returns (cut, k):
    whether the walk was cut because x.f < 0 (f is nef, so x is not
    effective), and the effective walk root that blocked it (or None).  With S None no root
    oracle is asked and no root blocks: the numeric walk of in_neg1_orbit.
    Only the ruling root (the first walk root, if it pairs with f) changes
    x.f, and a reflection at it lowers x.f; the other walk roots generate the
    finite Weyl group of type D_m, and a reflection at one pairing negatively
    removes one of its m(m - 1) positive roots from the inversion set
    (Bjorner-Brenti, ch. 4).  So a walk makes at most (x.f + 1) +
    (x.f + 2)*m(m - 1) reflections, or m(m - 1) without a ruling root;
    passing that bound breaks the theorem."""
    sig, n, fi = table.sig, len(table.roots), table.f
    dm, xf = sig.m * (sig.m - 1), max(v[fi], 0)
    bound = xf + 1 + (xf + 2) * dm if table.ruling else dm
    for _ in range(bound + 1):
        if v[fi] < 0:
            return True, None
        for k in range(n):  # the first walk root pairing negatively
            if v[k] < 0:
                break
        else:
            return False, None
        if S is not None and _root_effective(S, P[k])[0]:
            return False, k
        _step(table, P, v, word, k)
    at = render_div(_new(_push(x, word, table.roots), sig))
    raise InvariantViolation("chamber walk passed its bound of %d reflections at %s" % (bound, at))


def _walk_trace(S, sig, D):
    """The chamber walk of D on S (numeric with S None), its word replayed on
    D: the trace's end and blocking root are in the current frame.  Returns
    the trace and the blocking root in the input frame (P[k]), or None."""
    x = _coeffs(D, sig)
    table = _pull_table(sig)
    P, word, row = list(table.base), [], _row(sig, x)
    cut, k = _chamber_walk(S, x, table, P, [_dot(row, p) for p in P], word)
    blocking = None if k is None else table.roots[k][0]
    trace = ReductionTrace(start=D, cut=cut, blocked=k is not None, blocking=blocking)
    for j in word:
        root = table.roots[j]
        x = _reflect(x, root)
        trace.moves.append(Move("reflect", root[0], _new(x, sig)))
    trace.end = _new(x, sig)
    return trace, None if k is None else _new(P[k], sig)


def reduce_to_chamber(S, D):
    """Reflect D at ineffective simple roots, first violation first, until D
    pairs >= 0 with every simple root; stops blocked when an effective simple
    root pairs negatively.  The walk moves only a frame; the trace replays its
    word on D."""
    return _walk_trace(S, S.sig, D)[0]


def _decomposes_msg(e, alpha):
    other = reflect(e, alpha)
    mult = -intersect(e, alpha)
    head = "(%s)" % render_div(alpha) if mult == 1 else "%d(%s)" % (mult, render_div(alpha))
    return "class decomposes: %s = %s + %s" % (render_div(e), head, render_div(other))


def _blowdown(S, sig, e):
    """The chamber walk of the formal -1-class e, read as a blowdown: e is in
    the orbit of e_m iff the walk ends at a terminal class, as e_m lies in the
    closed chamber and an orbit meets it at most once (Bjorner-Brenti,
    ch. 4).  At m = 1 an end at f - e_1 takes one elementary transformation
    to e_1; on odd rational m = 0 surfaces the terminal is s, the plane's
    blowup.  A cut end pairs negatively with f, so it is no terminal.  A
    blocked walk's decomposition is written in the input frame, with the
    blocking root pulled back."""
    trace, pulled = _walk_trace(S, sig, e)
    end = trace.end
    if trace.blocked:
        raise BlowdownError(_decomposes_msg(e, pulled))
    if end in _pull_table(sig).terminal:
        trace.terminal = "e_m"
        if end != basis_e(sig, sig.m):
            trace.end = elementary_transformation(end)
            trace.moves.append(Move("elementary_transformation", None, trace.end))
    elif sig.m == 0 and sig.parity == "odd" and sig.genera == (0, 0) and end == basis_s(sig):
        trace.terminal = "plane"
    else:
        raise BlowdownError("not a formal -1-curve: its chamber walk ends at %s, no terminal class" % render_div(end))
    return trace


_NOT_NEG1 = "%s is not a formal -1-class (need e^2 = e.K = -1)"  # raised where _is_formal_neg1 fails


def _is_formal_neg1(sig, e):
    """The one formal -1-class test, of find_blowdown, in_neg1_orbit and _check_neg1."""
    return intersect(e, e) == -1 and intersect(e, canonical_class(sig)) == -1


def find_blowdown(S, e):
    """Change the blowdown structure by reflections at ineffective simple
    roots (the chamber walk of reduce_to_chamber) until e becomes e_m, or s
    on an odd rational m = 0 surface (the "plane" terminal); at m = 1 a
    final elementary transformation takes f - e_1 to e_1.  Raises
    BlowdownError with a decomposition witness when an effective simple root
    blocks the walk, and when the walk ends at no terminal class."""
    if not _is_formal_neg1(S.sig, e):
        raise ValueError(_NOT_NEG1 % render_div(e))
    return _blowdown(S, S.sig, e)


def in_neg1_orbit(sig, e):
    """Purely numeric test that e lies in the reflection-group orbit of e_m
    (or reaches the plane terminal): find_blowdown's walk with no root
    oracle."""
    if not _is_formal_neg1(sig, e):
        return False
    try:
        _blowdown(None, sig, e)
    except BlowdownError:
        return False
    return True


def _check_neg1(S, e):
    if not _is_formal_neg1(S.sig, e):
        raise ValueError(_NOT_NEG1 % render_div(e))
    if not in_neg1_orbit(S.sig, e):
        raise ValueError("%s is not in the reflection orbit of e_m" % render_div(e))


def is_neg1_effective(S, e):
    """A formal -1-class (checked to lie in the reflection orbit of e_m) is
    always effective."""
    _check_neg1(S, e)
    return True


def is_neg1_irreducible(S, e):
    """Whether the -1-class e (checked as in is_neg1_effective) is the class
    of an irreducible curve: True iff find_blowdown's walk, which asks the
    root oracle, is not blocked.  A reflection at an ineffective root changes
    the blowdown structure, not the surface, so a walk that reaches e_m (or
    f - e_1, or the plane terminal) shows e as the last exceptional curve of
    a blowdown of S.  A walk blocked at an effective root alpha gives
    e = k*alpha + s_alpha(e) with k = -e.alpha > 0 and s_alpha(e) in e_m's
    orbit, so effective; an irreducible curve of negative square is the only
    effective divisor in its class, so no irreducible curve has class e."""
    _check_neg1(S, e)
    try:
        _blowdown(S, S.sig, e)
    except BlowdownError:  # e is in e_m's orbit, so only a blocked walk raises
        return False
    return True
