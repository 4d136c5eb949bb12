"""Workload definitions: seeded query lists, canonical answers and the
reference answers they are checked against.

The reasons for each workload, and which layer metric should move which
end-to-end metric on which workload, are in README.md next to this file.

A query is a plain tuple so that it can be generated, written into a
reference file and compared without importing the library:

- cone_sweep:    ("cone", preset, coeffs)
- section_fuzz:  ("gamma" | "hom", preset, coeffs)
- opcheck_suite: ("op", case, prime, trials, seed)
"""

import hashlib
import itertools
import json
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference"

WORKLOADS = ("cone_sweep", "section_fuzz", "opcheck_suite")

# ---------------------------------------------------------------- cone_sweep
# The [-4,4]^rank boxes of acceptance criterion 3 on the three blown-up
# quadrics.  Every box is tabulated in reference/cone_boxes.json with each
# class's answer and recorded cost bucket, so any seed can draw any class.
# m1's box is small (729 classes) and is run whole.  The others are drawn
# with replacement, stratified by cost bucket: each bucket gets the same
# number of draws in every list, its share of the box, so the seed changes
# which classes run but not the list's cost.
CONE_BOX = 4
CONE_DRAWS = {"m1_generic": 729, "m2_generic": 1600, "m3_generic": 3200}

# -------------------------------------------------------------- section_fuzz
# Classes in [-3,3]^rank from a recorded pool.  Per-query cost is heavy-
# tailed: on pvi_m12 the median class takes under a millisecond, the slowest
# seconds, and every failing class of the pool is among the slow ones.  A
# plain random draw would change a list's total cost from seed to seed by
# more than any regression bound.  So each preset's pool is sorted by
# recorded cost, failing classes apart, and cut into strata; a list takes
# one class from every stratum.  Slow classes (over SECTION_SEEDED_MS) form
# strata of SECTION_STRATUM and give their middle class, the same in every
# list: the slow tail, failures included, runs at the pool's rate.  Cheap
# classes form strata of SECTION_CHEAP_STRATUM and give a seeded pick; the
# smaller strata give a list four times the pool's share of cheap classes,
# which keeps the median query time from moving with the seed.
SECTION_BOX = 3
SECTION_PRESETS = ("dp9_torsion", "dp9_torsion_l3", "dp9_torsion_l5", "m4_generic", "pvi_m12")
SECTION_POOL_SEED = 20190726
SECTION_POOL_PER_PRESET = 480
SECTION_STRATUM = 20
SECTION_CHEAP_STRATUM = 5
SECTION_SEEDED_MS = 20.0
# Fixed queries every list carries:
SECTION_ANCHORS = (
    # the known UnclassifiedState: 3s+f+e2+2e3-e6-2e7-2e8+e9-e10-2e11-e12
    ("gamma", "pvi_m12", (3, 1, 0, 1, 2, 0, 0, -1, -2, -2, 1, -1, -2, -1)),
    # the one-second dim_gamma profile query: 2s+3f+3e1+2e2+2e3-3e4+e5+3e7+3e8
    ("gamma", "dp9_torsion", (2, 3, 3, 2, 2, -3, 1, 0, 3, 3)),
)

# ------------------------------------------------------------- opcheck_suite
# (case, prime, trials, queries per list).  Each query is one run_case call.
# The cases' own seeds are fixed (0, 1, ... per case): how long one call
# takes depends strongly on the random functions its seed draws, and the
# single p = 11 call is half of a pass.  The workload seed sets the order.
OPCHECK_PLAN = (
    ("frobenius_power", 3, 1, 12),
    ("frobenius_power", 5, 1, 12),
    ("frobenius_power", 7, 1, 4),
    ("frobenius_power", 11, 1, 1),
    ("middle_convolution", None, 1, 12),
    ("additive_product", 3, 1, 12),
    ("additive_product", 5, 1, 12),
    ("span4_qdiff", None, 4, 24),
    ("tau_invariance", 3, 1, 6),
    ("tau_invariance", 5, 1, 6),
)


def import_ncsurf():
    """Import the library from this checkout's src/ and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import ncsurf

    if Path(ncsurf.__file__).resolve().parent != SRC / "ncsurf":
        raise ImportError("ncsurf was imported from %s, not from %s" % (ncsurf.__file__, SRC))
    return ncsurf


def box_index(coeffs, box):
    """Position of coeffs in itertools.product(range(-box, box + 1), ...)."""
    width = 2 * box + 1
    idx = 0
    for c in coeffs:
        idx = idx * width + (c + box)
    return idx


def box_point(idx, rank, box):
    width = 2 * box + 1
    out = []
    for _ in range(rank):
        idx, r = divmod(idx, width)
        out.append(r - box)
    return tuple(reversed(out))


def box_points(rank, box):
    return itertools.product(range(-box, box + 1), repeat=rank)


def cost_bucket(seconds):
    """0 below 40 microseconds, one more per doubling, at most 9."""
    return min(9, max(0, int(math.log2(max(seconds, 1e-9) / 20e-6))))


def load_reference(workload):
    name = {
        "cone_sweep": "cone_boxes.json",
        "section_fuzz": "section_pool.json",
        "opcheck_suite": "opcheck.json",
    }[workload]
    with open(REFERENCE / name) as fh:
        ref = json.load(fh)
    if workload == "section_fuzz":
        ref["answers"] = dict(ref["anchors"])
        for name, entries in ref["pool"].items():
            for kind, coeffs, ans, _ in entries:
                ref["answers"][query_key((kind, name, coeffs))] = ans
    return ref


def make_queries(workload, seed, ref, smoke=False):
    """The fixed, seeded query list of one pass.  smoke keeps a small slice
    of it, with every preset or case and the section anchors."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "cone_sweep":
        out = []
        for name, draws in CONE_DRAWS.items():
            rank = ref["ranks"][name]
            buckets = ref["cost_buckets"][name]
            if draws >= len(buckets):
                idxs = list(range(len(buckets)))
                rng.shuffle(idxs)
            else:
                members = {}
                for i, b in enumerate(buckets):
                    members.setdefault(b, []).append(i)
                idxs = []
                done = 0
                for b in sorted(members):
                    # cumulative rounding: the counts add up to draws
                    share = round((done + len(members[b])) * draws / len(buckets)) - round(done * draws / len(buckets))
                    done += len(members[b])
                    idxs.extend(rng.choice(members[b]) for _ in range(share))
            if smoke:
                idxs = idxs[: max(1, len(idxs) // 25)]
            out.extend(("cone", name, box_point(i, rank, CONE_BOX)) for i in idxs)
        rng.shuffle(out)
        return out
    if workload == "section_fuzz":
        out = [tuple(q[:2]) + (tuple(q[2]),) for q in SECTION_ANCHORS]
        for name in SECTION_PRESETS:
            picks = [(kind, name, tuple(coeffs)) for kind, coeffs, _, _ in section_picks(ref["pool"][name], rng)]
            if smoke:
                picks = picks[-2:]
            out.extend(picks)
        rng.shuffle(out)
        return out
    if workload == "opcheck_suite":
        out = []
        for case, prime, trials, count in OPCHECK_PLAN:
            if smoke:
                count = 1 if prime != 11 else 0
            out.extend(("op", case, prime, trials, i) for i in range(count))
        rng.shuffle(out)
        return out
    raise KeyError(workload)


def section_picks(entries, rng):
    """One preset's share of a list, from its pool entries
    [kind, coeffs, answer, cost_ms]; see the comment at SECTION_STRATUM."""
    out = []
    for failing in (False, True):
        group = [e for e in entries if is_value(e[2]) != failing]
        # from the most expensive down, so a short last stratum is a cheap one
        slow = sorted((e for e in group if e[3] > SECTION_SEEDED_MS), key=lambda e: -e[3])
        cheap = sorted((e for e in group if e[3] <= SECTION_SEEDED_MS), key=lambda e: -e[3])
        for i in range(0, len(slow), SECTION_STRATUM):
            stratum = slow[i:i + SECTION_STRATUM]
            out.append(stratum[len(stratum) // 2])
        for i in range(0, len(cheap), SECTION_CHEAP_STRATUM):
            out.append(rng.choice(cheap[i:i + SECTION_CHEAP_STRATUM]))
    return out


def is_value(answer):
    return answer[:1].isdigit()


def query_key(q):
    if q[0] == "op":
        return "op %s p=%s trials=%d seed=%d" % q[1:]
    return "%s %s %s" % (q[0], q[1], ",".join(map(str, q[2])))


# Exceptions a query may end with; its answer is then the class name.
def failure_types(ncsurf):
    return (ncsurf.sections.UnclassifiedState, RuntimeError, AssertionError)


def build_inputs(ncsurf, queries):
    """Library objects for the queries: presets are built once each."""
    surfaces = {}
    inputs = []
    for q in queries:
        if q[0] == "op":
            inputs.append(None)
            continue
        name = q[1]
        if name not in surfaces:
            surfaces[name] = ncsurf.presets.get_preset(name)
        S = surfaces[name]
        inputs.append((S, ncsurf.lattice.DivClass(q[2], S.sig)))
    return inputs


def answer(ncsurf, q, inp):
    """Run one query; returns its canonical answer string."""
    kind = q[0]
    if kind == "cone":
        S, D = inp
        eff = ncsurf.cones.is_effective(S, D)
        nef = ncsurf.cones.is_nef(S, D)
        return "%d" % (2 * bool(eff) + bool(nef))
    if kind == "gamma":
        S, D = inp
        return "%d" % ncsurf.sections.dim_gamma(S, D)
    if kind == "hom":
        S, D = inp
        h = ncsurf.sections.hom_dims(S, ncsurf.lattice.zero_class(S.sig), D)
        return "%d,%d,%d" % (h.h0, h.h1, h.h2)
    if kind == "op":
        _, case, prime, trials, seed = q
        rep = ncsurf.opcases.run_case(case, prime=prime, trials=trials, seed=seed)
        return "%s/%d" % (rep.verdict, len(rep.details))
    raise KeyError(kind)


def expected_answer(workload, q, ref):
    if workload == "cone_sweep":
        return ref["answers"][q[1]][box_index(q[2], CONE_BOX)]
    if workload == "section_fuzz":
        return ref["answers"][query_key(q)]
    if workload == "opcheck_suite":
        # identities of the catalog hold for every random draw, so the
        # verdict and the number of checks depend only on case and trials
        return ref["answers"]["%s p=%s trials=%d" % q[1:4]]
    raise KeyError(workload)


def digest(queries, answers):
    h = hashlib.sha256()
    for q, a in zip(queries, answers):
        h.update(("%s=%s\n" % (query_key(q), a)).encode())
    return h.hexdigest()
