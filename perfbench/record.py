"""Regenerate the reference answers in perfbench/reference/ from the library
in this checkout.

    python3 perfbench/record.py [cone_sweep|section_fuzz|opcheck_suite ...]

Run it only when a change is meant to alter answers, and say so in the
change: every benchmark run checks its answers against these files.
"""

import json
import random
import sys
import time

import workloads as W


def _write(name, data):
    W.REFERENCE.mkdir(exist_ok=True)
    with open(W.REFERENCE / name, "w") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")


def _run(ncsurf, q, inp=None):
    """(answer, seconds) of one query, failures answered by class name."""
    if inp is None:
        inp = W.build_inputs(ncsurf, [q])[0]
    t0 = time.perf_counter()
    try:
        ans = W.answer(ncsurf, q, inp)
    except W.failure_types(ncsurf) as exc:
        ans = type(exc).__name__
    return ans, time.perf_counter() - t0


def record_cone(ncsurf):
    answers = {}
    buckets = {}
    ranks = {}
    for name in W.CONE_DRAWS:
        S = ncsurf.presets.get_preset(name)
        ranks[name] = S.sig.rank
        runs = [
            _run(ncsurf, ("cone", name, c), (S, ncsurf.lattice.DivClass(c, S.sig)))
            for c in W.box_points(S.sig.rank, W.CONE_BOX)
        ]
        answers[name] = "".join(ans for ans, _ in runs)
        buckets[name] = "".join(str(W.cost_bucket(dt)) for _, dt in runs)
        print("cone_sweep %s: %d classes" % (name, len(runs)), file=sys.stderr)
    _write("cone_boxes.json", {"box": W.CONE_BOX, "ranks": ranks, "answers": answers, "cost_buckets": buckets})


def record_section(ncsurf):
    rng = random.Random(W.SECTION_POOL_SEED)
    pool = {}
    for name in W.SECTION_PRESETS:
        S = ncsurf.presets.get_preset(name)
        entries = []
        for _ in range(W.SECTION_POOL_PER_PRESET):
            coeffs = tuple(rng.randint(-W.SECTION_BOX, W.SECTION_BOX) for _ in range(S.sig.rank))
            kind = rng.choice(("gamma", "hom"))
            q = (kind, name, coeffs)
            ans, dt = _run(ncsurf, q, (S, ncsurf.lattice.DivClass(coeffs, S.sig)))
            entries.append([kind, list(coeffs), ans, round(dt * 1e3, 3)])
        pool[name] = entries
        print("section_fuzz %s: %d classes, %.1f s" % (name, len(entries), sum(e[3] for e in entries) / 1e3), file=sys.stderr)
    anchors = {}
    for q in W.SECTION_ANCHORS:
        anchors[W.query_key(q)] = _run(ncsurf, q)[0]
    _write("section_pool.json", {"box": W.SECTION_BOX, "pool": pool, "anchors": anchors})


def record_opcheck(ncsurf):
    answers = {}
    for case, prime, trials, _ in W.OPCHECK_PLAN:
        ans = _run(ncsurf, ("op", case, prime, trials, 0))[0]
        answers["%s p=%s trials=%d" % (case, prime, trials)] = ans
    _write("opcheck.json", {"answers": answers})


def main(argv):
    ncsurf = W.import_ncsurf()
    jobs = {"cone_sweep": record_cone, "section_fuzz": record_section, "opcheck_suite": record_opcheck}
    for name in argv or W.WORKLOADS:
        jobs[name](ncsurf)


if __name__ == "__main__":
    main(sys.argv[1:])
