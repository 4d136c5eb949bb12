"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE SMOKE [SPANS_PATH]

Times the import of ncsurf and the building of the presets and inputs, runs
the seeded query list once as a closed loop with one client, and prints one
JSON object with the latencies, answers digest and (traced) layer counters.
Every time is given as measured and at the reference speed (speed.py).
"""

import json
import resource
import sys
import time

import workloads as W
from speed import SpeedProbe


def main(argv):
    workload, seed, trace, smoke = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1"
    spans_path = argv[4] if len(argv) > 4 else None
    ref = W.load_reference(workload)
    queries = W.make_queries(workload, seed, ref, smoke=smoke)

    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    ncsurf = W.import_ncsurf()
    t1 = time.perf_counter()
    inputs = W.build_inputs(ncsurf, queries)
    t2 = time.perf_counter()

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(ncsurf)
        caches_before = tracer.cache_info()

    failures = W.failure_types(ncsurf)
    clock = time.perf_counter
    spans = []
    answers = []
    failed = {}
    for i, (q, inp) in enumerate(zip(queries, inputs)):
        if tracer is not None:
            frame = tracer.begin_query(i)
        a = clock()
        try:
            ans = W.answer(ncsurf, q, inp)
        except failures as exc:
            ans = type(exc).__name__
            failed[ans] = failed.get(ans, 0) + 1
        b = clock()
        if tracer is not None:
            tracer.end_query(frame, a, b)
        spans.append((a, b))
        answers.append(ans)
    probe.stop()
    latencies = [probe.measure(a, b) for a, b in spans]

    expected = [W.expected_answer(workload, q, ref) for q in queries]
    mismatches = [
        [W.query_key(q), got, want]
        for q, got, want in zip(queries, answers, expected)
        if got != want
    ]
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    result = {
        "n": len(queries),
        "latencies_s": [x[0] for x in latencies],
        "norm_latencies_s": [x[1] for x in latencies],
        "failed": failed,
        "digest": W.digest(queries, answers),
        "expected_digest": W.digest(queries, expected),
        "mismatches": mismatches[:10],
        "import_s": probe.measure(t0, t1),
        "presets_s": probe.measure(t1, t2),
        "speed_index": probe.index(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sympy": sympy.__version__,
        "ground_types": GROUND_TYPES,
    }
    if tracer is not None:
        caches_after = tracer.cache_info()
        result["calls"] = tracer.calls
        result["self_s"] = tracer.self_s
        result["layer_self_s"] = tracer.layer_self()
        result["errors"] = tracer.errors
        result["extra"] = tracer.extra
        result["caches"] = {
            name: [caches_after[name][0] - h, caches_after[name][1] - m]
            for name, (h, m) in caches_before.items()
        }
        result["spans"] = len(tracer.spans)
        if spans_path:
            tracer.write_spans(spans_path)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
