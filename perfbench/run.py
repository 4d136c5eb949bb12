"""The ncsurf benchmark.

    python3 perfbench/run.py --workload cone_sweep --seed 1 --seconds 30 --trace 0

Runs passes of one workload until --seconds have gone by (at least
MIN_PASSES).  A pass is the workload's seeded query list, run once as a
closed loop with one client in a fresh interpreter (perfbench/worker.py), so
every pass starts from the same cold caches and does the same work.  Every
answer is checked against the reference answers in perfbench/reference/.

With --trace 0 the last line of output carries the end-to-end metrics; with
--trace 1 the passes alternate traced and untraced, and it carries the
per-layer metrics of the traced passes and the tracing overhead.  A record
of the run, with its context, is written to perfbench/out/.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
MIN_PASSES = 3
DEADLINE_S = 170  # a run must end within 180 s
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

END_TO_END = (
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("answered_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# (metric, function whose self time or call count it reports)
CALLS = (
    ("lattice.divclass.new", "lattice.DivClass.__init__"),
    ("lattice.intersect.calls", "lattice.intersect"),
    ("marking.is_root_effective.calls", "marking.is_root_effective"),
    ("marking.cyclic_membership.calls", "marking.cyclic_membership"),
    ("weyl.reduce_to_chamber.calls", "weyl.reduce_to_chamber"),
    ("weyl.reflections", "weyl.reflect"),
    ("weyl.reflect_surface.calls", "weyl.reflect_surface"),
    ("weyl.simple_roots.calls", "weyl.simple_roots"),
    ("cones.negative_witness.calls", "cones._negative_witness"),
    ("sections.dim_gamma.calls", "sections.dim_gamma"),
    ("latenum.classes_with_pairing.calls", "latenum.classes_with_pairing"),
    ("snf.solve.calls", "snf.solve"),
    ("ore.mul.calls", "ore.OreOp.__mul__"),
    ("ore.delta.calls", "ore.OreAlgebra.delta"),
    ("series.mul.calls", "series.TruncSeries.__mul__"),
)
SELF_TIMES = (
    ("marking.is_root_effective.self_s", "marking.is_root_effective"),
    ("weyl.reduce_to_chamber.self_s", "weyl.reduce_to_chamber"),
    ("weyl.reflect_surface.self_s", "weyl.reflect_surface"),
    ("sections.dim_gamma.self_s", "sections.dim_gamma"),
    ("latenum.classes_with_pairing.self_s", "latenum.classes_with_pairing"),
    ("snf.solve.self_s", "snf.solve"),
    ("ore.mul.self_s", "ore.OreOp.__mul__"),
    ("series.mul.self_s", "series.TruncSeries.__mul__"),
    ("opcases.identity_check.self_s", "opcases.identity_check"),
)
HIT_RATIOS = (
    ("marking.is_root_effective.hit_ratio", "marking.is_root_effective"),
    ("marking.cyclic_membership.hit_ratio", "marking.cyclic_membership"),
)
EXTRA = ("cones.subtractions", "latenum.classes_with_pairing.vectors", "opcases.checks")
LAYER_SELF = ("lattice", "cones")


def per_layer_names():
    """Every per-layer metric, in output order, with its unit."""
    out = [(m, "count") for m, _ in CALLS]
    out += [("cones.queries", "count"), ("sections.failed", "count")]
    out += [(m, "count") for m in EXTRA]
    out += [(m, "ratio") for m, _ in HIT_RATIOS]
    out += [(m, "s") for m, _ in SELF_TIMES]
    out += [("%s.self_s" % layer, "s") for layer in LAYER_SELF]
    out += [("%s.self_share" % layer, "ratio") for layer in LAYERS]
    out += [("setup.import_s", "s"), ("setup.presets_s", "s"), ("trace.qps_ratio", "ratio")]
    return out


def run_pass(args, traced, index, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), "1" if traced else "0", "1" if args.smoke else "0"]
    if traced:
        # one file per workload and pass, overwritten by the next run
        cmd.append(str(OUT / ("spans-%s-pass%d.tsv" % (args.workload, index))))
    # a fixed string hash keeps set and dict orders, and so the layer
    # counts, the same from pass to pass
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, cwd=str(HERE.parent),
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit("pass %d of %s ran past the %d s deadline" % (index, args.workload, DEADLINE_S))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("pass %d of %s failed (exit %d)" % (index, args.workload, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def hd_quantile(xs, p):
    """Harrell-Davis estimate of the p-quantile of sorted xs: the mean of
    all order statistics weighted by the Beta((n+1)p, (n+1)(1-p)) density
    over their ranks.  Query times cluster with gaps between them, and the
    single order statistic at p would jump across a gap from run to run;
    this estimate moves smoothly."""
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    steps = 8  # midpoint rule within each rank interval
    logs = []
    for k in range(n * steps):
        x = (k + 0.5) / (n * steps)
        logs.append((a - 1) * math.log(x) + (b - 1) * math.log(1 - x))
    top = max(logs)
    weights = [0.0] * n
    for k, v in enumerate(logs):
        weights[k // steps] += math.exp(v - top)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def summary(latencies):
    """(queries per second, p50 ms, tail ms, tail percentile, queries beyond
    the tail) of one list of per-query latencies.  The tail is the highest
    percentile that leaves at least TAIL_BEYOND queries above it."""
    xs = sorted(latencies)
    n = len(xs)
    p = max(n - TAIL_BEYOND, 1) / n
    return n / sum(xs), 1e3 * hd_quantile(xs, 0.5), 1e3 * hd_quantile(xs, p), 100.0 * p, n - round(p * n)


def per_query_median(passes, key):
    """Each query's median latency over the passes: the passes run the same
    list, so this drops the passes on which a query met a slow machine."""
    return [statistics.median(xs) for xs in zip(*(p[key] for p in passes))]


def context(args, first):
    def git_commit():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(HERE.parent.parent))
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                cwd=str(HERE.parent), env=env, timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "sympy": first["sympy"],
        "sympy_ground_types": first["ground_types"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def check(passes):
    """(correct, lines): every pass matched the reference and each other."""
    lines = []
    ok = True
    digests = {p["digest"] for p in passes}
    for i, p in enumerate(passes):
        if p["digest"] != p["expected_digest"]:
            ok = False
            lines.append("pass %d: digest %s differs from the reference %s" % (i, p["digest"], p["expected_digest"]))
            for key, got, want in p["mismatches"]:
                lines.append("  %s: got %s, reference %s" % (key, got, want))
    if len(digests) != 1:
        ok = False
        lines.append("passes gave different digests: %s" % sorted(digests))
    return ok, lines


def end_to_end(passes):
    med = statistics.median
    attempted = sum(p["n"] for p in passes)
    failed = sum(sum(p["failed"].values()) for p in passes)
    qps, p50, tail, pct, beyond = summary(per_query_median(passes, "norm_latencies_s"))
    raw = summary(per_query_median(passes, "latencies_s"))
    metrics = {
        "queries_per_s": qps,
        "query_p50_ms": p50,
        "query_tail_ms": tail,
        "answered_frac": (attempted - failed) / attempted,
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
        "setup_s": med(p["import_s"][1] + p["presets_s"][1] for p in passes),
    }
    by_type = {}
    for p in passes:
        for k, v in p["failed"].items():
            by_type[k] = by_type.get(k, 0) + v
    notes = [
        "query_tail_ms: p%.2f, %d of %d queries beyond it" % (pct, beyond, passes[0]["n"]),
        "answered_frac: %d failed of %d attempted%s" % (
            failed, attempted, "".join(", %s %d" % kv for kv in sorted(by_type.items()))),
        "times are per-query medians over the passes, at the reference speed; as measured:"
        " queries_per_s %.6g, query_p50_ms %.6g, query_tail_ms %.6g, setup_s %.6g" % (
            raw[0], raw[1], raw[2], med(p["import_s"][0] + p["presets_s"][0] for p in passes)),
        "machine speed index per pass (1 = reference speed, 2 = half of it): %s" % (
            " ".join("%.3f" % p["speed_index"] for p in passes)),
    ]
    return metrics, notes


def per_layer(traced, untraced):
    med = statistics.median
    first = traced[0]
    metrics = {}
    for metric, fn in CALLS:
        metrics[metric] = first["calls"][fn]
    metrics["cones.queries"] = first["calls"]["cones.effective_cert"] + first["calls"]["cones.nef_witness"]
    metrics["sections.failed"] = first["errors"]["sections"]
    for metric in EXTRA:
        metrics[metric] = first["extra"][metric]
    for metric, fn in HIT_RATIOS:
        hits, misses = first["caches"][fn]
        metrics[metric] = hits / (hits + misses) if hits + misses else 0.0
    for metric, fn in SELF_TIMES:
        metrics[metric] = med(p["self_s"][fn] for p in traced)
    for layer in LAYER_SELF:
        metrics["%s.self_s" % layer] = med(p["layer_self_s"][layer] for p in traced)
    for layer in LAYERS:
        metrics["%s.self_share" % layer] = med(
            p["layer_self_s"][layer] / sum(p["latencies_s"]) for p in traced
        )
    metrics["setup.import_s"] = med(p["import_s"][1] for p in traced + untraced)
    metrics["setup.presets_s"] = med(p["presets_s"][1] for p in traced + untraced)
    metrics["trace.qps_ratio"] = summary(per_query_median(traced, "norm_latencies_s"))[0] / summary(
        per_query_median(untraced, "norm_latencies_s"))[0]
    counts = [(p["calls"], p["errors"], p["extra"], p["caches"]) for p in traced]
    notes = []
    if any(c != counts[0] for c in counts):
        notes.append("WARNING: layer counts differ between traced passes")
    return metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one pass of a small slice of the list")
    args = ap.parse_args(argv)
    if not (W.SRC / "ncsurf" / "__init__.py").is_file():
        raise SystemExit("no ncsurf sources at %s" % W.SRC)
    OUT.mkdir(exist_ok=True)

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    min_passes = (2 if args.trace else 1) if args.smoke else MIN_PASSES
    traced, untraced = [], []
    while True:
        index = len(traced) + len(untraced)
        is_traced = bool(args.trace) and index % 2 == 0
        result = run_pass(args, is_traced, index, deadline)
        (traced if is_traced else untraced).append(result)
        if index + 1 >= min_passes and time.perf_counter() - start >= args.seconds:
            break
    passes = traced + untraced

    ok, lines = check(passes)
    info = context(args, passes[0])
    n = passes[0]["n"]
    print("%s seed %d: %d passes (%d traced) of %d queries each, closed loop, one client"
          % (args.workload, args.seed, len(passes), len(traced), n))
    print("context: %s" % json.dumps(info))
    if args.trace:
        metrics, notes = per_layer(traced, untraced)
        names = per_layer_names()
        print("spans kept per traced pass: %d" % traced[0]["spans"])
    else:
        metrics, notes = end_to_end(passes)
        names = END_TO_END
    for name, unit in names:
        print("  %-40s %14.6g %s" % (name, metrics[name], unit))
    for line in notes + lines:
        print(line)
    print("digest %s: %s" % (passes[0]["digest"], "matches the reference" if ok else "MISMATCH"))

    attempted = sum(p["n"] for p in passes)
    failed = sum(sum(p["failed"].values()) for p in passes)
    out = {
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    record = dict(out, context=info, digest=passes[0]["digest"], notes=notes + lines)
    with open(OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
