"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs a small slice of every workload (--smoke), untraced and traced, and
checks that each prints a correct result with exactly the metrics
BENCHMARK.json names.  Then runs one pass with a deliberately altered answer
and checks that the digest comparison rejects it, and checks that the
tracer leaves no module of the package bound to an unwrapped function.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import run
import worker
import workloads as W
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def smoke(workload, trace, spec):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=str(ROOT), timeout=170,
    )
    if proc.returncode != 0:
        return "exit %d: %s" % (proc.returncode, proc.stderr.strip().splitlines()[-1:])
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys %s" % sorted(out)
    if not out["correct"]:
        return "answers differ from the reference"
    if sorted(out["metrics"]) != sorted(want):
        return "metrics %s, BENCHMARK.json names %s" % (sorted(out["metrics"]), sorted(want))
    return None


def one_pass(workload, alter):
    """Run a smoke pass in this process; alter the answer of the first query."""
    real = W.answer

    def answer(ncsurf, q, inp):
        ans = real(ncsurf, q, inp)
        if alter and q == answer.first:
            ans += "x"
        return ans

    ref = W.load_reference(workload)
    answer.first = W.make_queries(workload, 1, ref, smoke=True)[0]
    buf = io.StringIO()
    W.answer = answer
    try:
        with contextlib.redirect_stdout(buf):
            worker.main([workload, "1", "0", "1"])
    finally:
        W.answer = real
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def unwrapped_bindings():
    """Module attributes still bound to a function the tracer wrapped."""
    ncsurf = W.import_ncsurf()
    tracer = Tracer()
    tracer.install(ncsurf)
    originals = {id(fn): name for name, fn in tracer.originals.items()}
    return [
        "%s.%s (%s)" % (mod_name, attr, originals[id(obj)])
        for mod_name, mod in sorted(sys.modules.items())
        if mod_name == "ncsurf" or mod_name.startswith("ncsurf.")
        for attr, obj in vars(mod).items()
        if id(obj) in originals
    ]


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    failures = 0

    def report(label, err):
        nonlocal failures
        print("%s: %s" % (label, "PASS" if err is None else "FAIL (%s)" % err))
        failures += err is not None

    for workload in W.WORKLOADS:
        for trace in (0, 1):
            report("smoke %s trace %d" % (workload, trace), smoke(workload, trace, spec))

    clean = one_pass("cone_sweep", alter=False)
    ok, _ = run.check([clean])
    report("unaltered answers match the digest", None if ok else "digest mismatch")
    bad = one_pass("cone_sweep", alter=True)
    ok, lines = run.check([bad])
    report("an altered answer trips the digest check",
           None if not ok and len(bad["mismatches"]) == 1 else "not detected")
    for line in lines:
        print("  " + line)
    left = unwrapped_bindings()
    report("every binding of a traced function is wrapped", None if not left else ", ".join(left))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
