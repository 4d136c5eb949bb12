"""Outside-in tracing of the ncsurf layers.

Nothing under src/ is changed: install() replaces every public function of
each layer module, wherever the package binds it (the defining module and
every module that did `from .x import f`), and the hot methods of the value
types, with a wrapper that counts calls, records a span and accumulates self
time.  A layer's self time is a span's duration minus the time its child
spans cover.

Spans are kept in memory as (name, start, end, parent, query) and written
out by write_spans().  Lattice calls (DivClass arithmetic, intersect) run a
million times a pass; they are counted and timed but not kept as spans.
"""

import functools
import sys
import time

LAYERS = ("lattice", "marking", "weyl", "cones", "sections", "latenum", "snf", "ore", "series", "opcases")

# private functions that mark a step worth a span of its own
PRIVATE = {"cones": ("_cone_loop", "_negative_witness", "_blocked_subtraction")}

METHODS = {
    "lattice": {"DivClass": ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__")},
    "ore": {"OreOp": ("__add__", "__mul__", "__pow__", "apply"), "OreAlgebra": ("sigma", "delta")},
    "series": {"TruncSeries": ("__add__", "__mul__", "shift")},
}

NO_SPANS = ("lattice",)


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.layer_of = {}
        self.errors = {layer: 0 for layer in LAYERS}  # exceptions leaving a layer
        self.extra = {"cones.subtractions": 0, "latenum.classes_with_pairing.vectors": 0, "opcases.checks": 0}
        self.originals = {}
        self.spans = []
        # frame: [time covered by children, span id, layer]
        self.stack = [[0.0, -1, None]]
        self.query = -1

    # ------------------------------------------------------------ wrapping
    def wrap(self, fn, name, layer, observe=None):
        calls, selfs, stack, spans, errors = self.calls, self.self_s, self.stack, self.spans, self.errors
        keep = layer not in NO_SPANS
        clock = time.perf_counter
        calls[name] = 0
        selfs[name] = 0.0
        self.layer_of[name] = layer
        self.originals[name] = fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1]
            if keep:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent[1]
            frame = [0.0, sid, layer]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if parent[2] != layer:
                    errors[layer] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                selfs[name] += dur - frame[0]
                parent[0] += dur
                if keep:
                    spans[sid] = (name, t0, t1, parent[1], self.query)
            if observe is not None:
                observe(out)
            return out

        return traced

    def install(self, ncsurf):
        """Wrap the layer functions of the imported package in place."""
        mods = [m for n, m in sys.modules.items() if n == "ncsurf" or n.startswith("ncsurf.")]
        observers = {
            "cones.effective_cert": self._count_subtractions,
            "latenum.classes_with_pairing": self._count_vectors,
            "opcases.run_case": self._count_checks,
        }
        replace = {}
        for layer in LAYERS:
            mod = getattr(ncsurf, layer)
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                name = "%s.%s" % (layer, attr)
                replace[id(obj)] = (obj, self.wrap(obj, name, layer, observers.get(name)))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = "%s.%s.%s" % (layer, cls_name, meth)
                    setattr(cls, meth, self.wrap(vars(cls)[meth], name, layer))
        # rebind at every site that holds one of the wrapped functions
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _count_subtractions(self, out):
        ok, cert = out
        if ok and cert:
            self.extra["cones.subtractions"] += len(cert["subtracted"])

    def _count_vectors(self, out):
        self.extra["latenum.classes_with_pairing.vectors"] += len(out)

    def _count_checks(self, out):
        self.extra["opcases.checks"] += len(out.details)

    # ------------------------------------------------------------- queries
    def begin_query(self, index):
        """Open the root span of one query; returns its frame."""
        self.query = index
        sid = len(self.spans)
        self.spans.append(None)
        frame = [0.0, sid, "query"]
        self.stack.append(frame)
        return frame

    def end_query(self, frame, t0, t1):
        self.stack.pop()
        self.spans[frame[1]] = ("query", t0, t1, -1, self.query)

    def cache_info(self):
        out = {}
        for name, fn in self.originals.items():
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                out[name] = (info.hits, info.misses)
        return out

    def layer_self(self):
        out = {layer: 0.0 for layer in LAYERS}
        for name, t in self.self_s.items():
            layer = self.layer_of.get(name)
            if layer is not None:
                out[layer] += t
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id\tparent\tquery\tname\tstart\tend\n")
            for sid, (name, t0, t1, parent, query) in enumerate(self.spans):
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % (sid, parent, query, name, t0, t1))
