"""Run one brw CLI invocation with its layers traced from the outside.

    python perfbench/tracer.py TRACE_OUT JOB_ID -- <brw cli arguments>

Every public function of brw's layer modules is replaced by a wrapper at every
module binding site (so `from .groups import conjugacy_classes` in chars and
gutkin is reached too), plus a few methods on their classes. Hot entry points
get counters only; the rest get spans (name, start, end, parent, ok) kept in
memory and written to TRACE_OUT as JSON when the invocation ends. brw itself
is not changed and its reports are written exactly as without tracing.
"""

import functools
import inspect
import json
import sys
import time

LAYERS = ("exact", "algebra", "groups", "chars", "gutkin", "localfield", "corpus")

# called hundreds of thousands of times per run: counted, never timed
COUNTED = {"vec_add", "vec_sub", "vec_scale", "vec_is_zero", "reduce_vector", "mod_inv",
           "cyclotomic_polynomial"}

# (module, class, method, "count" | "span")
METHODS = (
    ("exact", "Cyclotomic", "__init__", "count"),
    ("algebra", "Algebra", "mul", "count"),
    ("groups", "FiniteGroup", "__init__", "count"),
    ("groups", "FiniteGroup", "generators", "span"),
    ("chars", "CharTable", "verify", "span"),
)


class Tracer:
    def __init__(self):
        self.spans = []    # (parent index, name, start, end, ok), index = position
        self.stack = []    # open spans: [index, time covered by child spans]
        self.counts = {}
        self.notes = {}    # per-layer tallies taken from arguments and results

    def count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def span(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append([idx, 0.0])
            ok = False
            start = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[idx] = (parent, name, start, end, ok)
            if observe is not None:
                observe(args, out)
            return out
        return wrapper

    def note(self, key, n=1):
        self.notes[key] = self.notes.get(key, 0) + n


def _observers(tracer):
    """Tallies that need a call's arguments or result, keyed by span name."""
    seen_groups = {}

    def classes(args, _out):
        G = args[0]
        # keep the algebra alive so its id cannot be reused by another one
        seen_groups.setdefault((id(G.algebra), G.elements), G.algebra)
        tracer.notes["groups.classes_distinct"] = len(seen_groups)

    def subalgebras(_args, out):
        tracer.note("algebra.subalgebras_found", len(out))

    def brute(_args, out):
        tracer.note("gutkin.brute_witnesses", sum(e["witness_count"] for e in out.per_irr))

    return {
        "groups.conjugacy_classes": classes,
        "algebra.enumerate_subalgebras": subalgebras,
        "gutkin.verify_gutkin_brute": brute,
    }


def install(tracer):
    """Wrap brw's layers; returns brw.cli.main (wrapped) and the binding-site count."""
    import brw.cli
    mods = {name: sys.modules[f"brw.{name}"] for name in LAYERS + ("cli",)}
    observers = _observers(tracer)
    wrappers = {}
    for layer in LAYERS:
        mod = mods[layer]
        for name, obj in vars(mod).items():
            if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            label = f"{layer}.{name}"
            if name in COUNTED or inspect.isgeneratorfunction(obj):
                wrappers[id(obj)] = (obj, tracer.count(label, obj))
            else:
                wrappers[id(obj)] = (obj, tracer.span(label, obj, observers.get(label)))
    main = brw.cli.main
    wrappers[id(main)] = (main, tracer.span("cli.main", main))
    sites = 0
    for mod in mods.values():
        for name, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
                sites += 1
    for layer, cls_name, meth, kind in METHODS:
        cls = getattr(mods[layer], cls_name)
        fn = cls.__dict__[meth]
        label = f"{layer}.{cls_name}.{meth}"
        setattr(cls, meth, tracer.count(label, fn) if kind == "count" else tracer.span(label, fn))
    return brw.cli.main, sites


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py TRACE_OUT JOB_ID -- <brw cli arguments>", file=sys.stderr)
        return 2
    out_path, job = argv[0], argv[1]
    tracer = Tracer()
    cli_main, sites = install(tracer)
    code = cli_main(argv[3:])
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"job": job, "binding_sites": sites, "counts": tracer.counts,
                   "notes": tracer.notes, "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
