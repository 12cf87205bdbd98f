"""Spans and counters recorded from outside the package.

The tracer wraps public functions of the conictopes modules under the name
their callers use.  A function imported with ``from ... import`` lives on in
the importing module, so each such copy is wrapped there
(``triangles.coset_criteria``, ``cli.closure``, ``engine.mat_mul``...);
methods are wrapped on their class.  Every copy of one function records under
the name of the module that defines it, so ``grp.closure`` counts the calls
made from ``triangles``, ``cli``, ``corr`` and ``geom`` together.

Span wrappers keep (name, start, end, parent span, run id) in memory; the
list is written out once, at the end, by ``Tracer.dump``.  Count wrappers
only bump a counter: they sit on functions called millions of times
(``Field.add``, ``mat_mul``), where a span would cost more than the call.

Nothing here changes what a wrapped function returns, so a traced run must
produce the same report bytes as an untraced one; the benchmark checks that.
"""

from __future__ import annotations

import json
from time import perf_counter

# (module attribute path, span name): each copy of a function is wrapped where
# its callers look it up.
SPANNED = (
    ("cli.main", "cli.main"),
    ("triangles.verify_main", "triangles.verify_main"),
    ("triangles.classify_triangle", "triangles.classify_triangle"),
    ("triangles.coset_criteria", "geom.coset_criteria"),
    ("geom.coset_criteria", "geom.coset_criteria"),
    ("grp.closure", "grp.closure"),
    ("triangles.closure", "grp.closure"),
    ("cli.closure", "grp.closure"),
    ("corr.closure", "grp.closure"),
    ("geom.closure", "grp.closure"),
    ("grp.identify_group", "grp.identify_group"),
    ("triangles.identify_group", "grp.identify_group"),
    ("corr.correlation_witness", "corr.correlation_witness"),
    ("engine.Engine.__init__", "engine.build"),
    ("engine.Engine.pair", "engine.pair"),
    ("engine.Engine.sp_intersect", "engine.sp_intersect"),
    ("engine.Engine.closure_ids", "engine.closure_ids"),
    ("engine.Engine.group_label", "engine.group_label"),
)

COUNTED = (
    ("perspectivity.mat_mul", "perspectivity.mat_mul"),
    ("grp.mat_mul", "perspectivity.mat_mul"),
    ("geom.mat_mul", "perspectivity.mat_mul"),
    ("engine.mat_mul", "perspectivity.mat_mul"),
    ("triangles.mat_mul", "perspectivity.mat_mul"),
    ("corr.mat_mul", "perspectivity.mat_mul"),
    ("perspectivity.mat_vec", "perspectivity.mat_vec"),
    ("grp.mat_vec", "perspectivity.mat_vec"),
    ("engine.mat_vec", "perspectivity.mat_vec"),
    ("corr.mat_vec", "perspectivity.mat_vec"),
    ("gf.Field.add", "gf.Field.add"),
    ("plane.Plane.normalize", "plane.Plane.normalize"),
    ("engine.Engine.identify_ids", "engine.identify_ids"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index, run id)
        self.stack: list = [-1]
        self.run_id = 0
        self.counts: dict[str, int] = {}
        self.closure_elements = 0
        self.full_group = 0            # closure_ids calls that returned None
        self.pair_keys: set = set()    # (engine, key) pairs seen: the misses

    # -- recording -------------------------------------------------------------

    def call(self, name, fn, *args):
        """fn(*args) inside a span: the benchmark's own set-up and unit spans."""
        return self._spanned(fn, name)(*args)

    def _spanned(self, fn, name, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.run_id)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _counted(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-function extras ---------------------------------------------------

    def _after_closure(self, args, out):
        self.closure_elements += len(out)

    def _after_closure_ids(self, args, out):
        if out[0] is None:
            self.full_group += 1

    def _after_pair(self, args, out):
        # the engine's pair cache never evicts, so a miss is a key's first call
        eng, i, j = args
        self.pair_keys.add((id(eng), min(i, j), max(i, j)))

    # -- installation ----------------------------------------------------------

    def install(self, modules: dict):
        """Wrap every listed attribute; modules maps short names to modules.

        Nothing unwraps them: a traced run is a process of its own.
        """
        extras = {"grp.closure": self._after_closure,
                  "engine.closure_ids": self._after_closure_ids,
                  "engine.pair": self._after_pair}
        for path, name in SPANNED:
            self._patch(modules, path,
                        lambda fn, name=name: self._spanned(fn, name, extras.get(name)))
        for path, name in COUNTED:
            self._patch(modules, path, lambda fn, name=name: self._counted(fn, name))

    @staticmethod
    def _patch(modules, path, make):
        mod, *attrs = path.split(".")
        owner = modules[mod]
        for a in attrs[:-1]:
            owner = getattr(owner, a)
        # a class attribute is read raw, so a method stays a plain function
        original = vars(owner)[attrs[-1]]
        setattr(owner, attrs[-1], make(original))

    # -- output ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters that are not spans, for subtracting set-up from workload."""
        out = dict(self.counts)
        out["grp.closure.elements"] = self.closure_elements
        out["engine.closure_ids.full_group"] = self.full_group
        out["engine.pair.misses"] = len(self.pair_keys)
        return out

    def dump(self, path):
        """One JSON list per line: name, start, end, parent line (-1: none), run id."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def span_totals(spans, root: str) -> dict:
    """Per-name call count, inclusive and self seconds, under root spans only."""
    n = len(spans)
    child_time = [0.0] * n
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    # the root span each span sits under, found through its parent
    root_of = [None] * n
    for i, (name, _, _, parent, _) in enumerate(spans):
        root_of[i] = name if parent < 0 else root_of[parent]
    out: dict = {}
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        if root_of[i] != root:
            continue
        d = t1 - t0
        acc = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        acc["calls"] += 1
        acc["s"] += d
        acc["self_s"] += d - child_time[i]
    return out
