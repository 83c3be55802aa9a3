"""Span tracing of wsscheck's modules, installed from outside the package.

``Tracer.install`` replaces every public module-level function of each
wsscheck module but the scalar coercions in SKIP, plus
``RatMatrix.__matmul__``, ``Subspace.span`` and ``NilpotentOp.build``, by a
wrapper that records a span.  The replacement
is made in every module namespace that holds the original object, because
``specseq``, ``filtration`` and ``lefschetz`` import ``ratlin`` names
directly and look them up in their own globals.  ``uninstall`` puts the
originals back.

Spans are (id, parent, name, start, end) and stay in memory in flat arrays
until ``write`` saves them.  Their clock stops while the tracer scans an
``rref`` output for ``rref_max_bits``, so the scan is in no span's time.  A span's self time is its duration minus the
time covered by its direct children; a layer's self time is the sum over
the spans of its module.
"""

import inspect
import time
from array import array
from fractions import Fraction

MODULES = ("cli", "strata", "specseq", "lefschetz", "filtration", "ratlin", "instances")

# Per-scalar coercions, called once per matrix entry: a span each would
# cost more than the work it times, so their time stays with the caller.
SKIP = ("ratlin.as_rat", "ratlin.rat_str")

# (module, class, attribute, span name) for the methods traced besides the
# module-level functions.
METHODS = (
    ("ratlin", "RatMatrix", "__matmul__", "ratlin.matmul"),
    ("ratlin", "Subspace", "span", "ratlin.Subspace.span"),
    ("filtration", "NilpotentOp", "build", "filtration.NilpotentOp.build"),
)


def _max_bits(matrix):
    best = 0
    for x in matrix.entries:
        if type(x) is Fraction:
            b = max(x.numerator.bit_length(), x.denominator.bit_length())
        else:
            b = x.bit_length()
        if b > best:
            best = b
    return best


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = []
        self.name_ids = {}
        self.parent = array("q")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.rref_max_bits = 0
        self.paused = [0.0]  # seconds the span clock stood still so far
        self._patches = []  # (owner, attribute, original)

    # -- recording ------------------------------------------------------------

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, func, name):
        nid = self._name_id(name)
        stack, parent, names, start, end = (
            self.stack, self.parent, self.name, self.start, self.end)
        clock, paused = time.perf_counter, self.paused
        measure_bits = name == "ratlin.rref"

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(nid)
            start.append(clock() - paused[0])
            end.append(0.0)
            stack.append(sid)
            try:
                out = func(*args, **kwargs)
            finally:
                end[sid] = clock() - paused[0]
                stack.pop()
            if measure_bits:
                t0 = clock()
                self.rref_max_bits = max(self.rref_max_bits, _max_bits(out[0]))
                paused[0] += clock() - t0
            return out

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # -- patching ---------------------------------------------------------------

    def install(self):
        mods = {m: getattr(self.package, m) for m in MODULES}
        replace = {}
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and f"{mname}.{attr}" not in SKIP):
                    replace[id(obj)] = (obj, self._wrap(obj, f"{mname}.{attr}"))
        namespaces = list(mods.values()) + [self.package]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, replace[id(obj)][1])
        for mname, cls_name, attr, span_name in METHODS:
            cls = getattr(mods[mname], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, span_name))
            else:
                wrapped = self._wrap(raw, span_name)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- analysis ---------------------------------------------------------------

    def mark(self):
        """Span index that separates earlier spans from later ones."""
        return len(self.start)

    def summary(self, lo, hi):
        """Per-name calls, inclusive and self seconds, and per-module self seconds.

        Covers spans with index in [lo, hi).  Inclusive time counts only the
        outermost span of a name, so recursion is not counted twice.
        """
        child = {}
        for sid in range(lo, hi):
            p = self.parent[sid]
            if p >= lo:
                child[p] = child.get(p, 0.0) + self.end[sid] - self.start[sid]
        calls, incl, self_s, module_self = {}, {}, {}, {}
        for sid in range(lo, hi):
            name = self.names[self.name[sid]]
            dur = self.end[sid] - self.start[sid]
            own = dur - child.get(sid, 0.0)
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            module = name.split(".", 1)[0]
            module_self[module] = module_self.get(module, 0.0) + own
            p = self.parent[sid]
            nid = self.name[sid]
            while p >= lo and self.name[p] != nid:
                p = self.parent[p]
            if p < lo:
                incl[name] = incl.get(name, 0.0) + dur
        return calls, incl, self_s, module_self

    def write(self, path):
        """One line per span: id parent name start end (seconds on the span clock)."""
        with open(path, "w") as fh:
            fh.write("# id parent name start_s end_s\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid} {self.parent[sid]} {self.names[self.name[sid]]} "
                         f"{self.start[sid]:.9f} {self.end[sid]:.9f}\n")
