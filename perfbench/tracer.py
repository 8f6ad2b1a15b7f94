"""Span tracer for segreform, installed from outside the package.

`Tracer.install()` wraps every public function of each traced module, and
the public methods and arithmetic operators of its public classes, then
rebinds each wrapper at every `segreform` module that imported the name
(`from .exterior import wedge` binds `wedge` once per importing module).
Nothing under `src/` is edited.  Each call records a span (name, parent,
start, end) in memory; work counts are taken at the same boundaries from
call counts, arguments and results.

A module's self time is the summed duration of its spans minus the part of
each span covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("exterior", "symfun", "curvature", "kahler", "moments",
           "projective", "inequalities", "cli", "report")

# dunder methods that carry Form / tensor arithmetic
OPERATORS = frozenset({"__add__", "__sub__", "__mul__", "__rmul__",
                       "__truediv__", "__neg__"})

# counter name -> the spans whose calls it counts
CALL_COUNTERS = {
    "exterior.wedge_calls": ("exterior.wedge",),
    "curvature.chern_calls": ("curvature.chern_forms",),
    "curvature.direction_forms": ("curvature.direction_form",),
    "moments.wick_terms": ("moments.moment_wick",),
    "kahler.eigensolves": ("kahler.relative_eigenvalues",),
}


def _mc_directions(a, _):
    return int(a["samples"]) if a["method"] == "mc" and a["k"] > 0 else 0


# span name -> (counter name, amount(bound arguments, result))
WORK_COUNTERS = {
    "exterior.wedge": ("exterior.coeffs_out", lambda a, res: len(res.coeffs)),
    "moments.moment_mc": ("moments.mc_samples", lambda a, res: int(a["samples"])),
    "moments.sample_directions": ("moments.mc_samples", lambda a, res: int(a["count"])),
    "projective.pushforward_segre": ("projective.directions", _mc_directions),
    "projective.gamma_profile": ("projective.directions", lambda a, res: int(a["samples"])),
    "projective.verify_power_identity": ("projective.directions", lambda a, res: 1),
    "projective.verify_slope_identity": ("projective.directions", lambda a, res: 1),
    "report.canonical_json": ("report.bytes_out", lambda a, res: len(res.encode())),
}

COUNTERS = tuple(CALL_COUNTERS) + ("symfun.calls",) + tuple(
    sorted({counter for counter, _ in WORK_COUNTERS.values()}))


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent span index or -1, start ns, end ns]
        self._stack = []
        self._calls = {}
        self._work = {}
        self._patches = []

    # -- recording ---------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self._stack.clear()
        self._calls.clear()
        self._work.clear()

    def _wrap(self, fn, name):
        work = WORK_COUNTERS.get(name)
        sig = inspect.signature(fn) if work else None
        spans, stack, calls, clock = self.spans, self._stack, self._calls, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            calls[name] = calls.get(name, 0) + 1
            if work:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter, amount = work
                self._work[counter] = self._work.get(counter, 0) + amount(bound.arguments, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        if not self._patches:
            self._patches = self._build_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _build_patches(self):
        patches = []    # (owner, attribute, original, wrapper)
        wrappers = {}   # id(original function) -> wrapper
        for short in MODULES:
            mod = importlib.import_module(f"segreform.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    patches += self._class_patches(obj, short)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "segreform" or mod_name.startswith("segreform.")):
                continue
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    patches.append((mod, attr, obj, wrappers[id(obj)]))
        return patches

    def _class_patches(self, cls, short):
        patches = []
        for attr, raw in vars(cls).items():
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                patches.append((cls, attr, raw, type(raw)(self._wrap(raw.__func__, name))))
            elif inspect.isfunction(raw):
                patches.append((cls, attr, raw, self._wrap(raw, name)))
        return patches

    # -- results -----------------------------------------------------------

    def counts(self):
        """Exact work counts of everything recorded since the last reset."""
        out = {counter: sum(self._calls.get(n, 0) for n in names)
               for counter, names in CALL_COUNTERS.items()}
        out["symfun.calls"] = sum(c for n, c in self._calls.items() if n.startswith("symfun."))
        for counter, _ in WORK_COUNTERS.values():
            out[counter] = self._work.get(counter, 0)
        return out

    def self_seconds(self):
        """Self time per module, in seconds."""
        child_ns = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = dict.fromkeys(MODULES, 0.0)
        for (name, _, start, end), child in zip(self.spans, child_ns):
            module = name.split(".", 1)[0]
            out[module] += (end - start - child) * 1e-9
        return out

    def write_spans(self, path):
        """Tab-separated spans: index, name, parent, start and end in ns from the first span."""
        t0 = self.spans[0][2] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tparent\tstart_ns\tend_ns\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{parent}\t{start - t0}\t{end - t0}\n")


def import_split(importtime_stderr):
    """Seconds of import self time for numpy, scipy and segreform modules,
    parsed from the stderr of `python -X importtime`."""
    out = {"numpy": 0.0, "scipy": 0.0, "segreform": 0.0}
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        package = fields[2].strip().split(".", 1)[0]
        if package in out:
            out[package] += int(fields[0]) * 1e-6
    return out
