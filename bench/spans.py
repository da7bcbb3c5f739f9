"""Layer spans for one traced benchmark pass, recorded from outside the
package: the public entry points of each cartperm module are wrapped in
place (in the defining module, in every cartperm module that imported the
name, and on the class for methods), so no file under src/ changes.

Each span records its name, start, end and parent; spans stay in memory and
are written out when the pass ends.  Calls made once per map or per
candidate (the span check, affine substitution, family and candidate
streams) are not recorded one span each: their time and count go to the
enclosing span and to their layer, which keeps the trace small and its cost
low.  Per-element field calls such as ``add_ix`` are never wrapped.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

CLOCK = time.perf_counter

# layer name -> the functions whose self time it sums.  Names are
# "module.attr" or "module.Class.method" under the cartperm package.
LAYERS = {
    "field.tables": ["field.Field.np_tables"],
    "oracle.scan": ["oracle.oracle_stabilizers"],
    "families.stream": ["families.AdditiveHeteroPattern.candidates"],
    "families.members": [
        "families.MultProductFamily.members",
        "families.MixedFullTorusFamily.members",
        "families.MixedGeneralFamily.members",
        "families.AdditivePowerFamily.members",
        "families.BorelClaimedFamily.members",
    ],
    "affine.span": ["affine.SpanChecker.check_ix",
                    "oracle.oracle_affine_perm_group"],
    "oracle.two_route": ["oracle.two_route_agreement"],
    "codes.build": ["codes.build_code", "codes.GeneratorMatrix.rref"],
    "oracle.axioms": ["oracle.group_axioms_report"],
    "poly.substitute": ["poly.substitute_affine"],
    "cli.report_write": ["cli._dump"],
}

# functions called once per map or per element: aggregated, not recorded
# as individual spans
AGGREGATED = {"affine.SpanChecker.check_ix", "poly.substitute_affine"}
# methods returning a lazy stream: each next() is timed (aggregated)
STREAMS = {"families.AdditiveHeteroPattern.candidates"} | set(
    LAYERS["families.members"])

ROOT = "cli"


class Tracer:
    """Span stack with per-layer self time and counters."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []         # frames: [name, start, covered, span index]

    # -- spans -------------------------------------------------------------
    def enter(self, name, record=True):
        """Open a frame; record=False times it without recording a span."""
        idx = -1
        if record:
            parent = self._open_span()
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        frame = [name, CLOCK(), 0.0, idx]
        self._stack.append(frame)
        return frame

    def exit(self, frame):
        end = CLOCK()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, start, covered, idx = frame
        dur = end - start
        self.self_s[name] += dur - covered
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def _open_span(self):
        for frame in reversed(self._stack):
            if frame[3] >= 0:
                return frame[3]
        return -1

    def current(self):
        return self._stack[-1][0] if self._stack else None

    def timed_stream(self, name, iterable):
        """Yield from iterable, timing each next() as part of layer name."""
        it = iter(iterable)
        while True:
            frame = self.enter(name, record=False)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.exit(frame)
            self.counts[name + ".items"] += 1
            yield item

    def to_json(self):
        return {"spans": [{"name": n, "start": s, "end": e, "parent": p}
                          for n, s, e, p in self.spans],
                "self_s": dict(self.self_s), "counts": dict(self.counts)}


# ---------------------------------------------------------------------------
# wrapping

def _resolve(path):
    parts = path.split(".")
    owner = sys.modules["cartperm." + parts[0]]
    for p in parts[1:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


def _wrapper(tracer, path, fn):
    record = path not in AGGREGATED and path not in STREAMS
    stream = path in STREAMS
    before = BEFORE.get(path)
    after = AFTER.get(path)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            args, kwargs = before(tracer, fn, args, kwargs)
        frame = tracer.enter(path, record)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(tracer, fn, args, kwargs, result)
        if stream:
            return tracer.timed_stream(path, result)
        return result

    return traced


def _count_stream(tracer, fn, args, kwargs):
    """Count the candidates a scan draws from a supplied stream."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    cands = bound.arguments.get("candidates")
    if cands is not None:
        def counted(it):
            for T in it:
                tracer.counts["oracle.candidates"] += 1
                yield T
        bound.arguments["candidates"] = counted(cands)
    return bound.args, bound.kwargs


def _after_scan(tracer, fn, args, kwargs, result):
    from cartperm.oracle import affine_space_size
    bound = inspect.signature(fn).bind(*args, **kwargs)
    S = bound.arguments["S"]
    c = tracer.counts
    c["oracle.scan_calls"] += 1
    c["oracle.stabilizers"] += len(result)
    if bound.arguments.get("candidates") is None:
        c["oracle.candidates"] += affine_space_size(S.field, S.m)


def _after_check(tracer, fn, args, kwargs, result):
    tracer.counts["affine.span_maps"] += 1
    if tracer.current() == "oracle.two_route_agreement":
        tracer.counts["oracle.two_route_maps"] += 1


def _after_group(tracer, fn, args, kwargs, result):
    tracer.counts["oracle.group_members"] += len(result)


def _after_axioms(tracer, fn, args, kwargs, result):
    tracer.counts["oracle.axioms_pairs"] += result["composition_pairs_checked"]


def _after_substitute(tracer, fn, args, kwargs, result):
    tracer.counts["poly.substitute_calls"] += 1


BEFORE = {"oracle.oracle_stabilizers": _count_stream}
AFTER = {
    "oracle.oracle_stabilizers": _after_scan,
    "affine.SpanChecker.check_ix": _after_check,
    "oracle.oracle_affine_perm_group": _after_group,
    "oracle.group_axioms_report": _after_axioms,
    "poly.substitute_affine": _after_substitute,
}


def install(tracer):
    """Wrap every entry point in LAYERS.  Module-level functions are
    replaced in every loaded cartperm module that holds them, methods on
    their class."""
    import cartperm.cli  # noqa: F401  (loads every module that is wrapped)
    modules = [m for n, m in sys.modules.items()
               if n == "cartperm" or n.startswith("cartperm.")]
    for paths in LAYERS.values():
        for path in paths:
            owner, attr = _resolve(path)
            fn = inspect.getattr_static(owner, attr)
            wrapped = _wrapper(tracer, path, fn)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapped)


def layer_self_s(tracer):
    """Self time per layer, summed over the functions of each layer."""
    out = {}
    for layer, paths in LAYERS.items():
        out[layer] = sum(tracer.self_s.get(p, 0.0) for p in paths)
    return out
