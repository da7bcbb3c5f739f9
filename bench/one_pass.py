"""One benchmark pass in a fresh process: set up, run the workload once, and
print the pass's timings, item verdicts and (when traced) layer metrics as
one JSON line.  bench/run.py starts it; it is not meant to be run by hand.

    python3 bench/one_pass.py --workload NAME --seed N --jobs J --trace 0|1
        --spawned T --out DIR [--trace-out FILE] [--setup-only]

``--spawned`` is the CLOCK_MONOTONIC time at which the parent started this
process, so set-up time includes interpreter start-up and every import.

The pass's time is corrected for the host's CPU speed.  On a shared host
the speed of the same code drifts by a third over tens of seconds (measured
on a 2-vCPU VM), far more than a change worth measuring.  A probe thread
times a fixed piece of Python work every PROBE_INTERVAL_S while the pass
runs; wall_s is the wall time times the mean probe speed over the pass,
relative to PROBE_REF_S.  The raw wall time and the speed factor are
reported as well.  Set-up time is reported raw; bench/run.py corrects it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pathlib
import resource
import shutil
import statistics
import sys
import threading
import time
from collections import Counter

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 6e-4      # probe time at the reference speed


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def step(self, other):
        return _Cell(self.a + other.b, (self.b * other.a) % 5)


def probe_work():
    """A fixed mix of the kinds of work the workloads do: a list built and
    sorted in C, and small objects made and combined in Python.  It calls
    nothing in cartperm, so a faster cartperm does not make it faster."""
    xs = [(i * 31) % 1009 for i in range(2000)]
    xs.sort()
    cell = _Cell(1, 2)
    for i in range(300):
        cell = cell.step(_Cell(i, 3))
    return xs[-1] + cell.a


class SpeedProbe(threading.Thread):
    """Times probe_work every PROBE_INTERVAL_S until stopped."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(PROBE_INTERVAL_S):
            self.samples.append(_time_probe())

    def stop(self):
        """Stop sampling; the mean speed relative to the reference."""
        self.done.set()
        self.join()
        samples = self.samples or [_time_probe()]
        return statistics.fmean(PROBE_REF_S / d for d in samples)


def _time_probe():
    t = time.perf_counter()
    probe_work()
    return time.perf_counter() - t


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(tracer, wall_s):
    """Per-layer self times, counts and rates of one traced pass."""
    from spans import ROOT, layer_self_s
    s = layer_self_s(tracer)
    c = tracer.counts
    members = sum(v for k, v in c.items() if k.endswith(".members.items"))
    cli_self = tracer.self_s.get(ROOT, 0.0)
    return {
        "field.tables_s": s["field.tables"],
        "oracle.scan_s": s["oracle.scan"],
        "oracle.scan_calls": c["oracle.scan_calls"],
        "oracle.candidates": c["oracle.candidates"],
        "oracle.candidates_per_s": _ratio(c["oracle.candidates"], s["oracle.scan"]),
        "oracle.hit_ratio": _ratio(c["oracle.stabilizers"], c["oracle.candidates"]),
        "families.stream_s": s["families.stream"],
        "families.members_s": s["families.members"],
        "families.members": members,
        "affine.span_s": s["affine.span"],
        "affine.span_maps": c["affine.span_maps"],
        "affine.span_maps_per_s": _ratio(c["affine.span_maps"], s["affine.span"]),
        "oracle.two_route_s": s["oracle.two_route"],
        "oracle.two_route_maps": c["oracle.two_route_maps"],
        "oracle.two_route_maps_per_s": _ratio(c["oracle.two_route_maps"],
                                              s["oracle.two_route"]),
        "codes.build_s": s["codes.build"],
        "oracle.axioms_s": s["oracle.axioms"],
        "oracle.axioms_pairs": c["oracle.axioms_pairs"],
        "oracle.axioms_pairs_per_s": _ratio(c["oracle.axioms_pairs"],
                                            s["oracle.axioms"]),
        "poly.substitute_s": s["poly.substitute"],
        "poly.substitute_calls": c["poly.substitute_calls"],
        "cli.report_write_s": s["cli.report_write"],
        "cli.self_s": cli_self,
        "trace.coverage": _ratio(wall_s - cli_self, wall_s),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--out", type=pathlib.Path, required=True)
    ap.add_argument("--trace-out", type=pathlib.Path)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report only its time")
    args = ap.parse_args()

    from workloads import WORKLOADS, finish_item
    wl = WORKLOADS[args.workload]
    tracer = None
    import cartperm.cli  # noqa: F401
    if args.trace:
        from spans import ROOT, Tracer, install
        tracer = Tracer()
        install(tracer)
    state = wl.setup(args.seed)
    ready = time.monotonic()
    setup_raw_s = ready - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_raw_s": setup_raw_s}))
        return

    probe = SpeedProbe()
    probe.start()
    payloads = []
    item_counts = {}
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        root = tracer.enter(ROOT) if tracer else None
        seen = Counter(tracer.counts) if tracer else None
        for item_id, payload in wl.run(state, args.out, args.jobs):
            payloads.append((item_id, payload))
            if tracer:
                now = Counter(tracer.counts)
                item_counts[item_id] = dict(now - seen)
                seen = now
        if tracer:
            tracer.exit(root)
        wall_raw_s = time.perf_counter() - t0
    speed = probe.stop()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = usage.ru_maxrss / 1024

    items = {}
    for item_id, payload in payloads:
        item = finish_item(payload)
        if item_id in item_counts:
            item.setdefault("counts", {}).update(
                {"trace." + k: v for k, v in item_counts[item_id].items()})
        items[item_id] = item
    shutil.rmtree(args.out, ignore_errors=True)

    result = {"workload": args.workload, "jobs": args.jobs,
              "traced": bool(args.trace), "setup_raw_s": setup_raw_s,
              "wall_s": wall_raw_s * speed, "wall_raw_s": wall_raw_s,
              "speed": speed, "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": peak_rss_mb, "items": items}
    if tracer:
        result["layers"] = layer_metrics(tracer, wall_raw_s)
        if args.trace_out is not None:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            args.trace_out.write_text(json.dumps(tracer.to_json()))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
