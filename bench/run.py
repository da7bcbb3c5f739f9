"""cartperm benchmark: time to a checked verdict on one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of the workload, each in a fresh process (bench/one_pass.py),
until about S seconds have gone, checks every verdict against
bench/golden.json, and prints each metric by name and unit.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.

--trace 0 reports the end-to-end metrics (medians over the passes):
wall_s, setup_s and peak_rss_mb, the times corrected for the host's speed
(one_pass.SpeedProbe, REFERENCE below).  --trace 1 reports the per-layer metrics
of bench/spans.py, from traced passes interleaved with untraced ones (for
trace.overhead) and with traced --jobs 2 passes (for oracle.jobs2_speedup).
Workloads and metrics are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
GOLDEN = HERE / "golden.json"

MIN_PASSES = 3          # untraced passes per --trace 0 run, at the least
SETUP_ONLY = 4          # extra processes per --trace 0 run that stop after
                        # set-up, so setup_s is a median of at least 7
DEADLINE_S = 165        # no pass starts that could end after this
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PASS_FACTS = ("setup_raw_s", "wall_s", "wall_raw_s", "speed", "cpu_s",
              "peak_rss_mb")

# Set-up is mostly interpreter start and the numpy import, whose speed on a
# shared host drifts by a quarter between runs minutes apart, apart from
# the CPU speed the pass probe sees.  So each set-up-only process is paired
# with a reference process that starts Python and imports numpy, and
# setup_s is the median set-up time times SETUP_REF_S over the median
# reference time: the set-up time at the reference start-up speed.
REFERENCE = "import time, numpy; print(repr(time.monotonic()))"
SETUP_REF_S = 0.2


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name in ("oracle.hit_ratio", "oracle.jobs2_speedup", "trace.coverage",
                "trace.overhead"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# passes

class Runner:
    """Starts passes one at a time, each in its own process, and keeps
    their results."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.start = time.monotonic()
        self.passes = []        # ((traced, jobs), result or None, error or None)
        self.setups = []        # (raw set-up seconds or None, error or None)
        self.references = []    # reference start-up seconds

    def elapsed(self):
        return time.monotonic() - self.start

    def run_pass(self, traced, jobs):
        """One full pass; returns its duration including process start."""
        t0 = time.monotonic()
        result, error = self._spawn(traced, jobs)
        self.passes.append(((traced, jobs), result, error))
        return time.monotonic() - t0

    def run_setup(self):
        result, error = self._spawn(False, 1, ["--setup-only"])
        self.setups.append((result and result["setup_raw_s"], error))

    def run_reference(self):
        """Time a bare Python start with the numpy import."""
        spawned = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, "-c", REFERENCE], cwd=ROOT,
                                  capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            return
        if proc.returncode == 0:
            self.references.append(float(proc.stdout) - spawned)

    def _spawn(self, traced, jobs, extra=()):
        k = len(self.passes) + len(self.setups)
        cmd = [sys.executable, str(HERE / "one_pass.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--jobs", str(jobs), "--trace", str(int(traced)),
               "--out", str(self.work / f"pass-{k}"), *extra]
        if traced:
            cmd += ["--trace-out",
                    str(WORK / "traces" / f"{self.workload}-jobs{jobs}.json")]
        proc = subprocess.Popen(cmd + ["--spawned", repr(time.monotonic())],
                                cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, DEADLINE_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "pass timed out"
        lines = out.strip().splitlines()
        if proc.returncode == 0 and lines:
            try:
                return json.loads(lines[-1]), None
            except json.JSONDecodeError:
                pass
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return None, f"pass exited {proc.returncode}: {tail[0]}"

    def results(self, traced, jobs=1):
        return [r for (kind, r, _) in self.passes
                if r is not None and kind == (traced, jobs)]


def run_untraced(runner, seconds):
    for _ in range(SETUP_ONLY):
        runner.run_reference()
        runner.run_setup()
    durations = []
    while True:
        durations.append(runner.run_pass(False, 1))
        est = statistics.median(durations)
        left = seconds - runner.elapsed()
        if len(durations) >= MIN_PASSES and left < est:
            break
        if runner.elapsed() + est > DEADLINE_S:
            break


def run_traced(runner, seconds):
    """Rounds of an untraced pass, a traced pass and a traced --jobs 2
    pass, until another round would not fit."""
    longest = 0.0
    while True:
        for traced, jobs in ((False, 1), (True, 1), (True, 2)):
            if runner.passes and runner.elapsed() + longest > DEADLINE_S:
                return
            longest = max(longest, runner.run_pass(traced, jobs))
        if runner.elapsed() + 3 * longest > seconds:
            return


# ---------------------------------------------------------------------------
# metrics

def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(runner):
    res = runner.results(False)
    out = {name: _median([r[name] for r in res])
           for name in ("wall_s", "peak_rss_mb")}
    setup = _median([r["setup_raw_s"] for r in res]
                    + [s for s, _ in runner.setups if s is not None])
    ref = _median(runner.references)
    out["setup_s"] = setup * SETUP_REF_S / ref if ref > 0 else setup
    return out


def layer_metrics(runner):
    traced = runner.results(True)
    if not traced:
        return {}
    out = {name: _median([r["layers"][name] for r in traced])
           for name in traced[0]["layers"]}
    scan2 = _median([r["layers"]["oracle.scan_s"] for r in runner.results(True, 2)])
    out["oracle.jobs2_speedup"] = out["oracle.scan_s"] / scan2 if scan2 > 0 else 0.0
    plain = _median([r["wall_s"] for r in runner.results(False)])
    out["trace.overhead"] = (_median([r["wall_s"] for r in traced]) / plain - 1
                             if plain > 0 else 0.0)
    return out


# ---------------------------------------------------------------------------
# verdicts and counts

def check_verdicts(runner, n_items, golden, record):
    """Items attempted and failed over all passes, with the reasons.  An
    item fails when it raised, its exit code or a digest differs from the
    golden, or one of its deterministic counts differs from another pass
    of the same code (this run's or an earlier run's, in ``record``)."""
    attempted = len(runner.setups)
    reasons = [err for _, err in runner.setups if err]
    failed = len(reasons)
    for kind, result, error in runner.passes:
        attempted += n_items
        if result is None:
            failed += n_items
            reasons.append(error)
            continue
        items = result["items"]
        if len(items) < n_items:
            failed += n_items - len(items)
            reasons.append(f"pass yielded {len(items)} of {n_items} items")
        for item_id, item in items.items():
            why = _item_failure(item_id, item, golden.get(item_id), record)
            if why:
                failed += 1
                reasons.append(f"{item_id}: {why}")
    return attempted, failed, reasons


def _item_failure(item_id, item, gold, counts):
    if "error" in item:
        return item["error"]
    if gold is None:
        return "no golden verdict"
    if item["exit"] != gold["exit"]:
        return f"exit {item['exit']}, golden {gold['exit']}"
    if item["digests"] != gold["digests"]:
        bad = sorted(k for k in set(item["digests"]) | set(gold["digests"])
                     if item["digests"].get(k) != gold["digests"].get(k))
        return f"digest differs from golden: {', '.join(bad)}"
    seen = counts.setdefault(item_id, {})
    for key, value in item["counts"].items():
        if seen.setdefault(key, value) != value:
            return f"count {key} = {value}, another pass gave {seen[key]}"
    return None


def load_record(path, src_digest):
    """Counts of earlier runs of this workload and seed on the same src."""
    try:
        rec = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return {}
    return rec["items"] if rec.get("src_sha256") == src_digest else {}


# ---------------------------------------------------------------------------
# run metadata

def src_facts():
    files = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return h.hexdigest(), lines


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    out = top.stdout.split()
    if top.returncode != 0 or len(out) != 2 or pathlib.Path(out[0]) != ROOT:
        return None
    return out[1]


def numpy_version():
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


# ---------------------------------------------------------------------------

def main():
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "cartperm" / "__init__.py").is_file():
        print(f"cartperm sources not found under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    compileall.compile_dir(str(SRC), quiet=1)

    src_digest, src_lines = src_facts()
    record_path = WORK / "counts" / f"{args.workload}-seed{args.seed}.json"
    record = load_record(record_path, src_digest)

    work = WORK / f"run-{os.getpid()}"
    runner = Runner(args.workload, args.seed, work)
    try:
        (run_traced if args.trace else run_untraced)(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wl = WORKLOADS[args.workload]
    attempted, failed, reasons = check_verdicts(runner, wl.n_items, golden, record)
    if not failed:
        record_path.parent.mkdir(parents=True, exist_ok=True)
        record_path.write_text(json.dumps(
            {"src_sha256": src_digest, "items": record}, indent=1, sort_keys=True))

    if args.trace:
        values = layer_metrics(runner)
        units = {name: layer_unit(name) for name in values}
    else:
        values = end_to_end_metrics(runner)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in sorted(values)}

    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    for why in reasons[:20]:
        print(f"FAIL {why}")
    print(json.dumps({"run": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy_version(),
        "git_commit": git_commit(), "src_sha256": src_digest,
        "src_lines": src_lines, "failed_frac": failed / max(1, attempted),
        "references": runner.references,
        "setups_raw": [s for s, _ in runner.setups],
        "passes": [{"traced": kind[0], "jobs": kind[1],
                    **({k: r[k] for k in PASS_FACTS}
                       if r else {"error": err})}
                   for kind, r, err in runner.passes],
        "counts": record,
    }}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
