"""Write bench/golden.json from the code as it stands.

    python3 bench/make_golden.py

The golden verdicts are: the exit code and the sha256 of every report of
each verify config and of the examples run; the digest of each sweep
point-set scan (its sorted stabilizer keys); and, for every member of every
sweep class (so every seed's draws are covered), the digest of the sorted
group keys plus the two-route verdict.  Counts are left out: they are
compared between passes of one version of the code, never with a golden.
Regenerate only when a change is meant to alter the program's output.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import shutil
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (  # noqa: E402
    SWEEP, WORKLOADS, finish_item, sweep_draw, sweep_item_id, sweep_orbit,
    sweep_sets,
)


def verdict(payload):
    item = finish_item(payload)
    if "error" in item:
        raise RuntimeError(item["error"])
    return {"exit": item["exit"], "digests": item["digests"]}


def main():
    from cartperm.monomials import MonomialSet
    from cartperm.oracle import oracle_stabilizers
    golden = {}
    out = HERE / "_work" / "golden"
    with contextlib.redirect_stdout(sys.stderr):
        for name in ("verify-group", "verify-scan", "examples"):
            wl = WORKLOADS[name]
            for item_id, payload in wl.run(wl.setup(0), out, 1):
                golden[item_id] = verdict(payload)
    shutil.rmtree(out, ignore_errors=True)
    for name, S in sweep_sets():
        stabs = oracle_stabilizers(S)
        golden[f"sweep/{name}/scan"] = verdict({"keys": stabs})
        for gens in SWEEP[name][2]:
            for key in sorted(sweep_orbit(S, gens)):
                L = MonomialSet(S.m, key, S.sizes)
                golden[sweep_item_id(name, L)] = verdict(sweep_draw(L, S, stabs))
    path = HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} verdicts to {path}")


if __name__ == "__main__":
    main()
