"""The four benchmark workloads.

Each workload has a set-up step (import cartperm.cli, load its configs,
build the numpy field tables) and a pass that yields one item per verdict:
a verify config, the examples run, a point-set scan or a sweep draw.  A
pass's items are turned into digests and counts after its timed window
closes, so checking them costs the measured time nothing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
import random

HERE = pathlib.Path(__file__).resolve().parent
CONFIGS = HERE / "configs"


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# cartperm verify / cartperm examples

class CliWorkload:
    """Runs ``cartperm.cli.main`` once per item; every report file it writes
    is digested.  ``fields`` are the field orders whose tables set-up
    builds, ``configs`` the verify configs (none for examples)."""

    def __init__(self, name, why, configs=(), fields=()):
        self.name = name
        self.why = why
        self.configs = sorted(configs)
        self.fields = fields
        self.n_items = max(1, len(self.configs))

    def setup(self, seed):
        from cartperm import cli
        fields = [cli.GF(q) for q in self.fields]
        for path in self.configs:
            cfg = json.loads(path.read_text())
            F = cli.load_field(cfg["field"])
            S = cli.load_set(F, cfg["set"])
            cli.load_monomials(cfg["monomials"], S)
            fields.append(F)
        for F in fields:
            F.np_tables()
        return None

    def run(self, state, out_dir, jobs):
        from cartperm import cli
        argv = ["--jobs", str(jobs)]
        if not self.configs:
            out = out_dir / "examples"
            yield "examples/examples", _guarded(
                lambda: {"exit": cli.main(argv + ["--out", str(out), "examples"]),
                         "reports": out})
            return
        for path in self.configs:
            out = out_dir / path.stem
            yield f"{self.name}/{path.stem}", _guarded(
                lambda: {"exit": cli.main(argv + ["--out", str(out), "verify",
                                                  str(path)]),
                         "reports": out})


def _guarded(call):
    try:
        return call()
    except Exception as e:  # an item that raises is a failed item
        return {"error": f"{type(e).__name__}: {e}"}


# ---------------------------------------------------------------------------
# library sweep

# point set -> size classes of decreasing monomial sets.  Each class is the
# orbit, under permuting the variables, of the divisor closure of its
# generators, and a pass checks one seeded draw from each class.  The work
# a set costs is not invariant under permuting the variables (the span
# check stops at the first failing member, in graded order), so the GF(4)^2
# classes are symmetric ones: a single set each, the same for every seed.
# Two GF(2)^3 classes have three members each; their sets cost under 0.1 s,
# so the seed changes the inputs without moving the pass's time.
SWEEP = {
    "gf4^2": (4, 2, [[(1, 1)], [(2, 2)], [(2, 1), (1, 2)], [(3, 1), (1, 3)]]),
    "gf2^3": (2, 3, [[(1, 0, 0)], [(1, 1, 0)], [(1, 1, 1)]]),
}
MAX_DRAWS = 100_000


def _closure_key(L):
    return tuple(L.sorted())


def sweep_orbit(S, gens):
    """Closure keys of every variable permutation of the class gens."""
    from cartperm.monomials import MonomialSet, divisibility_closure
    keys = set()
    for perm in itertools.permutations(range(S.m)):
        moved = [tuple(u[perm[i]] for i in range(S.m)) for u in gens]
        keys.add(_closure_key(divisibility_closure(
            MonomialSet(S.m, moved, S.sizes))))
    return keys


def sweep_sets():
    """(name, point set) for each sweep point set."""
    from cartperm.field import GF
    from cartperm.points import CartesianSet, full_component
    return [(name, CartesianSet([full_component(GF(q))] * m))
            for name, (q, m, _) in SWEEP.items()]


class SweepWorkload:
    """Scans each point set once, then checks seeded decreasing monomial
    sets on it through the span route and the code route."""

    name = "sweep"
    why = ("library use: seeded monomial sets through the span and code "
           "routes on GF(4)^2 and GF(2)^3 stabilizers; scan and axioms idle")
    n_items = sum(1 + len(classes) for _, _, classes in SWEEP.values())

    def setup(self, seed):
        import cartperm.cli  # noqa: F401  (set-up cost is the same as the CLI's)
        from cartperm.monomials import random_decreasing_set
        state = []
        for name, S in sweep_sets():
            S.field.np_tables()
            draws = []
            for c, gens in enumerate(SWEEP[name][2]):
                orbit = sweep_orbit(S, gens)
                rng = random.Random(f"sweep:{seed}:{name}:{c}")
                for _ in range(MAX_DRAWS):
                    L = random_decreasing_set(rng, S.sizes)
                    if _closure_key(L) in orbit:
                        draws.append(L)
                        break
                else:
                    raise RuntimeError(f"no draw of class {gens} on {name}")
            state.append((name, S, draws))
        return state

    def run(self, state, out_dir, jobs):
        from cartperm.oracle import oracle_stabilizers
        for name, S, draws in state:
            stabs = []

            def scan():
                stabs.extend(oracle_stabilizers(S, jobs=jobs))
                return {"keys": stabs}

            yield f"sweep/{name}/scan", _guarded(scan)
            for L in draws:
                yield sweep_item_id(name, L), _guarded(
                    lambda: sweep_draw(L, S, stabs))


def sweep_draw(L, S, stabs):
    """The group of L on S and the two-route verdict over the stabilizers."""
    from cartperm.oracle import oracle_affine_perm_group, two_route_agreement
    group = oracle_affine_perm_group(L, S, stabilizers=stabs)
    agree, _ = two_route_agreement(L, S, stabs)
    return {"keys": group, "two_route": agree}


def sweep_item_id(name, L):
    mons = ",".join("".join(map(str, u)) for u in _closure_key(L))
    return f"sweep/{name}/L={mons}"


WORKLOADS = {
    "verify-group": CliWorkload(
        "verify-group",
        "cartperm verify, GF(4)^2 baseline config: group-axioms check "
        "dominates, the scan is small",
        configs=(CONFIGS / "verify-group").glob("*.json")),
    "verify-scan": CliWorkload(
        "verify-scan",
        "cartperm verify on four configs with large affine spaces and small "
        "groups: the stabilizer scan dominates",
        configs=(CONFIGS / "verify-scan").glob("*.json")),
    "sweep": SweepWorkload(),
    "examples": CliWorkload(
        "examples",
        "cartperm examples: candidate stream, stream scan, m = 3 span checks, "
        "GF(16) axioms and substitution",
        fields=(3, 9, 16)),
}


# ---------------------------------------------------------------------------
# verdicts: digests and counts, computed after the timed window

def finish_item(payload):
    """Digest of every report (or of the group keys and route verdict) and
    the deterministic counts the item's outputs carry."""
    if "error" in payload:
        return {"error": payload["error"]}
    out = {"exit": payload.get("exit"), "digests": {}, "counts": {}}
    if "reports" in payload:
        for path in sorted(payload["reports"].glob("*.json")):
            data = path.read_bytes()
            out["digests"][path.name] = sha256_bytes(data)
            if path.name == "oracle-verify.json":
                out["counts"].update(_verify_counts(json.loads(data)))
        return out
    keys = sorted([[list(r) for r in T.A], list(T.b)] for T in payload["keys"])
    verdict = {"keys": keys}
    if "two_route" in payload:
        verdict["two_route"] = payload["two_route"]
        out["counts"]["group_size"] = len(keys)
    else:
        out["counts"]["stabilizers"] = len(keys)
    out["digests"]["verdict"] = sha256_bytes(
        json.dumps(verdict, sort_keys=True).encode())
    return out


def _verify_counts(report):
    counts = {"stabilizers": report["stabilizer_count"]}
    group = report.get("affine_permutation_group")
    if group is not None:
        counts["group_size"] = group["size"]
        counts["axioms_pairs"] = group["group_axioms"]["composition_pairs_checked"]
    return counts
