"""The benchmark harness's view of the library.  bench/workloads.py and
bench/spans.py drive cartperm from outside src/: they scan with
oracle_stabilizers(S, jobs=...), pass object lists to
oracle_affine_perm_group and two_route_agreement, read T.A and T.b of what
comes back, bind the parameter S and take len() of results, and wrap every
entry point named in spans.LAYERS, turning each family's members into a
timed stream.  A change that breaks any of that, or makes a traced report
differ from an untraced one, fails here.  The bench files are loaded, never modified."""

import importlib.util
import inspect
import json
import pathlib
import sys

import numpy as np

from cartperm.field import GF
from cartperm.monomials import MonomialSet
from cartperm.oracle import AffineMaps
from cartperm.points import CartesianSet, full_component
from family_reference import enumerate_all_affine

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def gf2_square():
    """GF(2)^2 with L = {1, x1}: 24 stabilizers; the group keeps row 1 free
    of x2, 2 linear parts times 4 translations."""
    F = GF(2)
    S = CartesianSet([full_component(F)] * 2)
    L = MonomialSet(2, [(0, 0), (1, 0)], bound=S.sizes)
    group = [T for T in enumerate_all_affine(F, 2, invertible_only=True)
             if T.A[0][1] == 0]
    return S, L, group


def run_sweep(workloads, S, L, tmp_path):
    """One scan and one draw of SweepWorkload on S, as verdicts."""
    items = workloads.SweepWorkload().run([("gf2^2", S, [L])], tmp_path, 1)
    return {item_id: workloads.finish_item(payload) for item_id, payload in items}


def test_sweep_draw_and_verdict(tmp_path):
    workloads = load("workloads")
    S, L, group = gf2_square()
    got = run_sweep(workloads, S, L, tmp_path)
    draw = workloads.sweep_item_id("gf2^2", L)
    assert sorted(got) == sorted(["sweep/gf2^2/scan", draw])
    assert got["sweep/gf2^2/scan"]["counts"] == {"stabilizers": 24}
    assert got[draw]["counts"] == {"group_size": 8}
    want = workloads.finish_item({"keys": group, "two_route": True})
    assert got[draw]["digests"] == want["digests"]


def traced(spans, monkeypatch):
    """A Tracer installed by spans.install, whose wrappers monkeypatch
    removes after the test."""
    import cartperm.cli  # noqa: F401  (every module that install wraps)
    # install wraps in place; record every function it may replace, so that
    # monkeypatch puts each one back after the test
    for name, module in list(sys.modules.items()):
        if name == "cartperm" or name.startswith("cartperm."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value):
                    monkeypatch.setattr(module, attr, value)
    for paths in spans.LAYERS.values():
        for path in paths:
            owner, attr = spans._resolve(path)
            fn = inspect.getattr_static(owner, attr)
            assert callable(getattr(owner, attr)), path
            if inspect.isclass(owner):
                monkeypatch.setattr(owner, attr, fn)
    tracer = spans.Tracer()
    spans.install(tracer)
    return tracer


def test_traced_family_members_are_the_plain_arrays(monkeypatch):
    """Every family case of test_family_arrays.py lists the same members,
    in the same order, under spans.install as without it.  The tracer turns
    each family's members() into a stream of objects, so a family that
    builds its members from another family's members() fails here."""
    from test_family_arrays import FAMILIES
    plain = {name: make().members().ab for name, make in FAMILIES.items()}
    tracer = traced(load("spans"), monkeypatch)
    for name, make in FAMILIES.items():
        fam = make()
        got = AffineMaps.packed(fam.F, fam.members(), fam.m).ab
        assert got.dtype == np.uint16 and np.array_equal(got, plain[name]), name
    items = sum(n for key, n in tracer.counts.items() if key.endswith(".members.items"))
    assert items == sum(map(len, plain.values()))


def test_traced_sweep_draw(tmp_path, monkeypatch):
    workloads, spans = load("workloads"), load("spans")
    tracer = traced(spans, monkeypatch)
    S, L, _ = gf2_square()
    got = run_sweep(workloads, S, L, tmp_path)
    assert all("error" not in item for item in got.values()), got
    counts = tracer.counts
    assert counts["oracle.scan_calls"] == 1 and counts["oracle.stabilizers"] == 24
    assert counts["oracle.group_members"] == 8
    names = {span[0] for span in tracer.spans}
    assert {"oracle.oracle_stabilizers", "oracle.oracle_affine_perm_group",
            "oracle.two_route_agreement"} <= names
    assert set(spans.layer_self_s(tracer)) == set(spans.LAYERS)


def test_traced_reports_are_byte_identical(tmp_path, monkeypatch):
    """The verify-group config, the examples and a mixed config (GF(5) full
    x μ2) under spans.install write the same report bytes as without it.
    The tracer hands every family's members on as a stream of objects
    rather than the family's AffineMaps, so this guards the callers that
    pack them, the families among them."""
    from cartperm import cli
    config = next((BENCH / "configs" / "verify-group").glob("*.json"))
    mixed = tmp_path / "gf5-full-mu2.json"
    mixed.write_text(json.dumps({
        "field": {"q": 5},
        "set": {"components": [{"kind": "full"}, {"kind": "mult", "order": 2}]},
        "monomials": {"generators": [[2, 1]]},
        "tasks": ["families", "oracle-verify"]}))
    runs = {"group": ["verify", str(config)], "examples": ["examples"],
            "mixed": ["verify", str(mixed)]}

    def reports(out):
        for name, argv in runs.items():
            assert cli.main(["--out", str(out / name)] + argv) == cli.EXIT_OK
        return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.glob("*/*.json"))}

    plain = reports(tmp_path / "plain")
    tracer = traced(load("spans"), monkeypatch)
    assert reports(tmp_path / "traced") == plain
    assert {"group/oracle-verify.json", "examples/examples.json",
            "mixed/families.json", "mixed/oracle-verify.json"} <= set(plain)
    counts = tracer.counts
    # the mixed config alone runs MixedGeneralFamily: its 200 members, once
    assert counts["families.MixedGeneralFamily.members.items"] == 200
    assert counts["families.BorelClaimedFamily.members.items"] == 576
    assert counts["families.AdditivePowerFamily.members.items"] == 2880 + 12
