"""The memo of span verdicts and point images (oracle._last): a hit equals
a cold run of the kernels, every point set and monomial set gets its own
verdict, returned masks are fresh, the memo holds the last map array only,
and cartperm verify and the sweep's pair of calls run the span kernel once
over the stabilizers."""

import importlib.util
import json
import pathlib
import random

import numpy as np
import pytest

from cartperm import oracle
from cartperm.cli import main
from cartperm.field import GF
from cartperm.monomials import MonomialSet, divisibility_closure, random_decreasing_set
from cartperm.oracle import (
    AffineMaps, keeps_span, oracle_affine_perm_group, oracle_stabilizers, two_route_agreement,
)
from cartperm.points import CartesianSet, full_component, mult_component

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

# the sweep's point sets and draws per set
SWEEP_SETS = {
    "gf4^2": (lambda: CartesianSet([full_component(GF(4))] * 2), 4),
    "gf2^3": (lambda: CartesianSet([full_component(GF(2))] * 3), 3),
}


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    """An empty memo for each test, put back afterwards."""
    monkeypatch.setattr(oracle, "_LAST", oracle._Last())


def kernel_calls(monkeypatch):
    """The (len(ab), check) of every call of the unmemoized span kernel."""
    calls = []
    scan = oracle._span_scan

    def counted(kern, L, S, ab, limit=oracle._SPAN_CELLS, check=None):
        calls.append((len(ab), check))
        return scan(kern, L, S, ab, limit, check)

    monkeypatch.setattr(oracle, "_span_scan", counted)
    return calls


def image_builds(monkeypatch):
    """The len(ab) of every call of the unmemoized images builder."""
    calls = []
    build = oracle._checked_images

    def counted(kern, S, ab):
        calls.append(len(ab))
        return build(kern, S, ab)

    monkeypatch.setattr(oracle, "_checked_images", counted)
    return calls


def cold_span(S, L, ab):
    return oracle._span_scan(oracle._Kernel(S.field), L, S, ab)


def same_images(a, b, n):
    t = np.arange(n)
    return np.array_equal(a.inside(), b.inside()) and np.array_equal(a(t), b(t))


def sweep_draws(S, count, seed):
    """count distinct seeded decreasing sets, drawn as the sweep draws."""
    rng = random.Random(f"memo:{seed}")
    draws = []
    while len(draws) < count:
        L = random_decreasing_set(rng, S.sizes)
        if L not in draws:
            draws.append(L)
    return draws


@pytest.mark.parametrize("name", sorted(SWEEP_SETS))
def test_hit_equals_cold_call(name, monkeypatch):
    make, count = SWEEP_SETS[name]
    S = make()
    kern = oracle._Kernel(S.field)
    stabs = oracle_stabilizers(S)
    listed = list(stabs)
    calls = kernel_calls(monkeypatch)
    builds = image_builds(monkeypatch)
    for L in sweep_draws(S, count, name):
        want = cold_span(S, L, stabs.ab)
        del calls[:]
        # AffineMaps and object lists pack to the same bytes: one kernel run
        for maps in (stabs, listed, stabs, listed):
            assert np.array_equal(keeps_span(L, S, maps), want)
            assert np.array_equal(oracle._span_ok(kern, L, S, oracle._as_array(maps, S.m)), want)
        assert list(oracle_affine_perm_group(L, S, stabilizers=listed)) \
            == list(oracle_affine_perm_group(L, S, stabilizers=stabs)) \
            == list(AffineMaps(S.field, stabs.ab[want]))
        assert calls == [(len(stabs), None)]
        assert two_route_agreement(L, S, listed) == (True, [])
    # the draws on one list share its images
    assert builds == [len(stabs)]
    cold = oracle._checked_images(kern, S, stabs.ab)
    for maps in (stabs, listed):
        images = oracle._stabilizer_images(kern, S, oracle._as_array(maps, S.m))
        assert images is oracle._stabilizer_images(kern, S, stabs.ab)
        assert same_images(images, cold, len(stabs))


def test_each_point_set_and_monomial_set_has_its_own_entry():
    # every invertible affine map stabilizes GF(4)^2, so the stabilizers
    # of GF(4) x mu3 are stabilizers of both sets
    F = GF(4)
    full = CartesianSet([full_component(F)] * 2)
    torus = CartesianSet([full_component(F), mult_component(F, 3)])
    ab = oracle_stabilizers(torus).ab
    kern = oracle._Kernel(F)
    L1 = divisibility_closure(MonomialSet(2, [(1, 2)], bound=torus.sizes))
    L2 = divisibility_closure(MonomialSet(2, [(1, 0)], bound=torus.sizes))
    wants = {(S, L): cold_span(S, L, ab) for S in (full, torus) for L in (L1, L2)}
    # 36 of the 144 maps keep L1 on GF(4)^2, all of them on GF(4) x mu3,
    # and 36 keep L2 there
    assert [int(w.sum()) for w in wants.values()] == [36, 36, 144, 36]
    # one array under each point set and each monomial set in turn: the same
    # members under another S, and another L under the same S
    for _ in range(2):
        for L in (L1, L2):
            for S in (full, torus):
                assert np.array_equal(oracle._span_ok(kern, L, S, ab), wants[S, L])
        for S in (full, torus):
            for L in (L1, L2):
                assert np.array_equal(oracle._span_ok(kern, L, S, ab), wants[S, L])
    images = {}
    for _ in range(2):
        for S in (full, torus):
            images[S] = oracle._stabilizer_images(kern, S, ab)
            assert same_images(images[S], oracle._checked_images(kern, S, ab), len(ab))
    assert not np.array_equal(images[full](np.arange(len(ab))),
                              images[torus](np.arange(len(ab))))


def test_returned_masks_are_fresh():
    S = CartesianSet([full_component(GF(3))] * 2)
    L = divisibility_closure(MonomialSet(2, [(1, 1)], bound=S.sizes))
    ab = oracle_stabilizers(S).ab
    kern = oracle._Kernel(S.field)
    want = cold_span(S, L, ab)
    got = oracle._span_ok(kern, L, S, ab)
    got[:] = ~got
    again = oracle._span_ok(kern, L, S, ab)
    assert np.array_equal(again, want) and again is not got
    again[0] = not again[0]
    assert np.array_equal(oracle._span_ok(kern, L, S, ab), want)
    assert len(oracle_affine_perm_group(L, S, stabilizers=AffineMaps(S.field, ab))) \
        == int(want.sum()) == 72


def test_memo_holds_the_last_array_only(monkeypatch):
    S = CartesianSet([full_component(GF(4))] * 2)
    stabs = oracle_stabilizers(S)
    kern = oracle._Kernel(S.field)
    draws = [divisibility_closure(MonomialSet(2, [u], bound=S.sizes))
             for u in np.ndindex(*S.sizes)]
    calls = kernel_calls(monkeypatch)
    # many monomial sets over one array: the verdict of the last one is kept
    for L in draws:
        assert np.array_equal(oracle._span_ok(kern, L, S, stabs.ab), cold_span(S, L, stabs.ab))
    assert oracle._LAST.span[0] == (S, frozenset(draws[-1].monomials))
    del calls[:]
    oracle._span_ok(kern, draws[-1], S, stabs.ab)
    oracle._span_ok(kern, draws[0], S, stabs.ab)
    assert calls == [(len(stabs), None)]
    # many arrays: only the last one's bytes are kept, and an earlier one
    # runs the kernel again
    L = draws[0]
    for k in range(12):
        sub = stabs.ab[k:k + 100]
        assert np.array_equal(oracle._span_ok(kern, L, S, sub), cold_span(S, L, sub))
        oracle._stabilizer_images(kern, S, sub)
        assert oracle._LAST.key == (sub.dtype.str, sub.shape, sub.tobytes())
    del calls[:]
    oracle._span_ok(kern, L, S, stabs.ab[11:111])
    oracle._span_ok(kern, L, S, stabs.ab[:100])
    assert calls == [(100, None)]
    assert oracle._LAST.images is None


def test_subset_checks_and_other_chunks_bypass_the_memo(monkeypatch):
    S = CartesianSet([full_component(GF(3))] * 2)
    L = divisibility_closure(MonomialSet(2, [(1, 1)], bound=S.sizes))
    ab = oracle_stabilizers(S).ab
    kern = oracle._Kernel(S.field)
    calls = kernel_calls(monkeypatch)
    for _ in range(2):
        oracle._span_ok(kern, L, S, ab, check=[(1, 1)])
        oracle._span_ok(kern, L, S, ab, 40)
    assert len(calls) == 4 and oracle._LAST.key is None


def full_list_runs(calls, n):
    return sum(1 for size, check in calls if size == n and check is None)


def test_verify_runs_the_span_kernel_once(tmp_path, monkeypatch):
    cfg = {"field": {"q": 4},
           "set": {"components": [{"kind": "full"}, {"kind": "full"}]},
           "monomials": {"generators": [[1, 1]]},
           "tasks": ["oracle-verify"]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    calls = kernel_calls(monkeypatch)
    assert main(["--out", str(tmp_path / "out"), "verify", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "oracle-verify.json").read_text())
    assert report["affine_permutation_group"]["two_route_agreement"] is True
    assert full_list_runs(calls, report["stabilizer_count"]) == 1


def test_sweep_draw_runs_the_span_kernel_once(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    S = CartesianSet([full_component(GF(2))] * 3)
    stabs = list(oracle_stabilizers(S))      # as the sweep holds them
    calls = kernel_calls(monkeypatch)
    for L in sweep_draws(S, 2, "sweep"):
        del calls[:]
        got = workloads.sweep_draw(L, S, stabs)
        assert got["two_route"] is True
        assert two_route_agreement(L, S, stabs) == (True, [])
        assert full_list_runs(calls, len(stabs)) == 1
