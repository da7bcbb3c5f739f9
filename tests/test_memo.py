"""The caches of the stabilizer-list facts (cartperm.oracle), one
functools.lru_cache(maxsize=1) each: span verdicts (_span_verdicts), point
images (_stabilizer_images), distinct linear parts (_list_linear_parts) and
the translation basis of S (_translation_images).  A hit equals a cold run
of the kernels, every point set and monomial set gets its own verdict,
every field its own classes under row scaling (no cache holds them),
returned masks are fresh and held arrays read-only, each cache holds the
last inputs only, and cartperm verify and the sweep's pair of calls run the
span kernel once, which walks the stabilizers' classes under row scaling:
the classes of their distinct linear parts when L is decreasing and some
map has an offset, else of their maps.  Over all of the sweep's draws on
one list, its linear parts and the translation basis are found once, the
basis survives a change of list on one S, and a group-axioms report
between the two calls, as cartperm verify makes it, evicts nothing.  The
caches start empty in each test (conftest.py)."""

import importlib.util
import json
import pathlib
import random

import numpy as np
import pytest

from cartperm import oracle
from cartperm.affine import SpanChecker
from cartperm.cli import main
from cartperm.codes import exponent_set
from cartperm.field import GF
from cartperm.monomials import MonomialSet, divisibility_closure, random_decreasing_set
from cartperm.oracle import (
    AffineMaps, group_axioms_report, keeps_span, oracle_affine_perm_group, oracle_stabilizers,
    two_route_agreement,
)
from cartperm.points import CartesianSet, full_component, mult_component
from conftest import LIST_CACHES
from test_scaling import monic_row

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

# the sweep's point sets, draws per set, distinct linear parts of their
# stabilizers, and the classes of those under row scaling.  The rows of an
# invertible A are nonzero, so the scalings diag(lambda), lambda in (F*)^m,
# act freely: GL(2, 4) has 180 elements and 180 / |F4*|^2 = 20 classes,
# the ordered pairs of distinct points of the projective line over GF(4)
# (5 * 4 = 20); over GF(2) every class is one map, 168 = |GL(3, 2)|
SWEEP_SETS = {
    "gf4^2": (lambda: CartesianSet([full_component(GF(4))] * 2), 4, 180, 20),
    "gf2^3": (lambda: CartesianSet([full_component(GF(2))] * 3), 3, 168, 168),
}


def kernel_calls(monkeypatch):
    """The (maps walked, check) of every call of the unmemoized span
    kernel.  The maps are counted where the walk of each chunk starts, at
    _Forms.one, so they are the classes under row scaling the kernel walks,
    not the maps it is handed."""
    calls, walked = [], []
    scan, one = oracle._span_scan, oracle._Forms.one

    def counted_one(self, count):
        walked.append(count)
        return one(self, count)

    def counted(kern, L, S, ab, check=None):
        del walked[:]
        ok = scan(kern, L, S, ab, check)
        calls.append((sum(walked), check))
        return ok

    monkeypatch.setattr(oracle._Forms, "one", counted_one)
    monkeypatch.setattr(oracle, "_span_scan", counted)
    return calls


def misses(cache):
    """The misses of one of the list caches so far."""
    return cache.cache_info().misses


def calls_of(monkeypatch, name, fact):
    """fact(*args) of every call of the oracle function name."""
    calls = []
    call = getattr(oracle, name)

    def counted(*args):
        calls.append(fact(*args))
        return call(*args)

    monkeypatch.setattr(oracle, name, counted)
    return calls


def bench_workloads():
    """bench/workloads.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def linear_parts(ab):
    """The number of distinct linear parts A of ab, from their bytes."""
    return len({A.tobytes() for A in np.ascontiguousarray(ab[:, :, :ab.shape[1]])})


def kernel_maps(F, ab):
    """The number of maps a span kernel run over ab walks for a decreasing
    L: the classes under row scaling of its distinct linear parts A when
    some map has an offset b, else of its maps, each class one tuple of
    monic rows."""
    m = ab.shape[1]
    blocks = ab[:, :, :m] if ab[:, :, m].any() else ab
    return len({tuple(monic_row(F, row) for row in x) for x in blocks.tolist()})


def full_runs(calls):
    """The sizes of the kernel runs that check all of L (check=None)."""
    return [size for size, check in calls if check is None]


def cold_span(S, L, ab):
    return oracle._span_scan(S.field.np_tables(), exponent_set(L, S), S, ab)


def span_ok(kern, L, S, ab):
    """The cached span verdicts of the members of L on ab."""
    return oracle._span_ok(kern, exponent_set(L, S), S, ab)


def images_of(kern, S, ab):
    """The cached, checked point images of the maps of ab on S."""
    return oracle._stabilizer_images(oracle._ArrayKey(ab), kern, S)


def cold_images(kern, S, ab):
    """The checked point images of the maps of ab on S, not cached."""
    return oracle._stabilizer_images.__wrapped__(oracle._ArrayKey(ab), kern, S)


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
    make, count, linear, classes = SWEEP_SETS[name]
    S = make()
    kern = S.field.np_tables()
    stabs = oracle_stabilizers(S)
    listed = list(stabs)
    assert kernel_maps(S.field, stabs.ab) == classes <= linear_parts(stabs.ab) == linear \
        < len(stabs)
    calls = kernel_calls(monkeypatch)
    for L in sweep_draws(S, count, name):
        want = cold_span(S, L, stabs.ab)
        del calls[:]
        # AffineMaps and object lists pack to the same bytes: one kernel run
        for maps in (stabs, listed, stabs, listed):
            assert np.array_equal(keeps_span(L, S, maps), want)
            assert np.array_equal(span_ok(kern, L, S, oracle._as_array(maps, S.m)), want)
        assert list(oracle_affine_perm_group(L, S, stabilizers=listed)) \
            == list(oracle_affine_perm_group(L, S, stabilizers=stabs)) \
            == list(AffineMaps(S.field, stabs.ab[want]))
        assert calls == [(classes, None)]
        assert two_route_agreement(L, S, listed) == (True, [])
    # the draws on one list share its images
    assert misses(oracle._stabilizer_images) == 1
    cold = cold_images(kern, S, stabs.ab)
    for maps in (stabs, listed):
        images = images_of(kern, S, oracle._as_array(maps, S.m))
        assert images is images_of(kern, S, stabs.ab)
        assert same_images(images, cold, len(stabs))
    assert misses(oracle._stabilizer_images) == 1


def test_each_point_set_and_monomial_set_has_its_own_entry():
    # every invertible affine map stabilizes GF(4)^2, so the stabilizers
    # of GF(4) x mu3 are stabilizers of both sets
    F = GF(4)
    full = CartesianSet([full_component(F)] * 2)
    torus = CartesianSet([full_component(F), mult_component(F, 3)])
    ab = oracle_stabilizers(torus).ab
    kern = F.np_tables()
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
                assert np.array_equal(span_ok(kern, L, S, ab), wants[S, L])
        for S in (full, torus):
            for L in (L1, L2):
                assert np.array_equal(span_ok(kern, L, S, ab), wants[S, L])
    images = {}
    for _ in range(2):
        for S in (full, torus):
            images[S] = images_of(kern, S, ab)
            assert same_images(images[S], cold_images(kern, S, ab), len(ab))
    assert not np.array_equal(images[full](np.arange(len(ab))),
                              images[torus](np.arange(len(ab))))


def test_each_field_has_its_own_classes():
    # the rows of T = (2 x1 + x2, x1 + 2 x2) become monic by the field's
    # inverses: over GF(3) the class is (x1 + 2 x2, x1 + 2 x2), over GF(5)
    # (x1 + 3 x2, x1 + 3 x2).  Over GF(5) x1 x2 pulls back under T to
    # 2 x1^2 + 5 x1 x2 + 2 x2^2 = 4 on mu2 x mu2, outside span{x1 x2}, while
    # the GF(3) class pulls it back to (x1 + 2 x2)^2 = 4 x1 x2 there, so a
    # class kept from GF(3) would answer True
    ab = np.array([[[2, 1, 0], [1, 2, 0]]], dtype=np.uint16)
    sets = [CartesianSet([full_component(GF(3))] * 2),
            CartesianSet([mult_component(GF(5), 2)] * 2)]
    L = [(1, 1)]
    for order in (sets, sets[::-1]):
        oracle._span_verdicts.cache_clear()
        for S in order:
            T = next(iter(AffineMaps(S.field, ab)))
            assert keeps_span(L, S, AffineMaps(S.field, ab)).tolist() == [False]
            assert SpanChecker(L, S).check(T) is False


def test_returned_masks_are_fresh():
    S = CartesianSet([full_component(GF(3))] * 2)
    L = divisibility_closure(MonomialSet(2, [(1, 1)], bound=S.sizes))
    ab = oracle_stabilizers(S).ab
    kern = S.field.np_tables()
    want = cold_span(S, L, ab)
    got = span_ok(kern, L, S, ab)
    got[:] = ~got
    again = span_ok(kern, L, S, ab)
    assert np.array_equal(again, want) and again is not got
    again[0] = not again[0]
    assert np.array_equal(span_ok(kern, L, S, ab), want)
    assert len(oracle_affine_perm_group(L, S, stabilizers=AffineMaps(S.field, ab))) \
        == int(want.sum()) == 72


def test_memo_holds_the_last_array_only(monkeypatch):
    S = CartesianSet([full_component(GF(4))] * 2)
    stabs = oracle_stabilizers(S)
    kern = S.field.np_tables()
    draws = [divisibility_closure(MonomialSet(2, [u], bound=S.sizes))
             for u in np.ndindex(*S.sizes)]
    calls = kernel_calls(monkeypatch)
    # many monomial sets over one array: the verdict of the last one is kept
    for L in draws:
        assert np.array_equal(span_ok(kern, L, S, stabs.ab), cold_span(S, L, stabs.ab))
    assert oracle._span_verdicts.cache_info()[1:] == (len(draws), 1, 1)
    del calls[:]
    span_ok(kern, draws[-1], S, stabs.ab)
    span_ok(kern, draws[0], S, stabs.ab)
    # 180 linear parts, 180 / |F4*|^2 = 20 classes (SWEEP_SETS)
    assert calls == [(kernel_maps(S.field, stabs.ab), None)] == [(20, None)]
    # many arrays: only the last one is kept, and an earlier one runs the
    # kernel again
    L = draws[0]
    for k in range(12):
        sub = stabs.ab[k:k + 100]
        assert np.array_equal(span_ok(kern, L, S, sub), cold_span(S, L, sub))
        images_of(kern, S, sub)
        assert oracle._stabilizer_images.cache_info()[1:] == (k + 1, 1, 1)
    del calls[:]
    span_ok(kern, L, S, stabs.ab[11:111])
    span_ok(kern, L, S, stabs.ab[:100])
    # the first 180 maps, in counter order, have no offset, so the kernel
    # takes the classes of the first 100 maps.  Their A = (a b; c d) come
    # in order of d, then b, c, a: 36 with d = 0, whose second row is a
    # point (1:0) of the projective line over GF(4) and first row any of
    # the 4 others; 48 with d = 1, whose second row is any of the other 4
    # points and first row any of the 4 points besides it; and 16 with
    # d = 2 in classes met before.  So 4 + 4 * 4 = 20, every class of
    # GL(2, 4)
    assert calls == [(kernel_maps(S.field, stabs.ab[:100]), None)] == [(20, None)]
    # the span verdicts of other arrays build no images
    assert misses(oracle._stabilizer_images) == 12


def test_row_prefix_search_leaves_the_memo_empty(monkeypatch):
    # closure{x1 x2} over GF(3)^2: x1 and x2 filter the rows, and the new
    # mixed member x1 x2 makes step 2 check every member in x1, x2, each a
    # subset check that runs the kernel directly.  The 24 rows a.x + c of
    # each filter have 8 linear parts, 4 of them monic (the points of the
    # projective line over GF(3)); the 432 invertible products at step 2
    # have 48 linear parts, 48 / |F3*|^2 = 12 monic: the kernel drops the
    # offsets of every check, since each checked set with 1 is closed under
    # division
    S = CartesianSet([full_component(GF(3))] * 2)
    L = divisibility_closure(MonomialSet(2, [(1, 1)], bound=S.sizes))
    calls = kernel_calls(monkeypatch)
    for _ in range(2):
        assert len(oracle_affine_perm_group(L, S)) == 72
        assert len(oracle_stabilizers(S)) == 432
    assert [(walked, sorted(check)) for walked, check in calls] == [
        (4, [(1, 0)]), (4, [(0, 1)]), (12, [(0, 0), (0, 1), (1, 0), (1, 1)])] * 2
    assert [cache.cache_info().currsize for cache in LIST_CACHES] == [0] * 4


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
    stabs = oracle_stabilizers(CartesianSet([full_component(GF(4))] * 2))
    assert len(stabs) == report["stabilizer_count"]
    # 180 linear parts, 180 / |F4*|^2 = 20 classes (SWEEP_SETS)
    assert full_runs(calls) == [kernel_maps(GF(4), stabs.ab)] == [20]


def test_gf16_list_runs_the_kernel_once_per_class_of_linear_parts(monkeypatch):
    """The 921,600 stabilizers of GF(16) full x mu5 x mu3 have 57,600
    linear parts: a first row a.x with a_1 != 0, 15 * 16 * 16 = 3,840 of
    them, times a x2 and a' x3 with a in mu5 and a' in mu3, 15 pairs.
    Monic, the first rows are 16 * 16 = 256 and the other two one, so the
    decreasing closure{x1^3 x2 x3} runs the kernel on 256 maps."""
    F = GF(16)
    S = CartesianSet([full_component(F), mult_component(F, 5), mult_component(F, 3)])
    L = divisibility_closure(MonomialSet(3, [(3, 1, 1)], bound=S.sizes))
    stabs = oracle_stabilizers(S)
    calls = kernel_calls(monkeypatch)
    assert len(oracle_affine_perm_group(L, S, stabilizers=stabs)) == 3600
    assert (len(stabs), linear_parts(stabs.ab)) == (921_600, 57_600)
    assert full_runs(calls) == [256]


def test_sweep_draw_runs_the_span_kernel_once(monkeypatch):
    workloads = bench_workloads()
    S = CartesianSet([full_component(GF(2))] * 3)
    stabs = list(oracle_stabilizers(S))      # as the sweep holds them
    calls = kernel_calls(monkeypatch)
    for L in sweep_draws(S, 2, "sweep"):
        del calls[:]
        got = workloads.sweep_draw(L, S, stabs)
        assert got["two_route"] is True
        assert two_route_agreement(L, S, stabs) == (True, [])
        assert full_runs(calls) == [kernel_maps(S.field, oracle._as_array(stabs, S.m))] == [168]


def test_lists_without_offsets_or_decreasing_L_run_the_kernel_on_every_class():
    """No stabilizer of GF(5) mu4 x mu2 has an offset, so a decreasing L is
    checked on the classes of the maps.  A row a1 x1 + a2 x2 + c onto
    mu4 = F5* has a1 != 0, and its image F5 - {a2 x2 + c} for x2 = 1 and
    for x2 = -1 omits 0 only if a2 = c = 0.  A row onto mu2 takes two
    values, so a1 = 0, and a2 + c = -(-a2 + c) gives c = 0.  So the 8
    stabilizers are the diagonal maps, 1 class.
    L = {x1} is not decreasing, so on GF(3)^2 it is checked on the classes
    of the maps though they have offsets: the 432 maps of AGL(2, 3), each
    row nonzero, in 432 / |F3*|^2 = 108 classes."""
    torus = CartesianSet([mult_component(GF(5), 4), mult_component(GF(5), 2)])
    full = CartesianSet([full_component(GF(3))] * 2)
    cases = [(torus, divisibility_closure(MonomialSet(2, [(2, 1)], bound=torus.sizes)), 8, 1),
             (full, MonomialSet(2, [(1, 0)], bound=full.sizes), 432, 108)]
    for S, L, size, classes in cases:
        stabs = oracle_stabilizers(S)
        want = cold_span(S, L, stabs.ab)
        with pytest.MonkeyPatch.context() as patch:
            calls = kernel_calls(patch)
            assert np.array_equal(keeps_span(L, S, stabs), want)
            assert two_route_agreement(L, S, list(stabs)) == (True, [])
        assert len(stabs) == size
        assert calls == [(len({tuple(monic_row(S.field, row) for row in x)
                               for x in stabs.ab.tolist()}), None)] == [(classes, None)]
    assert not oracle_stabilizers(torus).ab[:, :, 2].any()
    assert linear_parts(oracle_stabilizers(full).ab) == 48 < 432


def test_sweep_finds_each_lists_linear_parts_and_translations_once(monkeypatch):
    # every draw on a list, through the sweep's own pair of calls: the
    # cached linear parts, which the two-route walk reads, are found once per
    # list, the translation basis once per point set.  The span kernel keys
    # the linear parts at its entry too, once per draw (its offset lemma)
    workloads = bench_workloads()
    parts = calls_of(monkeypatch, "_linear_parts", lambda ab, q: len(ab))
    shifts = calls_of(monkeypatch, "_translations", lambda kern, S: S)
    sets = []
    for name in sorted(SWEEP_SETS):
        make, count, linear, _ = SWEEP_SETS[name]
        S = make()
        sets.append(S)
        stabs = list(oracle_stabilizers(S))      # as the sweep holds them
        # iterating the scan's AffineMaps keys its linear parts, outside the caches
        assert parts == [len(stabs)]
        del parts[:]
        key, held = oracle._ArrayKey(oracle._as_array(stabs, S.m)), []
        for L in sweep_draws(S, count, name):
            assert workloads.sweep_draw(L, S, stabs)["two_route"] is True
            held.append(oracle._list_linear_parts(key, S.field.q))
        assert all(x is held[0] for x in held) and len(held[0][0]) == linear
        assert parts == [len(stabs)] * (count + 1)
        del parts[:]
    assert shifts == sets


def test_axioms_report_between_the_calls_evicts_nothing(monkeypatch):
    # cartperm verify's order: the group over the list, the axioms of the
    # group, then the two routes over the list.  AffineMaps.invertible of
    # the axioms report keys the group's linear parts outside the caches
    S = CartesianSet([full_component(GF(4))] * 2)
    stabs = oracle_stabilizers(S)
    calls = kernel_calls(monkeypatch)
    parts = calls_of(monkeypatch, "_linear_parts", lambda ab, q: len(ab))
    shifts = calls_of(monkeypatch, "_translations", lambda kern, S: S)
    groups = []
    for L in sweep_draws(S, 4, "axioms"):
        group = oracle_affine_perm_group(L, S, stabilizers=stabs)
        report = group_axioms_report(S.field, group)
        assert report["closed_under_composition"] and report["closed_under_inverse"]
        assert two_route_agreement(L, S, stabs) == (True, [])
        # the list's images and linear parts, cached at the first draw
        assert [misses(cache) for cache in LIST_CACHES[1:]] == [1, 1, 1]
        groups.append(len(group))
    assert len(stabs) not in groups
    # 180 linear parts, 180 / |F4*|^2 = 20 classes (SWEEP_SETS)
    assert full_runs(calls) == [kernel_maps(S.field, stabs.ab)] * 4 == [20] * 4
    assert misses(oracle._stabilizer_images) == 1
    # per draw the kernel keys the list's linear parts (its offset lemma)
    # and the axioms report the group's; the cache keys the list's once
    assert parts == [len(stabs), groups[0], len(stabs)] + [
        size for g in groups[1:] for size in (len(stabs), g)]
    assert shifts == [S]


def test_what_the_memo_holds_is_read_only():
    # no write into an array a cache hands out can change a later result:
    # span masks are fresh copies, every held array is read-only
    S = CartesianSet([full_component(GF(4))] * 2)
    stabs = oracle_stabilizers(S)
    kern = S.field.np_tables()
    L = divisibility_closure(MonomialSet(2, [(1, 1)], bound=S.sizes))
    want = two_route_agreement(L, S, stabs)
    span = cold_span(S, L, stabs.ab)
    key = oracle._ArrayKey(stabs.ab)
    shifts, shift_images = oracle._translation_images(kern, S)
    images = oracle._stabilizer_images(key, kern, S)
    held = [*oracle._list_linear_parts(key, kern.q), shifts,
            oracle._span_verdicts(key, kern, exponent_set(L, S), S)]
    # each is the one two_route_agreement cached
    assert [misses(cache) for cache in LIST_CACHES] == [1] * 4
    for im in (images, shift_images):
        held += [*im.rows, *(table for table, _ in im.tables)]
    assert all(len(x) for x in held)
    for x in held:
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0
    got = span_ok(kern, L, S, stabs.ab)
    got[:] = ~got
    assert two_route_agreement(L, S, stabs) == want == (True, [])
    assert np.array_equal(span_ok(kern, L, S, stabs.ab), span)
    assert same_images(images, oracle._Images(kern, S, stabs.ab), len(stabs))


def test_translations_survive_a_change_of_list(monkeypatch):
    # the translation basis and its images are a fact of S: a second list
    # on the same S, the stabilizers in reverse order, reuses them, while
    # its span verdicts, images and linear parts are its own
    S = CartesianSet([full_component(GF(4))] * 2)
    stabs = oracle_stabilizers(S)
    L = divisibility_closure(MonomialSet(2, [(1, 1)], bound=S.sizes))
    shifts = calls_of(monkeypatch, "_translations", lambda kern, S: S)
    for maps in (stabs, AffineMaps(S.field, stabs.ab[::-1].copy())):
        assert two_route_agreement(L, S, maps) == (True, [])
    assert shifts == [S]
    assert [misses(cache) for cache in LIST_CACHES] == [2, 2, 2, 1]


def test_a_list_changed_in_place_is_a_new_key(monkeypatch):
    # the caches hold the caller's array itself, not a copy of its bytes:
    # written to in place, it hashes anew and misses, so no verdict or
    # image of its old maps is handed out for its new ones
    S = CartesianSet([full_component(GF(3))] * 2)
    L = divisibility_closure(MonomialSet(2, [(1, 1)], bound=S.sizes))
    kern = S.field.np_tables()
    ab = oracle_stabilizers(S).ab.copy()
    before = span_ok(kern, L, S, ab)
    images = images_of(kern, S, ab)
    ab[:] = ab[::-1].copy()
    assert np.array_equal(span_ok(kern, L, S, ab), before[::-1])
    assert np.array_equal(span_ok(kern, L, S, ab), cold_span(S, L, ab))
    assert images_of(kern, S, ab) is not images
    assert same_images(images_of(kern, S, ab), cold_images(kern, S, ab), len(ab))
    assert [misses(cache) for cache in LIST_CACHES[:2]] == [2, 2]
