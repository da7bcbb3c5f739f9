"""The two-route check by generators and coset representatives, of the maps
or of their linear parts, against the per-map reference, the basis of the
translations that keep S against brute force, the per-coordinate point
images against the scalar induced permutation, the two kinds of map keys,
and bulk iteration of AffineMaps."""

import random

import numpy as np
import pytest

from cartperm import oracle
from cartperm.affine import AffineTransformation, induced_permutation, stabilizes_set
from cartperm.codes import build_code
from cartperm.field import GF, Field
from cartperm.monomials import MonomialSet, divisibility_closure, random_decreasing_set
from cartperm.oracle import (
    AffineMaps, code_permutation_check, oracle_affine_perm_group, oracle_stabilizers,
    two_route_agreement,
)
from cartperm.points import (
    CartesianSet, additive_component, explicit_component, full_component, mult_component,
    torus_component,
)


def per_map_reference(L, S, transforms):
    """The per-map comparison: the span route and the scalar code route
    (code_permutation_check) on every map; disagreements in input order."""
    maps = list(transforms)
    span = oracle._span_ok(S.field.np_tables(), L, S, oracle._as_array(maps, S.m))
    code = build_code(L, S)
    dis = []
    for T, s in zip(maps, span):
        c = code_permutation_check(T, L, S, code)
        if s != c:
            dis.append({"T": T.to_json(), "span_route": bool(s), "code_route": c})
    return not dis, dis


def explicit(F, elems):
    return explicit_component(F, [F(x) for x in elems])


SETS = {
    "gf2^2": lambda: CartesianSet([full_component(GF(2))] * 2),
    "gf3 full x mu2": lambda: CartesianSet([full_component(GF(3)), mult_component(GF(3), 2)]),
    "gf4 mu3 x full": lambda: CartesianSet([mult_component(GF(4), 3), full_component(GF(4))]),
    "gf7 full x {0,1,3}": lambda: CartesianSet([full_component(GF(7)), explicit(GF(7), [0, 1, 3])]),
    "gf5 full x {2}": lambda: CartesianSet([full_component(GF(5)), explicit(GF(5), [2])]),
}


def code_route_sizes(monkeypatch):
    """The number of maps of each call of the batched code route."""
    sizes = []
    accepts = oracle._CodeRoute.accepts

    def counted(self, images, t):
        sizes.append(len(t))
        return accepts(self, images, t)

    monkeypatch.setattr(oracle._CodeRoute, "accepts", counted)
    return sizes


def span_route_of(F, members, monkeypatch):
    """Replace the span route by membership in the given maps."""
    keep = AffineMaps(F, oracle._as_array(members))

    def fake(kern, L, S, ab, *args, **kwargs):
        return keep.holds(AffineMaps(F, ab))

    monkeypatch.setattr(oracle, "_span_ok", fake)


@pytest.mark.parametrize("name", sorted(SETS))
def test_coset_route_matches_per_map_reference(name):
    S = SETS[name]()
    stabs = oracle_stabilizers(S)
    rng = random.Random(f"two-route:{name}")
    draws = [random_decreasing_set(rng, S.sizes) for _ in range(1 if S.n > 16 else 3)]
    for L in draws + [MonomialSet(S.m, [], bound=S.sizes)]:
        want = per_map_reference(L, S, stabs)
        assert want == (True, [])
        assert two_route_agreement(L, S, stabs) == want
    listed = list(stabs)
    # not groups: a subset, one with a duplicate, one without the identity
    for maps in (listed[::3], listed[:5] + listed[:3], listed[1::2], []):
        assert two_route_agreement(draws[0], S, maps) == per_map_reference(draws[0], S, maps)


def linear_generators(F, ab):
    """The generators the walk picks among the distinct linear parts of ab,
    every one accepted."""
    linear = oracle._linear_parts(ab, F.q)[0]
    (gens, _, _), miss = oracle._cosets(F.np_tables(), linear, np.ones(len(linear), dtype=bool))
    assert miss is None
    return gens


def test_code_route_checks_generators_and_one_map_per_coset(monkeypatch):
    # GF(4)^2 with L = closure{x1 x2}: 2,880 stabilizers over 180 linear
    # parts, a 288-map group over 18 of them, 10 cosets.  The code route
    # checks the 4 translations of an F_2-basis of GF(4)^2, then the 2
    # generators of the group's linear parts and 9 coset representatives
    F = GF(4)
    S = CartesianSet([full_component(F)] * 2)
    L = divisibility_closure(MonomialSet(2, [(1, 1)], bound=S.sizes))
    stabs = oracle_stabilizers(S)
    group = oracle_affine_perm_group(L, S, stabilizers=stabs)
    gens = linear_generators(F, group.ab)
    sizes = code_route_sizes(monkeypatch)
    assert two_route_agreement(L, S, stabs) == (True, [])
    assert sizes == [4, len(gens) + len(stabs) // len(group) - 1] == [4, 2 + 9]
    # the zero code: every linear part is in the one coset, made by the
    # generators of all 180
    sizes.clear()
    empty = MonomialSet(2, [], bound=S.sizes)
    assert two_route_agreement(empty, S, stabs) == (True, [])
    assert sizes == [4, len(linear_generators(F, stabs.ab))] == [4, 4]


def test_trivial_span_group_makes_every_map_a_coset(monkeypatch):
    # the identity and maps outside the group: each map is its own coset
    F, S = GF(3), SETS["gf3 full x mu2"]()
    L = divisibility_closure(MonomialSet(2, [(1, 1)], bound=S.sizes))
    stabs = oracle_stabilizers(S)
    group = set(oracle_affine_perm_group(L, S, stabilizers=stabs))
    outside = [T for T in stabs if T not in group]
    maps = [AffineTransformation.identity(F, 2)] + outside
    sizes = code_route_sizes(monkeypatch)
    assert two_route_agreement(L, S, maps) == (True, []) == per_map_reference(L, S, maps)
    assert sizes[0] == len(outside)


def linear_subgroup(group):
    """The maps of a group that fix the origin: a subgroup."""
    return [T for T in group if not any(T.b)]


@pytest.mark.parametrize("name", ["gf3 full x mu2", "gf4 mu3 x full"])
def test_broken_span_route_is_named_like_the_reference(name, monkeypatch):
    S = SETS[name]()
    F = S.field
    stabs = oracle_stabilizers(S)
    rng = random.Random(f"broken:{name}")
    for _ in range(20):
        L = random_decreasing_set(rng, S.sizes)
        group = list(oracle_affine_perm_group(L, S, stabilizers=stabs))
        sub = linear_subgroup(group)
        if 1 < len(sub) < len(group) < len(stabs):
            break
    members = set(group)
    g = next(T for T in group if T not in set(sub))
    coset = {g.compose(h) for h in sub}
    outside = next(T for T in stabs if T not in members)
    wrong = [
        sub,                                            # drops every coset of sub
        [T for T in group if T not in coset],           # drops one coset of sub
        group + [outside.compose(h) for h in group],    # adds a coset of the group
        group[:1] + group[2:],                          # drops one map
        list(stabs),                                    # a larger group
    ]
    for accepted in wrong:
        span_route_of(F, accepted, monkeypatch)
        want = per_map_reference(L, S, stabs)
        assert not want[0]
        assert two_route_agreement(L, S, stabs) == want
        monkeypatch.undo()


def test_second_route_catches_a_wrong_decreasing_guard(monkeypatch):
    # L = {x1} is not decreasing.  Taken for decreasing, the span route
    # would judge x -> Ax + b by x -> Ax, and so accept the 72 stabilizers
    # with a12 = 0 and b1 != 0, which the code route rejects
    S = CartesianSet([full_component(GF(3))] * 2)
    L = MonomialSet(2, [(1, 0)], bound=S.sizes)
    stabs = oracle_stabilizers(S)
    monkeypatch.setattr(oracle, "_LAST", oracle._Last())
    assert two_route_agreement(L, S, stabs) == (True, [])
    monkeypatch.setattr(oracle, "divisor_closed", lambda monomials: True)
    monkeypatch.setattr(oracle, "_LAST", oracle._Last())
    agree, disagreements = two_route_agreement(L, S, stabs)
    assert not agree and len(disagreements) == 72
    for d in disagreements:
        assert d["span_route"] and not d["code_route"]
        assert d["T"]["A"][0][1] == [0] and d["T"]["b"][0] != [0]


def components_of_every_kind(F):
    """Full, multiplicative, additive and explicit components of F, with
    translation stabilizers from {0} to all of F: an explicit coset of an
    additive subgroup, an explicit set that is no coset, one point."""
    a = F.primitive_element()
    plane = additive_component(F, [F.one, a])
    line = additive_component(F, [a])
    orders = [d for d in range(2, F.q - 1) if (F.q - 1) % d == 0]
    return [full_component(F), mult_component(F, F.q - 1), plane, line,
            explicit_component(F, [x + F.one for x in line.elements]),
            explicit_component(F, [F.zero, F.one, a]), explicit_component(F, [a])] + [
        mult_component(F, d) for d in orders[:1]]


@pytest.mark.parametrize("F", [GF(2), GF(3), GF(4), GF(5), Field(2, 3, irreducible=(1, 0, 1, 1)),
                               GF(9), GF(16)], ids=repr)
def test_translation_basis_matches_brute_force(F):
    # the translations of S are a product over the coordinates: one set of
    # three components checks that each basis map sits in its coordinate
    p, k = F.p, F.k
    comps = components_of_every_kind(F)
    for S in [CartesianSet([C]) for C in comps] + [CartesianSet(comps[2:5])]:
        shifts = oracle._translations(F.np_tables(), S)
        m = S.m
        assert shifts.dtype == np.uint16 and shifts.shape[1:] == (m, m + 1)
        assert (shifts[:, :, :m] == np.eye(m, dtype=np.uint16)).all()
        assert ((shifts[:, :, m] != 0).sum(axis=1) == 1).all()
        for i, C in enumerate(S.components):
            keeps = {t.ix for t in F.elements()
                     if {(x + t).ix for x in C.elements} == C.element_set()}
            basis = [F(int(b[i])) for b in shifts[:, :, m] if b[i]]
            span = {F.zero}
            for t in basis:
                multiples = [F.zero]
                for _ in range(p - 1):
                    multiples.append(multiples[-1] + t)
                span = {x + c for x in span for c in multiples}
            # exactly the translations, by a basis of at most k elements
            assert {x.ix for x in span} == keeps
            assert len(span) == p ** len(basis) and len(basis) <= k


@pytest.mark.parametrize("S, top", [
    (CartesianSet([full_component(GF(5)), explicit(GF(5), [0])]), (2, 0)),
    (CartesianSet([full_component(GF(3))] * 2), (1, 1)),
], ids=["gf5 full x {0}", "gf3^2"])
def test_code_route_without_translations_is_named_like_the_reference(S, top, monkeypatch):
    # A code route that also asks a map to fix the origin (point 0)
    # accepts a group that holds every linear part of the code group but
    # rejects the translations that keep S: the one basis translation of
    # GF(5) full x {0}, and both of GF(3)^2.  So the verdicts of two maps
    # with one A differ, and the walk must not run over the linear parts:
    # S is a product of additive subgroups, so the first listed map of each
    # linear part has b = 0 and fixes the origin
    stabs = oracle_stabilizers(S)
    L = divisibility_closure(MonomialSet(2, [top], bound=S.sizes))
    code = build_code(L, S)
    want = [{"T": T.to_json(), "span_route": True, "code_route": False}
            for T in stabs if code_permutation_check(T, L, S, code) and any(T.b)]
    assert want and two_route_agreement(L, S, stabs) == (True, [])
    accepts = oracle._CodeRoute.accepts

    def fixing_the_origin(self, images, t):
        return accepts(self, images, t) & (images(t)[:, 0] == 0)

    monkeypatch.setattr(oracle._CodeRoute, "accepts", fixing_the_origin)
    assert two_route_agreement(L, S, stabs) == (False, want)


@pytest.mark.parametrize("name", ["gf3 full x mu2", "gf4 mu3 x full", "gf7 full x {0,1,3}"])
def test_span_route_rejecting_a_linear_part_is_named_like_the_reference(name, monkeypatch):
    # a span route constant on each linear part, which rejects one linear
    # part of the group besides: the certificate over linear parts must fail
    S = SETS[name]()
    stabs = oracle_stabilizers(S)
    L = divisibility_closure(MonomialSet(2, [(1, 1)], bound=S.sizes))
    group = oracle_affine_perm_group(L, S, stabilizers=stabs)
    m = S.m
    linear = oracle._linear_parts(group.ab, S.field.q)[0][:, :, :m]
    dropped = next(A for A in linear if (A != np.eye(m, dtype=np.uint16)).any())
    span_ok = oracle._span_ok

    def fake(kern, L, S, ab):
        return span_ok(kern, L, S, ab) & (ab[:, :, :m] != dropped).any(axis=(1, 2))

    monkeypatch.setattr(oracle, "_span_ok", fake)
    want = per_map_reference(L, S, stabs)
    assert not want[0] and len(want[1]) == len(group) // len(linear)
    assert two_route_agreement(L, S, stabs) == want


def test_coset_rounds_stop_when_they_do_not_double():
    # translations of GF(7), all accepted: the rounds' components hold the
    # subgroup generated so far, which a group at least doubles each round
    F = GF(7)
    kern = F.np_tables()

    def rounds(shifts):
        ab = oracle._as_array([AffineTransformation.translation(F, [c]) for c in shifts])
        return oracle._cosets(kern, ab, np.ones(len(ab), dtype=bool))

    # the group, its identity repeated: one generator, one component
    (gens, label, anchor), miss = rounds([0, 0, 0, 1, 2, 3, 4, 5, 6])
    assert (gens.tolist(), set(label.tolist()), anchor, miss) == ([3], {0}, 0, None)
    # {0, 1, 3} is no group: the second round joins 3 alone, 2 maps to 3;
    # the first round's first miss is 1 + 1 = 2, map 1 after generator 1
    assert rounds([0, 1, 3]) == (None, (1, 1))
    maps = [AffineTransformation.translation(F, [c]) for c in [0, 1, 3]]
    S = CartesianSet([full_component(F)])
    L = MonomialSet(1, [(0,)], bound=S.sizes)
    assert two_route_agreement(L, S, maps) == per_map_reference(L, S, maps) == (True, [])


@pytest.mark.parametrize("q, m", [(2, 3), (4, 2), (7, 1), (16, 3)])
def test_right_products_match_compose(q, m):
    # against the scalar AffineTransformation.compose, pair by pair
    F = GF(q)
    kern = F.np_tables()
    rng = np.random.default_rng(q)
    xs = rng.integers(0, q, (50, m, m + 1)).astype(np.uint16)
    maps = AffineMaps(F, xs)
    for lo, hi in ((0, 1), (3, 7)):
        got = AffineMaps(F, oracle._right_products(kern, xs, xs[lo:hi]))
        want = [x.compose(s) for x in maps for s in maps[lo:hi]]
        assert list(got) == want


def test_components_match_a_union_find():
    rng = np.random.default_rng(7)
    for n, e in [(1, 0), (10, 3), (50, 40), (300, 200), (300, 900)]:
        u, v = rng.integers(0, n, e), rng.integers(0, n, e)
        parent = list(range(n))

        def root(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in zip(u.tolist(), v.tolist()):
            ra, rb = root(a), root(b)
            parent[max(ra, rb)] = min(ra, rb)
        want = [root(x) for x in range(n)]
        assert oracle._components(np.arange(n), u, v).tolist() == want
        # in two steps: the labels of the first half are the start
        half = oracle._components(np.arange(n), u[:e // 2], v[:e // 2])
        assert oracle._components(half, u[e // 2:], v[e // 2:]).tolist() == want


def random_maps(rng, F, m, count):
    return [AffineTransformation(F, [[rng.randrange(F.q) for _ in range(m)] for _ in range(m)],
                                 [rng.randrange(F.q) for _ in range(m)]) for _ in range(count)]


@pytest.mark.parametrize("S", [
    CartesianSet([full_component(GF(4)), torus_component(GF(4))]),
    CartesianSet([full_component(GF(7)), explicit(GF(7), [3, 0, 1])]),
    CartesianSet([explicit(GF(8), [0, 1, 2, 7]), explicit(GF(8), [2, 4, 1])]),
    CartesianSet([full_component(GF(5)), explicit(GF(5), [2])]),
    CartesianSet([explicit(GF(3), [1]), full_component(GF(3)), mult_component(GF(3), 2)]),
], ids=["gf4 full x torus", "gf7 explicit", "gf8 explicit", "gf5 one point", "gf3 one point m3"])
def test_images_match_induced_permutation(S):
    F, m = S.field, S.m
    rng = random.Random(repr(S))
    stabs = list(oracle_stabilizers(S))
    maps = rng.sample(stabs, min(60, len(stabs)))
    # singular maps that still permute S: rows of a one-point component
    # may drop every variable
    maps += [T for T in random_maps(rng, F, m, 3000) if stabilizes_set(T, S)]
    others = [T for T in random_maps(rng, F, m, 200) if not stabilizes_set(T, S)]
    assert others
    ab = oracle._as_array(maps + others, m)
    kern = F.np_tables()
    images = oracle._Images(kern, S, ab)
    inside = images.inside()
    got = images(np.arange(len(maps)))
    for t, T in enumerate(maps):
        assert inside[t] and tuple(got[t].tolist()) == induced_permutation(T, S)
    oracle._stabilizer_images(kern, S, ab[:len(maps)])
    for t, T in enumerate(others, start=len(maps)):
        with pytest.raises(ValueError, match="non-stabilizer"):
            oracle._stabilizer_images(kern, S, ab[t:t + 1])
        # outside S, or inside but not injective
        assert not inside[t] or len(set(images(np.array([t]))[0].tolist())) < S.n


def test_both_key_kinds_agree(monkeypatch):
    # m (m + 1) * bit_length(q - 1) bits: 12 * 4 = 48 fit a uint64 for GF(16)
    # with m = 3; 20 * 4 = 80 do not for m = 4, nor 12 * 16 for any q past 2^15
    F = GF(16)
    rng = random.Random(16)
    maps = random_maps(rng, F, 3, 300)
    ab = oracle._as_array(maps)
    packed, void = oracle._row_keys(ab, F.q), oracle._row_keys(ab, 1 << 16)
    assert packed.dtype == np.uint64 and void.dtype.kind == "V"
    assert oracle._row_keys(oracle._as_array(random_maps(rng, F, 4, 2)), F.q).dtype.kind == "V"
    members, queries = ab[::2], np.concatenate([ab[:40], ab[1::2]])
    for q in (F.q, 1 << 16):
        keys = oracle._key_set(members, q)
        assert len(keys) == len({(T.A, T.b) for T in maps[::2]})
        pos, hit = oracle._lookup(keys, oracle._row_keys(queries, q))
        assert hit.tolist() == [T in set(maps[::2]) for T in maps[:40] + maps[1::2]]
        assert (keys[pos[hit]] == oracle._row_keys(queries, q)[hit]).all()
        first, inverse = oracle._distinct(oracle._row_keys(queries, q))
        assert (oracle._row_keys(queries[first[inverse]], q) == oracle._row_keys(queries, q)).all()
        firsts = {}
        for t, T in enumerate(maps[:40] + maps[1::2]):
            firsts.setdefault((T.A, T.b), t)
        assert sorted(first.tolist()) == sorted(firsts.values())
    want = AffineMaps(F, members).holds(AffineMaps(F, queries))
    row_keys = oracle._row_keys
    monkeypatch.setattr(oracle, "_row_keys", lambda ab, q: row_keys(ab, 1 << 16))
    assert AffineMaps(F, members).holds(AffineMaps(F, queries)).tolist() == want.tolist()
    assert want[:40].tolist() == [t % 2 == 0 for t in range(40)]


@pytest.mark.parametrize("q, m", [(3, 1), (16, 3), (1 << 16, 2)])
def test_rows_of_an_empty_support_share_one_key(q, m):
    # the node 1 of the span route reads no row: its (N, 0, m + 1) array
    # gives N equal keys (0), so all maps fall into one group
    ab = np.zeros((5, 0, m + 1), dtype=np.uint16)
    keys = oracle._row_keys(ab, q)
    assert keys.tolist() == [0] * 5
    first, inverse = oracle._distinct(keys)
    assert first.tolist() == [0] and inverse.tolist() == [0] * 5


@pytest.mark.parametrize("S", [
    CartesianSet([full_component(GF(3))] * 2),
    CartesianSet([full_component(GF(4)), torus_component(GF(4))]),
    CartesianSet([full_component(GF(2))] * 3),
])
def test_iteration_equals_indexing(S):
    stabs = oracle_stabilizers(S)
    for maps in (stabs, stabs[5:40], AffineMaps(S.field, stabs.ab[:0])):
        listed = list(maps)
        assert len(listed) == len(maps)
        for t, T in enumerate(listed):
            U = maps[t]
            assert (T.A, T.b, T.m, T.field) == (U.A, U.b, U.m, U.field)
            assert T == U and hash(T) == hash(U)
            assert type(T.A[0][0]) is int and type(T.b) is tuple
