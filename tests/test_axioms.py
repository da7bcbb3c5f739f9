"""The batched group-axioms check and its closure check by the generator
walk against the scalar pairwise and round references, the verify-group report against its
golden digest, and the two-route check's disagreement records."""

import hashlib
import itertools
import json
import pathlib
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from cartperm import cli, oracle
from cartperm.affine import AffineTransformation, induced_permutation
from cartperm.field import GF, FieldError
from cartperm.monomials import MonomialSet, divisibility_closure
from cartperm.oracle import (
    group_axioms_report, oracle_affine_perm_group, oracle_stabilizers,
    two_route_agreement,
)
from cartperm.points import (
    CartesianSet, full_component, mult_component, torus_component,
)
from test_oracle import gf4_square_config, gf16_triple_config, search_cases, small_sets

VERIFY_GROUP = pathlib.Path(__file__).resolve().parents[1] / "bench" / "configs" / "verify-group"


def pairwise_axioms_report(F, transforms):
    """Scalar reference: one AffineTransformation.compose per pair, the
    first oracle._PAIR_LIMIT pairs in itertools.product order."""
    limit = oracle._PAIR_LIMIT
    ts = list(transforms)
    keys = {(T.A, T.b) for T in ts}
    g = len(ts)
    report = {
        "size": g,
        "has_identity": any(T.is_translation() and not any(T.b) for T in ts),
        "closed_under_inverse": True,
        "closed_under_composition": True,
        "composition_pairs_checked": 0,
        "exhaustive": g * g <= limit,
        "witness": None,
    }
    for T in ts:
        try:
            inv = T.invert()
        except FieldError:
            inv = None
        if inv is None or (inv.A, inv.b) not in keys:
            report["closed_under_inverse"] = False
            report["witness"] = T.to_json()
            break
    for i, j in itertools.islice(itertools.product(range(g), repeat=2), limit):
        C = ts[i].compose(ts[j])
        report["composition_pairs_checked"] += 1
        if (C.A, C.b) not in keys:
            report["closed_under_composition"] = False
            report["witness"] = {"left": ts[i].to_json(), "right": ts[j].to_json()}
            break
    return report


def assert_same_report(F, ts, limit=oracle._PAIR_LIMIT):
    """The batched report equals the reference's, both under the pair limit."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_PAIR_LIMIT", limit)
        got = group_axioms_report(F, ts)
        assert got == pairwise_axioms_report(F, ts)
    return got


# pairs beyond this are not scanned, which keeps the scalar reference fast on
# the larger stabilizer groups (up to |AGL(2, 9)| = 466,560 members)
LIMIT = 20_000


@settings(derandomize=True, max_examples=40, deadline=None)
@given(small_sets())
def test_batched_axioms_match_pairwise_reference(S):
    F = S.field
    stabs = oracle_stabilizers(S)
    rep = assert_same_report(F, stabs, limit=LIMIT)
    assert rep["closed_under_inverse"] and rep["closed_under_composition"]
    half = len(stabs) // 2
    assert_same_report(F, list(stabs[:half]) + list(stabs[half + 1:]), limit=LIMIT)
    # the zero map is singular, so it is never a stabilizer
    zero = AffineTransformation(F, [[0] * S.m] * S.m)
    assert_same_report(F, list(stabs) + [zero], limit=LIMIT)


def test_non_groups_and_the_empty_list():
    F = GF(3)
    S = CartesianSet([full_component(F), torus_component(F)])
    stabs = oracle_stabilizers(S)
    assert len(stabs) == 36
    assert assert_same_report(F, []) == {
        "size": 0, "has_identity": False, "closed_under_inverse": True,
        "closed_under_composition": True, "composition_pairs_checked": 0,
        "exhaustive": True, "witness": None}
    for k in (0, 17, 35):
        rep = assert_same_report(F, list(stabs[:k]) + list(stabs[k + 1:]))
        assert not rep["closed_under_composition"]
    rep = assert_same_report(F, list(stabs) + [AffineTransformation(F, [[1, 0], [1, 1]])])
    assert not rep["closed_under_composition"]
    singular = AffineTransformation(F, [[1, 0], [0, 0]])
    rep = assert_same_report(F, [singular] + list(stabs))
    assert not rep["closed_under_inverse"] and not rep["closed_under_composition"]
    # the identity and an idempotent singular map compose inside the set
    rep = assert_same_report(F, [AffineTransformation.identity(F, 2), singular])
    assert not rep["closed_under_inverse"] and rep["closed_under_composition"]
    # drop the inverse of a member of order > 2: that member is the first
    # whose inverse is missing, ahead of a singular map later in the list
    T = next(T for T in stabs if T.compose(T) != AffineTransformation.identity(F, 2))
    ts = [U for U in stabs if U != T.invert()] + [singular]
    rep = assert_same_report(F, ts, limit=0)
    assert not rep["closed_under_inverse"] and rep["witness"] == T.to_json()
    rep = assert_same_report(F, ts)
    assert not rep["closed_under_inverse"] and not rep["closed_under_composition"]


def test_pair_prefix_branch():
    # GF(4)^2: 2,880 maps, so the first 1,000 pairs lie in row 0 and the
    # first 7,000 reach into row 2
    F = GF(4)
    S = CartesianSet([full_component(F), full_component(F)])
    stabs = oracle_stabilizers(S)
    for limit in (1000, 7000):
        rep = assert_same_report(F, stabs[:500], limit=limit)
        assert not rep["exhaustive"] and not rep["closed_under_composition"]
        rep = assert_same_report(F, stabs, limit=limit)
        assert not rep["exhaustive"] and rep["closed_under_composition"]
        assert rep["composition_pairs_checked"] == limit


@pytest.mark.parametrize("q, m, rows", [(3, 2, 13), (2, 3, 2), (5, 2, 1)])
def test_pair_prefix_spans_batches(q, m, rows):
    """The first failing pair lies past the first batch of pairs: the 443
    maps over GF(3)^2 are composed 12 rows a batch, the 1,344 over GF(2)^3
    one row a batch, and the 11,999 over GF(5)^2 one row in three blocks of
    columns.  The first rows are the identity, which fails no pair; the
    next is a member Y, and the missing member is Y after the last map Z,
    so the only failing pair of row Y is at the last column."""
    F = GF(q)
    stabs = list(oracle_stabilizers(CartesianSet([full_component(F)] * m)))
    one = AffineTransformation.identity(F, m)
    Y, Z = stabs[0], stabs[-1]
    X = Y.compose(Z)
    assert len({one, X, Y, Z}) == 4
    ts = [one] * rows + [Y] + [T for T in stabs if T not in (one, X, Y, Z)] + [Z]
    g = len(ts)
    assert g == len(stabs) + rows - 2
    rep = assert_same_report(F, ts)
    assert not rep["closed_under_composition"]
    assert rep["composition_pairs_checked"] == (rows + 1) * g
    assert rep["witness"] == {"left": Y.to_json(), "right": Z.to_json()}


def test_gf16_four_dimensional_keys():
    # x -> d*x + c*v for d in F4*, c in F4: a group of 12 maps over GF(16)^4,
    # whose base-q counter keys reach 16^20 > 2^63.  The extra map differs
    # from the identity only in the digit of weight 16^16 = 2^64, which a
    # wrapped 64-bit counter key would not see.
    F = GF(16)
    f4 = [x.ix for x in F.subfield_elements(2)]
    v = [F.primitive_element().ix, 9, 14, 15]
    group = [AffineTransformation(F, [[d if r == c else 0 for c in range(4)]
                                      for r in range(4)],
                                  [F.mul_ix(c, x) for x in v])
             for d in f4 if d for c in f4]
    rep = assert_same_report(F, group)
    assert rep["closed_under_inverse"] and rep["closed_under_composition"]
    assert rep["composition_pairs_checked"] == 144
    alias = AffineTransformation.translation(F, [1, 0, 0, 0])
    rep = assert_same_report(F, group + [alias])
    assert not rep["closed_under_composition"]
    rep = assert_same_report(F, group[:5] + group[6:])
    assert not rep["closed_under_composition"]


def cyclic_subgroup(T):
    """The powers of T, the identity first."""
    powers = [AffineTransformation.identity(T.field, T.m)]
    while (U := powers[-1].compose(T)) != powers[0]:
        powers.append(U)
    return powers


@st.composite
def certificate_cases(draw):
    """A group (the stabilizers of a small set, or the code group of an
    oracle search case) and one list of maps built from it: the group, the
    group minus one member, minus an involution, plus one foreign invertible
    map, with duplicate rows, or the union of two cyclic subgroups (a group
    only when one holds the other).  Returns the field, the list, and
    whether the list is a group by construction."""
    if draw(st.booleans()):
        S = draw(small_sets())
        group = list(oracle_stabilizers(S))
    else:
        S, L = draw(search_cases())
        group = list(oracle_affine_perm_group(L, S))
    F, m, g = S.field, S.m, len(group)
    index = st.integers(0, g - 1)
    kind = draw(st.sampled_from(["group", "minus", "involution", "foreign",
                                 "duplicates", "union"]))
    if kind == "group":
        return F, group, True
    if kind == "minus":
        k = draw(index)
        return F, group[:k] + group[k + 1:], False
    if kind == "involution":
        one = AffineTransformation.identity(F, m)
        involutions = [T for T in group if T != one and T.compose(T) == one]
        assume(involutions)
        T = draw(st.sampled_from(involutions))
        return F, [U for U in group if U != T], False
    if kind == "foreign":
        entry = st.integers(0, F.q - 1)
        T = AffineTransformation(F, [[draw(entry) for _ in range(m)] for _ in range(m)],
                                 [draw(entry) for _ in range(m)])
        assume(T.is_invertible() and T not in group)
        at = draw(st.integers(0, g))
        return F, group[:at] + [T] + group[at:], False
    if kind == "duplicates":
        extra = draw(st.lists(index, min_size=1, max_size=5))
        return F, group + [group[k] for k in extra], True
    first, second = (cyclic_subgroup(group[draw(index)]) for _ in range(2))
    return F, first + [T for T in second if T not in first], False


def rounds_reference(ts):
    """Scalar reference of the generator walk of oracle._cosets with every
    map accepted: one AffineTransformation.compose per product, in the order
    of the batched rounds.  The components are a union-find on the indices,
    equal maps joined from the start.  Each round's generator is the first
    map outside the identity's component, and every map x is joined to x
    after it.  Returns the generators, or None when a round does not double
    the distinct maps of the identity's component, and the first miss: the
    first (x, s) whose product is not among the maps."""
    first = {}
    for t, T in enumerate(ts):
        first.setdefault(T, t)
    parent = [first[T] for T in ts]

    def find(t):
        while parent[t] != t:
            parent[t] = t = parent[parent[t]]
        return t

    anchor = first[AffineTransformation.identity(ts[0].field, ts[0].m)]
    gens, reached, miss = [], 1, None
    while True:
        left = [t for t in range(len(ts)) if find(t) != find(anchor)]
        if not left:
            return gens, miss
        s = left[0]
        gens.append(s)
        for x, T in enumerate(ts):
            p = T.compose(ts[s])
            if p in first:
                parent[find(x)] = find(first[p])
            elif miss is None:
                miss = (x, s)
        grown = sum(find(t) == find(anchor) for t in first.values())
        if grown < 2 * reached:
            return None, miss
        reached = grown


def affine_space_permutations(F, ts):
    """The permutations of the q^m points of F^m induced by the maps: a
    faithful action, unlike that on a set with a one-point component."""
    space = CartesianSet([full_component(F)] * ts[0].m)
    return [Permutation(induced_permutation(T, space)) for T in ts]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(certificate_cases())
@example((GF(3), [AffineTransformation.identity(GF(3), 2)], True))
def test_closure_certificate_matches_pairwise_reference(case):
    F, ts, is_group = case
    # groups are scanned up to LIMIT pairs; the non-groups exhaustively, so
    # that the reference finds a failing pair
    limit = LIMIT if is_group else 10 ** 12
    rep = assert_same_report(F, ts, limit=limit)
    if is_group:
        assert rep["closed_under_composition"]
    # the walk's verdict needs the identity and invertible members only, so
    # it is also exact on the sets that lack an inverse (a group minus a
    # member of order > 2), where the report runs it before its inverse check
    if not (rep["has_identity"] and all(T.is_invertible() for T in ts)):
        return
    found, miss = oracle._cosets(oracle._Kernel(F), oracle._as_array(ts),
                                 np.ones(len(ts), dtype=bool))
    gens = None if found is None else found[0].tolist()
    assert (gens, miss) == rounds_reference(ts)
    closed = miss is None
    assert closed == rep["closed_under_composition"]
    members = set(ts)
    if closed:
        # each generator at least doubles the subgroup reached so far
        assert len(gens) <= len(members).bit_length() - 1
        order = PermutationGroup(affine_space_permutations(F, ts[:1] + [ts[s] for s in gens])).order()
        assert order == len(members)
    else:
        x, s = miss
        assert gens is None or s in gens
        assert ts[x].compose(ts[s]) not in members


def test_certificate_closes_the_sampling_gap():
    # GF(4)^2 minus the involution x -> (a x2, a^2 x1): a set with the
    # identity and every inverse, not closed, whose only failing pair in
    # row 0 is at column j, so a prefix of j pairs misses every failing
    # pair.  The pairwise reference calls it closed; the generator walk finds
    # a failing pair of members.  The report differs from the reference only
    # on such non-groups: the identity, invertible members, and no failing
    # pair among those scanned.
    F = GF(4)
    S = CartesianSet([full_component(F), full_component(F)])
    swap = AffineTransformation(F, [[0, 2], [3, 0]])
    assert swap.compose(swap) == AffineTransformation.identity(F, 2)
    ts = [T for T in oracle_stabilizers(S) if T != swap]
    assert len(ts) == 2879
    members = set(ts)
    j = ts.index(ts[0].invert().compose(swap))
    assert j > 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_PAIR_LIMIT", j)
        want = pairwise_axioms_report(F, ts)
        assert want["closed_under_composition"]
        got = group_axioms_report(F, ts)
    assert not got["closed_under_composition"]
    # every other entry is the reference's: all j scanned pairs are
    # counted, and the witness is the walk's first miss
    assert {**got, "closed_under_composition": True, "witness": None} == want
    left = AffineTransformation.from_json(F, got["witness"]["left"])
    right = AffineTransformation.from_json(F, got["witness"]["right"])
    assert left in members and right in members
    assert left.compose(right) not in members
    # one more pair reaches the failing pair of row 0
    rep = assert_same_report(F, ts, limit=j + 1)
    assert rep["composition_pairs_checked"] == j + 1
    assert rep["witness"] == {"left": ts[0].to_json(), "right": ts[j].to_json()}


def test_gf16_code_group_is_certified():
    # the 3,600-map code group of GF(16) full x mu5 x mu3 with L =
    # closure{x1^3 x2 x3}: about 1.3e7 ordered pairs, past the pair limit
    start = time.perf_counter()
    F = GF(16)
    S = CartesianSet([full_component(F), mult_component(F, 5), mult_component(F, 3)])
    L = divisibility_closure(MonomialSet(3, [(3, 1, 1)], bound=S.sizes))
    group = oracle._group_search(L, S)
    assert len(group) == 3600
    (gens, _, _), miss = oracle._cosets(oracle._Kernel(F), group, np.ones(len(group), dtype=bool))
    assert miss is None and len(gens) <= 11
    rep = group_axioms_report(F, oracle.AffineMaps(F, group))
    assert rep == {"size": 3600, "has_identity": True, "closed_under_inverse": True,
                   "closed_under_composition": True, "composition_pairs_checked": 2_000_000,
                   "exhaustive": False, "witness": None}
    one = AffineTransformation.identity(F, 3)
    t = next(t for t, T in enumerate(oracle.AffineMaps(F, group))
             if T != one and T.compose(T) == one)
    rep = group_axioms_report(F, oracle.AffineMaps(F, np.delete(group, t, axis=0)))
    assert rep["has_identity"] and rep["closed_under_inverse"]
    assert not rep["closed_under_composition"]
    assert time.perf_counter() - start < 3


def assert_walk_witness(F, ts, rep):
    """The witness is a pair of members whose product is not a member."""
    members = set(ts)
    left = AffineTransformation.from_json(F, rep["witness"]["left"])
    right = AffineTransformation.from_json(F, rep["witness"]["right"])
    assert left in members and right in members
    assert left.compose(right) not in members


def test_walk_decides_a_set_missing_inverses():
    # ASL(2, 5) and ASL(2, 5) diag(2, 1): the 6,000 maps of GF(5)^2 with
    # det A in {1, 2}, det-1 maps first.  The det-2 maps lack their det-3
    # inverses, and two of them compose to a det-4 map; the first 2,000,000
    # pairs lie in the rows of det-1 maps, which all stay in the set.
    F = GF(5)
    ab = oracle_stabilizers(CartesianSet([full_component(F)] * 2)).ab
    # over a prime field an element index is its integer value
    det = (ab[:, 0, 0].astype(int) * ab[:, 1, 1] - ab[:, 0, 1].astype(int) * ab[:, 1, 0]) % 5
    maps = oracle.AffineMaps(F, np.concatenate([ab[det == 1], ab[det == 2]]))
    assert len(maps) == 6000
    rep = group_axioms_report(F, maps)
    assert rep["has_identity"] and not rep["exhaustive"]
    assert not rep["closed_under_inverse"] and not rep["closed_under_composition"]
    assert rep["composition_pairs_checked"] == 2_000_000
    assert_walk_witness(F, list(maps), rep)


def test_walk_overrides_a_clean_pair_prefix():
    # x -> x + b and x -> 2x + b over GF(5): the first 50 pairs are the rows
    # of the translations, which fail none, yet 2x after 2x is 4x
    F = GF(5)
    ts = [AffineTransformation(F, [[a]], [b]) for a in (1, 2) for b in range(5)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_PAIR_LIMIT", 50)
        rep = group_axioms_report(F, ts)
    assert rep["has_identity"] and not rep["closed_under_inverse"]
    assert not rep["closed_under_composition"]
    assert rep["composition_pairs_checked"] == 50 and not rep["exhaustive"]
    assert_walk_witness(F, ts, rep)


@pytest.mark.parametrize("config, distinct", [(gf4_square_config, 36), (gf16_triple_config, 3)])
def test_group_report_needs_no_inverse_lookup(config, distinct):
    """On a group the walk alone decides: no member's key set is sorted,
    and the elimination runs once per distinct linear part."""
    S, L = config()
    F, group = S.field, oracle_affine_perm_group(L, S)
    g = len(group)
    assert len({T.A for T in group}) == distinct
    rows = []
    invert = oracle._invert

    def counted(kern, ab):
        rows.append(len(ab))
        return invert(kern, ab)

    def refused(*args):
        raise AssertionError("a group's report looked up the members' keys")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_invert", counted)
        patch.setattr(oracle, "_key_set", refused)
        rep = group_axioms_report(F, group)
    assert rep == {"size": g, "has_identity": True, "closed_under_inverse": True,
                   "closed_under_composition": True, "composition_pairs_checked": g * g,
                   "exhaustive": True, "witness": None}
    assert 0 < sum(rows) <= distinct


def test_verify_group_report_is_unchanged(tmp_path):
    """verify on the verify-group config writes the oracle-verify.json whose
    sha256 bench/golden.json records."""
    cfg = next(VERIFY_GROUP.glob("*.json"))
    assert cli.main(["--out", str(tmp_path), "verify", str(cfg)]) == cli.EXIT_OK
    golden = json.loads((VERIFY_GROUP.parents[1] / "golden.json").read_text())
    want = golden[f"verify-group/{cfg.stem}"]["digests"]["oracle-verify.json"]
    assert hashlib.sha256((tmp_path / "oracle-verify.json").read_bytes()).hexdigest() == want


def test_two_route_agreement_reports_disagreements(monkeypatch):
    # a span route that wrongly drops a member shows up as a disagreement,
    # in stabilizer order
    F = GF(3)
    S = CartesianSet([full_component(F), torus_component(F)])
    L = divisibility_closure(MonomialSet(2, [(1, 1), (2, 0)], bound=S.sizes))
    stabs = oracle_stabilizers(S)
    group = oracle_affine_perm_group(L, S, stabilizers=stabs)
    assert two_route_agreement(L, S, stabs) == (True, [])
    first = stabs.index(group[0])
    span_ok = oracle._span_ok

    def drop_first(*args, **kwargs):
        ok = span_ok(*args, **kwargs)
        ok[first] = False
        return ok

    monkeypatch.setattr(oracle, "_span_ok", drop_first)
    agree, dis = two_route_agreement(L, S, stabs)
    assert not agree
    assert dis == [{"T": group[0].to_json(), "span_route": False, "code_route": True}]
