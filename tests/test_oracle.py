"""Exhaustive oracle scans: affine space enumeration, stabilizer search,
exact affine permutation groups, two-route agreement, verification reports."""

import itertools
import random

import pytest

from cartperm.affine import AffineTransformation, SpanChecker, stabilizes_set
from cartperm.families import (
    BudgetExceeded, BorelClaimedFamily, MultProductFamily, enumerate_LTA,
    gl_count,
)
from cartperm.field import GF
from cartperm.monomials import MonomialSet, p_borel_graph, random_decreasing_set
from cartperm.oracle import (
    affine_space_size, code_permutation_check, enumerate_all_affine,
    group_axioms_report, oracle_affine_perm_group, oracle_stabilizers,
    two_route_agreement, verify_characterization, verify_containment,
)
from cartperm.points import (
    CartesianSet, explicit_component, full_component, mult_component,
    torus_component,
)


def full_square(q):
    F = GF(q)
    return CartesianSet([full_component(F), full_component(F)])


def test_enumerate_all_affine_counts():
    F2 = GF(2)
    allmaps = list(enumerate_all_affine(F2, 2))
    assert len(allmaps) == affine_space_size(F2, 2) == 64
    assert len(set(allmaps)) == 64
    assert sum(1 for T in allmaps if T.is_invertible()) == 24
    inv = list(enumerate_all_affine(F2, 1, invertible_only=True))
    assert [(T.A, T.b) for T in inv] == [(((1,),), (0,)), (((1,),), (1,))]
    F3 = GF(3)
    assert sum(1 for T in enumerate_all_affine(F3, 2, invertible_only=True)) \
        == gl_count(3, 2) * 9 == 432
    with pytest.raises(BudgetExceeded):
        list(enumerate_all_affine(F3, 2, budget=100))


def test_enumeration_order_is_counter_order():
    F = GF(3)
    first = next(enumerate_all_affine(F, 2))
    assert first.A == ((0, 0), (0, 0)) and first.b == (0, 0)
    second = next(itertools.islice(enumerate_all_affine(F, 2), 1, 2))
    assert second.A == ((1, 0), (0, 0))  # lowest digit is the (0,0) entry


def test_oracle_stabilizers_against_slow_path():
    F = GF(3)
    S = CartesianSet([mult_component(F, 2), explicit_component(F, [F(0), F(1)])])
    fast = oracle_stabilizers(S)
    slow = [T for T in enumerate_all_affine(F, 2) if stabilizes_set(T, S)]
    assert [(T.A, T.b) for T in fast] == [(T.A, T.b) for T in slow]


def test_oracle_stabilizer_counts():
    F3 = GF(3)
    assert len(oracle_stabilizers(CartesianSet([torus_component(F3)] * 2))) == 8
    assert len(oracle_stabilizers(full_square(2))) == 24
    S = CartesianSet([full_component(F3), torus_component(F3)])
    assert len(oracle_stabilizers(S)) == 36
    with pytest.raises(BudgetExceeded):
        oracle_stabilizers(full_square(3), budget=100)


def test_candidate_stream_restriction():
    F = GF(3)
    S = CartesianSet([torus_component(F)] * 2)
    fam = MultProductFamily(S)
    got = oracle_stabilizers(S, candidates=fam.members())
    assert len(got) == 8


def test_perm_group_whole_box_is_stabilizers():
    F = GF(2)
    S = full_square(2)
    box = MonomialSet(2, list(itertools.product(range(2), repeat=2)), bound=S.sizes)
    group = oracle_affine_perm_group(box, S)
    stabs = oracle_stabilizers(S)
    assert {(T.A, T.b) for T in group} == {(T.A, T.b) for T in stabs}


def test_perm_group_small_exact():
    # L = {1, x1} over GF(2)^2: row 1 of A cannot mix in x2
    F = GF(2)
    S = full_square(2)
    L = MonomialSet(2, [(0, 0), (1, 0)], bound=S.sizes)
    group = oracle_affine_perm_group(L, S)
    expect = [T for T in enumerate_all_affine(F, 2)
              if T.is_invertible() and T.A[0][1] == 0]
    assert {(T.A, T.b) for T in group} == {(T.A, T.b) for T in expect}
    rep = group_axioms_report(F, group)
    assert rep["has_identity"] and rep["closed_under_inverse"]
    assert rep["closed_under_composition"] and rep["exhaustive"]


def test_lta_inside_gf9_example_group():
    F = GF(9)
    S = full_square(9)
    monos = [u for u in itertools.product(range(9), repeat=2) if sum(u) <= 3]
    monos += [(0, 4), (1, 3), (3, 1), (4, 0)]
    L = MonomialSet(2, monos, bound=S.sizes)
    checker = SpanChecker(L, S)
    for T in itertools.islice(enumerate_LTA(F, 2), 0, None, 37):
        assert checker.check(T)
    # seed-pinned sample of the full-mask equality: every invertible map is in
    # the group (the pattern graph is complete for this set)
    g = p_borel_graph(L, 3)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    rng = random.Random(90)
    for _ in range(300):
        A = [[rng.randrange(9) for _ in range(2)] for _ in range(2)]
        T = AffineTransformation(F, A, [rng.randrange(9), rng.randrange(9)])
        if T.is_invertible():
            assert checker.check(T)


def test_code_permutation_check():
    F = GF(3)
    S = CartesianSet([full_component(F), torus_component(F)])
    L = MonomialSet(2, [(0, 0), (1, 0), (0, 1)], bound=S.sizes)
    ident = AffineTransformation.identity(F, 2)
    assert code_permutation_check(ident, L, S)
    group = oracle_affine_perm_group(L, S)
    assert all(code_permutation_check(T, L, S) for T in group)
    T_shear = AffineTransformation(F, [[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        code_permutation_check(T_shear, L, S)


def test_two_route_agreement_random_decreasing():
    rng = random.Random(2468)
    configs = [
        CartesianSet([full_component(GF(2))] * 2),
        CartesianSet([full_component(GF(3)), torus_component(GF(3))]),
        CartesianSet([torus_component(GF(4)), full_component(GF(4))]),
    ]
    for S in configs:
        stabs = oracle_stabilizers(S)
        for _ in range(4):
            L = random_decreasing_set(rng, S.sizes)
            agree, dis = two_route_agreement(L, S, stabs)
            assert agree, dis


def test_verification_reports():
    F = GF(3)
    S = CartesianSet([torus_component(F)] * 2)
    rep = verify_characterization(MultProductFamily(S), S, label="torus-gf3")
    assert rep.relation == "equal" and rep.ok
    assert rep.oracle_count == rep.family_count == 8
    js = rep.to_json()
    assert js["relation"] == "equal" and js["count_formula"] == 8

    S2 = CartesianSet([full_component(F), torus_component(F)])
    L = MonomialSet(2, [(0, 0), (1, 0)], bound=S2.sizes)
    fam = BorelClaimedFamily(S2, L)
    rep2 = verify_containment(fam.members(), L, S2, label="claimed-subgroup")
    assert rep2.relation in ("family-subset", "equal") and rep2.ok
    assert rep2.family_count == fam.count()
    # deliberately broken family: a non-member first
    bad = [AffineTransformation(F, [[1, 1], [0, 1]], [0, 0])]
    rep3 = verify_containment(bad, L, S2, label="broken")
    assert rep3.relation == "violation" and not rep3.ok
    assert rep3.counterexamples


def test_wrong_characterization_detected():
    F = GF(3)
    S = CartesianSet([full_component(F), torus_component(F)])
    rep = verify_characterization(MultProductFamilyLike(S), S, label="wrong")
    assert rep.relation == "violation"
    assert rep.counterexamples


class MultProductFamilyLike:
    """Family claiming only the identity: must be flagged as a violation."""

    kind = "identity-only"

    def __init__(self, S):
        self.S = S

    def count(self):
        return 1

    def members(self, budget=None):
        yield AffineTransformation.identity(self.S.field, self.S.m)


def test_mixed_general_gf9_oracle_equality():
    # full field times an order-2 subgroup over GF(9): formula 8*9*2*9 = 1296
    from cartperm.families import MixedGeneralFamily
    from cartperm.points import mult_component
    F = GF(9)
    S = CartesianSet([full_component(F), mult_component(F, 2)])
    fam = MixedGeneralFamily(S)
    assert fam.count() == 1296
    rep = verify_characterization(fam, S, label="gf9-full-x-order2")
    assert rep.relation == "equal" and rep.oracle_count == 1296


def test_verify_characterization_accepts_stabilizers():
    F = GF(5)
    S = CartesianSet([mult_component(F, 2), mult_component(F, 4)])
    fam = MultProductFamily(S)
    scanned = verify_characterization(fam, S)
    given = verify_characterization(fam, S, stabilizers=oracle_stabilizers(S))
    assert given.to_json() == scanned.to_json()
    assert given.relation == "equal"
