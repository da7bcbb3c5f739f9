"""Family enumerators: counts, structural predicates, soundness against the
membership conditions, and budget discipline."""

import itertools
import random

import pytest

from cartperm.affine import (
    AffineTransformation, is_affine_permutation, stabilizes_set,
)
from cartperm.families import (
    AdditiveHeteroPattern, AdditivePowerFamily, BorelClaimedFamily,
    MixedFullTorusFamily, MixedGeneralFamily, MultProductFamily,
    describe, enumerate_LTA, enumerate_ML_invertible, gl_count,
    is_lower_triangular_invertible, lta_count,
)
from cartperm.field import GF, FieldError
from cartperm.monomials import MonomialSet, divisibility_closure, random_borel_set
from cartperm.oracle import BudgetExceeded
from cartperm.points import (
    CartesianSet, additive_component, full_component, mult_component,
    torus_component,
)
from family_reference import enumerate_all_affine


def test_lta_counts():
    assert lta_count(GF(2), 2) == 8
    assert lta_count(GF(3), 1) == 6
    assert lta_count(GF(9), 2) == 8 * 9 * 8 * 81
    got = list(enumerate_LTA(GF(2), 2))
    assert len(got) == len(set(got)) == 8
    assert all(is_lower_triangular_invertible(T) for T in got)
    got3 = list(enumerate_LTA(GF(3), 1))
    assert len(got3) == 6
    with pytest.raises(BudgetExceeded):
        list(enumerate_LTA(GF(9), 2, budget=1000))


def test_ml_enumerator_full_and_diagonal_masks():
    F = GF(2)
    # the full box has every edge, so the family is the whole affine group
    box = MonomialSet(2, list(itertools.product(range(2), repeat=2)), bound=(2, 2))
    full = list(enumerate_ML_invertible(box, 2, F))
    assert len(full) == gl_count(2, 2) * 4 == 24
    # pure powers of each variable block every cross move, pinning the
    # off-diagonal entries to zero
    L = MonomialSet(2, [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (3, 0), (0, 3)],
                    bound=(4, 4))
    F4 = GF(4)
    diag = list(enumerate_ML_invertible(L, 2, F4))
    from cartperm.monomials import stable_pattern
    pat = stable_pattern(L, 2)
    assert pat.mask == ((True, False), (False, True))
    assert len(diag) == 3 * 3 * 16
    with pytest.raises(FieldError):
        list(enumerate_ML_invertible(L, 3, F4))


def brute_stabilizers(S):
    F, m = S.field, S.m
    out = []
    for ent in itertools.product(range(F.q), repeat=m * m + m):
        A = [list(ent[i * m:(i + 1) * m]) for i in range(m)]
        T = AffineTransformation(F, A, list(ent[m * m:]))
        if stabilizes_set(T, S):
            out.append(T)
    return out


def test_mult_product_family():
    F = GF(3)
    S = CartesianSet([torus_component(F)] * 2)
    fam = MultProductFamily(S)
    members = list(fam.members())
    assert fam.count() == len(members) == len(set(members)) == 8
    oracle = brute_stabilizers(S)
    assert set(members) == set(oracle)
    assert all(fam.contains(T) for T in members)
    bad = AffineTransformation(F, [[1, 0], [0, 1]], [1, 0])
    assert not fam.contains(bad)
    with pytest.raises(FieldError):
        MultProductFamily(CartesianSet([full_component(F), torus_component(F)]))


def test_mult_product_distinct_orders_pin_sigma():
    F = GF(9)
    S = CartesianSet([mult_component(F, 2), mult_component(F, 4)])
    fam = MultProductFamily(S)
    assert fam.count() == 8
    members = list(fam.members())
    assert len(members) == 8
    assert all(T.A[0][1] == 0 and T.A[1][0] == 0 for T in members)
    S_eq = CartesianSet([mult_component(F, 4), mult_component(F, 4)])
    assert MultProductFamily(S_eq).count() == 2 * 16


def test_mixed_full_torus_family():
    F = GF(3)
    S = CartesianSet([full_component(F), torus_component(F)])
    fam = MixedFullTorusFamily(S)
    members = list(fam.members())
    assert fam.count() == len(members) == 36
    assert set(members) == set(brute_stabilizers(S))
    assert all(fam.contains(T) for T in members)
    # s = m degenerates to the full affine group
    S_all = CartesianSet([full_component(GF(2))] * 2)
    fam_all = MixedFullTorusFamily(S_all)
    assert fam_all.count() == 24
    assert set(fam_all.members()) == set(brute_stabilizers(S_all))
    # s = 0 degenerates to the torus characterization
    S_tor = CartesianSet([torus_component(GF(4))] * 2)
    assert MixedFullTorusFamily(S_tor).count() == MultProductFamily(S_tor).count()


def test_mixed_general_family():
    F = GF(5)
    S = CartesianSet([full_component(F), mult_component(F, 2)])
    fam = MixedGeneralFamily(S)
    members = list(fam.members())
    assert fam.count() == len(members) == gl_count(5, 1) * 5 * 2 * 5 == 200
    assert set(members) == set(brute_stabilizers(S))
    assert all(fam.contains(T) for T in members)
    bad = AffineTransformation(F, [[1, 0], [0, 1]], [0, 1])
    assert not fam.contains(bad)
    # adjacent equal components merge into one block; a repeat across
    # distinct blocks is rejected
    S_rep = CartesianSet([mult_component(F, 2), mult_component(F, 2)])
    assert MixedGeneralFamily(S_rep).count() == MultProductFamily(S_rep).count()
    with pytest.raises(FieldError):
        MixedGeneralFamily(CartesianSet(
            [mult_component(F, 2), mult_component(F, 4), mult_component(F, 2)]))
    # pure subgroup product reduces to the multiplicative characterization
    S2 = CartesianSet([mult_component(F, 4), mult_component(F, 2)])
    assert MixedGeneralFamily(S2).count() == MultProductFamily(S2).count()


def test_additive_power_family():
    F = GF(4)
    G = additive_component(F, [F.one])
    S = CartesianSet([G, G])
    fam = AdditivePowerFamily(S)
    members = list(fam.members())
    assert fam.count() == len(members) == gl_count(2, 2) * 4 == 24
    assert set(members) == set(brute_stabilizers(S))
    assert all(fam.contains(T) for T in members)
    # the line alpha*F4 in GF(16): maps a*x+b with a in F4*, b on the line
    F16 = GF(16)
    a = F16.primitive_element()
    line = additive_component(F16, [a ** 6, a ** 11])
    fam1 = AdditivePowerFamily(CartesianSet([line]))
    assert fam1.subfield_degree == 2
    mem1 = list(fam1.members())
    assert fam1.count() == len(mem1) == 12
    f4 = {x.ix for x in F16.subfield_elements(2)}
    assert all(T.A[0][0] in f4 and T.b[0] in line.element_set() for T in mem1)
    # full field component: everything invertible
    fam_full = AdditivePowerFamily(CartesianSet([full_component(F)]))
    assert fam_full.count() == 3 * 4


def test_additive_hetero_pattern():
    F = GF(16)
    a = F.primitive_element()
    G1 = additive_component(F, [F.one, a, a * a])
    G2 = additive_component(F, [a ** 6, a ** 11])
    G3 = additive_component(F, [F.one])
    pat = AdditiveHeteroPattern(CartesianSet([G1, G2, G3]))
    sizes = [[len(H) for H in row] for row in pat.table]
    assert sizes == [[2, 4, 8], [1, 4, 4], [1, 1, 2]]
    assert pat.candidate_count() == 2 * 4 * 8 * 4 * 4 * 2 * (8 * 4 * 2)
    assert pat.necessary_only
    # pattern on an equal-components product recovers the subfield constraint
    pat_eq = AdditiveHeteroPattern(CartesianSet([G2, G2]))
    f4 = frozenset(F.subfield_elements(2))
    assert all(H == f4 for row in pat_eq.table for H in row)
    # candidate stream respects the budget
    with pytest.raises(BudgetExceeded):
        list(pat.candidates(budget=10))


def test_borel_claimed_families_sound():
    rng = random.Random(555)
    F = GF(3)
    # full x torus shape
    S = CartesianSet([full_component(F), torus_component(F)])
    L = random_borel_set(rng, S.sizes)
    fam = BorelClaimedFamily(S, L)
    members = list(fam.members())
    assert len(members) == fam.count()
    assert all(is_affine_permutation(T, L, S) for T in members)
    assert all(fam.contains(T) for T in members)
    # additive power shape over GF(4)
    F4 = GF(4)
    G = additive_component(F4, [F4.one])
    S2 = CartesianSet([G, G])
    L2 = random_borel_set(rng, S2.sizes)
    fam2 = BorelClaimedFamily(S2, L2)
    members2 = list(fam2.members())
    assert len(members2) == fam2.count()
    assert all(is_affine_permutation(T, L2, S2) for T in members2)
    # full x distinct subgroup powers over GF(5)
    F5 = GF(5)
    S3 = CartesianSet([full_component(F5), mult_component(F5, 2), mult_component(F5, 2)])
    L3 = random_borel_set(rng, S3.sizes)
    fam3 = BorelClaimedFamily(S3, L3)
    members3 = list(fam3.members())
    assert len(members3) == fam3.count() == 4 * 5
    assert all(is_affine_permutation(T, L3, S3) for T in members3)
    # non-Borel sets are rejected
    with pytest.raises(ValueError):
        BorelClaimedFamily(S, MonomialSet(2, [(0, 0), (0, 1)], bound=S.sizes))
    # and so are Borel sets that are not decreasing: the claim is made for
    # decreasing sets, and {x1, x2} lacks 1
    with pytest.raises(ValueError, match="not decreasing"):
        BorelClaimedFamily(S, MonomialSet(2, [(1, 0), (0, 1)], bound=S.sizes))


def test_borel_claimed_contains_matches_members():
    # every map of the affine space, singular ones included, on each shape
    # of the claimed family: contains accepts exactly the members
    F3, F4, F5, F16 = GF(3), GF(4), GF(5), GF(16)
    a = F16.primitive_element()
    # (set, shape, split or subfield degree)
    cases = [
        (CartesianSet([full_component(F3), torus_component(F3)]), "full-torus", 1),
        (CartesianSet([full_component(F5), mult_component(F5, 2)]), "full-subgroups", 1),
        (CartesianSet([mult_component(F5, 2), mult_component(F5, 4)]), "full-subgroups", 0),
        (CartesianSet([additive_component(F4, [F4.one])] * 2), "additive-power", 1),
        (CartesianSet([full_component(GF(2))] * 2), "additive-power", 1),
        (CartesianSet([additive_component(F16, [a ** 6, a ** 11])]), "additive-power", 2),
    ]
    for S, shape, param in cases:
        L = divisibility_closure(MonomialSet(S.m, [(1,) + (0,) * (S.m - 1)], bound=S.sizes))
        fam = BorelClaimedFamily(S, L)
        assert fam.shape == shape
        assert (fam.subfield_degree if shape == "additive-power" else fam.split) == param
        members = set(fam.members())
        assert len(members) == fam.count()
        mismatched = [T for T in enumerate_all_affine(S.field, S.m)
                      if fam.contains(T) != (T in members)]
        assert mismatched == []


def test_borel_claimed_requires_known_shape():
    F = GF(4)
    L = MonomialSet(2, [(0, 0)], bound=(2, 3))
    S = CartesianSet([additive_component(F, [F.one]),
                      torus_component(F)])
    with pytest.raises(FieldError):
        BorelClaimedFamily(S, L)


def test_family_descriptors():
    from cartperm.families import describe
    F = GF(3)
    S = CartesianSet([torus_component(F)] * 2)
    d = describe(MultProductFamily(S))
    assert d["kind"] == "mult-product" and d["count"] == 8
    assert d["params"]["field"] == {"p": 3, "k": 1, "irreducible": [0, 1]}
    S2 = CartesianSet([full_component(F), torus_component(F)])
    d2 = describe(MixedFullTorusFamily(S2))
    assert d2["params"]["s"] == 1 and d2["count"] == 36


def test_lta_enumeration_order():
    # diagonal entries, then below-diagonal entries, in row-major counting
    # order; the offset counts fastest
    got = [(T.A, T.b) for T in enumerate_LTA(GF(2), 2)]
    I, L = ((1, 0), (0, 1)), ((1, 0), (1, 1))
    assert got == [(I, (0, 0)), (I, (0, 1)), (I, (1, 0)), (I, (1, 1)),
                   (L, (0, 0)), (L, (0, 1)), (L, (1, 0)), (L, (1, 1))]


def test_borel_full_torus_member_order():
    F = GF(3)
    S = CartesianSet([full_component(F), torus_component(F)])
    L = MonomialSet(2, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)], S.sizes)
    fam = BorelClaimedFamily(S, L)
    assert fam.shape == "full-torus" and fam.count() == 6
    A1, A2 = ((1, 0), (0, 1)), ((2, 0), (0, 1))
    assert [(T.A, T.b) for T in fam.members()] == [
        (A1, (0, 0)), (A1, (1, 0)), (A1, (2, 0)),
        (A2, (0, 0)), (A2, (1, 0)), (A2, (2, 0))]


@pytest.mark.parametrize("q, comps", [
    (3, "FT"), (3, "FFT"), (4, "TT"), (2, "FF"),
])
def test_mixed_full_torus_is_mixed_general(q, comps):
    F = GF(q)
    make = {"F": full_component, "T": torus_component}
    S = CartesianSet([make[c](F) for c in comps])
    torus, general = MixedFullTorusFamily(S), MixedGeneralFamily(S)
    assert torus.kind == "mixed-full-torus" and torus.s == comps.count("F")
    members = set(torus.members())
    assert members == set(general.members())
    assert torus.count() == general.count() == len(members)
    assert all(torus.contains(T) for T in members)


def test_one_point_torus_has_no_mixed_family():
    # the "torus" of GF(2) is {1}; like every order-1 subgroup it is rejected
    F = GF(2)
    S = CartesianSet([full_component(F), torus_component(F)])
    with pytest.raises(FieldError):
        MixedFullTorusFamily(S)
    with pytest.raises(FieldError):
        MixedGeneralFamily(S)


def test_describe_names_the_monomials_of_a_claimed_family():
    S = CartesianSet([full_component(GF(2))] * 2)
    L = MonomialSet(2, [(1, 0), (0, 0)], bound=S.sizes)
    params = describe(BorelClaimedFamily(S, L))["params"]
    assert params["monomials"] == {"monomials": [[0, 0], [1, 0]], "bound": [2, 2]}


def test_contains_refuses_maps_outside_the_family():
    # GF(5) full x mu2, mu2 = {1, 4}: the full block is row 1, column 1
    F = GF(5)
    mixed = MixedGeneralFamily(CartesianSet([full_component(F), mult_component(F, 2)]))
    assert mixed.m0 == 1
    assert mixed.contains(AffineTransformation(F, [[2, 3], [0, 4]], [1, 0]))
    # a singular full block
    assert not mixed.contains(AffineTransformation(F, [[0, 3], [0, 4]]))
    # a tail row whose one entry 2 lies outside mu2, one with two nonzero
    # entries, and one whose entry sits in the full column
    for tail in ([0, 2], [1, 4], [4, 0]):
        assert not mixed.contains(AffineTransformation(F, [[2, 3], tail]))
    # the additive subgroup {0, 1} of GF(4), squared: b must lie in it, and
    # index 2, the class of x, does not
    F4 = GF(4)
    G = additive_component(F4, [F4.one])
    power = AdditivePowerFamily(CartesianSet([G, G]))
    assert power.contains(AffineTransformation(F4, [[1, 0], [0, 1]], [1, 0]))
    assert not power.contains(AffineTransformation(F4, [[1, 0], [0, 1]], [2, 0]))
