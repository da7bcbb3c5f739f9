"""Affine maps: point action, composition, induced coordinate permutations,
and the span-membership condition, against the worked small-field examples."""

import itertools
import random

import pytest

from cartperm.affine import (
    AffineTransformation, SpanChecker, induced_permutation,
    is_affine_permutation, permute_word, stabilizes_monomial_span,
    stabilizes_set,
)
from cartperm.field import GF, FieldError
from cartperm.monomials import MonomialSet, divisibility_closure
from cartperm.poly import Polynomial, evaluate_on_set, reduce_mod_vanishing
from cartperm.points import (
    CartesianSet, additive_component, explicit_component, full_component,
    mult_component, torus_component,
)


def shear_T():
    F = GF(3)
    return AffineTransformation(F, [[1, 0], [1, 1]])


def F3_star_x_01():
    F = GF(3)
    return CartesianSet([mult_component(F, 2), explicit_component(F, [F(0), F(1)])])


def gf9_L():
    monos = [u for u in itertools.product(range(9), repeat=2) if sum(u) <= 3]
    monos += [(0, 4), (1, 3), (3, 1), (4, 0)]
    return MonomialSet(2, monos, bound=(9, 9))


def test_apply_compose_invert():
    F = GF(3)
    T = shear_T()
    assert T.apply_point([F(1), F(0)]) == (F(1), F(1))
    I = AffineTransformation.identity(F, 2)
    P = (F(2), F(1))
    assert I.apply_point(P) == P
    trans = AffineTransformation.translation(F, [F(1), F(2)])
    inv = trans.invert()
    assert inv.b == (2, 1) and inv.is_translation()
    rng = random.Random(3)
    for _ in range(25):
        A1 = [[F(rng.randrange(3)) for _ in range(2)] for _ in range(2)]
        A2 = [[F(rng.randrange(3)) for _ in range(2)] for _ in range(2)]
        T1 = AffineTransformation(F, A1, [F(rng.randrange(3)), F(rng.randrange(3))])
        T2 = AffineTransformation(F, A2, [F(rng.randrange(3)), F(rng.randrange(3))])
        Pt = (F(rng.randrange(3)), F(rng.randrange(3)))
        assert T1.compose(T2).apply_point(Pt) == T1.apply_point(T2.apply_point(Pt))
        if T1.is_invertible():
            assert T1.invert().apply_point(T1.apply_point(Pt)) == Pt
            assert T1.invert().compose(T1) == AffineTransformation.identity(F, 2)


def test_singular_invert_rejected():
    F = GF(2)
    T = AffineTransformation(F, [[1, 1], [1, 1]])
    assert not T.is_invertible()
    with pytest.raises(FieldError):
        T.invert()


def test_shear_does_not_stabilize():
    S = F3_star_x_01()
    T = shear_T()
    assert not stabilizes_set(T, S)
    assert stabilizes_set(AffineTransformation.identity(S.field, 2), S)
    with pytest.raises(ValueError):
        induced_permutation(T, S)


def test_shear_breaks_isometry():
    # the pulled-back codeword has a different weight, so no coordinate
    # permutation could produce it
    S = F3_star_x_01()
    F = S.field
    f = Polynomial(F, 2, {(0, 1): 1, (1, 0): 2, (0, 0): 1})
    g = shear_T().of_poly(f)
    w0 = sum(1 for x in evaluate_on_set(f, S) if x)
    w1 = sum(1 for x in evaluate_on_set(g, S) if x)
    assert (w0, w1) == (2, 4)


def test_diag_mult_stabilizes():
    F = GF(9)
    S = CartesianSet([mult_component(F, 4), mult_component(F, 2)])
    g4, g2 = S.components[0].elements[1], S.components[1].elements[1]
    T = AffineTransformation(F, [[g4, F.zero], [F.zero, g2]])
    assert stabilizes_set(T, S)
    T_bad = AffineTransformation.translation(F, [F.one, F.zero])
    assert not stabilizes_set(T_bad, S)


def test_induced_permutation_torus_shift():
    F = GF(8)
    S = CartesianSet([torus_component(F)])
    beta = F.primitive_element()
    T = AffineTransformation(F, [[beta]])
    pi = induced_permutation(T, S)
    n = S.n
    assert pi == tuple((t + 1) % n for t in range(n))


def test_induced_permutation_translation_gf2():
    F = GF(2)
    S = CartesianSet([full_component(F), full_component(F)])
    T = AffineTransformation.translation(F, [F.one, F.one])
    pi = induced_permutation(T, S)
    assert pi == (3, 2, 1, 0)


def test_induced_permutation_composition_and_codeword_action():
    F = GF(4)
    S = CartesianSet([full_component(F), torus_component(F)])
    a = F.primitive_element()
    T1 = AffineTransformation(F, [[1, 0], [0, a]], [a, 0])
    T2 = AffineTransformation(F, [[a, 0], [0, a]], [1, 0])
    for T in (T1, T2):
        assert stabilizes_set(T, S)
    pi1, pi2 = induced_permutation(T1, S), induced_permutation(T2, S)
    pi12 = induced_permutation(T1.compose(T2), S)
    assert pi12 == tuple(pi1[pi2[t]] for t in range(S.n))
    # pulled-back codeword = permuted codeword
    rng = random.Random(8)
    for T, pi in ((T1, pi1), (T2, pi2)):
        for _ in range(10):
            f = Polynomial(F, 2, {
                (rng.randrange(4), rng.randrange(3)): F(rng.randrange(4))
                for _ in range(4)})
            lhs = evaluate_on_set(T.of_poly(f), S)
            assert lhs == permute_word(evaluate_on_set(f, S), pi)


def test_span_condition_gf9_lower_triangular():
    F = GF(9)
    S = CartesianSet([full_component(F), full_component(F)])
    L = gf9_L()
    checker = SpanChecker(L, S)
    count = 0
    for a in range(1, 9):
        for b in range(9):
            for c in range(1, 9):
                T = AffineTransformation(F, [[F(a), F.zero], [F(b), F(c)]])
                assert checker.check(T)
                count += 1
    assert count == 576
    # an upper-triangular mix does break the span: x2 -> x2 pulls in nothing,
    # but x1 -> x1 + x2 sends x1^4 to a polynomial with x1^2*x2^2 missing from L
    T_up = AffineTransformation(F, [[F.one, F.one], [F.zero, F.one]])
    assert checker.check(T_up)  # both graph edges exist, so this still passes
    L_small = MonomialSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)], bound=(9, 9))
    T_bad = AffineTransformation(F, [[F.one, F.zero], [F.zero, F.one]], [F.zero, F.one])
    assert stabilizes_monomial_span(T_bad, L_small, S)
    L_gap = MonomialSet(2, [(0, 0), (0, 1)], bound=(9, 9))
    T_mix = AffineTransformation(F, [[F.one, F.zero], [F.one, F.one]])
    assert not stabilizes_monomial_span(T_mix, L_gap, S)


def test_span_condition_gf16_mixing_rows():
    F = GF(16)
    a = F.primitive_element()
    G1 = additive_component(F, [F.one, a, a * a])
    G2 = additive_component(F, [a ** 6, a ** 11])
    G3 = additive_component(F, [F.one])
    S = CartesianSet([G1, G2, G3])
    L = divisibility_closure(MonomialSet(3, [(2, 0, 0), (1, 1, 0)], bound=S.sizes))
    ident = AffineTransformation.identity(F, 3)
    assert stabilizes_monomial_span(ident, L, S)
    for b, c in [(F.one, F.zero), (F.zero, F.one), (a, a ** 2)]:
        T = AffineTransformation(F, [[F.one, b, c], [0, 1, 0], [0, 0, 1]])
        assert not stabilizes_monomial_span(T, L, S)
    # e entry mixing x3 into x2 also fails
    T_e = AffineTransformation(F, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    assert not stabilizes_monomial_span(T_e, L, S)


def test_checker_matches_two_step_path():
    rng = random.Random(31)
    F = GF(4)
    S = CartesianSet([full_component(F), torus_component(F)])
    L = MonomialSet(2, [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)], bound=S.sizes)
    checker = SpanChecker(L, S)
    for _ in range(200):
        T = AffineTransformation(
            F, [[F(rng.randrange(4)) for _ in range(2)] for _ in range(2)],
            [F(rng.randrange(4)), F(rng.randrange(4))])
        slow = all(
            set(reduce_mod_vanishing(T.of_poly(Polynomial.monomial(F, u)), S).support())
            <= L.monomials
            for u in L.monomials)
        assert checker.check(T) == slow


def test_is_affine_permutation_and_group_closure():
    F = GF(3)
    S = CartesianSet([full_component(F), full_component(F)])
    L = MonomialSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)], bound=(3, 3))
    members = []
    for ent in itertools.product(range(3), repeat=6):
        A = [[ent[0], ent[1]], [ent[2], ent[3]]]
        T = AffineTransformation(F, A, [ent[4], ent[5]])
        if is_affine_permutation(T, L, S):
            members.append(T)
    assert AffineTransformation.identity(F, 2) in members
    mset = set(members)
    for T1 in members[::7]:
        assert T1.invert() in mset
        for T2 in members[::11]:
            assert T1.compose(T2) in mset


def test_transformation_json():
    F = GF(16)
    a = F.primitive_element()
    T = AffineTransformation(F, [[a, 1, 0], [0, a ** 2, 0], [1, 0, 1]], [a, 0, 1])
    assert AffineTransformation.from_json(F, T.to_json()) == T


def test_membership_report_witnesses():
    from cartperm.affine import membership_report
    F = GF(3)
    S = CartesianSet([mult_component(F, 2), explicit_component(F, [F(0), F(1)])])
    L = MonomialSet(2, [(0, 0), (1, 0), (0, 1)], bound=S.sizes)
    T = shear_T()
    rep = membership_report(T, L, S)
    assert rep["stabilizes_set"] is False
    assert rep["witness"] == {"point": [[1], [1]]}   # (1,1) -> (1,2) escapes
    ident = AffineTransformation.identity(F, 2)
    rep2 = membership_report(ident, L, S)
    assert rep2["stabilizes_set"] and rep2["stabilizes_span"]
    assert rep2["witness"] is None
    S_full = CartesianSet([full_component(F), full_component(F)])
    L_gap = MonomialSet(2, [(0, 0), (0, 1)], bound=S_full.sizes)
    T_mix = AffineTransformation(F, [[1, 0], [1, 1]])
    rep3 = membership_report(T_mix, L_gap, S_full)
    assert rep3["stabilizes_set"] is True
    assert rep3["stabilizes_span"] is False
    assert rep3["witness"] == {"member": [0, 1], "monomial": [1, 0]}


def test_shape_errors():
    F = GF(3)
    with pytest.raises(ValueError, match="matrix must be square"):
        AffineTransformation(F, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match="offset length mismatch"):
        AffineTransformation(F, [[1, 0], [0, 1]], [1])
    T = AffineTransformation.identity(F, 2)
    with pytest.raises(ValueError, match="point dimension mismatch"):
        T.apply_point((1, 2, 0))
    with pytest.raises(FieldError, match="different ambients"):
        T.compose(AffineTransformation.identity(GF(5), 2))
