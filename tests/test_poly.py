"""Polynomial arithmetic, affine substitution, canonical reduction,
evaluation on Cartesian sets."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cartperm.affine import AffineTransformation
from cartperm.field import GF, Field, FieldError
from cartperm.poly import (
    Polynomial, affine_pullback, evaluate_on_set, grlex_key,
    reduce_mod_vanishing, sorted_monomials, substitute_affine,
)
from cartperm.points import (
    CartesianSet, additive_component, explicit_component, full_component,
    mult_component, torus_component,
)


def P_of(F, m, d):
    return Polynomial(F, m, d)


def random_poly(rng, F, m, maxdeg, nterms=6):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(maxdeg + 1) for _ in range(m))
        terms[e] = F(rng.randrange(F.q))
    return Polynomial(F, m, terms)


def test_grlex_order():
    exps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert sorted_monomials(reversed(exps)) == exps
    assert grlex_key((1, 0)) < grlex_key((0, 1))


def test_ring_ops():
    F = GF(3)
    x1 = Polynomial.variable(F, 1, 0)
    one = Polynomial.constant(F, 1, 1)
    two = Polynomial.constant(F, 1, 2)
    prod = (x1 + one) * (x1 + two)
    assert prod == Polynomial(F, 1, {(2,): 1, (0,): 2})
    f = random_poly(random.Random(1), F, 2, 3)
    assert (f + (-f)).is_zero()
    assert (f * Polynomial.zero(F, 2)).is_zero()
    assert f.scale(0).is_zero()


def test_ambient_mismatch():
    with pytest.raises(FieldError):
        Polynomial.variable(GF(3), 2, 0) + Polynomial.variable(GF(3), 1, 0)
    with pytest.raises(FieldError):
        Polynomial.variable(GF(3), 2, 0) * Polynomial.variable(GF(2), 2, 0)


def test_substitute_affine_shear_example():
    # f = x2 - x1 + 1 pulled back through (x1, x2) -> (x1, x1 + x2) over GF(3)
    F = GF(3)
    f = Polynomial(F, 2, {(0, 1): 1, (1, 0): 2, (0, 0): 1})
    A = [[F(1), F(0)], [F(1), F(1)]]
    b = [F(0), F(0)]
    g = substitute_affine(f, A, b)
    assert g == Polynomial(F, 2, {(0, 1): 1, (0, 0): 1})


def test_substitute_affine_char3_quartic():
    # (b*x1 + c*x2)^4 over GF(9) keeps only the Lucas-admissible terms
    F = GF(9)
    a = F.primitive_element()
    for bv, cv in [(a, a ** 3), (F(2), a), (a ** 5, F(1))]:
        f = Polynomial(F, 2, {(0, 4): 1})
        A = [[F(1), F(0)], [bv, cv]]
        g = substitute_affine(f, A, [F(0), F(0)])
        expect = Polynomial(F, 2, {
            (4, 0): bv ** 4,
            (3, 1): bv ** 3 * cv,
            (1, 3): bv * cv ** 3,
            (0, 4): cv ** 4,
        })
        assert g == expect


def test_substitute_identity_and_products():
    F = GF(4)
    rng = random.Random(7)
    ident = [[F.one if i == j else F.zero for j in range(2)] for i in range(2)]
    for _ in range(20):
        f = random_poly(rng, F, 2, 3)
        g = random_poly(rng, F, 2, 2)
        assert substitute_affine(f, ident, [F.zero, F.zero]) == f
        A = [[F(rng.randrange(4)) for _ in range(2)] for _ in range(2)]
        b = [F(rng.randrange(4)) for _ in range(2)]
        assert substitute_affine(f * g, A, b) == \
            substitute_affine(f, A, b) * substitute_affine(g, A, b)


def test_substitute_composition_law():
    # substituting T2 then T1 equals substituting the map x -> A2(A1 x + b1) + b2
    F = GF(5)
    rng = random.Random(11)
    for _ in range(20):
        f = random_poly(rng, F, 2, 3)
        A1 = [[F(rng.randrange(5)) for _ in range(2)] for _ in range(2)]
        A2 = [[F(rng.randrange(5)) for _ in range(2)] for _ in range(2)]
        b1 = [F(rng.randrange(5)) for _ in range(2)]
        b2 = [F(rng.randrange(5)) for _ in range(2)]
        lhs = substitute_affine(substitute_affine(f, A2, b2), A1, b1)
        A = [[sum((A2[i][t] * A1[t][j] for t in range(2)), F.zero)
              for j in range(2)] for i in range(2)]
        b = [sum((A2[i][t] * b1[t] for t in range(2)), b2[i]) for i in range(2)]
        assert lhs == substitute_affine(f, A, b)


def F3_star_x_01():
    F = GF(3)
    return CartesianSet([mult_component(F, 2), explicit_component(F, [F(0), F(1)])])


def test_reduce_examples():
    F = GF(3)
    S_full = CartesianSet([full_component(F), full_component(F)])
    x1cube = Polynomial(F, 2, {(3, 0): 1})
    assert reduce_mod_vanishing(x1cube, S_full) == Polynomial(F, 2, {(1, 0): 1})

    S_star = CartesianSet([mult_component(F, 2), full_component(F)])
    x1sq = Polynomial(F, 2, {(2, 0): 1})
    assert reduce_mod_vanishing(x1sq, S_star) == Polynomial.constant(F, 2, 1)

    S01 = CartesianSet([explicit_component(F, [F(0), F(1)]), full_component(F)])
    assert reduce_mod_vanishing(x1sq, S01) == Polynomial(F, 2, {(1, 0): 1})


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_reduce_properties(q):
    F = GF(q)
    rng = random.Random(100 + q)
    comps = [full_component(F), torus_component(F)] if q > 2 else [full_component(F)] * 2
    S = CartesianSet(comps)
    for _ in range(60):
        f = random_poly(rng, F, 2, 2 * max(S.sizes))
        g = random_poly(rng, F, 2, 2 * max(S.sizes))
        rf = reduce_mod_vanishing(f, S)
        assert all(e[j] < S.sizes[j] for e in rf.support() for j in range(2))
        assert reduce_mod_vanishing(rf, S) == rf
        assert reduce_mod_vanishing(f + g, S) == rf + reduce_mod_vanishing(g, S)
        assert evaluate_on_set(f, S) == evaluate_on_set(rf, S)


def test_evaluation_worked_example():
    S = F3_star_x_01()
    F = S.field
    assert S.points_ix() == ((1, 0), (1, 1), (2, 0), (2, 1))
    f = Polynomial(F, 2, {(0, 1): 1, (1, 0): 2, (0, 0): 1})
    assert tuple(x.ix for x in evaluate_on_set(f, S)) == (0, 1, 2, 0)
    g = Polynomial(F, 2, {(0, 1): 1, (0, 0): 1})
    assert tuple(x.ix for x in evaluate_on_set(g, S)) == (1, 2, 1, 2)
    ones = Polynomial.constant(F, 2, 1)
    assert evaluate_on_set(ones, S) == (F.one,) * 4


def test_evaluation_is_linear_and_bijective_on_delta():
    # the evaluation matrix of the full monomial box is nonsingular
    from cartperm.codes import rank_ix
    import itertools
    for comps in [
        [full_component(GF(2))] * 2,
        [mult_component(GF(4), 3), full_component(GF(4))],
        [explicit_component(GF(5), [GF(5)(x) for x in (0, 1, 4)])],
        [full_component(GF(3)), explicit_component(GF(3), [GF(3)(0), GF(3)(1)])],
    ]:
        S = CartesianSet(comps)
        F = S.field
        rows = []
        for exp in itertools.product(*[range(s) for s in S.sizes]):
            f = Polynomial.monomial(F, exp)
            rows.append([x.ix for x in evaluate_on_set(f, S)])
        assert rank_ix(rows, F) == S.n


def test_poly_json_round_trip():
    F = GF(9)
    rng = random.Random(5)
    f = random_poly(rng, F, 3, 4)
    assert Polynomial.from_json(F, 3, f.to_json()) == f


def test_reduction_confluence_over_variable_order():
    # the per-variable rewrites commute, so eliminating variables in any
    # order yields the same canonical representative
    F = GF(4)
    S = CartesianSet([full_component(F), torus_component(F)])
    rng = random.Random(404)

    def reduce_reversed(f):
        terms = {e: c for e, c in ((e, f.coeff(e).ix) for e in f.support())}
        for j in reversed(range(f.m)):
            while True:
                bad = [e for e in terms if e[j] >= S.sizes[j]]
                if not bad:
                    break
                e = bad[0]
                c = terms.pop(e)
                for d, rc in enumerate(S.power_reduction(j, e[j])):
                    if rc:
                        e2 = e[:j] + (d,) + e[j + 1:]
                        v = F.add_ix(terms.get(e2, 0), F.mul_ix(c, rc))
                        if v:
                            terms[e2] = v
                        else:
                            terms.pop(e2, None)
        return Polynomial(F, f.m, {e: F(c) for e, c in terms.items()})

    for _ in range(40):
        f = random_poly(rng, F, 2, 7)
        assert reduce_mod_vanishing(f, S) == reduce_reversed(f)


# GF(8) under x^3 + x^2 + 1, not the default x^3 + x + 1
ENGINE_FIELDS = [GF(2), GF(3), GF(4), GF(5), GF(8), GF(9),
                 Field(2, 3, (1, 0, 1, 1))]


@st.composite
def components(draw, F):
    kind = draw(st.sampled_from(["full", "mult", "add", "explicit"]))
    if kind == "full":
        return full_component(F)
    if kind == "mult":
        return mult_component(F, draw(st.sampled_from(
            [d for d in range(1, F.q) if (F.q - 1) % d == 0])))
    elems = draw(st.lists(st.integers(1 if kind == "add" else 0, F.q - 1),
                          min_size=1, max_size=F.k if kind == "add" else F.q))
    if kind == "add":
        return additive_component(F, [F(x) for x in elems])
    return explicit_component(F, [F(x) for x in elems])


@st.composite
def pullback_cases(draw):
    F = draw(st.sampled_from(ENGINE_FIELDS))
    m = draw(st.integers(1, 3 if F.q <= 5 else 2))
    S = CartesianSet([draw(components(F)) for _ in range(m)])
    entry = st.integers(0, F.q - 1)
    T = AffineTransformation(F, [[draw(entry) for _ in range(m)] for _ in range(m)],
                             [draw(entry) for _ in range(m)])
    u = tuple(draw(st.integers(0, 2 * n)) for n in S.sizes)
    return S, T, u


@settings(derandomize=True, max_examples=100, deadline=None)
@given(pullback_cases())
def test_reduced_pullback_is_the_box_normal_form(case):
    # evaluation on S is injective on the exponent box, so landing in the box
    # with the right values pins the reduced pullback without using the
    # engine's product or reducer
    S, T, u = case
    F = S.field
    want = tuple(_monomial_value(F, T.apply_point(P), u) for P in S.points())
    via_span = Polynomial(F, S.m, affine_pullback(F, T.A, T.b, S)(u))
    via_reduce = reduce_mod_vanishing(T.of_poly(Polynomial.monomial(F, u)), S)
    for got in (via_span, via_reduce):
        assert all(e[j] < S.sizes[j] for e in got.support() for j in range(S.m))
        assert evaluate_on_set(got, S) == want
    assert via_span == via_reduce


def _monomial_value(F, point, u):
    v = F.one
    for x, d in zip(point, u):
        v = v * x ** d
    return v


def test_polynomial_operations_and_repr():
    # over GF(3) in two variables: (x1 + 1)^2 = x1^2 + 2 x1 + 1, printed in
    # graded-lex order, a coefficient other than 1 in parentheses
    F = GF(3)
    x1, x2 = Polynomial.variable(F, 2, 0), Polynomial.variable(F, 2, 1)
    one = Polynomial.constant(F, 2, 1)
    square = (x1 + one) ** 2
    assert square == Polynomial(F, 2, {(2, 0): 1, (1, 0): 2, (0, 0): 1})
    assert len(square) == 3 and bool(square)
    assert repr(square) == "1 + (2)*x1 + x1^2"
    assert repr(Polynomial.monomial(F, (1, 2), 2)) == "(2)*x1*x2^2"
    assert (x1 + x2) ** 0 == one
    with pytest.raises(ValueError, match="negative polynomial power"):
        x1 ** -1
    assert (x1 + x2) - x2 == x1
    zero = x1 - x1
    assert zero == Polynomial.zero(F, 2) and not zero and len(zero) == 0
    assert repr(zero) == "0" and repr(Polynomial.constant(F, 2, 2)) == "2"
    assert (x1 + one).scale(2) == Polynomial(F, 2, {(1, 0): 2, (0, 0): 2})
    # 3 is 0 in GF(3)
    assert (x1 + one).scale(3) == zero
