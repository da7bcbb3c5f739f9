"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every numeric expectation is exact (field arithmetic has no tolerance);
runtime ceilings are asserted where the criterion states one.  Criterion 5
asserts the affine permutation group of the GF(16) additive triple derived by
hand: the 64 translations times the three middle-line scalars diag(1, d, 1),
d in F4*, 192 maps in all.  The reference count of 64 translations alone is
an undercount; the expected set is built from the field and the point set,
never from oracle output.
"""

import functools
import itertools
import math
import random
import time

import pytest

from cartperm.affine import (
    AffineTransformation, SpanChecker, stabilizes_set,
)
from cartperm.codes import build_code
from cartperm.families import (
    AdditivePowerFamily, MixedFullTorusFamily,
    MultProductFamily, enumerate_LTA, enumerate_ML_invertible, lta_count,
)
from cartperm.field import GF, leq_p
from cartperm.monomials import (
    MonomialSet, borel_property_witness, divisibility_closure,
    random_borel_set, random_decreasing_set,
)
from cartperm.oracle import (
    oracle_affine_perm_group, oracle_stabilizers, two_route_agreement,
    verify_characterization,
)
from cartperm.points import (
    CartesianSet, additive_component, explicit_component, full_component,
    mult_component, torus_component,
)
from cartperm.poly import Polynomial, evaluate_on_set, reduce_mod_vanishing, substitute_affine

SEED = 20260809


def criterion(n, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {n} ({desc}): FAIL [{time.perf_counter() - t0:.2f}s]")
                raise
            print(f"CRITERION {n} ({desc}): PASS [{time.perf_counter() - t0:.2f}s]")
        return wrapper
    return deco


# -- shared configurations ---------------------------------------------------

def gf16_triple():
    F = GF(16)
    a = F.primitive_element()
    G1 = additive_component(F, [F.one, a, a * a])
    G2 = additive_component(F, [a ** 6, a ** 11])
    G3 = additive_component(F, [F.one])
    S = CartesianSet([G1, G2, G3])
    L = divisibility_closure(MonomialSet(3, [(2, 0, 0), (1, 1, 0)], bound=S.sizes))
    return F, S, L


@pytest.fixture(scope="module")
def triple_stabilizers():
    F, S, L = gf16_triple()
    stabs = oracle_stabilizers(S)
    return F, S, L, stabs


@pytest.fixture(scope="module")
def containment_data():
    """Per (q, m): the full stabilizer list of the affine space on F_q^m and
    the seeded random monomial sets shared by criteria 6 and 8."""
    rng = random.Random(SEED)
    data = {}
    for (q, m) in ((2, 2), (2, 3), (3, 2), (4, 2)):
        F = GF(q)
        S = CartesianSet([full_component(F)] * m)
        stabs = oracle_stabilizers(S)
        borel_sets = [random_borel_set(rng, S.sizes) for _ in range(20)]
        decreasing_sets = [random_decreasing_set(rng, S.sizes) for _ in range(20)]
        data[(q, m)] = (F, S, stabs, borel_sets, decreasing_sets)
    return data


def char7_configs():
    F3, F4, F5, F9 = GF(3), GF(4), GF(5), GF(9)
    G4 = additive_component(F4, [F4.one])
    return [
        ("torus-gf3", CartesianSet([torus_component(F3)] * 2),
         MultProductFamily, 8),
        ("torus-gf4", CartesianSet([torus_component(F4)] * 2),
         MultProductFamily, 18),
        ("mixed-orders-gf5",
         CartesianSet([mult_component(F5, 2), mult_component(F5, 4)]),
         MultProductFamily, 8),
        ("mixed-orders-gf9",
         CartesianSet([mult_component(F9, 2), mult_component(F9, 4)]),
         MultProductFamily, 8),
        ("full-x-torus-gf3",
         CartesianSet([full_component(F3), torus_component(F3)]),
         MixedFullTorusFamily, 36),
        ("full2-x-torus-gf3",
         CartesianSet([full_component(F3), full_component(F3), torus_component(F3)]),
         MixedFullTorusFamily, 7776),
        ("subfield-square-gf4", CartesianSet([G4, G4]),
         AdditivePowerFamily, 24),
    ]


# -- criteria ------------------------------------------------------------------

@criterion(1, "shear counterexample, exact vectors")
def test_criterion_1_shear_example():
    F = GF(3)
    S = CartesianSet([mult_component(F, 2), explicit_component(F, [F(0), F(1)])])
    f = Polynomial(F, 2, {(0, 1): 1, (1, 0): 2, (0, 0): 1})
    T = AffineTransformation(F, [[1, 0], [1, 1]])
    S.points()                      # canonical order materialized outside timing
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        ev_f = evaluate_on_set(f, S)
        g = T.of_poly(f)
        ev_g = evaluate_on_set(g, S)
        stab = stabilizes_set(T, S)
        best = min(best, time.perf_counter() - t0)
    assert tuple(x.ix for x in ev_f) == (0, 1, 2, 0)
    assert g == Polynomial(F, 2, {(0, 1): 1, (0, 0): 1})
    assert tuple(x.ix for x in ev_g) == (1, 2, 1, 2)
    assert stab is False
    assert best < 0.001, f"took {best * 1e3:.3f} ms"


@criterion(2, "quartic pullbacks over GF(9), all 576 maps")
def test_criterion_2_gf9_expansions():
    t0 = time.perf_counter()
    F = GF(9)
    S = CartesianSet([full_component(F), full_component(F)])
    monos = [u for u in itertools.product(range(9), repeat=2) if sum(u) <= 3]
    monos += [(0, 4), (1, 3), (3, 1), (4, 0)]
    L = MonomialSet(2, monos, bound=S.sizes)
    wit = borel_property_witness(L)
    assert wit is not None and wit[1] == (2, 2)
    checker = SpanChecker(L, S)
    count = 0
    zero = F.zero
    for av in range(1, 9):
        for bv in range(9):
            for cv in range(1, 9):
                count += 1
                a_, b_, c_ = F(av), F(bv), F(cv)
                A = [[a_, zero], [b_, c_]]
                expect = {
                    (0, 4): {(4, 0): b_ ** 4, (3, 1): b_ ** 3 * c_,
                             (1, 3): b_ * c_ ** 3, (0, 4): c_ ** 4},
                    (1, 3): {(4, 0): a_ * b_ ** 3, (1, 3): a_ * c_ ** 3},
                    (3, 1): {(4, 0): a_ ** 3 * b_, (3, 1): a_ ** 3 * c_},
                    (4, 0): {(4, 0): a_ ** 4},
                }
                for u, terms in expect.items():
                    got = substitute_affine(Polynomial.monomial(F, u), A, [zero, zero])
                    assert got == Polynomial(F, 2, terms), (u, av, bv, cv)
                assert checker.check(AffineTransformation(F, A))
    assert count == 576
    assert time.perf_counter() - t0 < 10


@criterion(3, "transporter table in GF(16), nine entries")
def test_criterion_3_transporter_table():
    t0 = time.perf_counter()
    from cartperm.points import transporter_space
    F = GF(16)
    a = F.primitive_element()
    assert F.irreducible == (1, 1, 0, 0, 1)
    G1 = additive_component(F, [F.one, a, a * a])
    G2 = additive_component(F, [a ** 6, a ** 11])
    G3 = additive_component(F, [F.one])
    F4 = frozenset(F.subfield_elements(2))
    F2 = frozenset([F.zero, F.one])
    expected = [
        [F2, frozenset(a.inverse() * x for x in F4), frozenset(G1.elements)],
        [frozenset([F.zero]), F4, frozenset(G2.elements)],
        [frozenset([F.zero]), frozenset([F.zero]), frozenset(G3.elements)],
    ]
    comps = (G1, G2, G3)
    for i in range(3):
        for j in range(3):
            assert transporter_space(comps[i], comps[j]) == expected[i][j], (i, j)
    assert time.perf_counter() - t0 < 1


@criterion(4, "scaled subfield line in GF(16), 12 bijections")
def test_criterion_4_scaled_line():
    t0 = time.perf_counter()
    from cartperm.points import classify_subset, stabilizer_subfield
    F = GF(16)
    a = F.primitive_element()
    G = classify_subset(F, [F.zero, a ** 6, a ** 11, a ** 6 + a ** 11])
    assert G.kind == "add" and len(G.basis) == 2
    assert G.element_set() == frozenset((a * x).ix for x in F.subfield_elements(2))
    assert stabilizer_subfield(G) == 2
    S = CartesianSet([G])
    stabs = oracle_stabilizers(S)      # all 256 maps a*x+b
    assert len(stabs) == 12
    f4_star = {x.ix for x in F.subfield_elements(2) if x}
    expect = {(((av,),), (bv,)) for av in f4_star for bv in G.element_set()}
    assert {(T.A, T.b) for T in stabs} == expect
    assert time.perf_counter() - t0 < 1


@criterion(5, "additive triple in GF(16): 64 translations x 3 middle-line scalars = 192 maps")
def test_criterion_5_additive_triple_translations(triple_stabilizers):
    t0 = time.perf_counter()
    F, S, L, stabs = triple_stabilizers
    group = oracle_affine_perm_group(L, S, stabilizers=stabs)
    translations = {(T.A, T.b) for T in group if T.is_translation()}
    assert len(translations) == 64
    assert {T.b for T in group if T.is_translation()} == set(S.points_ix())
    assert time.perf_counter() - t0 < 120
    # derived group: x -> diag(1, d, 1) x + b with d in F4*, b in S.  G2 is
    # a*F4, so d*G2 = G2 and S is preserved; x2 -> d*x2 scales each of
    # 1, x1, x1^2, x2, x1*x2 by a constant, so span(L) is preserved.
    f4_star = [x for x in F.subfield_elements(2) if x]
    G2 = S.components[1]
    for d in f4_star:
        assert {(d * y).ix for y in G2.elements} == G2.element_set(), d
    derived = {(((1, 0, 0), (0, d.ix, 0), (0, 0, 1)), b)
               for d in f4_star for b in S.points_ix()}
    assert len(derived) == 192
    got = {(T.A, T.b) for T in group}
    assert got == derived and len(group) == len(derived), (
        f"oracle finds {len(group)} maps ({len(got)} distinct); "
        f"derived maps missing from the oracle group: {sorted(derived - got)}; "
        f"oracle maps outside the derived set: {sorted(got - derived)}")


@criterion(6, "family containments on random monomial sets")
def test_criterion_6_family_containments(containment_data):
    t0 = time.perf_counter()
    for (q, m), (F, S, stabs, borel_sets, decreasing_sets) in containment_data.items():
        for L in borel_sets:
            group = oracle_affine_perm_group(L, S, stabilizers=stabs)
            gkeys = {(T.A, T.b) for T in group}
            assert lta_count(F, m) == sum(1 for _ in enumerate_LTA(F, m))
            for T in enumerate_LTA(F, m):
                assert (T.A, T.b) in gkeys, (q, m, L.sorted(), T)
        for L in decreasing_sets:
            group = oracle_affine_perm_group(L, S, stabilizers=stabs)
            gkeys = {(T.A, T.b) for T in group}
            for T in enumerate_ML_invertible(L, F.p, F):
                assert (T.A, T.b) in gkeys, (q, m, L.sorted(), T)
    assert time.perf_counter() - t0 < 60


@criterion(7, "stabilizer characterizations, exact set equality")
def test_criterion_7_characterizations():
    t0 = time.perf_counter()
    for label, S, family_cls, expect_count in char7_configs():
        fam = family_cls(S)
        assert fam.count() == expect_count, label
        rep = verify_characterization(fam, S, label=label)
        assert rep.relation == "equal", (label, rep.to_json())
        assert rep.oracle_count == expect_count, label
    assert time.perf_counter() - t0 < 900


@criterion(8, "two-route agreement on every stabilizer of criteria 5-7")
def test_criterion_8_two_route_agreement(triple_stabilizers, containment_data):
    t0 = time.perf_counter()
    F, S, L, stabs = triple_stabilizers
    agree, dis = two_route_agreement(L, S, stabs)
    assert agree, dis[:3]
    for (q, m), (Fq, Sq, stabsq, borel_sets, decreasing_sets) in containment_data.items():
        for L6 in borel_sets + decreasing_sets:
            agree, dis = two_route_agreement(L6, Sq, stabsq)
            assert agree, (q, m, L6.sorted(), dis[:3])
    for label, S7, _, _ in char7_configs():
        deg1 = [(0,) * S7.m] + [tuple(1 if t == i else 0 for t in range(S7.m))
                                for i in range(S7.m)]
        L7 = MonomialSet(S7.m, deg1, bound=S7.sizes)
        stabs7 = oracle_stabilizers(S7)
        agree, dis = two_route_agreement(L7, S7, stabs7)
        assert agree, (label, dis[:3])
    assert time.perf_counter() - t0 < 60


@criterion(9, "property suites: axioms, digits, reduction, dimension")
def test_criterion_9_property_suites():
    rng = random.Random(SEED)
    # field axioms and Frobenius additivity, exhaustive pairs for q <= 64
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64):
        F = GF(q)
        els = F.elements()
        one, zero, p = F.one, F.zero, F.p
        for x in els:
            if x:
                assert x * x.inverse() == one
                assert x ** (q - 1) == one
            for y in els:
                assert x + y == y + x
                assert x * y == y * x
                assert (x + y) ** p == x ** p + y ** p
        for _ in range(100):
            x, y, z = (F(rng.randrange(q)) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    for p in (2, 3, 5, 7):
        for b in range(65):
            for a in range(b + 1):
                assert leq_p(a, b, p) == (math.comb(b, a) % p != 0)

    # reduction idempotence and linearity, 1000 random polynomials per field
    for q, comps in ((2, None), (3, None), (4, None), (9, None)):
        F = GF(q)
        comps = [full_component(F)] if q == 2 else [full_component(F),
                                                    torus_component(F)]
        S = CartesianSet(comps)
        m = S.m
        for _ in range(1000):
            f = Polynomial(F, m, {
                tuple(rng.randrange(2 * max(S.sizes)) for _ in range(m)):
                    F(rng.randrange(q))
                for _ in range(4)})
            g = Polynomial(F, m, {
                tuple(rng.randrange(2 * max(S.sizes)) for _ in range(m)):
                    F(rng.randrange(q))
                for _ in range(3)})
            rf = reduce_mod_vanishing(f, S)
            assert reduce_mod_vanishing(rf, S) == rf
            assert reduce_mod_vanishing(f + g, S) == rf + reduce_mod_vanishing(g, S)
            assert all(e[j] < S.sizes[j] for e in rf.support() for j in range(m))

    # dimension equals the monomial count on 200 random configurations
    built = 0
    while built < 200:
        q = rng.choice((2, 3, 4, 5))
        F = GF(q)
        m = rng.choice((1, 2))
        comps = []
        for _ in range(m):
            kind = rng.choice(("full", "torus", "pair"))
            if kind == "torus" and q > 2:
                comps.append(torus_component(F))
            elif kind == "pair":
                comps.append(explicit_component(F, [F(0), F(1)]))
            else:
                comps.append(full_component(F))
        S = CartesianSet(comps)
        L = random_decreasing_set(rng, S.sizes)
        assert build_code(L, S).dimension() == len(L)
        built += 1
