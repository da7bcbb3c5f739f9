"""Divisor closures, Borel and p-Borel movements, the p-Borel graph, and the
stable matrix pattern."""

import itertools
import random

import pytest

from cartperm.monomials import (
    MonomialSet, PBorelGraph, StableMatrixPattern, borel_movements, borel_property_witness,
    divisibility_closure, divisor_closed, has_borel_property, is_decreasing, p_borel_graph,
    p_borel_movements, random_borel_set, random_decreasing_set,
    stable_pattern, valid_p_borel_reachable,
)


def deg_leq(m, d, bound=None):
    box = bound or (d + 1,) * m
    monos = [u for u in itertools.product(*[range(n) for n in box]) if sum(u) <= d]
    return MonomialSet(m, monos, bound)


def gf9_example_set():
    # degree <= 3 together with the four admissible quartics, in two variables
    L1 = deg_leq(2, 3)
    L2 = [(0, 4), (1, 3), (3, 1), (4, 0)]
    return MonomialSet(2, set(L1.monomials) | set(L2))


def test_divisibility_closure():
    L = MonomialSet(2, [(2, 0), (1, 1)])
    got = divisibility_closure(L)
    assert got.monomials == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)}
    single = MonomialSet(2, [(0, 0)])
    assert divisibility_closure(single).monomials == {(0, 0)}
    assert not is_decreasing(MonomialSet(2, [(1, 1)]))
    assert is_decreasing(got)
    # idempotent and monotone
    assert divisibility_closure(got) == got
    bigger = MonomialSet(2, set(L.monomials) | {(0, 2)})
    assert divisibility_closure(L).monomials <= divisibility_closure(bigger).monomials


def test_divisor_closed_is_equal_to_its_closure():
    # every subset of the box {0, 1, 2} x {0, 1}, as a MonomialSet and as
    # a bare list of exponent tuples
    box = list(itertools.product(range(3), range(2)))
    closed = 0
    for size in range(len(box) + 1):
        for monos in itertools.combinations(box, size):
            L = MonomialSet(2, monos)
            want = divisibility_closure(L) == L
            assert divisor_closed(list(monos)) == is_decreasing(L) == want
            closed += want
    # the order ideals of a 3 x 2 grid, the empty one included
    assert closed == 10


def test_borel_movements():
    assert borel_movements((1, 3)) == {(2, 2)}
    assert borel_movements((4, 0)) == set()
    assert borel_movements((0, 2, 1)) == {(1, 1, 1), (0, 3, 0), (1, 2, 0)}
    # bound discards moves that would leave the box
    assert borel_movements((1, 1), bound=(2, 2)) == set()


def test_borel_property_gf9_example():
    L = gf9_example_set()
    assert not has_borel_property(L)
    assert borel_property_witness(L) == ((1, 3), (2, 2))
    assert has_borel_property(deg_leq(2, 3))
    assert has_borel_property(deg_leq(3, 2))


def test_p_borel_movements():
    assert p_borel_movements((0, 4), 1, 0, 3) == {(0, 4), (1, 3), (3, 1), (4, 0)}
    assert p_borel_movements((0, 3), 1, 0, 3) == {(0, 3), (3, 0)}
    assert p_borel_movements((2, 1), 0, 1, 2) == {(2, 1), (0, 3)}
    with pytest.raises(ValueError):
        p_borel_movements((0, 1), 0, 1, 3)
    with pytest.raises(ValueError):
        p_borel_movements((1, 1), 0, 0, 3)
    # bound discards the escaping targets only
    assert p_borel_movements((0, 4), 1, 0, 3, bound=(4, 5)) == {(0, 4), (1, 3), (3, 1)}


def test_p_borel_graph_gf9_example():
    L = gf9_example_set()
    g = p_borel_graph(L, 3)
    assert g.has_edge(1, 0)
    assert g.has_edge(0, 1)
    # the missing quartic kills both edges once it is required
    L_bad = MonomialSet(2, set(L.monomials) - {(4, 0)})
    g2 = p_borel_graph(L_bad, 3)
    assert not g2.has_edge(1, 0)
    # first violation in graded-lex scan order: (3,1) -> (4,0) with l=1
    assert g2.witnesses[(1, 0)] == ((3, 1), 1)


def test_p_borel_graph_vacuous_and_trivial():
    ones = MonomialSet(3, [(0, 0, 0)])
    g = p_borel_graph(ones, 2)
    assert len(g.edges) == 6
    L = divisibility_closure(MonomialSet(2, [(1, 3)]))
    g2 = p_borel_graph(L, 2)
    # exhaustive quantifier check against a direct recomputation
    for i, j in ((0, 1), (1, 0)):
        expect = all(
            v in L.monomials
            for u in L.monomials if u[i]
            for v in p_borel_movements(u, i, j, 2, L.bound))
        assert g2.has_edge(i, j) == expect


def test_graph_self_consistency():
    rng = random.Random(42)
    for _ in range(30):
        bound = (rng.choice([2, 3, 4]), rng.choice([2, 3, 4]))
        L = random_decreasing_set(rng, bound)
        p = rng.choice([2, 3])
        g = p_borel_graph(L, p)
        for (i, j) in g.edges:
            for u in L.monomials:
                if u[i]:
                    for v in p_borel_movements(u, i, j, p, L.bound):
                        assert v in L.monomials


def test_valid_reachable():
    L = gf9_example_set()
    reach = valid_p_borel_reachable(L, (0, 4), p=3)
    assert (4, 0) in reach
    assert reach <= L.monomials
    ones = MonomialSet(2, [(0, 0)])
    assert valid_p_borel_reachable(ones, (0, 0), p=3) == {(0, 0)}
    with pytest.raises(ValueError):
        valid_p_borel_reachable(L, (2, 2), p=3)
    # no edges into or out of the variables of u: only u itself
    L2 = MonomialSet(2, [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)])
    g2 = p_borel_graph(L2, 2)
    if not g2.edges:
        assert valid_p_borel_reachable(L2, (1, 1), graph=g2) == {(1, 1)}
    # reachable sets of decreasing L with a full graph stay inside L
    rng = random.Random(9)
    for _ in range(20):
        L3 = random_decreasing_set(rng, (3, 3))
        g3 = p_borel_graph(L3, 3)
        for u in L3.monomials:
            assert valid_p_borel_reachable(L3, u, graph=g3) <= L3.monomials


def test_stable_pattern():
    L = deg_leq(2, 2, bound=(3, 3))
    pat = stable_pattern(L, 2)
    assert pat.allows(1, 0) and pat.allows(0, 0) and pat.allows(1, 1)
    ones = MonomialSet(2, [(0, 0)])
    assert stable_pattern(ones, 2).mask == ((True, True), (True, True))
    g = p_borel_graph(L, 2)
    assert pat.allows(0, 1) == g.has_edge(0, 1)


def test_borel_property_implies_lower_edges_for_small_degree():
    # below the characteristic the digitwise order is the plain order, so a
    # Borel-closed set has every downward edge
    rng = random.Random(77)
    for p in (5, 7):
        for _ in range(20):
            L = random_borel_set(rng, (p - 1, p - 1))
            if max((sum(u) for u in L.monomials), default=0) >= p:
                continue
            g = p_borel_graph(L, p)
            for i in range(2):
                for j in range(i):
                    assert g.has_edge(i, j)


def test_random_corpora_shapes():
    rng = random.Random(123)
    for _ in range(25):
        bound = (rng.choice([2, 3, 4]),) * 2
        L = random_decreasing_set(rng, bound)
        assert is_decreasing(L)
        assert all(L.in_bound(u) for u in L.monomials)
        B = random_borel_set(rng, bound)
        assert is_decreasing(B) and has_borel_property(B)


def test_monomial_set_json():
    L = gf9_example_set()
    assert MonomialSet.from_json(L.to_json()) == L
    bounded = MonomialSet(2, [(1, 0)], bound=(2, 2))
    back = MonomialSet.from_json(bounded.to_json())
    assert back == bounded and back.bound == (2, 2)
    g = p_borel_graph(L, 3)
    js = g.to_json()
    assert js["adjacency"]["1"] == [0] and js["adjacency"]["0"] == [1]


def test_bound_violations_rejected():
    with pytest.raises(ValueError):
        MonomialSet(2, [(2, 0)], bound=(2, 2))
    with pytest.raises(ValueError):
        MonomialSet(2, [(1, 0, 0)])


def test_monomial_set_iterates_in_graded_lex_order():
    L = MonomialSet(2, [(0, 2), (1, 1), (0, 0), (2, 0), (1, 0)])
    # degree first, ties with the larger x1 exponent first
    assert list(L) == [(0, 0), (1, 0), (2, 0), (1, 1), (0, 2)]
    assert (1, 1) in L and [1, 1] in L and (0, 1) not in L


def test_graph_and_pattern_equality_and_repr():
    # a graph is its m, p and edges; the witnesses of absent edges do not count
    g = PBorelGraph(2, 2, [(0, 1)])
    assert g == PBorelGraph(2, 2, {(0, 1)}, {(1, 0): ((0, 1), 1)})
    assert g != PBorelGraph(3, 2, [(0, 1)]) and g != PBorelGraph(2, 3, [(0, 1)])
    assert g != PBorelGraph(2, 2, []) and g != "graph"
    assert repr(g) == "PBorelGraph(m=2, edges=[(0, 1)])"
    P = StableMatrixPattern(2, [[1, 1], [0, 1]])
    assert P == StableMatrixPattern(2, [[True, 5], [0, True]])
    assert P != StableMatrixPattern(2, [[1, 0], [0, 1]]) and P != "pattern"
    assert repr(P) == "StableMatrixPattern(11, 01)"


def test_reachable_needs_a_graph_or_a_prime():
    L = divisibility_closure(MonomialSet(2, [(1, 1)]))
    with pytest.raises(ValueError, match="need either a graph or a prime"):
        valid_p_borel_reachable(L, (1, 1))
