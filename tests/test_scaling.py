"""The diagonal-scaling lemma of the span route.  x^v(diag(lambda) y) =
lambda^v x^v(y), so a map T and diag(lambda) T, lambda an invertible
diagonal, have proportional reduced pullbacks and keep the same spans,
whether or not they keep S.  The span route (_span_ok, _span_scan) and
reduced_pullbacks therefore run once per monic representative
(oracle._monic: each row divided by its first nonzero entry).  These tests
hold them to the scalar routes, SpanChecker and substitute_affine followed
by reduce_mod_vanishing, which do not use the lemma."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cartperm import oracle
from cartperm.affine import AffineTransformation, SpanChecker
from cartperm.field import GF, Field
from cartperm.monomials import MonomialSet, divisibility_closure
from cartperm.oracle import keeps_span, oracle_stabilizers, reduced_pullbacks
from cartperm.points import (
    CartesianSet, explicit_component, full_component, mult_component,
)
from cartperm.poly import Polynomial, reduce_mod_vanishing, substitute_affine
from test_poly import components

# characteristic 2 and odd, prime and not, and GF(8) under x^3 + x^2 + 1
FIELDS = [GF(2), GF(3), GF(4), GF(5), GF(7), GF(9), Field(2, 3, (1, 0, 1, 1))]


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    """An empty memo for each test, put back afterwards."""
    monkeypatch.setattr(oracle, "_LAST", oracle._Last())


def monic_row(F, row):
    """A row divided by its first nonzero entry, by the scalar arithmetic;
    a zero row as it is."""
    lead = next((x for x in row if x), 0)
    return tuple(F.mul_ix(F.inv_ix(lead), x) for x in row) if lead else tuple(row)


def scaled(T, lam):
    """diag(lam) T: row i of [A | b] times lam[i]."""
    F = T.field
    return AffineTransformation(F, [[F.mul_ix(c, x) for x in row] for c, row in zip(lam, T.A)],
                                [F.mul_ix(c, x) for c, x in zip(lam, T.b)])


@st.composite
def rows(draw, F, m):
    """One row [a | c] of a map: random, zero, constant (its first nonzero
    entry in b) or one variable with an offset."""
    entry, unit = st.integers(0, F.q - 1), st.integers(1, F.q - 1)
    kind = draw(st.sampled_from(["random", "random", "zero", "constant", "variable"]))
    if kind == "random":
        return [draw(entry) for _ in range(m + 1)]
    row = [0] * (m + 1)
    if kind == "constant":
        row[m] = draw(unit)
    elif kind == "variable":
        row[draw(st.integers(0, m - 1))], row[m] = draw(unit), draw(entry)
    return row


@st.composite
def maps(draw, F, m, count):
    """count maps whose rows are drawn by rows(), singular ones among them."""
    out = []
    for _ in range(count):
        ab = [draw(rows(F, m)) for _ in range(m)]
        out.append(AffineTransformation(F, [r[:m] for r in ab], [r[m] for r in ab]))
    return out


@st.composite
def point_sets(draw):
    """A field of FIELDS and a point set of m <= 3 full, mult, additive or
    explicit components of it (m <= 2 past q = 5)."""
    F = draw(st.sampled_from(FIELDS))
    return CartesianSet([draw(components(F))
                         for _ in range(draw(st.integers(1, 3 if F.q <= 5 else 2)))])


@st.composite
def lemma_cases(draw):
    """A point set, a subset L of its box (its divisor closure half the
    time), maps, and an invertible diagonal per map."""
    S = draw(point_sets())
    F, m = S.field, S.m
    box = list(itertools.product(*[range(n) for n in S.sizes]))
    L = MonomialSet(m, draw(st.lists(st.sampled_from(box), max_size=6)), bound=S.sizes)
    if draw(st.booleans()):
        L = divisibility_closure(L)
    ts = draw(maps(F, m, draw(st.integers(1, 6))))
    unit = st.integers(1, F.q - 1)
    lams = [[draw(unit) for _ in range(m)] for _ in ts]
    return S, L, ts, lams


def mu1_offset_case():
    """L = {x1^2} on GF(3) x {1}, not decreasing.  On S, x2 = 1, so the
    row x1 + x2 + 2 is x1 and keeps the span, and 2 x1 + 2 x2 + 1 is the
    same map scaled by 2.  Scaling its A block alone gives x1 + x2 + 1,
    which is x1 + 2 on S and sends x1^2 to x1^2 + x1 + 1: the offset decides
    the verdict through the component with one point."""
    F = GF(3)
    S = CartesianSet([full_component(F), mult_component(F, 1)])
    ts = [AffineTransformation(F, [[1, 1], [0, 1]], [2, 0]),
          AffineTransformation(F, [[2, 2], [0, 1]], [1, 0])]
    return S, MonomialSet(2, [(2, 0)], bound=S.sizes), ts, [[2, 1], [2, 2]]


def singular_case():
    """Singular maps with zero and constant rows over GF(4) mu3 x
    explicit{0, 1, a}, L decreasing, the constant rows' lead in b."""
    F = GF(4)
    S = CartesianSet([mult_component(F, 3), explicit_component(F, [F(0), F(1), F(2)])])
    L = divisibility_closure(MonomialSet(2, [(1, 1), (2, 0)], bound=S.sizes))
    ts = [AffineTransformation(F, [[0, 0], [2, 3]], [0, 1]),
          AffineTransformation(F, [[0, 0], [0, 0]], [3, 0]),
          AffineTransformation(F, [[2, 0], [2, 0]], [1, 3])]
    return S, L, ts, [[2, 3], [3, 3], [2, 2]]


def non_decreasing_case():
    """L = {1, x1^2, x1 x2} on GF(5) full x mu4, not decreasing, with
    offsets in every row."""
    F = GF(5)
    S = CartesianSet([full_component(F), mult_component(F, 4)])
    L = MonomialSet(2, [(0, 0), (2, 0), (1, 1)], bound=S.sizes)
    ts = [AffineTransformation(F, [[2, 0], [0, 3]], [0, 0]),
          AffineTransformation(F, [[3, 0], [0, 1]], [4, 0]),
          AffineTransformation(F, [[1, 4], [0, 2]], [3, 1])]
    return S, L, ts, [[4, 2], [3, 2], [2, 3]]


def check_lemma(S, L, ts, lams):
    """keeps_span on the maps, on their scalings and on both in one array
    agrees with SpanChecker on the maps, and so does SpanChecker on the
    scalings."""
    others = [scaled(T, lam) for T, lam in zip(ts, lams)]
    checker = SpanChecker(L, S)
    want = [checker.check(T) for T in ts]
    assert [checker.check(T) for T in others] == want
    for batch in (ts, others, ts + others):
        assert keeps_span(L, S, batch).tolist() == want * (len(batch) // len(ts))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(lemma_cases())
@example(mu1_offset_case())
@example(singular_case())
@example(non_decreasing_case())
def test_scaled_maps_keep_the_same_spans(case):
    check_lemma(*case)


def b_unscaled(kern, ab):
    """oracle._monic with a slip: the A block of each row divided by its
    lead, the offset b left as it is."""
    m = ab.shape[2] - 1
    A = ab[:, :, :m]
    lead = np.take_along_axis(A, (A != 0).argmax(axis=2)[:, :, None], axis=2)
    out = ab.copy()
    out[:, :, :m] = kern.mul.take(kern.flat(kern.inv[lead], A))
    return out, lead[:, :, 0]


def test_lemma_check_catches_a_helper_that_leaves_b_unscaled(monkeypatch):
    monkeypatch.setattr(oracle, "_monic", b_unscaled)
    with pytest.raises(AssertionError):
        check_lemma(*mu1_offset_case())


def test_monic_matches_scalar_division():
    # every row of GF(4)^2 and GF(5)^2, the zero rows among them, as one
    # (N, 2, 3) array
    for F in (GF(4), GF(5)):
        ab = np.array(list(itertools.product(range(F.q), repeat=6)),
                      dtype=np.uint16).reshape(-1, 2, 3)
        monic, lead = oracle._monic(F.np_tables(), ab)
        assert monic.tolist() == [[list(monic_row(F, row)) for row in x] for x in ab.tolist()]
        assert lead.tolist() == [[next((v for v in row if v), 0) for row in x]
                                 for x in ab.tolist()]


@st.composite
def pullback_cases(draw):
    """A point set, maps (and some of their scalings) and monomials of its
    box."""
    S = draw(point_sets())
    F, m = S.field, S.m
    ts = draw(maps(F, m, draw(st.integers(1, 4))))
    unit = st.integers(1, F.q - 1)
    ts += [scaled(T, [draw(unit) for _ in range(m)]) for T in ts if draw(st.booleans())]
    box = list(itertools.product(*[range(n) for n in S.sizes]))
    return S, ts, draw(st.lists(st.sampled_from(box), min_size=1, max_size=5))


def scalar_pullbacks(S, ts, monomials):
    """reduced_pullbacks by the scalar engine: substitute_affine, then
    reduce_mod_vanishing, one map and one monomial at a time."""
    F = S.field
    out = np.zeros((len(ts), len(monomials), *S.sizes), dtype=np.uint16)
    for t, T in enumerate(ts):
        for k, u in enumerate(monomials):
            f = reduce_mod_vanishing(substitute_affine(Polynomial.monomial(F, u), T.A, T.b), S)
            for e in f.support():
                out[(t, k) + e] = f.coeff(e).ix
    return out


def reducing_case(q):
    """Maps with offsets, a zero row, a constant row and a scaling of
    another map, over explicit{0, 1, -1} x mu_r (r = 3 for q = 4, else 2),
    where the pullbacks of the whole box reduce."""
    F = GF(q)
    S = CartesianSet([explicit_component(F, [F(0), F(1), -F(1)]),
                      mult_component(F, 3 if q == 4 else 2)])
    T = AffineTransformation(F, [[1, q - 1], [2, 1]], [1, q - 1])
    ts = [T, scaled(T, [q - 1, 2]),
          AffineTransformation(F, [[0, 0], [1, 1]], [0, 1]),
          AffineTransformation(F, [[0, 0], [q - 1, 0]], [q - 1, 0]),
          AffineTransformation(F, [[0, 1], [0, 0]], [0, q - 1])]
    return S, ts, list(itertools.product(*[range(n) for n in S.sizes]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(pullback_cases())
@example(reducing_case(4))
@example(reducing_case(5))
@example(reducing_case(7))
def test_reduced_pullbacks_match_scalar_substitution(case):
    S, ts, monomials = case
    got = reduced_pullbacks(S, ts, monomials)
    assert got.shape == (len(ts), len(monomials), *S.sizes)
    assert np.array_equal(got, scalar_pullbacks(S, ts, monomials))


def test_reduced_pullbacks_of_no_monomials():
    S = CartesianSet([full_component(GF(3))] * 2)
    stabs = oracle_stabilizers(S)
    got = reduced_pullbacks(S, stabs, [])
    assert got.shape == (432, 0, 3, 3) and got.dtype == np.uint16
    assert reduced_pullbacks(S, [], [(1, 0)]).shape == (0, 1, 3, 3)
